"""Machine execution semantics, locks, crashes, checkpoints, determinism."""

import gc
import random
import weakref

import pytest

from repro.engine import DetectorEngine
from repro.lang import compile_source
from repro.machine import (
    EV_ACQUIRE, EV_RELEASE, Machine, MachineObserver, MachineStatus,
    RandomScheduler, ReplayScheduler, RoundRobinScheduler, Scheduler,
    SerialScheduler,
)
from repro.trace import TraceRecorder
from repro.workloads import apache_log
from tests.conftest import COUNTER_LOCKED, COUNTER_RACE, run_program


class TestBasicExecution:
    def test_finished_status(self):
        m, _ = run_program("shared int x; thread t() { x = 1; }", [("t", ())])
        assert m.status == MachineStatus.FINISHED

    def test_step_limit_status(self):
        src = "shared int x; thread t() { while (1) { x = x + 1; } }"
        m, _ = run_program(src, [("t", ())], max_steps=100)
        assert m.status == MachineStatus.STEP_LIMIT
        assert m.steps == 100

    def test_wrong_thread_name_rejected(self):
        prog = compile_source("thread t() { }")
        with pytest.raises(KeyError):
            Machine(prog, [("missing", ())])

    def test_wrong_arity_rejected(self):
        prog = compile_source("thread t(int a) { }")
        with pytest.raises(ValueError):
            Machine(prog, [("t", ())])

    def test_no_threads_rejected(self):
        prog = compile_source("thread t() { }")
        with pytest.raises(ValueError):
            Machine(prog, [])

    def test_multiple_instances_of_one_body(self):
        src = "shared int r; thread t(int k) { r = r + k; }"
        m, _ = run_program(src, [("t", (1,)), ("t", (2,)), ("t", (4,))],
                           switch_prob=1.0)
        # additions may race, but with serial-ish scheduling sum holds:
        assert m.read_global("r") > 0

    def test_frames_do_not_overlap(self):
        src = ("shared int r0; shared int r1;"
               "thread t(int tid) { int mine = tid * 100;"
               " if (tid == 0) { r0 = mine; } else { r1 = mine; } }")
        m, _ = run_program(src, [("t", (0,)), ("t", (1,))])
        assert m.read_global("r0") == 0
        assert m.read_global("r1") == 100

    def test_memory_fault_crashes_thread(self):
        src = ("shared int a[4]; shared int n = 100;"
               "thread t() { a[n] = 1; }")
        m, _ = run_program(src, [("t", ())])
        assert m.crashed
        assert "memory fault" in m.crashes[0].reason

    def test_negative_index_faults(self):
        src = "shared int a[4]; shared int n = -99; thread t() { a[n] = 1; }"
        m, _ = run_program(src, [("t", ())])
        assert m.crashed

    def test_crash_does_not_stop_other_threads(self):
        src = ("shared int r; thread bad() { assert(0); }"
               "thread good() { int i = 0;"
               " while (i < 10) { r = r + 1; i = i + 1; } }")
        m, _ = run_program(src, [("bad", ()), ("good", ())])
        assert m.crashed
        assert m.read_global("r") == 10
        assert m.status == MachineStatus.FINISHED


class TestLocks:
    def test_mutual_exclusion(self):
        m, _ = run_program(COUNTER_LOCKED, [("worker", (50,)), ("worker", (50,))],
                           seed=9, switch_prob=0.5)
        assert m.read_global("counter") == 100

    def test_race_without_lock_loses_updates(self):
        # with aggressive switching some interleaving loses updates
        lost_any = False
        for seed in range(5):
            m, _ = run_program(COUNTER_RACE, [("worker", (50,)), ("worker", (50,))],
                               seed=seed, switch_prob=0.6)
            if m.read_global("counter") < 100:
                lost_any = True
        assert lost_any

    def test_blocked_thread_waits(self):
        src = ("shared int r; lock m;"
               "thread holder() { acquire(m);"
               " int i = 0; while (i < 20) { i = i + 1; }"
               " r = 1; release(m); }"
               "thread waiter() { acquire(m); assert(r == 1); release(m); }")
        # force waiter to try the lock while holder owns it
        prog = compile_source(src)
        m = Machine(prog, [("holder", ()), ("waiter", ())],
                    scheduler=RoundRobinScheduler(quantum=2))
        m.run()
        assert not m.crashed
        assert m.status == MachineStatus.FINISHED

    def test_self_deadlock_detected(self):
        src = "lock m; thread t() { acquire(m); acquire(m); }"
        m, _ = run_program(src, [("t", ())])
        assert m.status == MachineStatus.DEADLOCK

    def test_cross_deadlock_detected(self):
        src = ("lock a; lock b;"
               "thread t1() { acquire(a);"
               " int i = 0; while (i < 50) { i = i + 1; } acquire(b); }"
               "thread t2() { acquire(b);"
               " int i = 0; while (i < 50) { i = i + 1; } acquire(a); }")
        prog = compile_source(src)
        m = Machine(prog, [("t1", ()), ("t2", ())],
                    scheduler=RoundRobinScheduler(quantum=5))
        m.run()
        assert m.status == MachineStatus.DEADLOCK

    def test_lock_events_emitted(self):
        m, trace = run_program(
            "lock m; thread t() { acquire(m); release(m); }",
            [("t", ())], record=True)
        kinds = [e.kind for e in trace]
        assert EV_ACQUIRE in kinds
        assert EV_RELEASE in kinds


class TestDeterminism:
    def _run(self, seed):
        m, trace = run_program(COUNTER_RACE, [("worker", (20,)), ("worker", (20,))],
                               seed=seed, record=True)
        return m.read_global("counter"), [(e.tid, e.pc) for e in trace]

    def test_same_seed_same_execution(self):
        assert self._run(5) == self._run(5)

    def test_different_seeds_differ(self):
        # at least one of several seeds must give a different interleaving
        base = self._run(0)
        assert any(self._run(s) != base for s in range(1, 6))

    def test_replay_scheduler_reproduces_run(self):
        prog = compile_source(COUNTER_RACE)
        m1 = Machine(prog, [("worker", (20,)), ("worker", (20,))],
                     scheduler=RandomScheduler(seed=7, switch_prob=0.4),
                     record_schedule=True)
        m1.run()
        rec = TraceRecorder(prog, 2)
        m2 = Machine(prog, [("worker", (20,)), ("worker", (20,))],
                     scheduler=ReplayScheduler(m1.recorded_schedule),
                     observers=[rec])
        m2.run()
        assert m2.read_global("counter") == m1.read_global("counter")
        assert m2.steps == m1.steps


class TestCheckpointRestore:
    def test_restore_resets_memory_and_output(self):
        src = ("shared int x; thread t() {"
               " int i = 0; while (i < 10) { x = x + 1; output(x);"
               " i = i + 1; } }")
        prog = compile_source(src)
        m = Machine(prog, [("t", ())], scheduler=SerialScheduler())
        # run a little, checkpoint, run to completion, restore
        for _ in range(20):
            m.step()
        snap = m.checkpoint()
        x_at_snap = m.read_global("x")
        outputs_at_snap = len(m.output)
        m.run()
        assert m.read_global("x") == 10
        m.restore(snap)
        assert m.read_global("x") == x_at_snap
        assert len(m.output) == outputs_at_snap
        assert m.status == MachineStatus.RUNNING

    def test_run_after_restore_completes_identically(self):
        prog = compile_source(COUNTER_LOCKED)
        m = Machine(prog, [("worker", (10,)), ("worker", (10,))],
                    scheduler=RandomScheduler(seed=3, switch_prob=0.4))
        for _ in range(50):
            m.step()
        snap = m.checkpoint()
        m.run()
        final_first = m.read_global("counter")
        m.restore(snap)
        m.run()
        assert m.read_global("counter") == final_first == 20

    def test_restore_truncates_crashes(self):
        src = "thread t() { assert(0); }"
        prog = compile_source(src)
        m = Machine(prog, [("t", ())])
        snap = m.checkpoint()
        m.run()
        assert m.crashed
        m.restore(snap)
        assert not m.crashed


class TestStoppedMachine:
    """The pre-decoded step closures capture their machine.  A machine
    drops its step table when it stops, so reference counting alone
    frees it and its observers, and compiles the table again when it
    resumes."""

    THREADS = [("worker", (10,)), ("worker", (10,))]

    @pytest.fixture
    def no_cyclic_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def _machine(self, **kwargs):
        return Machine(compile_source(COUNTER_LOCKED), self.THREADS,
                       scheduler=RandomScheduler(seed=3, switch_prob=0.4),
                       **kwargs)

    @pytest.mark.parametrize("max_steps,status", [
        (None, MachineStatus.FINISHED), (100, MachineStatus.STEP_LIMIT)])
    def test_freed_without_the_cyclic_collector(
            self, no_cyclic_collector, max_steps, status):
        recorder = TraceRecorder(compile_source(COUNTER_LOCKED), 2)
        machine = self._machine(observers=[recorder])
        assert machine.run(max_steps=max_steps) == status
        refs = [weakref.ref(machine), weakref.ref(recorder)]
        del machine, recorder
        assert [ref() for ref in refs] == [None, None]

    def test_engine_run_freed_without_the_cyclic_collector(
            self, no_cyclic_collector):
        """The same through the engine: the machine, the engine and its
        analysis go when the caller drops them."""
        machine = self._machine()
        engine = DetectorEngine(machine.program, ["frd"])
        result = engine.run_machine(machine)
        assert result.status == MachineStatus.FINISHED
        refs = [weakref.ref(machine), weakref.ref(engine),
                weakref.ref(result.detector("frd"))]
        del machine, engine, result
        assert [ref() for ref in refs] == [None, None, None]

    def test_step_on_a_stopped_machine_does_nothing(self):
        """``step()`` on a stopped machine returns False without picking
        a thread, retiring a step, staging an event or compiling the
        step table again; a restored machine steps again."""

        class Counter(MachineObserver):
            events = 0

            def consume_batch(self, batch):
                self.events += batch.count

        counter = Counter()
        machine = apache_log(writers=3, requests=12).make_machine(
            RandomScheduler(seed=3), observers=[counter])
        snap = machine.checkpoint()
        assert machine.run(max_steps=50) == MachineStatus.STEP_LIMIT
        seq, events = machine.seq, counter.events
        assert events == seq
        for _ in range(5):
            assert machine.step() is False
        assert (machine.steps, machine.seq) == (50, seq)
        assert machine._table is None
        assert machine._batch_rows == []
        assert machine.run() == MachineStatus.STEP_LIMIT
        assert machine.steps == 50
        assert counter.events == events
        machine.restore(snap)
        assert machine.step() is True
        assert machine.steps == 1
        assert machine._table is not None

    @pytest.mark.parametrize("max_steps", [None, 120])
    def test_restore_on_a_stopped_machine_runs_on(self, max_steps):
        reference = self._machine(record_schedule=True)
        reference.run()
        m = self._machine(record_schedule=True)
        m.advance(50)
        snap = m.checkpoint()
        assert m.run(max_steps=max_steps) != MachineStatus.RUNNING
        assert m._table is None  # stopping dropped the step table
        m.restore(snap)
        assert m.run() == MachineStatus.FINISHED
        assert m.memory == reference.memory
        assert m.recorded_schedule == reference.recorded_schedule
        assert m.steps == reference.steps


class TestSchedulers:
    def test_serial_runs_one_thread_to_completion(self):
        src = ("shared int r; shared int first = -1;"
               "thread t(int tid) {"
               " if (first == -1) { first = tid; }"
               " int i = 0; while (i < 5) { r = r + 1; i = i + 1; } }")
        prog = compile_source(src)
        m = Machine(prog, [("t", (0,)), ("t", (1,))],
                    scheduler=SerialScheduler(), record_schedule=True)
        m.run()
        # schedule must be a block of 0s followed by a block of 1s
        sched = m.recorded_schedule
        switch_points = sum(1 for a, b in zip(sched, sched[1:]) if a != b)
        assert switch_points == 1

    def test_round_robin_quantum(self):
        prog = compile_source(COUNTER_RACE)
        m = Machine(prog, [("worker", (5,)), ("worker", (5,))],
                    scheduler=RoundRobinScheduler(quantum=4),
                    record_schedule=True)
        m.run()
        sched = m.recorded_schedule
        # the first 4 steps stay on thread 0, then thread 1 runs
        assert sched[:5] == [0, 0, 0, 0, 1]

    def test_random_scheduler_validates_switch_prob(self):
        with pytest.raises(ValueError):
            RandomScheduler(seed=0, switch_prob=0.0)
        with pytest.raises(ValueError):
            RandomScheduler(seed=0, switch_prob=1.5)

    def test_round_robin_validates_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234, 2026])
    def test_random_switch_draw_is_randrange(self, seed):
        """A switch draws ``getrandbits(n.bit_length())`` until the
        value is below ``n``, the draws of ``Random.randrange(n)``
        (which the scheduler used before).  Pinned against CPython's
        own ``randrange``, so a change to its algorithm shows here."""
        for n in range(1, 18):
            scheduler = RandomScheduler(seed=seed)
            reference = random.Random(seed)
            runnable = list(range(n))
            # no current processor: no stay test, every pick switches
            assert ([scheduler.pick(runnable, None) for _ in range(50)]
                    == [reference.randrange(n) for _ in range(50)]), n


class _FixedPick(Scheduler):
    """Picks one processor id, runnable or not."""

    def __init__(self, tid):
        self.tid = tid

    def pick(self, runnable, current):
        return self.tid


class TestNonRunnablePick:
    """The run loop checks a scheduler's pick against the runnable set
    before it executes anything, as ``step()`` does.  Unchecked, a pick
    of a halted thread re-ran its Halt (``run()`` raised ValueError
    from ``list.remove``), and an id past the last thread ran as a
    drain processor (the strict model raised NotImplementedError)."""

    SRC = "thread t(int n) { int i = 0; while (i < n) { i = i + 1; } }"

    def _machine(self, tid):
        return Machine(compile_source(self.SRC), [("t", (1,)), ("t", (9,))],
                       scheduler=_FixedPick(tid), record_schedule=True)

    @pytest.mark.parametrize("tid,runnable_after", [
        (0, [1]),      # thread 0 runs to its Halt, then is picked again
        (7, [0, 1]),   # never runnable: nothing runs
    ])
    def test_run_rejects_it_like_step(self, tid, runnable_after):
        by_run = self._machine(tid)
        message = f"scheduler picked non-runnable thread {tid}"
        with pytest.raises(RuntimeError, match=message):
            by_run.run()
        assert by_run._runnable_ids == runnable_after
        assert set(by_run.recorded_schedule) <= {tid}
        by_step = self._machine(tid)
        with pytest.raises(RuntimeError, match=message):
            while by_step.step():
                pass
        assert by_run.steps == by_step.steps
        assert by_run.recorded_schedule == by_step.recorded_schedule
        assert by_run.seq == by_step.seq
        assert by_run.status == MachineStatus.RUNNING
