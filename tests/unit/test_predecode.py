"""Unit tests for the pre-decoded engine and kind-masked emission."""

import pytest

from repro.lang import compile_source
from repro.machine import (
    EV_ALU, EV_LOAD, EV_STORE, Machine, MachineObserver, MachineStatus,
    RandomScheduler, RoundRobinScheduler, SerialScheduler, compile_table,
    resolve_model,
)
from repro.machine.machine import RUNNABLE
from repro.workloads import WORKLOADS
from tests.conftest import COUNTER_LOCKED, COUNTER_RACE


class _Capture(MachineObserver):
    def __init__(self, interests=None):
        if interests is not None:
            self.interests = frozenset(interests)
        self.events = []

    def consume_batch(self, batch):
        # windows are shared, so a masked observer skips alien kinds
        mask = self.interests
        self.events.extend(
            (kind, seq, tid, pc, addr, value)
            for kind, seq, tid, pc, _loc, addr, value, _taken, _target
            in batch.rows
            if mask is None or kind in mask)


def _machine(source, threads, **kwargs):
    program = compile_source(source)
    kwargs.setdefault("scheduler", RandomScheduler(seed=2, switch_prob=0.3))
    return Machine(program, threads, **kwargs)


class TestPredecodedEngine:
    def test_table_built_at_construction(self):
        m = _machine("shared int x; thread t() { x = 1; }", [("t", ())])
        assert len(m._table) == len(m.program.code)

    def test_table_covers_every_pc(self):
        m = _machine(COUNTER_LOCKED, [("worker", (3,))])
        table = compile_table(m)
        assert len(table) == len(m.program.code)
        assert all(callable(fn) for fn in table)

    def test_runs_to_completion(self):
        m = _machine(COUNTER_LOCKED, [("worker", (10,)), ("worker", (10,))])
        assert m.run(max_steps=100_000) == MachineStatus.FINISHED
        assert m.read_global("counter") == 20

    def test_memory_fault_register_address(self):
        src = ("shared int a[4]; shared int n = 99;"
               "thread t() { a[n] = 1; }")
        m = _machine(src, [("t", ())])
        m.run()
        assert m.crashed
        assert "memory fault: address" in m.crashes[0].reason

    def test_assert_failure_crashes(self):
        src = "shared int x; thread t() { assert(x == 1); }"
        m = _machine(src, [("t", ())])
        m.run()
        assert m.crashed
        assert m.crashes[0].reason.startswith("assertion failed")


class TestKindMaskedEmission:
    def test_seq_advances_with_no_observers(self):
        """Events for unwanted kinds are never constructed, but the
        global sequence number is identical to an observed run."""
        observed = _machine(COUNTER_RACE, [("worker", (5,)), ("worker", (5,))],
                            observers=[_Capture()])
        observed.run(max_steps=100_000)
        silent = _machine(COUNTER_RACE, [("worker", (5,)), ("worker", (5,))])
        silent.run(max_steps=100_000)
        assert silent.seq == observed.seq
        assert silent.steps == observed.steps

    def test_mask_filters_delivery(self):
        masked = _Capture(interests=[EV_LOAD, EV_STORE])
        full = _Capture()
        m = _machine(COUNTER_RACE, [("worker", (5,)), ("worker", (5,))],
                     observers=[masked, full])
        m.run(max_steps=100_000)
        assert masked.events  # it got something
        assert all(kind in (EV_LOAD, EV_STORE)
                   for kind, *_ in masked.events)
        # the masked observer saw exactly the full observer's subset
        expected = [e for e in full.events if e[0] in (EV_LOAD, EV_STORE)]
        assert masked.events == expected

    def test_unwanted_kind_not_constructed_but_seq_reserved(self):
        """An ALU-only observer still sees the same seq numbers an
        all-kinds observer would have attributed to ALU events."""
        alu_only = _Capture(interests=[EV_ALU])
        m1 = _machine(COUNTER_RACE, [("worker", (3,))],
                      observers=[alu_only],
                      scheduler=SerialScheduler())
        m1.run(max_steps=100_000)
        full = _Capture()
        m2 = _machine(COUNTER_RACE, [("worker", (3,))], observers=[full],
                      scheduler=SerialScheduler())
        m2.run(max_steps=100_000)
        assert alu_only.events == [e for e in full.events
                                   if e[0] == EV_ALU]

    def test_add_observer_mid_run_rebuilds_mask(self):
        early = _Capture(interests=[EV_STORE])
        m = _machine(COUNTER_RACE, [("worker", (8,))],
                     observers=[early], scheduler=SerialScheduler())
        for _ in range(10):
            m.step()
        late = _Capture()
        m.add_observer(late)
        m.run(max_steps=100_000)
        assert late.events  # full stream from attach point onwards
        kinds_seen = {kind for kind, *_ in late.events}
        assert kinds_seen - {EV_STORE}  # not masked to the old set

    def test_observers_swap_mid_run(self):
        """BER replaces the observer list wholesale on rollback; the
        in-place emission-table rebuild must redirect the pre-decoded
        closures."""
        first = _Capture()
        m = _machine(COUNTER_RACE, [("worker", (8,))],
                     observers=[first], scheduler=SerialScheduler())
        for _ in range(10):
            m.step()
        second = _Capture()
        m.observers = [second]
        m.run(max_steps=100_000)
        n_first = len(first.events)
        assert n_first == 10
        assert second.events
        assert second.events[0][1] == 10  # seq continues, no overlap


def _scan_runnable(m):
    """The O(threads) reference for the incrementally kept runnable set:
    runnable thread ids, then the drain id of every thread whose store
    buffer is pending (drain ids are all above thread ids, so the list
    stays sorted)."""
    runnable = [t.tid for t in m.threads if t.status == RUNNABLE]
    runnable.extend(m._drain_base + t.tid for t in m.threads
                    if m.memmodel.pending(t.tid))
    return runnable


class TestIncrementalRunnableSet:
    def test_matches_scan_through_blocking_run(self):
        m = _machine(COUNTER_LOCKED, [("worker", (6,)), ("worker", (6,)),
                                      ("worker", (6,))],
                     scheduler=RoundRobinScheduler(quantum=3))
        while m.status == MachineStatus.RUNNING:
            assert m._runnable_ids == _scan_runnable(m)
            m.step()
        assert m._runnable_ids == []

    def test_restore_rebuilds_runnable_set(self):
        m = _machine(COUNTER_LOCKED, [("worker", (10,)), ("worker", (10,))])
        snapshot = m.checkpoint()
        m.run(max_steps=100_000)
        assert m._runnable_ids == []
        m.restore(snapshot)
        assert m._runnable_ids == _scan_runnable(m)
        assert m.run(max_steps=100_000) == MachineStatus.FINISHED
        assert m.read_global("counter") == 20

    @pytest.mark.parametrize("name", ["txn-bank", "spsc-ring", "apache"])
    def test_drain_ids_match_scan_under_tso(self, name):
        """Store-buffer drain processors enter and leave the set as
        buffers fill and empty, through a checkpoint/restore."""
        m = WORKLOADS[name]().make_machine(
            RandomScheduler(seed=7, switch_prob=0.3),
            memmodel=resolve_model("tso", 7))
        drain_base = m._drain_base
        snapshot = None
        drain_picks = 0

        def run_to(stop):
            nonlocal snapshot, drain_picks
            while m.status == MachineStatus.RUNNING and m.steps < stop:
                runnable = m._runnable_ids
                assert runnable == _scan_runnable(m), m.steps
                drain_picks += any(tid >= drain_base for tid in runnable)
                m.step()
                if snapshot is None and m.steps == 300:
                    snapshot = m.checkpoint()

        run_to(6_000)
        m.restore(snapshot)
        assert m._runnable_ids == _scan_runnable(m)
        run_to(6_000)
        assert drain_picks > 0
