"""The deterministic multiprocessor interpreter.

At construction, :mod:`repro.machine.predecode` compiles
``program.code`` into a per-pc table of specialized step closures --
operand registers, immediates, bounds checks and event fields are baked
in at compile time, so the hot loop is ``table[pc](thread)`` with zero
``type()``/``isinstance`` work per retired instruction.  Its behaviour
is pinned by the golden digests of
``tests/integration/test_differential_batching.py``.

Events leave the machine one way: the step closures append a flat row
tuple per event to one staging buffer, and :meth:`Machine.flush_events`
hands those rows to every observer's ``consume_batch`` as one
:class:`~repro.machine.batch.EventBatch` (a copy of the staging list,
the row tuples themselves shared).  Observers declare an
interested-kind mask (``interests``); a kind nobody subscribed to is not
even staged -- the global sequence number still advances, so traces,
recorded schedules, replay and checkpoint/restore are identical to a
fully observed run.  An observer that must stay in step with execution
(the BER controller reads its detector after every step) builds the
machine with ``batch_size=1``: every emission then flushes at once.

One run loop drives every live run: :meth:`Machine.advance` runs the
hot loop up to a step bound without finalizing, and :meth:`Machine.run`
is that loop plus the step-limit stamp and finish notifications.  Each
pass of the loop runs one scheduling quantum.  The scheduler's
``pick()`` is the reference for every decision; for a scheduler that
is exactly a :class:`~repro.machine.scheduler.RandomScheduler` the loop
makes the same decision inline, with the same draws.  Of the library's
hosts only the BER controller, which reads its detector after every
instruction, calls :meth:`Machine.step`, which keeps its own
one-decision body and always calls ``pick()``: a blocking ``Acquire``
under TSO drains the store buffer and returns without retiring, and
BER must read its detector after that step too.

The step closures capture the machine, so the machine and its step
table reference each other.  A machine drops the table when it stops,
which lets reference counting free a finished machine and its
observers at once, and compiles it again if it is resumed (after
:meth:`Machine.restore`, or once its status is set back to running).

The runnable set is maintained incrementally at the status-transition
sites (block, wake, sleep, halt, crash) instead of being rebuilt by an
O(threads) scan per step.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from sys import maxsize
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import repro.faults.runtime as faults
from repro.faults.inject import StreamInjector
from repro.machine.batch import DEFAULT_BATCH_SIZE, EventBatch
from repro.machine.memmodel import MemoryModel, StrictModel, resolve_model
from repro.isa.program import Program
from repro.machine.events import EV_CRASH, EV_STORE, N_KINDS, MachineObserver
from repro.machine.scheduler import RandomScheduler, Scheduler

RUNNABLE = 0
BLOCKED = 1
HALTED = 2
CRASHED = 3
WAITING = 4


class MachineStatus:
    """Terminal states of a machine run."""

    RUNNING = "running"
    FINISHED = "finished"
    DEADLOCK = "deadlock"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class CrashRecord:
    """A thread trap: failed assertion or out-of-range memory access."""

    tid: int
    pc: int
    loc: int
    reason: str
    step: int


class ThreadState:
    """Architectural state of one thread (= one virtual processor)."""

    __slots__ = ("tid", "name", "spec", "pc", "regs", "status",
                 "blocked_on", "frame_base", "reacquiring")

    def __init__(self, tid: int, spec, frame_base: int,
                 args: Sequence[int]) -> None:
        self.tid = tid
        self.name = spec.name
        self.spec = spec
        self.pc = spec.entry
        self.regs: List[int] = [0] * spec.reg_count
        self.regs[0] = frame_base  # register 0 is the frame pointer
        self.status = RUNNABLE
        self.blocked_on: Optional[int] = None
        self.frame_base = frame_base
        #: a woken waiter re-executes its Wait in "re-acquire" mode
        self.reacquiring = False

    def snapshot(self) -> Tuple:
        return (self.pc, list(self.regs), self.status, self.blocked_on,
                self.reacquiring)

    def restore(self, state: Tuple) -> None:
        (self.pc, regs, self.status, self.blocked_on,
         self.reacquiring) = state
        self.regs = list(regs)


class _KindEmit:
    """Per-event-kind emission state.

    The pre-decoded step closures capture these objects at compile time,
    so :meth:`Machine._rebuild_emit_state` must mutate them in place --
    never replace them -- when the observer set changes mid-run (BER
    swaps its SVD on every rollback).

    ``batch`` is the machine's shared staging-row list when some
    observer wants this kind (or a stream-fault plan is armed), else
    None: an unwanted kind is never staged.
    """

    __slots__ = ("batch",)

    def __init__(self) -> None:
        self.batch = None


class Machine:
    """Executes a compiled program on N virtual processors.

    Args:
        program: the compiled program.
        threads: thread instances to run, each a ``(thread_name, args)``
            pair; a thread body may be instantiated many times (a worker
            pool).
        scheduler: interleaving policy; defaults to a seeded
            :class:`RandomScheduler`.
        observers: passive observers receiving the global event stream
            through ``consume_batch``.
        record_schedule: when true, the processor-id choice of every step
            is recorded in :attr:`recorded_schedule` so the run can be
            replayed exactly with a :class:`ReplayScheduler`.
        batch_size: capacity of the staging buffer before an automatic
            flush.  Delivery happens at flush boundaries (buffer full,
            checkpoint/restore, observer change, end of run, or an
            explicit :meth:`flush_events`); a consumer that reads
            observer state *between individual steps* passes 1.
        memmodel: the memory consistency model (see
            :mod:`repro.machine.memmodel`): a :class:`MemoryModel`
            instance, a registry name (``"strict"``/``"tso"``), or None
            for the default :class:`StrictModel`.  Under a model with
            store buffers (TSO) the machine exposes one *virtual drain
            processor* per thread -- id ``n_threads + tid``, runnable
            exactly while that thread's buffer is non-empty -- whose
            step drains the oldest buffered store to shared memory and
            emits its STORE event; schedulers pick drain ids like any
            other processor and replay stays exact.
    """

    def __init__(self, program: Program,
                 threads: Sequence[Tuple[str, Sequence[int]]],
                 scheduler: Optional[Scheduler] = None,
                 observers: Sequence[MachineObserver] = (),
                 record_schedule: bool = False,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 memmodel: "MemoryModel | str | None" = None) -> None:
        if not threads:
            raise ValueError("machine needs at least one thread instance")
        self.program = program
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()
        self.record_schedule = record_schedule
        self.recorded_schedule: List[int] = []

        self.memory: List[int] = [0] * program.shared_words
        for addr, value in program.init_values.items():
            self.memory[addr] = value

        self.threads: List[ThreadState] = []
        for name, args in threads:
            spec = program.threads.get(name)
            if spec is None:
                raise KeyError(f"program has no thread body named {name!r}")
            if len(args) != len(spec.param_offsets):
                raise ValueError(
                    f"thread {name!r} takes {len(spec.param_offsets)} "
                    f"arguments, got {len(args)}")
            frame_base = len(self.memory)
            self.memory.extend([0] * spec.frame_words)
            thread = ThreadState(len(self.threads), spec, frame_base, args)
            for offset, value in zip(spec.param_offsets, args):
                self.memory[frame_base + offset] = value
            self.threads.append(thread)

        # memory consistency model: bound after memory is fully
        # allocated (frames included) and before pre-decode, so model
        # and closures capture the same list
        if memmodel is None:
            memmodel = StrictModel()
        elif isinstance(memmodel, str):
            memmodel = resolve_model(memmodel)
        self.memmodel: MemoryModel = memmodel
        memmodel.attach(self)
        #: virtual drain processor ids start here (one per thread)
        self._drain_base = len(self.threads)

        # fault injection: arm a stream injector iff the active plan has
        # stream faults (None keeps emission on a single is-None branch)
        plan = faults.active()
        self._injector = (StreamInjector(plan)
                          if plan is not None and plan.stream_faults()
                          else None)

        #: emission staging: one row tuple per event, flushed as an
        #: EventBatch.  The list object is stable for the machine's
        #: lifetime (pre-decoded closures capture it through the
        #: _KindEmit entries; flushes clear it in place).
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._batch_capacity = batch_size
        self._batch_rows: List[Tuple] = []
        #: consume_batch callables of the attached observers (rebuilt
        #: with the emission tables)
        self._batch_sinks: Tuple = ()

        #: per-kind emission tables; created before the observers setter
        #: runs (it fills them) and before predecode (closures capture
        #: the entries)
        self._emit_state: List[_KindEmit] = [_KindEmit()
                                             for _ in range(N_KINDS)]
        self.observers = list(observers)

        self.seq = 0
        self.steps = 0
        #: FIFO wait queues per lock address (condition variables)
        self.wait_queues: Dict[int, Deque[int]] = {}
        self.output: List[Tuple[int, int]] = []
        self.crashes: List[CrashRecord] = []
        self.status = MachineStatus.RUNNING
        self._current: Optional[int] = None
        self._finished_notified = False

        #: sorted runnable thread ids, maintained incrementally at the
        #: status-transition sites (memory is fully allocated by now, so
        #: the pre-decode pass may bake its length)
        self._runnable_ids: List[int] = [t.tid for t in self.threads]
        #: the pre-decoded step table (None while the machine is stopped)
        self._table: Optional[List] = None
        self._step_table()

        # schedulers that inspect machine state (the conflict-directed
        # fuzzing scheduler) bind here; plain schedulers have no hook
        bind = getattr(self.scheduler, "bind", None)
        if bind is not None:
            bind(self)

    # -- observer plumbing ---------------------------------------------------

    @property
    def observers(self) -> List[MachineObserver]:
        return self._observers

    @observers.setter
    def observers(self, observers: Sequence[MachineObserver]) -> None:
        self._observers = list(observers)
        self._rebuild_emit_state()

    def add_observer(self, observer: MachineObserver) -> None:
        self._observers.append(observer)
        self._rebuild_emit_state()

    def _rebuild_emit_state(self) -> None:
        """Fold the attached observers' kind masks into the per-kind
        emission tables (in place: pre-decoded closures hold the
        entries).  While a stream-fault plan is armed every kind is
        staged, so the injector's emission ordinals count every event
        whoever listens."""
        if self._batch_rows:
            # pending rows belong to the outgoing observer set
            self.flush_events()
        observers = self._observers
        self._batch_sinks = tuple(o.consume_batch for o in observers)
        masks = [getattr(o, "interests", None) for o in observers]
        stage_all = self._injector is not None or None in masks
        rows = self._batch_rows
        for kind, entry in enumerate(self._emit_state):
            wanted = stage_all or any(kind in mask for mask in masks)
            entry.batch = rows if wanted else None

    def flush_events(self) -> None:
        """Deliver all staged rows as one :class:`EventBatch` to every
        observer's ``consume_batch`` (through the stream injector when
        a fault plan is armed).  No-op when the buffer is empty.
        Automatic flush points: buffer full, :meth:`checkpoint`,
        :meth:`restore`, observer-set changes, and end of run; callers
        driving :meth:`step` manually flush here before reading
        observer state."""
        rows = self._batch_rows
        if not rows:
            return
        if self._injector is not None:
            batch = EventBatch(self._injector.transform(rows))
        else:
            batch = EventBatch(rows[:])
        del rows[:]
        if batch.count:
            for sink in self._batch_sinks:
                sink(batch)

    def _emit(self, kind: int, thread: ThreadState, instr, addr: int = -1,
              value: int = 0) -> None:
        """Stage one event at ``thread``'s pc (the closures' cold paths)."""
        seq = self.seq
        self.seq = seq + 1
        rows = self._emit_state[kind].batch
        if rows is not None:
            rows.append((kind, seq, thread.tid, thread.pc,
                         instr.loc if instr is not None else -1,
                         addr, value, False, -1))
            if len(rows) >= self._batch_capacity:
                self.flush_events()

    def _emit_at(self, kind: int, tid: int, pc: int, instr,
                 addr: int = -1, value: int = 0) -> None:
        """Emit an event attributed to an explicit (tid, pc) issue site.

        Drained stores go through here: the executing thread has long
        moved past the pc that issued the buffered store, so
        :meth:`_emit`'s ``thread.pc`` would mis-attribute the event.
        Staging is otherwise identical to :meth:`_emit`.
        """
        seq = self.seq
        self.seq = seq + 1
        rows = self._emit_state[kind].batch
        if rows is not None:
            rows.append((kind, seq, tid, pc,
                         instr.loc if instr is not None else -1,
                         addr, value, False, -1))
            if len(rows) >= self._batch_capacity:
                self.flush_events()

    # -- store-buffer drains (memory-model machinery) --------------------------

    def _store_buffered(self, tid: int) -> None:
        """Bookkeeping after the model buffered (rather than published)
        a store: make the thread's drain processor runnable, and
        force-drain the oldest entry when the buffer overflowed its
        deterministic capacity."""
        model = self.memmodel
        pending = model.pending(tid)
        if pending == 1:
            insort(self._runnable_ids, self._drain_base + tid)
        if pending > model.capacity(tid):
            self._drain_commit(tid)

    def _drain_commit(self, tid: int) -> None:
        """Make thread ``tid``'s oldest buffered store globally visible
        and emit its STORE event; retire the drain processor from the
        runnable set when the buffer empties."""
        model = self.memmodel
        addr, value, pc, instr = model.drain_one(tid)
        self._emit_at(EV_STORE, tid, pc, instr, addr, value)
        if not model.pending(tid):
            self._runnable_ids.remove(self._drain_base + tid)

    def _fence(self, thread: ThreadState) -> None:
        """Drain every buffered store of ``thread`` (lock operations
        are fencing RMWs, like x86 LOCK-prefixed instructions)."""
        tid = thread.tid
        model = self.memmodel
        while model.pending(tid):
            self._drain_commit(tid)

    # -- status transitions ---------------------------------------------------

    def _block(self, thread: ThreadState, addr: int) -> None:
        thread.status = BLOCKED
        thread.blocked_on = addr
        self._runnable_ids.remove(thread.tid)

    def _halt(self, thread: ThreadState) -> None:
        thread.status = HALTED
        self._runnable_ids.remove(thread.tid)

    def _wake_blocked(self, addr: int) -> None:
        for other in self.threads:
            if other.status == BLOCKED and other.blocked_on == addr:
                other.status = RUNNABLE
                other.blocked_on = None
                insort(self._runnable_ids, other.tid)

    def _wake_one_waiter(self, queue: Deque[int]) -> None:
        woken = self.threads[queue.popleft()]
        woken.status = RUNNABLE
        woken.reacquiring = True
        insort(self._runnable_ids, woken.tid)

    def _sleep_on(self, thread: ThreadState, addr: int) -> None:
        """Atomic release-and-sleep tail of a ``Wait``: enqueue, park,
        then hand the lock to any blocked acquirer."""
        queue = self.wait_queues.get(addr)
        if queue is None:
            queue = self.wait_queues[addr] = deque()
        queue.append(thread.tid)
        thread.status = WAITING
        self._runnable_ids.remove(thread.tid)
        self._wake_blocked(addr)

    # -- execution ------------------------------------------------------------

    def _crash(self, thread: ThreadState, instr, reason: str) -> None:
        self.crashes.append(CrashRecord(
            tid=thread.tid, pc=thread.pc, loc=instr.loc if instr else -1,
            reason=reason, step=self.steps))
        self._emit(EV_CRASH, thread, instr)
        thread.status = CRASHED
        self._runnable_ids.remove(thread.tid)

    def _finish_run(self) -> bool:
        if any(t.status in (BLOCKED, WAITING) for t in self.threads):
            self.status = MachineStatus.DEADLOCK
        else:
            self.status = MachineStatus.FINISHED
        self._notify_finish()
        return False

    def _step_table(self) -> List:
        """The pre-decoded step table, compiled when the machine has
        none (at construction, and when a stopped machine resumes)."""
        table = self._table
        if table is None:
            from repro.machine.predecode import compile_table
            table = self._table = compile_table(self)
        return table

    def step(self) -> bool:
        """Retire (at most) one instruction; return False when stopped."""
        if self.status != MachineStatus.RUNNING:
            return False
        runnable = self._runnable_ids
        if not runnable:
            return self._finish_run()
        tid = self.scheduler.pick(runnable, self._current)
        if tid not in runnable:
            raise RuntimeError(f"scheduler picked non-runnable thread {tid}")
        self._current = tid
        if tid >= self._drain_base:
            self._drain_commit(tid - self._drain_base)
            self.steps += 1
        else:
            thread = self.threads[tid]
            if self._step_table()[thread.pc](thread):
                self.steps += 1
        if self.record_schedule:
            self.recorded_schedule.append(tid)
        return True

    def run(self, max_steps: Optional[int] = None) -> str:
        """Run until all threads finish, deadlock, or the step limit."""
        if self.advance(max_steps):
            # still runnable: the limit stopped it, not the program
            self.status = MachineStatus.STEP_LIMIT
            self._notify_finish()
        return self.status

    def advance(self, stop: Optional[int] = None) -> bool:
        """Run until :attr:`steps` reaches ``stop`` (None: no bound) or
        the machine stops; returns True while it can still run.

        Unlike :meth:`run` this does not finalize a run that reached
        ``stop``, so a host can drive one run in chunks and end it with
        :meth:`run`.

        Each pass of the outer loop makes one switch decision and runs
        one scheduling quantum: the inner loop steps the same thread
        while the decision after each step stays on it, without
        fetching the thread, storing ``_current`` or testing the drain
        base again (a drain processor's quantum is one step).  The
        decision is the scheduler's ``pick()``, called once per step;
        for a scheduler that is exactly a :class:`RandomScheduler` it is
        made inline instead, with ``pick()``'s draws in ``pick()``'s
        order: the stay test (``current in runnable``, then one
        ``random()``) and, on a switch, the ``getrandbits`` rejection
        loop.  Nothing a step does changes :attr:`status`, so the loop
        stops only at ``stop`` or when no processor is runnable.  All
        referenced containers (runnable set, schedule list, step table)
        are mutated in place machine-wide, so the hoisted bindings stay
        live across blocking, crashes and checkpoint/restore."""
        if self.status != MachineStatus.RUNNING:
            return False
        table = self._step_table()
        threads = self.threads
        runnable = self._runnable_ids
        record = self.record_schedule
        schedule = self.recorded_schedule
        drain_base = self._drain_base
        scheduler = self.scheduler
        inline = type(scheduler) is RandomScheduler
        if inline:
            random = scheduler.random
            getrandbits = scheduler.getrandbits
            switch_prob = scheduler.switch_prob
        else:
            pick = scheduler.pick
        bound = maxsize if stop is None else stop
        steps = self.steps
        tid = self._current
        # the quantum's loop already ran this decision's stay test, and
        # it said switch
        switching = False
        # a generic scheduler's answer, once its pick() ran for this
        # decision (None: not yet)
        picked = None
        while steps < bound:
            if switching:
                stay = False
            elif tid not in runnable:
                stay = False
                picked = None
            elif inline:
                stay = random() >= switch_prob
            else:
                picked = pick(runnable, tid)
                stay = picked == tid
            if not stay:
                if not runnable:
                    self._finish_run()
                    return False
                if inline:
                    n = len(runnable)
                    k = n.bit_length()
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    tid = runnable[r]
                else:
                    if picked is None:
                        picked = pick(runnable, tid)
                    if picked not in runnable:
                        raise RuntimeError(
                            f"scheduler picked non-runnable thread {picked}")
                    tid = picked
                self._current = tid
            switching = False
            if tid >= drain_base:
                self._drain_commit(tid - drain_base)
                steps += 1
                self.steps = steps
                if record:
                    schedule.append(tid)
                continue
            thread = threads[tid]
            while True:
                if table[thread.pc](thread):
                    steps += 1
                    self.steps = steps
                if record:
                    schedule.append(tid)
                if steps >= bound or tid not in runnable:
                    break
                if inline:
                    if random() >= switch_prob:
                        continue
                else:
                    picked = pick(runnable, tid)
                    if picked == tid:
                        continue
                switching = True
                break
        return True

    def _notify_finish(self) -> None:
        # the step closures capture the machine: without the table,
        # reference counting frees a stopped machine and its observers
        self._table = None
        if self._finished_notified:
            return
        self._finished_notified = True
        if self._batch_rows:
            self.flush_events()
        for observer in self.observers:
            observer.on_finish(self)

    # -- inspection -------------------------------------------------------------

    def read_global(self, name: str, index: int = 0) -> int:
        """Read shared global ``name[index]`` (for tests and examples)."""
        return self.memory[self.program.address_of(name, index)]

    def read_local(self, tid: int, name: str, index: int = 0) -> int:
        """Read thread ``tid``'s copy of local variable ``name[index]``."""
        thread = self.threads[tid]
        layout = self.program.locals_layout[thread.name]
        offset, length = layout[name]
        if not 0 <= index < length:
            raise IndexError(f"{name}[{index}] out of bounds (len {length})")
        return self.memory[thread.frame_base + offset + index]

    @property
    def crashed(self) -> bool:
        return bool(self.crashes)

    # -- checkpoint / rollback (BER substrate) -----------------------------------

    def checkpoint(self) -> Dict:
        """Capture a restorable snapshot of the full architectural state.

        Staged batch rows are flushed first, so observers are current as
        of the snapshot point -- a checkpoint is a batch boundary."""
        if self._batch_rows:
            self.flush_events()
        return {
            "memory": list(self.memory),
            "threads": [t.snapshot() for t in self.threads],
            "wait_queues": {addr: list(q)
                            for addr, q in self.wait_queues.items()},
            "seq": self.seq,
            "steps": self.steps,
            "output_len": len(self.output),
            "crashes_len": len(self.crashes),
            "schedule_len": len(self.recorded_schedule),
            "scheduler": self.scheduler.snapshot(),
            "current": self._current,
            "status": self.status,
            "memmodel": self.memmodel.snapshot(),
        }

    def restore(self, snapshot: Dict) -> None:
        """Roll architectural state back to a prior :meth:`checkpoint`."""
        # deliver post-checkpoint events first: they were executed, so
        # observers see them before the rollback exactly as they would
        # at batch size 1 (observers cannot unsee events)
        if self._batch_rows:
            self.flush_events()
        # in place: the pre-decoded step closures hold the memory list
        self.memory[:] = snapshot["memory"]
        for thread, state in zip(self.threads, snapshot["threads"]):
            thread.restore(state)
        self.wait_queues = {addr: deque(q)
                            for addr, q in snapshot["wait_queues"].items()}
        self.seq = snapshot["seq"]
        self.steps = snapshot["steps"]
        del self.output[snapshot["output_len"]:]
        del self.crashes[snapshot["crashes_len"]:]
        del self.recorded_schedule[snapshot["schedule_len"]:]
        self.scheduler.restore(snapshot["scheduler"])
        self._current = snapshot["current"]
        self.status = snapshot["status"]
        self._finished_notified = False
        model = self.memmodel
        model.restore(snapshot.get("memmodel"))
        self._runnable_ids[:] = [t.tid for t in self.threads
                                 if t.status == RUNNABLE]
        if not model.never_pending:
            base = self._drain_base
            self._runnable_ids.extend(base + t.tid for t in self.threads
                                      if model.pending(t.tid))
