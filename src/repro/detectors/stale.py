"""Stale-value detector (Burrows & Leino 2002; paper §8 related work).

"The stale-value detector finds where stale values are used after
critical sections have ended, because this type of program behavior may
be an indicator of timing-dependent bugs."

Implementation: per-thread taint tracking over the event stream.  A
value loaded from a *shared* location while holding locks is tagged with
the protecting (lock, session) pairs; when a session ends (the lock is
released), values it protected become stale.  Using a stale value --
storing it, using it in an address computation, or branching on it --
raises a report.

Knowing which locations are shared requires a whole-trace pass; under
the :class:`repro.engine.DetectorEngine` that pass is the shared
``shared-index`` precomputation (declared via ``requires``), computed
once no matter how many analyses consume it.  Standalone
:meth:`StaleValueDetector.run` runs the same
:class:`~repro.engine.index.SharedAddressIndex` over the trace first.

This detector flags exactly the critical-section-value-escapes idiom
that produces SVD's strict-2PL-gap false positives (the ticket pattern),
making it the natural companion baseline for that analysis.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.report import ViolationReport
from repro.engine.analysis import Analysis
from repro.engine.index import SharedAddressIndex
from repro.isa.instructions import Reg
from repro.machine.events import (
    EV_ACQUIRE, EV_ALU, EV_BRANCH, EV_LOAD, EV_RELEASE, EV_STORE,
    EV_WAIT, MEMORY_KINDS, SYNC_KINDS,
)
from repro.trace.trace import Trace

#: a taint tag: (lock address, session number)
Tag = Tuple[int, int]


class _ThreadState:
    __slots__ = ("held", "sessions", "closed", "reg_taint", "mem_taint")

    def __init__(self) -> None:
        self.held: Dict[int, int] = {}        # lock -> current session
        self.sessions: Dict[int, int] = {}    # lock -> session counter
        self.closed: Set[Tag] = set()
        self.reg_taint: Dict[int, FrozenSet[Tag]] = {}
        self.mem_taint: Dict[int, FrozenSet[Tag]] = {}


class StaleValueDetector(Analysis):
    """Streaming stale-value analysis (shared set from ``shared-index``)."""

    name = "stale"
    interests = (MEMORY_KINDS | SYNC_KINDS
                 | frozenset({EV_ALU, EV_BRANCH}))
    requires = ("shared-index",)

    def __init__(self, program) -> None:
        self.program = program
        self.report = ViolationReport("stale-value", program)
        self._index = None
        self._shared: Set[int] = set()
        self._threads: Dict[int, _ThreadState] = {}

    def resolve(self, name: str, dependency) -> None:
        self._index = dependency

    def start(self, n_threads: int) -> None:
        self.report = ViolationReport("stale-value", self.program)
        self._threads = {}
        # the shared-index dependency finished in an earlier phase
        if self._index is not None:
            self._shared = set(self._index.shared_addresses)

    def _state_of(self, tid: int) -> _ThreadState:
        state = self._threads.get(tid)
        if state is None:
            state = _ThreadState()
            self._threads[tid] = state
        return state

    def _check_use(self, seq: int, tid: int, loc: int,
                   state: _ThreadState,
                   taint: Optional[FrozenSet[Tag]]) -> None:
        if not taint:
            return
        for lock, _session in [tag for tag in taint
                               if tag in state.closed]:
            self.report.add_once(
                (seq, tid, loc, lock, "stale-value-use", -1, -1, -1),
                key=(loc, lock))

    @staticmethod
    def _reg_taint(state: _ThreadState, operand) -> FrozenSet[Tag]:
        if isinstance(operand, Reg):
            return state.reg_taint.get(operand.index, frozenset())
        return frozenset()

    def consume_batch(self, batch) -> None:
        """Walk one window through the per-thread taint state, reading
        each event's operands from ``program.code[pc]``; kinds outside
        :attr:`interests` skip.  A Wait releases its lock like a
        Release."""
        code = self.program.code
        interests = self.interests
        shared = self._shared
        check = self._check_use
        reg_taint = self._reg_taint
        for (kind, seq, tid, pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if kind not in interests:
                continue
            state = self._state_of(tid)
            if kind == EV_ACQUIRE:
                session = state.sessions.get(addr, 0) + 1
                state.sessions[addr] = session
                state.held[addr] = session
            elif kind == EV_RELEASE or kind == EV_WAIT:
                # waiting releases the lock: values it protected go stale
                session = state.held.pop(addr, None)
                if session is not None:
                    state.closed.add((addr, session))
            elif kind == EV_LOAD:
                instr = code[pc]
                check(seq, tid, loc, state, reg_taint(state, instr.addr))
                if addr in shared:
                    # a shared location yields a *fresh* observation,
                    # tagged with the sessions currently protecting it;
                    # taint never flows through shared memory (that path
                    # crosses threads and is the race detectors' job)
                    taint = frozenset(
                        (lock, session)
                        for lock, session in state.held.items())
                else:
                    # thread-local slots carry whatever CS value was
                    # parked in them
                    taint = state.mem_taint.get(addr, frozenset())
                state.reg_taint[instr.dest.index] = taint
            elif kind == EV_ALU:
                instr = code[pc]
                state.reg_taint[instr.dest.index] = (
                    reg_taint(state, instr.src1)
                    | reg_taint(state, instr.src2))
            elif kind == EV_STORE:
                instr = code[pc]
                data_taint = reg_taint(state, instr.src)
                check(seq, tid, loc, state, data_taint)
                check(seq, tid, loc, state, reg_taint(state, instr.addr))
                if addr not in shared:
                    state.mem_taint[addr] = data_taint
            elif kind == EV_BRANCH:
                check(seq, tid, loc, state,
                      reg_taint(state, code[pc].cond))

    def run(self, trace: Trace) -> ViolationReport:
        """Standalone two-pass run: the shared-address index, then the
        check."""
        self.start(trace.n_threads)
        self._shared = SharedAddressIndex(self.program).run(trace)
        for batch in trace.batches():
            self.consume_batch(batch)
        self.finish(trace.end_seq)
        return self.report
