"""Atomizer-style dynamic atomicity checker (Flanagan-Freund, paper §8).

Treats every outermost lock-delimited critical section as a declared
atomic block and checks it with Lipton reduction: an atomic block must
match the movability pattern ``R* [N] L*`` --

* lock acquires are *right movers*;
* lock releases are *left movers*;
* accesses to race-exposed variables (variables an auxiliary lockset
  analysis flags as unprotected) are *non-movers*; all other accesses are
  *both movers*.

A block commits at its first non-mover or left-mover; observing a right
mover or a second non-mover after the commit point means the block may
not be reducible to an atomic execution, and a violation is reported.

Unlike SVD, this detector *requires* the synchronization annotation (the
critical sections) -- it is the "a priori annotations" comparison point
of the paper's related-work discussion.

This is the library's canonical two-pass detector: the race-exposure
pass must finish before the reduction pass starts.  Under the
:class:`repro.engine.DetectorEngine` the extra pass is declared as a
dependency on the shared ``lockset`` analysis (``requires``), so the
engine schedules this checker one phase later and the exposure set is
computed once for everyone; standalone :meth:`AtomizerDetector.run` runs
a private lockset pass as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.report import ViolationReport
from repro.detectors.lockset import LocksetDetector
from repro.engine.analysis import Analysis
from repro.machine.events import (
    EV_ACQUIRE, EV_LOAD, EV_RELEASE, EV_STORE, EV_WAIT, MEMORY_KINDS,
    SYNC_KINDS,
)
from repro.trace.trace import Trace

PRE_COMMIT = 0
POST_COMMIT = 1


@dataclass
class _BlockState:
    depth: int = 0
    phase: int = PRE_COMMIT
    entry_loc: int = -1
    reported: bool = False


class AtomizerDetector(Analysis):
    """The reduction-based atomicity check (exposure set from lockset)."""

    name = "atomizer"
    interests = MEMORY_KINDS | SYNC_KINDS
    requires = ("lockset",)

    def __init__(self, program) -> None:
        self.program = program
        self.report = ViolationReport("atomizer", program)
        self._lockset: Optional[LocksetDetector] = None
        self._exposed: Set[int] = set()
        self._blocks: Dict[int, _BlockState] = {}

    def resolve(self, name: str, dependency) -> None:
        self._lockset = dependency.unwrap()

    def start(self, n_threads: int) -> None:
        self.report = ViolationReport("atomizer", self.program)
        self._blocks = {}
        # by the time this phase starts, the lockset dependency has
        # finished its pass over the same stream
        if self._lockset is not None:
            self._exposed = {row[3] for row in self._lockset.report.rows}

    def _race_exposed(self, trace: Trace) -> Set[int]:
        """Auxiliary pass: addresses the lockset analysis flags as racy."""
        lockset_report = LocksetDetector(self.program).run(trace)
        return {row[3] for row in lockset_report.rows}

    def consume_batch(self, batch) -> None:
        """Run one window through the per-thread atomic-block states,
        with an explicit kind filter up front (the shared window also
        carries kinds outside this detector's interests)."""
        blocks = self._blocks
        exposed = self._exposed
        load = EV_LOAD
        store = EV_STORE
        acquire = EV_ACQUIRE
        release = EV_RELEASE
        wait = EV_WAIT
        for (kind, seq, tid, _pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if kind == load or kind == store:
                is_access = True
            elif (kind == acquire or kind == release
                    or kind == wait):
                is_access = False
            else:
                continue  # alien kind in the shared window
            state = blocks.get(tid)
            if state is None:
                state = blocks[tid] = _BlockState()
            if is_access:
                if state.depth == 0:
                    continue
                if addr in exposed:
                    # non-mover inside an atomic block
                    if state.phase == POST_COMMIT:
                        if not state.reported:
                            state.reported = True
                            self.report.add(
                                (seq, tid, loc, addr,
                                 "atomicity-violation", state.entry_loc,
                                 -1, -1))
                    else:
                        state.phase = POST_COMMIT
            elif kind == acquire:
                if state.depth == 0:
                    state.depth = 1
                    state.phase = PRE_COMMIT
                    state.entry_loc = loc
                    state.reported = False
                else:
                    state.depth += 1
                    if state.phase == POST_COMMIT and not state.reported:
                        state.reported = True
                        self.report.add(
                            (seq, tid, loc, addr, "atomicity-violation",
                             state.entry_loc, -1, -1))
            else:
                if state.depth > 0:
                    state.depth -= 1
                    state.phase = POST_COMMIT  # left mover: commit

    def run(self, trace: Trace) -> ViolationReport:
        """Standalone two-pass run: private exposure pass, then check."""
        self.start(trace.n_threads)
        self._exposed = self._race_exposed(trace)
        for batch in trace.batches():
            self.consume_batch(batch)
        self.finish(trace.end_seq)
        return self.report
