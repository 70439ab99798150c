"""Hybrid race detector (Choi et al. / von Praun-Gross style, paper §8).

"Choi et al. have proposed hybrid detectors that have both low overhead
(lockset) and high accuracy (happens-before)."  The classical structure:
the cheap lockset pass nominates candidate variables; the expensive
happens-before pass then confirms or refutes each candidate on the same
trace.  Reports are the intersection: races that are both
inconsistently locked *and* provably unordered.

Under the :class:`repro.engine.DetectorEngine` this detector is pure
composition: it subscribes to *no* events and simply intersects the
finished ``lockset`` and ``frd`` analyses it ``requires`` -- the engine
schedules it in a later phase and skips the event stream entirely for
subscriber-less phases.  Standalone :meth:`HybridRaceDetector.run`
builds both passes privately as before.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.core.report import ViolationReport
from repro.detectors.frd import FrontierRaceDetector
from repro.detectors.lockset import LocksetDetector
from repro.engine.analysis import Analysis
from repro.trace.trace import Trace


class HybridRaceDetector(Analysis):
    """Lockset-filtered happens-before detection."""

    name = "hybrid"
    interests: Optional[FrozenSet[int]] = frozenset()
    requires = ("lockset", "frd")

    def __init__(self, program) -> None:
        self.program = program
        self.report = ViolationReport("hybrid", program)
        self._lockset: Optional[LocksetDetector] = None
        self._frd: Optional[FrontierRaceDetector] = None

    def resolve(self, name: str, dependency) -> None:
        if name == "lockset":
            self._lockset = dependency.unwrap()
        elif name == "frd":
            self._frd = dependency.unwrap()

    def start(self, n_threads: int) -> None:
        self.report = ViolationReport("hybrid", self.program)

    def finish(self, end_seq: int) -> None:
        assert self._lockset is not None and self._frd is not None
        self._compose(self._lockset.report, self._frd.report)

    def _compose(self, lockset_report: ViolationReport,
                 frd_report: ViolationReport) -> None:
        candidates: Set[int] = {row[3] for row in lockset_report.rows}
        if not candidates:
            return
        add = self.report.add
        for (seq, tid, loc, address, _kind, other_loc, other_tid,
             _birth) in frd_report.rows:
            if address in candidates:
                add((seq, tid, loc, address, "confirmed-race", other_loc,
                     other_tid, -1))

    def run(self, trace: Trace) -> ViolationReport:
        """Standalone: run both constituent passes privately."""
        self.start(trace.n_threads)
        self._compose(LocksetDetector(self.program).run(trace),
                      FrontierRaceDetector(self.program).run(trace))
        return self.report

    def candidate_count(self, trace: Trace) -> int:
        """How many addresses the cheap pass nominated (cost proxy)."""
        return len({row[3]
                    for row in LocksetDetector(self.program).run(trace).rows})
