"""Violation records and report accounting.

The paper distinguishes *dynamic* false positives (every report instance;
each one would trigger an unnecessary BER rollback) from *static* false
positives (reports deduplicated by source statement; each one distracts a
programmer).  :class:`ViolationReport` keeps both views for any detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.program import Program


@dataclass(frozen=True)
class AnalysisFailure:
    """One quarantined analysis: the structured record of an analysis
    that raised mid-run and was isolated by the engine while the
    remaining analyses completed the pass.

    Attributes:
        analysis: name of the analysis that raised.
        phase: engine phase index it was running in.
        stage: where it raised -- "start", "event", "finish" or "result".
        event_index: events read in that phase when it raised (-1 when
            the failure was outside event dispatch).
        seq: program-trace position of the offending event (-1 likewise).
        error: ``TypeName: message`` of the exception.
        traceback_text: full traceback, for forensics.
    """

    analysis: str
    phase: int
    stage: str
    event_index: int
    seq: int
    error: str
    traceback_text: str = ""

    def describe(self) -> str:
        where = (f"event {self.event_index} (seq {self.seq})"
                 if self.event_index >= 0 else self.stage)
        return (f"analysis {self.analysis!r} quarantined in phase "
                f"{self.phase} at {where}: {self.error}")


@dataclass(frozen=True)
class Violation:
    """One dynamic detector report.

    Attributes:
        detector: reporting detector name ("svd", "frd", "lockset", ...).
        seq: program-trace position where the report fired.
        tid: thread the report was raised on.
        loc: static source-location index of the reporting statement.
        address: the memory word involved.
        kind: detector-specific discriminator (e.g. "2pl-conflict",
            "data-race").
        other_loc: source-location index of the conflicting statement,
            when known.
        other_tid: conflicting thread, when known.
        cu_birth_seq: trace position where the violated CU began, when
            known; a BER controller must roll back to a checkpoint at or
            before this point so the whole broken region re-executes.
    """

    detector: str
    seq: int
    tid: int
    loc: int
    address: int
    kind: str
    other_loc: int = -1
    other_tid: int = -1
    cu_birth_seq: int = -1


#: one dynamic report as a row tuple: :class:`Violation`'s fields after
#: ``detector`` (the report names its detector).  Detectors write only
#: rows; :attr:`ViolationReport.violations` builds the objects on read.
VIOLATION_FIELDS = ("seq", "tid", "loc", "address", "kind", "other_loc",
                    "other_tid", "cu_birth_seq")


class ViolationReport:
    """A collection of violations with static/dynamic accounting.

    Reports are held as :attr:`rows` in :data:`VIOLATION_FIELDS` order
    -- a tuple costs a small fraction of a frozen dataclass, and FRD
    writes thousands per execution.  Counting and deduplicating views
    read the rows; :attr:`violations` and iteration build
    :class:`Violation` objects afresh on each read.
    """

    def __init__(self, detector: str, program: Optional[Program] = None) -> None:
        self.detector = detector
        self.program = program
        #: one tuple per dynamic report, in :data:`VIOLATION_FIELDS` order
        self.rows: List[Tuple] = []
        self._dedup_keys: Set[Tuple] = set()
        #: reports suppressed by :meth:`add_once` (an already-seen key)
        self.dedup_rejected = 0
        #: the :class:`repro.engine.EngineStats` of the run that produced
        #: this report, attached by the engine so pass counts travel with
        #: the report; None when the detector ran standalone
        self.engine_stats = None
        #: :class:`AnalysisFailure` records of the run that produced this
        #: report (all quarantined analyses, not just this detector),
        #: attached by the engine; empty for a clean run
        self.failures: List[AnalysisFailure] = []

    def add(self, row: Tuple) -> None:
        """Append one report row (:data:`VIOLATION_FIELDS` order)."""
        self.rows.append(row)

    def add_once(self, row: Tuple, key: Optional[Tuple] = None) -> bool:
        """Add unless an equivalent violation was already reported.

        ``key`` defaults to the row's static key ``(kind, loc)`` -- the
        ``(kind, source statement)`` deduplication every detector used
        to reimplement privately; detectors with a different report
        identity (per lock, per address, per dynamic block) pass an
        explicit key.  Returns whether the row was added.
        """
        if key is None:
            key = (row[4], row[2])
        if key in self._dedup_keys:
            self.dedup_rejected += 1
            return False
        self._dedup_keys.add(key)
        self.rows.append(row)
        return True

    def already_reported(self, key: Tuple) -> bool:
        """Whether :meth:`add_once` has seen ``key``."""
        return key in self._dedup_keys

    @property
    def violations(self) -> List[Violation]:
        """The rows as :class:`Violation` objects, built on each read."""
        detector = self.detector
        return [Violation(detector, *row) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.violations)

    @property
    def dynamic_count(self) -> int:
        return len(self.rows)

    @property
    def degraded(self) -> bool:
        """Did the producing run quarantine any analysis?"""
        return bool(self.failures)

    @property
    def static_keys(self) -> Set[Tuple[str, int]]:
        return {(row[4], row[2]) for row in self.rows}

    @property
    def static_count(self) -> int:
        return len(self.static_keys)

    def static_locs(self) -> Set[int]:
        """Distinct reporting source-location indices."""
        return {row[2] for row in self.rows}

    def dynamic_per_million(self, instructions: int) -> float:
        """Dynamic reports per million executed instructions."""
        if instructions <= 0:
            return 0.0
        return self.dynamic_count * 1_000_000.0 / instructions

    def describe(self, limit: int = 20) -> str:
        """Human-readable summary grouped by static key."""
        if self.program is None:
            return f"{self.detector}: {self.dynamic_count} reports"
        # static key -> [count, address of the first report]
        grouped: Dict[Tuple[str, int], List[int]] = {}
        for row in self.rows:
            key = (row[4], row[2])
            group = grouped.get(key)
            if group is None:
                grouped[key] = [1, row[3]]
            else:
                group[0] += 1
        lines = [f"{self.detector}: {self.dynamic_count} dynamic reports, "
                 f"{len(grouped)} static sites"]
        for (kind, loc), (count, address) in sorted(grouped.items())[:limit]:
            where = (str(self.program.locs[loc])
                     if 0 <= loc < len(self.program.locs) else f"loc {loc}")
            addr_name = (self.program.name_of_address(address)
                         if address >= 0 else "?")
            lines.append(f"  [{kind}] {where}  (x{count}, on {addr_name})")
        return "\n".join(lines)
