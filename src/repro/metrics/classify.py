"""Report classification against ground-truth bug statements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.report import ViolationReport


@dataclass
class DetectorMetrics:
    """Classified counts for one detector on one run (or aggregate)."""

    detector: str
    dynamic_tp: int = 0
    dynamic_fp: int = 0
    static_tp_locs: Set[int] = field(default_factory=set)
    static_fp_locs: Set[int] = field(default_factory=set)
    instructions: int = 0

    @property
    def dynamic_total(self) -> int:
        return self.dynamic_tp + self.dynamic_fp

    @property
    def static_tp(self) -> int:
        return len(self.static_tp_locs)

    @property
    def static_fp(self) -> int:
        return len(self.static_fp_locs)

    @property
    def found_bug(self) -> bool:
        return self.dynamic_tp > 0

    def dynamic_fp_per_million(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.dynamic_fp * 1_000_000.0 / self.instructions

    def merge(self, other: "DetectorMetrics") -> None:
        """Aggregate another run's metrics into this one (same detector)."""
        if other.detector != self.detector:
            raise ValueError("cannot merge metrics of different detectors")
        self.dynamic_tp += other.dynamic_tp
        self.dynamic_fp += other.dynamic_fp
        self.static_tp_locs |= other.static_tp_locs
        self.static_fp_locs |= other.static_fp_locs
        self.instructions += other.instructions

    def to_json(self) -> Dict:
        """JSON-safe form (loc sets as sorted lists); round-trips
        exactly through :meth:`from_json` -- what the campaign resume
        journal persists."""
        return {"detector": self.detector,
                "dynamic_tp": self.dynamic_tp,
                "dynamic_fp": self.dynamic_fp,
                "static_tp_locs": sorted(self.static_tp_locs),
                "static_fp_locs": sorted(self.static_fp_locs),
                "instructions": self.instructions}

    @classmethod
    def from_json(cls, data: Dict) -> "DetectorMetrics":
        return cls(detector=data["detector"],
                   dynamic_tp=data["dynamic_tp"],
                   dynamic_fp=data["dynamic_fp"],
                   static_tp_locs=set(data["static_tp_locs"]),
                   static_fp_locs=set(data["static_fp_locs"]),
                   instructions=data["instructions"])


def classify_reports(reports: Dict[str, ViolationReport],
                     bug_locs: Set[int],
                     instructions: int = 0) -> Dict[str, DetectorMetrics]:
    """Classify a whole engine run's reports, keyed like the input."""
    return {name: classify_report(report, bug_locs, instructions)
            for name, report in reports.items()}


def classify_report(report: ViolationReport, bug_locs: Set[int],
                    instructions: int = 0) -> DetectorMetrics:
    """Split a report into true/false positives against ``bug_locs``
    (reads the report's rows; builds no violation objects)."""
    metrics = DetectorMetrics(detector=report.detector,
                              instructions=instructions)
    tp_locs = metrics.static_tp_locs
    fp_locs = metrics.static_fp_locs
    tp = 0
    for row in report.rows:
        loc = row[2]
        if loc in bug_locs or row[5] in bug_locs:
            tp += 1
            tp_locs.add(loc)
        else:
            fp_locs.add(loc)
    metrics.dynamic_tp = tp
    metrics.dynamic_fp = len(report.rows) - tp
    return metrics
