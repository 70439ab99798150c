"""Supervisor bookkeeping: per-execution records and fleet snapshots.

Everything the HTTP endpoint, the heartbeat stream and the results-DB
row report is derived from these structures; they are plain data so a
snapshot is a cheap dict the status server can serialize from its own
thread (built fresh per request under the GIL -- no locks)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: execution lifecycle states (``state`` of :class:`ExecInfo`)
EXEC_STATES = ("pending", "running", "restarting", "done", "failed")


@dataclass
class ExecInfo:
    """One logical execution of the fleet, across all its attempts."""

    index: int
    workload: str
    seed: int
    mode: str = "full"          # ladder level it launched under
    state: str = "pending"
    attempt: int = 0
    steps: int = 0
    events: int = 0
    violations: int = 0
    status: str = ""            # final machine/engine status text
    error: str = ""             # last failure, one line
    restarts: int = 0
    started_at: float = 0.0
    last_progress: float = 0.0
    #: watchdog / drain kill request: checked between chunks
    kill_reason: Optional[str] = None

    def kill(self, reason: str) -> None:
        if self.kill_reason is None:
            self.kill_reason = reason

    @property
    def killed(self) -> bool:
        return self.kill_reason is not None

    def progress(self, steps: int, events: int, now: float) -> None:
        self.steps = steps
        self.events = events
        self.last_progress = now

    def to_json(self) -> Dict[str, Any]:
        return {"index": self.index, "workload": self.workload,
                "seed": self.seed, "mode": self.mode, "state": self.state,
                "attempt": self.attempt, "steps": self.steps,
                "events": self.events, "violations": self.violations,
                "status": self.status, "error": self.error,
                "restarts": self.restarts}


@dataclass
class ViolationRecord:
    """One entry of the rolling violation feed."""

    index: int
    workload: str
    seed: int
    detector: str
    dynamic_count: int

    def to_json(self) -> Dict[str, Any]:
        return {"execution": self.index, "workload": self.workload,
                "seed": self.seed, "detector": self.detector,
                "dynamic_count": self.dynamic_count}


@dataclass
class ServeTotals:
    """Fleet-wide counters the supervisor maintains as executions
    finish; the truth the final DB row and heartbeat report."""

    launched: int = 0
    completed: int = 0
    failed: int = 0
    restarts: int = 0
    watchdog_kills: int = 0
    events: int = 0
    steps: int = 0
    violations: int = 0
    by_mode: Dict[str, int] = field(default_factory=dict)

    def count_mode(self, mode: str) -> None:
        self.by_mode[mode] = self.by_mode.get(mode, 0) + 1

    def to_json(self) -> Dict[str, Any]:
        return {"launched": self.launched, "completed": self.completed,
                "failed": self.failed, "restarts": self.restarts,
                "watchdog_kills": self.watchdog_kills,
                "events": self.events, "steps": self.steps,
                "violations": self.violations,
                "by_mode": dict(sorted(self.by_mode.items()))}


#: rolling violation-feed capacity (the endpoint serves the newest N)
VIOLATION_FEED_LIMIT = 200


class ViolationFeed:
    """Bounded newest-first violation list for ``/violations``."""

    def __init__(self, limit: int = VIOLATION_FEED_LIMIT) -> None:
        self.limit = limit
        self.total = 0
        self._records: List[ViolationRecord] = []

    def add(self, record: ViolationRecord) -> None:
        self.total += 1
        self._records.append(record)
        if len(self._records) > self.limit:
            del self._records[0]

    def to_json(self) -> Dict[str, Any]:
        return {"total": self.total,
                "recent": [r.to_json() for r in reversed(self._records)]}
