"""Deterministic, site-addressed fault plans.

A :class:`FaultPlan` is a small, serializable description of *exactly
which* faults to inject into *exactly which* places of a run.  Faults
are addressed by site (what layer misbehaves) and position (which event,
task, or step), never by wall clock or randomness at injection time, so
the same plan against the same seeded run always produces the same
degraded execution -- the CLOTHO-style determinism that makes recovery
paths testable at all.

Sites (``Fault.site``):

``stream.drop`` / ``stream.dup`` / ``stream.corrupt`` / ``stream.truncate``
    Applied to the machine event stream before any observer sees it:
    drop the ``at``-th emitted event, deliver it twice, deliver a
    seeded-mutated copy, or cut the stream off from ``at`` onwards.
``trace.corrupt`` / ``trace.truncate``
    Applied to a *saved* trace file: scribble over record ``at``'s
    bytes, or cut the file mid-record ``at``.  These exercise the
    salvaging reader (:meth:`repro.trace.Trace.salvage_load`).
``analysis.raise``
    Raise :class:`InjectedFault` from analysis ``target`` at the
    ``at``-th event dispatched *to that analysis* -- the engine's
    quarantine path must isolate it.
``worker.crash`` / ``worker.hang`` / ``worker.slow``
    Applied inside a pool worker before it runs task index ``at``:
    hard-exit the process, sleep far past any timeout, or sleep
    briefly (``count`` tenths of a second).
``ber.storm``
    Force ``count`` rollbacks in a :class:`repro.ber.BerController`
    once execution reaches step ``at`` -- a rollback storm that burns
    through the per-region budget.
``exec.stall`` / ``exec.crash`` / ``serve.slow_consumer``
    Applied inside the :mod:`repro.serve` supervisor to execution index
    ``at``, on its *first* attempt only (mirroring the worker sites, so
    a restart demonstrably recovers): stall the execution until the
    watchdog kills it, crash it before it steps, or slow its event
    consumption (``count`` x 10ms per chunk) so the budget ladder
    engages.

The ``seed`` feeds the deterministic corruption generator only; plan
positions are always explicit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: every site the injector understands, by family
STREAM_SITES = ("stream.drop", "stream.dup", "stream.corrupt",
                "stream.truncate")
TRACE_SITES = ("trace.corrupt", "trace.truncate")
ANALYSIS_SITES = ("analysis.raise",)
WORKER_SITES = ("worker.crash", "worker.hang", "worker.slow")
BER_SITES = ("ber.storm",)
SERVE_SITES = ("exec.stall", "exec.crash", "serve.slow_consumer")

ALL_SITES = frozenset(STREAM_SITES + TRACE_SITES + ANALYSIS_SITES
                      + WORKER_SITES + BER_SITES + SERVE_SITES)


class InjectedFault(RuntimeError):
    """The exception raised by ``analysis.raise`` faults.  ``row`` is
    the index, in the window being delivered, of the event the fault
    fired at (None when it names no event)."""

    row: Optional[int] = None


@dataclass(frozen=True)
class Fault:
    """One site-addressed fault (see the module docstring for sites)."""

    site: str
    #: event index / record index / task index / machine step, per site
    at: int = 0
    #: analysis name for ``analysis.raise``; unused elsewhere
    target: str = ""
    #: repeats: duplicate copies, storm rollbacks, slow tenths-of-seconds
    count: int = 1

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} (choose from "
                f"{', '.join(sorted(ALL_SITES))})")
        if self.at < 0:
            raise ValueError(f"fault position must be >= 0, got {self.at}")
        if self.site in ANALYSIS_SITES and not self.target:
            raise ValueError(f"{self.site} needs a target analysis name")

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "at": self.at}
        if self.target:
            out["target"] = self.target
        if self.count != 1:
            out["count"] = self.count
        return out

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Fault":
        return cls(site=data["site"], at=int(data.get("at", 0)),
                   target=data.get("target", ""),
                   count=int(data.get("count", 1)))


@dataclass
class FaultPlan:
    """A deterministic set of faults plus the corruption seed."""

    VERSION = 1

    faults: List[Fault] = field(default_factory=list)
    seed: int = 0

    # -- site queries ------------------------------------------------------------

    def _by_family(self, sites: Sequence[str]) -> List[Fault]:
        return [f for f in self.faults if f.site in sites]

    def stream_faults(self) -> List[Fault]:
        return self._by_family(STREAM_SITES)

    def trace_faults(self) -> List[Fault]:
        return self._by_family(TRACE_SITES)

    def analysis_faults(self) -> List[Fault]:
        return self._by_family(ANALYSIS_SITES)

    def worker_faults(self) -> List[Fault]:
        return self._by_family(WORKER_SITES)

    def worker_fault_map(self) -> Dict[int, Fault]:
        """Task index -> fault, the picklable form shipped to workers."""
        return {f.at: f for f in self.worker_faults()}

    def serve_faults(self) -> List[Fault]:
        return self._by_family(SERVE_SITES)

    def serve_fault_map(self) -> Dict[int, Fault]:
        """Execution index -> fault, the form the serve supervisor
        consults before each execution's first attempt (the same shape
        as :meth:`worker_fault_map`)."""
        return {f.at: f for f in self.serve_faults()}

    def ber_storm_steps(self) -> List[int]:
        """One forced-rollback entry per storm repetition, sorted by the
        step each becomes due (a storm of ``count`` k is k entries at the
        same step: each rollback rewinds below it, re-arming the next)."""
        steps: List[int] = []
        for fault in self._by_family(BER_SITES):
            steps.extend([fault.at] * max(1, fault.count))
        return sorted(steps)

    def corruption_rng(self, position: int) -> random.Random:
        """The seeded generator a corrupting site at ``position`` uses --
        a pure function of (plan seed, position), nothing ambient."""
        return random.Random((self.seed << 20) ^ position)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {"version": self.VERSION, "seed": self.seed,
                "faults": [f.to_json() for f in self.faults]}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultPlan":
        version = data.get("version", cls.VERSION)
        if version > cls.VERSION:
            raise ValueError(f"fault plan version {version} is newer than "
                             f"this reader (max {cls.VERSION})")
        return cls(faults=[Fault.from_json(f)
                           for f in data.get("faults", [])],
                   seed=int(data.get("seed", 0)))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: not a fault plan: {exc}") from exc
        return cls.from_json(data)

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: empty"
        lines = [f"fault plan: {len(self.faults)} fault(s), "
                 f"seed {self.seed}"]
        for fault in self.faults:
            extra = f" target={fault.target}" if fault.target else ""
            extra += f" x{fault.count}" if fault.count != 1 else ""
            lines.append(f"  {fault.site} @ {fault.at}{extra}")
        return "\n".join(lines)
