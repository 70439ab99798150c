"""Differential oracle: one program, one schedule, every SVD variant.

Each probe runs a MiniSMP program once through the
:class:`repro.engine.DetectorEngine` with the online detector attached
live and the trace kept, then re-checks the *identical* recorded events
with every other checker in a second engine run over the recording:

* the online algorithm replayed over the trace (must agree **exactly**
  with the live run -- the detector consumes only the event stream, so
  any divergence is a determinism bug in the detector, recorder or
  engine dispatch);
* the offline three-pass algorithm, with and without control-dependence
  merging (§4.1 vs the online §4.3 restriction);
* the frontier race detector, whose reports are classified with
  :func:`repro.metrics.classify.classify_report` against the sites the
  online detector flagged.

Online and offline SVD legitimately diverge on *some* programs (the
online detector infers sharedness at block granularity and approximates
dependences), so offline disagreements are recorded and categorised
rather than treated as failures; the replay comparison is the hard
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.core.online import OnlineSVD, SvdConfig
from repro.engine import DetectorEngine
from repro.lang import compile_source
from repro.machine.machine import Machine
from repro.machine.scheduler import RandomScheduler
from repro.metrics.classify import DetectorMetrics, classify_report
from repro.trace.trace import Trace

#: the per-violation identity used for exact live-vs-replay comparison:
#: a report row, in :data:`repro.core.report.VIOLATION_FIELDS` order
ViolationKey = Tuple[int, int, int, int, str, int, int, int]


def _violation_keys(report) -> List[ViolationKey]:
    return list(report.rows)


def replay_online(program, trace: Trace,
                  config: Optional[SvdConfig] = None) -> OnlineSVD:
    """Run the online detector over a recorded trace instead of a live
    machine.  The detector only ever sees the event stream, so this must
    reproduce a live run over the same events exactly."""
    engine = DetectorEngine(program, ["svd"], svd_config=config)
    return engine.run_trace(trace).detector("svd")


@dataclass
class DifferentialResult:
    """All verdicts from one probe of one ``(program, seed)`` pair."""

    seed: int
    status: str
    instructions: int
    online_verdict: bool
    replay_verdict: bool
    offline_verdict: bool
    offline_nc_verdict: bool
    frd_verdict: bool
    #: None when live and replayed online SVD agree exactly; otherwise a
    #: description of the first difference.  This must always be None.
    replay_divergence: Optional[str]
    #: FRD reports classified against the online detector's static
    #: sites: ``dynamic_tp`` = corroborated, ``dynamic_fp`` = FRD-only.
    frd_vs_svd: DetectorMetrics
    online_static_locs: Set[int] = field(default_factory=set)
    offline_static_locs: Set[int] = field(default_factory=set)

    @property
    def any_violation(self) -> bool:
        return (self.online_verdict or self.offline_verdict
                or self.offline_nc_verdict or self.frd_verdict)

    def disagreements(self) -> List[str]:
        """Categorised detector divergences (informational except for
        ``replay``, which is a genuine bug when present)."""
        kinds: List[str] = []
        if self.replay_divergence is not None:
            kinds.append("replay")
        if self.online_verdict and not self.offline_verdict:
            kinds.append("online-not-offline")
        if self.offline_verdict and not self.online_verdict:
            kinds.append("offline-not-online")
        if self.online_verdict != self.offline_nc_verdict:
            kinds.append("online-vs-offline-nc")
        if self.frd_verdict != self.online_verdict:
            kinds.append("frd-vs-online")
        return kinds


def run_differential(source: str, seed: int,
                     n_threads: int = 2,
                     switch_prob: float = 0.5,
                     max_steps: int = 6000,
                     config: Optional[SvdConfig] = None,
                     program=None) -> DifferentialResult:
    """Execute one probe; see the module docstring for what is compared."""
    if program is None:
        program = compile_source(source)
    live_engine = DetectorEngine(program, ["svd"], svd_config=config)
    machine = Machine(program,
                      [(f"t{t}", ()) for t in range(n_threads)],
                      scheduler=RandomScheduler(seed=seed,
                                                switch_prob=switch_prob))
    live_result = live_engine.run_machine(machine, max_steps=max_steps,
                                          keep_trace=True)
    live: OnlineSVD = live_result.detector("svd")
    status = live_result.status
    trace = live_result.trace
    assert trace is not None

    # one replay engine: the recording streams once per phase for every
    # trace-side checker, instead of once per detector
    replay = DetectorEngine(
        program, ["svd", "offline", "offline-nc", "frd"],
        svd_config=config).run_trace(trace)
    replayed: OnlineSVD = replay.detector("svd")
    divergence = None
    live_keys = _violation_keys(live.report)
    replay_keys = _violation_keys(replayed.report)
    if live_keys != replay_keys:
        divergence = (f"live reported {len(live_keys)} violations, "
                      f"replay {len(replay_keys)}; first difference: "
                      f"{_first_difference(live_keys, replay_keys)}")

    offline_report = replay.report("offline")
    offline_nc_report = replay.report("offline-nc")
    frd_report = replay.report("frd")
    frd_vs_svd = classify_report(frd_report, live.report.static_locs(),
                                 live.instructions)

    return DifferentialResult(
        seed=seed,
        status=status,
        instructions=live.instructions,
        online_verdict=live.report.dynamic_count > 0,
        replay_verdict=replayed.report.dynamic_count > 0,
        offline_verdict=offline_report.dynamic_count > 0,
        offline_nc_verdict=offline_nc_report.dynamic_count > 0,
        frd_verdict=frd_report.dynamic_count > 0,
        replay_divergence=divergence,
        frd_vs_svd=frd_vs_svd,
        online_static_locs=live.report.static_locs(),
        offline_static_locs=offline_report.static_locs(),
    )


def _first_difference(a: List[ViolationKey],
                      b: List[ViolationKey]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"index {i}: live={x} replay={y}"
    return f"length mismatch after index {min(len(a), len(b)) - 1}"
