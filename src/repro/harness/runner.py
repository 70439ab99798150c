"""Run one workload under any set of registered detectors.

Mirrors the paper's methodology (§6): every detector observes the
*identical* execution.  The heavy lifting lives in
:class:`repro.engine.DetectorEngine` -- SVD and the other online-capable
analyses attach to the live machine, two-pass detectors get the shared
recording replayed, and nothing is recorded at all when a single online
phase suffices.  A seed plays the role of a sampled execution segment;
different seeds give the paper's "multiple execution segments".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import repro.obs as obs
from repro.core.online import OnlineSVD, SvdConfig
from repro.core.posteriori import PosterioriLog
from repro.core.report import ViolationReport
from repro.engine import DetectorEngine, EngineResult
from repro.machine.memmodel import resolve_model
from repro.machine.scheduler import RandomScheduler
from repro.metrics.classify import DetectorMetrics, classify_reports
from repro.workloads.base import Workload, WorkloadOutcome


@dataclass
class RunResult:
    """Everything measured from one seeded run of one workload."""

    workload: str
    seed: int
    status: str
    instructions: int
    outcome: WorkloadOutcome
    svd: DetectorMetrics
    frd: Optional[DetectorMetrics]
    svd_report: ViolationReport
    frd_report: Optional[ViolationReport]
    log: PosterioriLog
    cus_created: int
    bug_locs: Set[int] = field(default_factory=set)
    #: every requested detector's report, keyed by registry name
    reports: Dict[str, ViolationReport] = field(default_factory=dict)
    #: classified metrics for every report in :attr:`reports`
    metrics: Dict[str, DetectorMetrics] = field(default_factory=dict)
    #: the full engine result (phase stats, analyses, optional trace)
    engine: Optional[EngineResult] = None

    @property
    def stats(self):
        """The engine's per-phase :class:`repro.engine.EngineStats`."""
        return self.engine.stats if self.engine is not None else None

    @property
    def posteriori_found_bug(self) -> bool:
        """Did the a-posteriori log implicate a ground-truth bug statement?"""
        bug_locs = self.bug_locs
        for row in self.log.entry_rows:
            # reader, remote and local statement (LOG_ENTRY_FIELDS)
            if (row[2] in bug_locs or row[6] in bug_locs
                    or row[8] in bug_locs):
                return True
        return False

    @property
    def posteriori_static_entries(self) -> int:
        return len(self.log.static_entries)

    @property
    def apparent_false_negative(self) -> bool:
        """The paper's miss criterion: the error manifested and FRD found
        the bug, but SVD found it neither online nor a posteriori."""
        if not self.outcome.manifested:
            return False
        if self.frd is None or not self.frd.found_bug:
            return False
        return not (self.svd.found_bug or self.posteriori_found_bug)


def detector_names(run_frd: bool = True,
                   detectors: Sequence[str] = ()) -> List[str]:
    """The runner's detector list: SVD always, FRD unless disabled, plus
    any extra registry names, deduplicated in order."""
    from repro.engine import canonical_name
    names = ["svd"]
    if run_frd:
        names.append("frd")
    for name in detectors:
        name = canonical_name(name)
        if name not in names:
            names.append(name)
    return names


def record_run_metrics(result: EngineResult, svd: OnlineSVD,
                        instructions: int) -> None:
    """Publish one run's deterministic quantities to the active registry."""
    registry = obs.metrics()
    registry.add("runner.runs")
    registry.add("machine.events", result.end_seq)
    registry.histogram("run.instructions").observe(instructions)
    registry.add("svd.cus_created", svd.cus_created)
    registry.add("svd.cus_merged", svd.cus_merged)
    registry.add("svd.cus_closed", svd.cus_closed)
    registry.add("svd.remote_messages", svd.remote_messages)
    registry.add("svd.violation_checks", svd.violation_checks)
    registry.gauge("svd.peak_tracked_blocks").set_max(
        sum(d.peak_tracked_blocks for d in svd.threads.values()))
    for name in sorted(result.reports):
        report = result.reports[name]
        registry.add(f"violations.{name}.dynamic", report.dynamic_count)
        registry.add(f"violations.{name}.static", report.static_count)
        registry.add(f"violations.{name}.deduped", report.dedup_rejected)


def run_workload(workload: Workload, seed: int = 0,
                 switch_prob: float = 0.3,
                 max_steps: Optional[int] = None,
                 svd_config: Optional[SvdConfig] = None,
                 run_frd: bool = True,
                 detectors: Sequence[str] = (),
                 keep_trace: bool = False,
                 consistency: str = "strict",
                 model_seed: int = 0) -> RunResult:
    """Execute a workload once under the engine.

    ``detectors`` adds registry names beyond the default SVD(+FRD) pair;
    their reports and classified metrics land in
    :attr:`RunResult.reports` / :attr:`RunResult.metrics`.

    ``consistency`` selects the memory model the live machine executes
    under ("strict" or "tso", see :mod:`repro.machine.memmodel`);
    ``model_seed`` seeds the TSO store-buffer capacities.  Detectors
    observe the stream in the machine's visibility order, where a
    buffered store's ``STORE`` row appears when the store drains.  SVD
    reads the storing thread's registers and control stack when it
    processes that row, so under TSO it takes a buffered store's
    dataflow when the store drains, not when its thread executed it
    (see ``docs/consistency.md``).
    """
    program = workload.program
    names = detector_names(run_frd, detectors)
    engine = DetectorEngine(program, names, svd_config=svd_config)
    machine = workload.make_machine(
        RandomScheduler(seed=seed, switch_prob=switch_prob),
        observers=[],
        memmodel=resolve_model(consistency, model_seed))
    with obs.span("runner.run_workload", workload=workload.name, seed=seed):
        result = engine.run_machine(machine, max_steps=max_steps,
                                    keep_trace=keep_trace)
    outcome = workload.validate(machine)
    bug_locs = workload.bug_locs()
    svd: OnlineSVD = result.detector("svd")
    instructions = svd.instructions

    metrics = classify_reports(result.reports, bug_locs, instructions)
    if obs.metrics_enabled():
        record_run_metrics(result, svd, instructions)
    frd_report = result.reports.get("frd")
    return RunResult(
        workload=workload.name,
        seed=seed,
        status=result.status or "finished",
        instructions=instructions,
        outcome=outcome,
        svd=metrics["svd"],
        frd=metrics.get("frd"),
        svd_report=result.reports["svd"],
        frd_report=frd_report,
        log=svd.log,
        cus_created=svd.cus_created,
        bug_locs=bug_locs,
        reports=dict(result.reports),
        metrics=metrics,
        engine=result,
    )
