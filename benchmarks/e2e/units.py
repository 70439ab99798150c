"""The four end-to-end workloads: set-up, one unit, and its verdict.

A *unit* is what the closed-loop client does back to back: one
monitored execution, one trace replay, or one ``repro campaign``
invocation.  Every unit's inputs derive from the workload seed by hash
(:func:`unit_seed`), so the same seed always yields the same units and
the program receives only generated inputs.  Unit ``j`` uses input key
``j % pool``; a round ``r`` runs units ``r, r + ROUNDS, r + 2*ROUNDS,
...``, so the rounds of one run never repeat each other's inputs.

Each workload class imports :mod:`repro` in its constructor, so the
set-up time a round reports includes the imports that workload needs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: rounds per run; unit indices of one round step by this
ROUNDS = 3

#: RandomScheduler switch probability of every monitored or recorded
#: execution (the runner's default)
SWITCH_PROB = 0.3


def unit_seed(seed: int, workload: str, key: int) -> int:
    """The schedule (or campaign master) seed of input ``key``."""
    digest = hashlib.sha256(f"{seed}:{workload}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


@dataclass
class Outcome:
    """What one unit produced, minus its timing."""

    events: int
    verdict: Dict[str, Any]
    ok: bool
    #: numeric per-unit counters the traced ledger sums
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """Short stable hash of the canonical verdict document."""
        text = json.dumps(self.verdict, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class BenchWorkload:
    """Interface of the workloads below.  ``run(j)`` is the timed unit;
    ``outcome(j, raw)`` digests it afterwards, untimed."""

    name = ""
    #: distinct input keys; unit ``j`` uses key ``j % pool``
    pool = 1
    #: units every round runs, however short ``--seconds`` is
    min_units = 1

    def run(self, j: int):
        raise NotImplementedError

    def outcome(self, j: int, raw) -> Outcome:
        raise NotImplementedError

    def warmup(self) -> Tuple[Optional[int], Optional[str]]:
        """Run input key 0 untimed: (the seed it derives from, its
        digest), which every other run of that input must repeat."""
        return self.seed, self.outcome(0, self.run(0)).digest


class Monitor(BenchWorkload):
    """One execution monitored online by ``run_workload`` per unit."""

    run_frd = True

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.harness.runner import run_workload
        from repro.machine.scheduler import RandomScheduler
        from repro.resultsdb import violation_report_fingerprints
        self.seed = seed
        self._run_workload = run_workload
        self._scheduler = RandomScheduler
        self._fingerprints = violation_report_fingerprints
        self.workload = self.build()
        self.workload.program  # compile now: set-up, not the first unit

    def build(self):
        raise NotImplementedError

    def schedule_seed(self, j: int) -> int:
        return unit_seed(self.seed, self.name, j % self.pool)

    def run(self, j: int):
        return self._execute(self.schedule_seed(j))

    def _execute(self, schedule_seed: int):
        return self._run_workload(self.workload, seed=schedule_seed,
                                  switch_prob=SWITCH_PROB,
                                  run_frd=self.run_frd)

    def warmup(self) -> Tuple[Optional[int], Optional[str]]:
        """Input 0 of seed 0 on every seed: execution lengths can vary
        several-fold from schedule to schedule, and a fixed warm-up
        keeps that out of the set-up time.  Its digest is in
        ``golden.json``."""
        result = self._execute(unit_seed(0, self.name, 0))
        return 0, self.outcome(0, result).digest

    def outcome(self, j: int, result) -> Outcome:
        engine = result.engine
        svd = engine.detector("svd")
        counters = {"stream_passes": result.stats.stream_passes,
                    "svd.remote": svd.remote_messages,
                    "svd.cus": svd.cus_created,
                    "svd.checks": svd.violation_checks}
        if "frd" in result.reports:
            counters["frd.reports"] = result.reports["frd"].dynamic_count
        verdict = {"status": result.status, "end_seq": engine.end_seq,
                   "fingerprints": self._fingerprints(result.reports),
                   "failures": sorted(engine.failures)}
        ok = result.status == "finished" and not engine.failures
        return Outcome(engine.end_seq, verdict, ok, counters)

    def bare(self, j: int) -> Tuple[float, int]:
        """The same schedule with no observers: (seconds, events)."""
        machine = self.workload.make_machine(
            self._scheduler(seed=self.schedule_seed(j),
                            switch_prob=SWITCH_PROB))
        started = time.perf_counter()
        machine.run()
        return time.perf_counter() - started, machine.seq


class MonitorApache(Monitor):
    """Heavy sharing: SVD remote delivery, CU closure and FRD reports."""

    name = "monitor-apache"
    pool = 160

    def build(self):
        from repro.workloads import apache_log
        return apache_log(writers=3, requests=40)


class MonitorMysql(Monitor):
    """Almost no sharing: the interpreter and SVD's ALU path.

    The patched program: in the buggy one, schedules that crash a
    session end at 42k, 70k or 84k events, and the median unit jumped
    between those modes from seed to seed.  Every schedule of the
    patched program retires the same 83,663 events.
    """

    name = "monitor-mysql"
    pool = 120
    run_frd = False

    def build(self):
        from repro.workloads import mysql_prepared
        return mysql_prepared(queries=2, fixed=True)


class ReplayApache(BenchWorkload):
    """Record once, analyze many: load a saved trace and replay it."""

    name = "replay-apache"
    pool = 10
    detectors = ("frd", "lockset", "atomizer")

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.engine import DetectorEngine
        from repro.machine.scheduler import RandomScheduler
        from repro.resultsdb import violation_report_fingerprints
        from repro.trace.trace import Trace, TraceRecorder
        from repro.workloads import apache_log
        self.seed = seed
        self._engine = DetectorEngine
        self._load = Trace.load
        self._fingerprints = violation_report_fingerprints
        self.workload = apache_log(writers=3, requests=12)
        program = self.workload.program
        self.paths: List[str] = []
        self.saved_events = 0
        self.saved_bytes = 0
        for key in range(self.pool):
            recorder = TraceRecorder(program, len(self.workload.threads))
            machine = self.workload.make_machine(
                RandomScheduler(seed=unit_seed(seed, self.name, key),
                                switch_prob=SWITCH_PROB),
                observers=[recorder])
            machine.run()
            path = os.path.join(workdir, f"{key}.trace")
            trace = recorder.trace()
            trace.save(path)
            self.paths.append(path)
            self.saved_events += len(trace)
            self.saved_bytes += os.path.getsize(path)

    def run(self, j: int):
        trace = self._load(self.paths[j % self.pool], self.workload.program)
        return self._engine(self.workload.program,
                            self.detectors).run_trace(trace)

    def outcome(self, j: int, result) -> Outcome:
        events = len(result.trace)
        verdict = {"end_seq": result.end_seq, "events": events,
                   "fingerprints": self._fingerprints(result.reports),
                   "failures": sorted(result.failures)}
        counters = {"stream_passes": result.stats.stream_passes}
        return Outcome(events, verdict, not result.failures, counters)


#: every registry workload except the two large ones: many tiny tasks
CAMPAIGN_WORKLOADS = ("mysql-tablelock", "pgsql", "stringbuffer",
                      "queue-region", "bank-transfer", "bounded-buffer",
                      "rwlock-db", "double-checked-init", "spsc-ring",
                      "txn-bank", "txn-cart", "txn-session")

#: heartbeat fields that are totals, not wall-clock telemetry
HEARTBEAT_TOTALS = ("completed", "total", "events", "violations",
                    "failures")


class CampaignSmall(BenchWorkload):
    """One ``repro campaign`` invocation per unit, journaled, with a
    heartbeat stream and a results-DB row.  Inputs ``0..2`` run the
    strict memory model and ``3..5`` TSO, so each round alternates."""

    name = "campaign-small"
    pool = 6
    min_units = 2
    seeds = 15

    def __init__(self, seed: int, workdir: str, workers: int = 2) -> None:
        from repro import cli
        self._main = cli.main
        self.seed = seed
        self.workdir = workdir
        self.workers = workers

    def consistency(self, j: int) -> str:
        return "strict" if j % self.pool < self.pool // 2 else "tso"

    def _argv(self, j: int, unitdir: str, seeds: int) -> List[str]:
        return ["campaign", "--workloads", ",".join(CAMPAIGN_WORKLOADS),
                "--seeds", str(seeds), "-j", str(self.workers),
                "--master-seed",
                str(unit_seed(self.seed, self.name, j % self.pool)),
                "--consistency", self.consistency(j),
                "--journal", os.path.join(unitdir, "journal"),
                "--heartbeat-out", os.path.join(unitdir, "heartbeat.jsonl"),
                "--db", os.path.join(unitdir, "results.db"), "--quiet"]

    def _invoke(self, unitdir: str, argv: List[str]):
        os.makedirs(unitdir)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self._main(argv)
        return code, stdout.getvalue(), unitdir

    def warmup(self) -> Tuple[Optional[int], Optional[str]]:
        """A one-seed campaign (a fifteenth of a unit's tasks): the
        imports, pool start-up and every workload's first compile.  It
        is no unit's input, so it has no digest to check."""
        unitdir = os.path.join(self.workdir, "warmup")
        self._invoke(unitdir, self._argv(0, unitdir, seeds=1))
        shutil.rmtree(unitdir)
        return None, None

    def run(self, j: int):
        unitdir = os.path.join(self.workdir, f"unit-{j}-j{self.workers}")
        return self._invoke(unitdir, self._argv(j, unitdir, self.seeds))

    def outcome(self, j: int, raw) -> Outcome:
        code, stdout, unitdir = raw
        with open(os.path.join(unitdir, "heartbeat.jsonl")) as fh:
            final = json.loads(fh.readlines()[-1])
        shutil.rmtree(unitdir)
        totals = {key: final[key] for key in HEARTBEAT_TOTALS}
        verdict = {"exit": code, "table": stdout, "heartbeat": totals}
        ok = (code in (0, 1) and final.get("final") is True
              and totals["failures"] == 0
              and totals["completed"] == totals["total"])
        counters = {"tasks": totals["completed"]}
        return Outcome(totals["events"], verdict, ok, counters)


WORKLOADS = {cls.name: cls for cls in (MonitorApache, MonitorMysql,
                                       ReplayApache, CampaignSmall)}
