"""Chaos tests for serve mode: inject analysis raises, stalled and
crashing executions, and slow consumers mid-serve, and assert the
supervisor *degrades, recovers, and reports truthfully* instead of
dying.

Every scenario checks three things: the supervisor's exit path stays
clean (run() returns an outcome, never raises), the obs counters prove
each transition actually happened, and the surfaced state (totals,
per-execution records, heartbeat, DB row) matches what was injected.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.request import urlopen

import pytest

import repro.faults.runtime as faults
import repro.obs as obs
from repro.faults import FaultPlan
from repro.faults.plan import Fault
from repro.harness.heartbeat import ServeHeartbeat
from repro.serve import ServeConfig, Supervisor
from repro.serve.supervisor import SLOW_CONSUMER_CHUNK_SECONDS

REPO = Path(__file__).resolve().parents[2]


def _run_supervised(config, plan=None, clock=None):
    supervisor = (Supervisor(config) if clock is None
                  else clock.attach(Supervisor(config, clock=clock)))
    with obs.session(tracing=False) as handle:
        with faults.install(plan):
            outcome = supervisor.run()
    return supervisor, outcome, handle.registry.snapshot()["counters"]


class ChunkClock:
    """Virtual seconds for a supervisor: ``step`` per executed chunk,
    plus, for a chunk of an execution in ``backpressure``, the seconds a
    ``serve.slow_consumer`` fault sleeps after it.  The ladder's rates
    and dwells then follow the work done, not the speed of the host."""

    def __init__(self, step, backpressure=None):
        self.now = 0.0
        self.step = step
        self.backpressure = backpressure or {}

    def __call__(self):
        return self.now

    def attach(self, supervisor):
        """Tick once per executed chunk: each ends in one
        ``note_events`` call."""
        note = supervisor.ladder.note_events

        def ticking(count, now=None):
            self.now += self.step
            if self.backpressure:
                (index,) = supervisor._active  # one execution at a time
                self.now += self.backpressure.get(index, 0.0)
            note(count, self.now)

        supervisor.ladder.note_events = ticking
        return supervisor


class TestInjectedExecutionFaults:
    def test_exec_crash_restarts_with_backoff_and_recovers(self):
        plan = FaultPlan([Fault("exec.crash", at=1)])
        config = ServeConfig(workloads=("apache",), executions=3,
                             concurrency=3, max_steps=2000,
                             backoff_base=0.01, backoff_cap=0.05)
        supervisor, outcome, counters = _run_supervised(config, plan)
        assert outcome in ("ok", "violations")  # recovered -> not degraded
        assert supervisor.totals.completed == 3
        assert supervisor.totals.restarts == 1
        assert counters["serve.fault.exec_crash"] == 1
        assert counters["serve.exec.restarted"] == 1
        assert counters["serve.exec.crashed"] == 1
        victim = supervisor.execs[1]
        assert victim.state == "done"
        assert "exec.crash" in victim.error

    def test_exec_crash_exhausting_restarts_degrades_truthfully(self):
        # the fault fires on attempt 0 only, so zero allowed restarts
        # means the execution fails for good -- and the supervisor says
        # so instead of dying or lying
        plan = FaultPlan([Fault("exec.crash", at=0)])
        config = ServeConfig(workloads=("apache",), executions=2,
                             concurrency=1, max_steps=2000,
                             max_restarts=0)
        supervisor, outcome, counters = _run_supervised(config, plan)
        assert outcome == "degraded"
        assert supervisor.totals.failed == 1
        assert supervisor.totals.completed == 1
        assert counters["serve.exec.failed"] == 1
        assert supervisor.execs[0].state == "failed"

    def test_exec_stall_is_killed_by_watchdog_then_recovers(self):
        plan = FaultPlan([Fault("exec.stall", at=0)])
        config = ServeConfig(workloads=("apache",), executions=2,
                             concurrency=2, max_steps=2000,
                             stall_timeout=0.2, wall_deadline=30.0,
                             backoff_base=0.01, backoff_cap=0.05)
        supervisor, outcome, counters = _run_supervised(config, plan)
        assert outcome in ("ok", "violations")
        assert supervisor.totals.watchdog_kills == 1
        assert counters["serve.watchdog.stall"] == 1
        assert counters["serve.fault.exec_stall"] == 1
        victim = supervisor.execs[0]
        assert victim.state == "done"       # restart recovered it
        assert victim.restarts == 1

    def test_wall_deadline_kills_runaway_execution(self):
        plan = FaultPlan([Fault("serve.slow_consumer", at=0, count=20)])
        config = ServeConfig(workloads=("apache",), executions=1,
                             concurrency=1, max_steps=50_000, chunk=200,
                             wall_deadline=0.3, stall_timeout=30.0,
                             max_restarts=0)
        supervisor, outcome, counters = _run_supervised(config, plan)
        assert outcome == "degraded"
        assert counters["serve.watchdog.deadline"] == 1
        assert supervisor.execs[0].status == "aborted:deadline"

    def test_slow_consumer_throttles_but_completes(self):
        plan = FaultPlan([Fault("serve.slow_consumer", at=0, count=1)])
        config = ServeConfig(workloads=("apache",), executions=2,
                             concurrency=2, max_steps=1500, chunk=500)
        supervisor, outcome, counters = _run_supervised(config, plan)
        assert outcome in ("ok", "violations")
        assert supervisor.totals.completed == 2
        assert counters["serve.fault.slow_consumer"] == 1


class TestAnalysisBreakerFleetwide:
    def test_repeated_analysis_failures_open_the_breaker(self):
        # analysis.raise quarantines svd inside each execution; after
        # breaker_threshold executions the supervisor stops paying for
        # it fleet-wide and new executions run without the analysis
        plan = FaultPlan([Fault("analysis.raise", at=5, target="svd")])
        config = ServeConfig(workloads=("apache",), executions=4,
                             concurrency=1, max_steps=2000,
                             breaker_threshold=2)
        supervisor, outcome, counters = _run_supervised(config, plan)
        assert outcome == "degraded"          # open breaker is degraded
        assert supervisor.breaker.open == ["svd"]
        assert counters["serve.breaker.opened"] == 1
        assert counters["serve.breaker.failure"] == 2
        # executions after the opening ran with an empty detector set,
        # which the supervisor downgrades to paused mode -- truthfully
        assert supervisor.totals.by_mode.get("paused", 0) >= 1
        assert supervisor.totals.completed == 4  # nothing died


class TestDegradationLadderUnderLoad:
    """Both tests run on a :class:`ChunkClock` of 1 ms per chunk, so
    the ladder's verdicts do not depend on the host's load."""

    def test_ladder_degrades_under_budget_and_counts_it(self):
        config = ServeConfig(workloads=("apache",), executions=20,
                             concurrency=2, max_steps=4000, chunk=400,
                             budget_events_per_sec=3000,
                             ladder_dwell=0.05)
        supervisor, outcome, counters = _run_supervised(
            config, clock=ChunkClock(0.001))
        assert counters["serve.ladder.full_to_sampled"] >= 1
        assert counters["serve.ladder.sampled_to_paused"] >= 1
        by_mode = supervisor.totals.by_mode
        assert by_mode.get("sampled", 0) >= 1
        assert by_mode.get("paused", 0) >= 1
        # detection degraded; the fleet itself stayed healthy
        assert supervisor.totals.failed == 0
        transitions = supervisor.ladder.snapshot()["transitions"]
        assert [t["from"] for t in transitions][:2] == ["full", "sampled"]

    def test_ladder_recovers_when_pressure_lifts(self):
        # slow consumers on the tail executions collapse the rolling
        # rate, so the ladder must climb back up before the fleet ends
        slow = range(12, 16)
        plan = FaultPlan([Fault("serve.slow_consumer", at=i, count=10)
                          for i in slow])
        config = ServeConfig(workloads=("apache",), executions=16,
                             concurrency=1, max_steps=1500, chunk=300,
                             budget_events_per_sec=20_000,
                             ladder_dwell=0.05, ladder_window=0.4)
        clock = ChunkClock(0.001, {i: SLOW_CONSUMER_CHUNK_SECONDS * 10
                                   for i in slow})
        supervisor, outcome, counters = _run_supervised(config, plan,
                                                        clock)
        degraded = (counters.get("serve.ladder.full_to_sampled", 0)
                    + counters.get("serve.ladder.sampled_to_paused", 0))
        recovered = (counters.get("serve.ladder.sampled_to_full", 0)
                     + counters.get("serve.ladder.paused_to_sampled", 0))
        assert degraded >= 1, counters
        assert recovered >= 1, counters


class TestDrain:
    def test_mid_run_shutdown_drains_and_reports(self):
        hb = ServeHeartbeat(total=50, stream=io.StringIO())
        config = ServeConfig(workloads=("apache",), executions=50,
                             concurrency=1, max_steps=4000,
                             drain_grace=2.0, heartbeat=hb)
        supervisor = Supervisor(config)
        done = supervisor._exec_done

        def stop_after_three(info, ok):
            done(info, ok)
            if supervisor.totals.completed >= 3:
                supervisor.request_shutdown("test-drain")
        supervisor._exec_done = stop_after_three
        outcome = supervisor.run()
        assert outcome == "interrupted"
        assert 3 <= supervisor.totals.completed < 50
        assert supervisor.totals.launched < 50  # launches stopped
        final = hb.summary()
        assert final["final"] is True and final["interrupted"] is True


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


class TestSigtermDrainSubprocess:
    """The full contract: a SIGTERMed ``repro serve`` process drains,
    flushes the final heartbeat, writes a truthful DB row, exits 3."""

    def test_sigterm_produces_final_heartbeat_and_db_row(self, tmp_path):
        db = tmp_path / "serve.db"
        hb_path = tmp_path / "hb.jsonl"
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workloads", "apache,pgsql", "--executions", "5000",
             "--concurrency", "2", "--max-steps", "200000",
             "--http-port", "0", "--port-file", str(port_file),
             "--db", str(db), "--heartbeat-out", str(hb_path),
             "--drain-grace", "1.0", "--quiet"],
            env=_env(), cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not port_file.exists():
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.05)
            port = int(port_file.read_text())
            with urlopen(f"http://127.0.0.1:{port}/status") as resp:
                status = json.load(resp)
            assert status["draining"] is False
            assert status["executions"]["total"] == 5000
            with urlopen(f"http://127.0.0.1:{port}/healthz") as resp:
                assert json.load(resp) == {"ok": True}
            proc.send_signal(signal.SIGTERM)
            stderr = proc.communicate(timeout=120)[1]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, stderr
        records = [json.loads(line)
                   for line in hb_path.read_text().splitlines()]
        final = records[-1]
        assert final["final"] is True and final["interrupted"] is True
        from repro import resultsdb
        with resultsdb.open_db(str(db)) as handle:
            record = handle.latest()
        assert record.kind == "serve"
        assert record.status == "interrupted"
        payload = record.payload
        assert payload["shutdown_reason"] == "SIGTERM"
        assert (payload["totals"]["completed"]
                + payload["totals"]["failed"]
                == payload["totals"]["launched"])
