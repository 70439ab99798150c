"""Serve-mode unit tests: the degradation ladder, the analysis
breaker, incremental engine drives, the status endpoint, and small
in-process supervisor runs.

The chaos-style integration suite (faults, drains, subprocess signals)
lives in ``tests/integration/test_serve_chaos.py``; this file pins the
component contracts the supervisor composes.
"""

import dataclasses
import io
import json
import urllib.request

import pytest

import repro.obs as obs
from repro.engine import DetectorEngine
from repro.harness.heartbeat import ServeHeartbeat
from repro.machine import Machine, RandomScheduler, resolve_model
from repro.serve import (LEVELS, AnalysisBreaker, DegradationLadder,
                         ServeConfig, StatusServer, Supervisor)
from repro.workloads import WORKLOADS


class TestDegradationLadder:
    def test_no_budget_pins_full(self):
        ladder = DegradationLadder(None)
        ladder.note_events(10**9, now=0.0)
        ladder.note_events(10**9, now=1.0)
        assert ladder.maybe_transition(now=10.0) is None
        assert ladder.level == "full"

    def test_degrades_one_level_at_a_time(self):
        ladder = DegradationLadder(100.0, dwell=0.0)
        ladder.note_events(0, now=0.0)
        ladder.note_events(1000, now=1.0)  # 1000 ev/s >> budget
        assert ladder.maybe_transition(now=1.0) == ("full", "sampled")
        assert ladder.maybe_transition(now=1.0) == ("sampled", "paused")
        # already at the bottom: stays there, no exception, no death
        assert ladder.maybe_transition(now=1.0) is None
        assert ladder.level == "paused"

    def test_dwell_prevents_flapping(self):
        ladder = DegradationLadder(100.0, dwell=5.0)
        ladder.note_events(0, now=0.0)
        ladder.note_events(1000, now=1.0)
        assert ladder.maybe_transition(now=1.0) is None  # dwell not met
        assert ladder.maybe_transition(now=6.0) == ("full", "sampled")
        # the second hop needs its own dwell at the new level
        assert ladder.maybe_transition(now=6.1) is None

    def test_recovers_below_hysteresis_band(self):
        ladder = DegradationLadder(100.0, recover_fraction=0.5, dwell=0.0)
        ladder.note_events(0, now=0.0)
        ladder.note_events(1000, now=1.0)
        assert ladder.maybe_transition(now=1.0) == ("full", "sampled")
        # 75 ev/s is under budget but inside the hysteresis band: hold
        ladder._samples.clear()
        ladder.note_events(0, now=2.0)
        ladder.note_events(75, now=3.0)
        assert ladder.maybe_transition(now=3.0) is None
        # 10 ev/s is below recover_fraction * budget: recover
        ladder._samples.clear()
        ladder.note_events(0, now=4.0)
        ladder.note_events(10, now=5.0)
        assert ladder.maybe_transition(now=5.0) == ("sampled", "full")

    def test_transitions_counted_in_obs_and_snapshot(self):
        with obs.session(tracing=False) as handle:
            ladder = DegradationLadder(100.0, dwell=0.0)
            ladder.note_events(0, now=0.0)
            ladder.note_events(1000, now=1.0)
            ladder.maybe_transition(now=1.0)
        counters = handle.registry.snapshot()["counters"]
        assert counters["serve.ladder.full_to_sampled"] == 1
        snap = ladder.snapshot()
        assert snap["level"] == "sampled"
        assert snap["transitions"] == [
            {"ts": pytest.approx(1.0, abs=0.001),
             "from": "full", "to": "sampled"}]

    def test_levels_vocabulary(self):
        assert LEVELS == ("full", "sampled", "paused")

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DegradationLadder(-1.0)
        with pytest.raises(ValueError):
            DegradationLadder(100.0, recover_fraction=1.5)


class TestAnalysisBreaker:
    def test_opens_at_threshold_once(self):
        breaker = AnalysisBreaker(threshold=2)
        assert breaker.record_failure("svd") is False
        assert breaker.record_failure("svd") is True    # opens now
        assert breaker.record_failure("svd") is False   # already open
        assert breaker.open == ["svd"]
        assert breaker.filter(["svd", "frd"]) == ["frd"]

    def test_counts_per_analysis(self):
        breaker = AnalysisBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("svd")
            breaker.record_failure("frd")
        assert breaker.open == []
        assert breaker.snapshot()["failures"] == {"frd": 2, "svd": 2}

    def test_obs_counters(self):
        with obs.session(tracing=False) as handle:
            breaker = AnalysisBreaker(threshold=1)
            breaker.record_failure("svd")
        counters = handle.registry.snapshot()["counters"]
        assert counters["serve.breaker.failure"] == 1
        assert counters["serve.breaker.opened"] == 1


def _fresh_machine(workload, seed=7, consistency=None):
    kwargs = {}
    if consistency is not None:
        kwargs["memmodel"] = resolve_model(consistency, seed)
    return workload.make_machine(
        RandomScheduler(seed=seed, switch_prob=0.3), **kwargs)


FOUR_DETECTORS = ("svd", "frd", "lockset", "atomizer")


def _outcome(result, machine):
    """Everything a drive must reproduce: status, full violation
    lists, per-phase stats, failure records and the machine's end
    state."""
    return {
        "status": result.status,
        "end_seq": result.end_seq,
        "reports": {name: [dataclasses.asdict(v)
                           for v in report.violations]
                    for name, report in result.reports.items()},
        "phases": [dataclasses.asdict(phase)
                   for phase in result.stats.phases],
        "failures": {name: (f.analysis, f.phase, f.stage, f.event_index,
                            f.seq, f.error)
                     for name, f in result.failures.items()},
        "steps": machine.steps,
        "memory": list(machine.memory),
        "output": list(machine.output),
    }


def _run_machine(name, detectors, max_steps, consistency=None):
    workload = WORKLOADS[name]()
    machine = _fresh_machine(workload, consistency=consistency)
    result = DetectorEngine(workload.program, list(detectors)).run_machine(
        machine, max_steps=max_steps)
    return _outcome(result, machine)


def _drive(name, detectors, max_steps, chunk, consistency=None):
    workload = WORKLOADS[name]()
    machine = _fresh_machine(workload, consistency=consistency)
    drive = DetectorEngine(workload.program, list(detectors)).drive_machine(
        machine, max_steps=max_steps)
    while drive.advance(chunk):
        pass
    return _outcome(drive.finish(), machine)


def _span_shape(run):
    """(name, depth, attrs) of every span ``run`` emits, in completion
    order."""
    with obs.session() as handle:
        run()
    return [(span.name, span.depth, span.attrs)
            for span in handle.tracer.spans]


class TestMachineDrive:
    """The incremental drive must be indistinguishable from
    ``run_machine`` -- same seed, same reports, stats and failures,
    same machine end state, same spans."""

    @pytest.mark.parametrize("name", ["apache", "txn-bank"])
    @pytest.mark.parametrize("chunk", [1, 64, 100000])
    def test_differential_vs_run_machine(self, name, chunk):
        assert (_drive(name, ["svd"], 3000, chunk)
                == _run_machine(name, ["svd"], 3000))

    @pytest.mark.parametrize("chunk", [1, 64, 100000])
    def test_four_detectors_with_replay_phase(self, chunk):
        """The recorder is attached and atomizer replays the recording
        in phase 1."""
        outcome = _drive("apache", FOUR_DETECTORS, 3000, chunk)
        assert len(outcome["phases"]) == 2
        assert outcome == _run_machine("apache", FOUR_DETECTORS, 3000)

    @pytest.mark.parametrize("chunk", [1, 64, 100000])
    def test_tso(self, chunk):
        assert (_drive("apache", ["svd", "frd"], 3000, chunk,
                       consistency="tso")
                == _run_machine("apache", ["svd", "frd"], 3000,
                                consistency="tso"))

    @pytest.mark.parametrize("chunk", [1, 64, 100000])
    def test_step_limit_inside_a_chunk(self, chunk):
        """2,017 = 31 x 64 + 33: the limit cuts a 64-step chunk short."""
        outcome = _drive("apache", ["svd"], 2017, chunk)
        assert outcome["status"] == "step_limit"
        assert outcome["steps"] == 2017
        assert outcome == _run_machine("apache", ["svd"], 2017)

    def test_spans_match_run_machine(self):
        """``drive_machine(...).finish()`` emits run_machine's spans:
        the phase-0 span around ``machine.run``, then the replay
        phase."""
        workload = WORKLOADS["apache"]()

        def reference():
            DetectorEngine(workload.program,
                           list(FOUR_DETECTORS)).run_machine(
                _fresh_machine(workload), max_steps=3000)

        def driven():
            drive = DetectorEngine(
                workload.program, list(FOUR_DETECTORS)).drive_machine(
                _fresh_machine(workload), max_steps=3000)
            drive.advance(500)
            drive.finish()

        expected = _span_shape(reference)
        assert ("machine.run", 1, None) in expected
        assert _span_shape(driven) == expected

    def test_finish_without_advance_runs_everything(self):
        workload = WORKLOADS["apache"]()
        reference = DetectorEngine(workload.program, ["svd"]).run_machine(
            _fresh_machine(workload), max_steps=2000)
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=2000)
        result = drive.finish()
        assert result.end_seq == reference.end_seq

    def test_abort_reports_partial_truthfully(self):
        workload = WORKLOADS["apache"]()
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=5000)
        drive.advance(500)
        result = drive.abort("deadline")
        assert result.status == "aborted:deadline"
        assert 0 < result.end_seq <= drive.machine.seq
        assert "svd" in result.reports

    def test_finalizes_only_once(self):
        from repro.engine import EngineError
        workload = WORKLOADS["apache"]()
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=500)
        drive.finish()
        with pytest.raises(EngineError):
            drive.abort("again")


class TestStatusServer:
    def test_routes_and_errors(self):
        server = StatusServer(port=0)
        server.route("/status", lambda: {"answer": 42})
        server.route("/boom", lambda: 1 / 0)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"

            def get(path):
                try:
                    with urllib.request.urlopen(base + path) as resp:
                        return resp.status, json.load(resp)
                except urllib.error.HTTPError as err:
                    return err.code, json.load(err)

            assert get("/healthz") == (200, {"ok": True})
            assert get("/status") == (200, {"answer": 42})
            assert get("/status/") == (200, {"answer": 42})
            code, body = get("/nope")
            assert code == 404 and "/status" in body["routes"]
            code, body = get("/boom")
            assert code == 500 and "ZeroDivisionError" in body["error"]
        finally:
            server.stop()


class TestSupervisorSmall:
    def test_clean_fleet_completes_and_reports(self):
        hb = ServeHeartbeat(total=4, stream=io.StringIO())
        config = ServeConfig(workloads=("apache",), executions=4,
                             concurrency=2, max_steps=2000, chunk=500,
                             heartbeat=hb)
        supervisor = Supervisor(config)
        outcome = supervisor.run()
        assert outcome in ("ok", "violations")
        totals = supervisor.totals
        assert totals.launched == totals.completed == 4
        assert totals.failed == 0
        final = hb.summary()
        assert final["final"] is True
        assert final["completed"] == 4
        assert "interrupted" not in final
        assert final["level"] == "full"

    def test_per_execution_seeds_are_deterministic(self):
        def run():
            supervisor = Supervisor(ServeConfig(
                workloads=("apache",), executions=3, concurrency=3,
                max_steps=1500))
            supervisor.run()
            return [(e.seed, e.events, e.violations)
                    for _, e in sorted(supervisor.execs.items())]
        assert run() == run()

    def test_http_endpoint_serves_fleet_snapshot(self, tmp_path):
        port_file = tmp_path / "port"
        config = ServeConfig(workloads=("apache",), executions=2,
                             concurrency=1, max_steps=1500,
                             http_port=0, port_file=str(port_file))
        supervisor = Supervisor(config)
        outcome = supervisor.run()
        assert outcome in ("ok", "violations")
        # the endpoint is down after run(); the port file proves it was
        # bound, and the snapshot functions still work in-process
        assert port_file.read_text().strip().isdigit()
        snap = supervisor.status_snapshot()
        assert snap["totals"]["completed"] == 2
        assert snap["ladder"]["level"] == "full"
        assert snap["draining"] is False

    def test_shutdown_before_launch_interrupts_truthfully(self):
        supervisor = Supervisor(ServeConfig(
            workloads=("apache",), executions=5, concurrency=1,
            max_steps=1500))
        supervisor.request_shutdown("test")
        outcome = supervisor.run()
        assert outcome == "interrupted"
        assert supervisor.totals.launched == 0

    def test_rejects_unknown_workload(self):
        with pytest.raises(ValueError):
            ServeConfig(workloads=("nonesuch",))
