"""Fault-injection subsystem tests: plans, the stream injector, engine
quarantine, worker faults and retries, and BER rollback storms.

The overarching oracle (mirrored by ``repro fuzz --faults``): any single
injected fault yields a *structured* degradation -- a quarantine record,
a salvage report, a retried task, a budget flag -- never an uncaught
exception and never a silently altered report from an untouched
component.
"""

import json

import pytest

import repro.faults as faults
import repro.obs as obs
from repro.ber import BerController
from repro.engine import DetectorEngine
from repro.faults import (CRASH_EXIT_CODE, Fault, FaultPlan, InjectedFault,
                          StreamInjector, apply_to_trace)
from repro.harness.pool import parallel_map
from repro.lang import compile_source
from repro.machine import MachineStatus
from repro.machine.batch import DEFAULT_BATCH_SIZE
from repro.machine.machine import Machine
from repro.machine.scheduler import RandomScheduler
from tests.conftest import COUNTER_LOCKED, COUNTER_RACE


def _event_tuples(events):
    return [(e.kind, e.seq, e.tid, e.pc, e.instr, e.addr, e.value,
             e.taken, e.target) for e in events]


def _keys(report):
    return [(v.seq, v.tid, v.loc, v.address, v.kind) for v in report]


def _record_trace(program, plan=None, seed=2, n=15):
    """One seeded run of COUNTER_RACE-shaped programs with the trace
    kept; ``plan`` installed for the duration when given."""
    with faults.install(plan):
        engine = DetectorEngine(program, ["svd"])
        machine = Machine(program, [("worker", (n,)), ("worker", (n,))],
                          scheduler=RandomScheduler(seed=seed,
                                                    switch_prob=0.5))
        result = engine.run_machine(machine, keep_trace=True)
    return result


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan([Fault("stream.drop", at=7),
                          Fault("analysis.raise", at=3, target="frd"),
                          Fault("stream.dup", at=9, count=4)], seed=11)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = FaultPlan.load(str(path))
        assert loaded == plan
        # the file is plain sorted JSON -- hand-editable
        data = json.loads(path.read_text())
        assert data["version"] == FaultPlan.VERSION

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault("stream.explode", at=1)

    def test_analysis_fault_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            Fault("analysis.raise", at=1)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Fault("stream.drop", at=-1)

    def test_newer_version_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            FaultPlan.from_json({"version": FaultPlan.VERSION + 1,
                                 "faults": []})

    def test_family_queries(self):
        plan = FaultPlan([Fault("stream.drop", at=1),
                          Fault("trace.corrupt", at=2),
                          Fault("worker.crash", at=3),
                          Fault("ber.storm", at=100, count=3)])
        assert [f.site for f in plan.stream_faults()] == ["stream.drop"]
        assert [f.site for f in plan.trace_faults()] == ["trace.corrupt"]
        assert plan.worker_fault_map() == {3: plan.faults[2]}
        assert plan.ber_storm_steps() == [100, 100, 100]

    def test_corruption_rng_is_position_pure(self):
        plan = FaultPlan(seed=5)
        a = plan.corruption_rng(42).getrandbits(32)
        assert plan.corruption_rng(42).getrandbits(32) == a
        assert plan.corruption_rng(43).getrandbits(32) != a

    def test_describe_lists_sites(self):
        plan = FaultPlan([Fault("ber.storm", at=10, count=2)], seed=1)
        assert "ber.storm @ 10" in plan.describe()


class TestStreamInjector:
    @pytest.fixture(scope="class")
    def clean(self):
        program = compile_source(COUNTER_RACE)
        return program, _record_trace(program).trace

    def test_drop_removes_one_event(self, clean):
        program, trace = clean
        faulted = apply_to_trace(trace, FaultPlan([Fault("stream.drop",
                                                         at=5)]))
        assert len(faulted) == len(trace) - 1
        expected = _event_tuples(trace)
        del expected[5]
        assert _event_tuples(faulted) == expected

    def test_dup_repeats_one_event(self, clean):
        program, trace = clean
        faulted = apply_to_trace(trace, FaultPlan([Fault("stream.dup",
                                                         at=5, count=2)]))
        assert len(faulted) == len(trace) + 2
        tuples = _event_tuples(faulted)
        assert tuples[5] == tuples[6] == tuples[7]

    def test_corrupt_mutates_only_the_target(self, clean):
        program, trace = clean
        faulted = apply_to_trace(trace,
                                 FaultPlan([Fault("stream.corrupt",
                                                  at=5)], seed=9))
        before, after = _event_tuples(trace), _event_tuples(faulted)
        assert len(after) == len(before)
        assert after[5] != before[5]
        assert after[:5] == before[:5] and after[6:] == before[6:]
        # same plan, same damage: corruption is seeded, not ambient
        again = apply_to_trace(trace,
                               FaultPlan([Fault("stream.corrupt",
                                                at=5)], seed=9))
        assert _event_tuples(again) == after

    def test_truncate_cuts_the_stream(self, clean):
        program, trace = clean
        faulted = apply_to_trace(trace,
                                 FaultPlan([Fault("stream.truncate",
                                                  at=20)]))
        assert len(faulted) == 20
        assert _event_tuples(faulted) == _event_tuples(trace)[:20]

    def test_live_machine_matches_trace_transform(self, clean):
        """The machine-level injector and the trace-level transform are
        the same function: a faulted live run records exactly the trace
        that faulting a clean recording produces."""
        program, trace = clean
        plan = FaultPlan([Fault("stream.drop", at=11),
                          Fault("stream.corrupt", at=30)], seed=4)
        live = _record_trace(program, plan=plan)
        assert _event_tuples(live.trace) == _event_tuples(
            apply_to_trace(trace, plan))

    def test_injector_not_installed_without_stream_faults(self):
        program = compile_source(COUNTER_LOCKED)
        plan = FaultPlan([Fault("worker.crash", at=0)])
        with faults.install(plan):
            machine = Machine(program, [("worker", (2,))],
                              scheduler=RandomScheduler(seed=0))
        assert machine._injector is None
        assert StreamInjector(FaultPlan([Fault("stream.drop",
                                               at=0)])) is not None


class TestEngineQuarantine:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(COUNTER_RACE)

    def _run(self, program, plan, detectors=("svd", "frd"),
             window=DEFAULT_BATCH_SIZE):
        with faults.install(plan):
            engine = DetectorEngine(program, list(detectors),
                                    batch_size=window)
            machine = Machine(program,
                              [("worker", (15,)), ("worker", (15,))],
                              scheduler=RandomScheduler(seed=2,
                                                        switch_prob=0.5),
                              batch_size=window)
            return engine.run_machine(machine)

    def test_injected_raise_is_quarantined(self, program):
        baseline = self._run(program, None)
        plan = FaultPlan([Fault("analysis.raise", at=10, target="frd")])
        with obs.session(tracing=False) as handle:
            result = self._run(program, plan)
        assert result.degraded
        failure = result.failures["frd"]
        assert failure.analysis == "frd"
        assert failure.stage == "event"
        assert "InjectedFault" in failure.error
        # the innocent analysis is byte-for-byte unaffected
        assert _keys(result.report("svd")) == _keys(
            baseline.report("svd"))
        counters = handle.registry.snapshot()["counters"]
        assert counters["engine.analysis_quarantined"] == 1

    @pytest.mark.parametrize("window", [1, 7, DEFAULT_BATCH_SIZE])
    @pytest.mark.parametrize("at", [0, 100])
    def test_raise_in_full_stream_analysis_is_window_invariant(
            self, program, at, window):
        """svd reads every kind (``interests`` None), so its fault
        ordinal is the phase's event index; the failure record is the
        same at every window size, and frd is untouched."""
        baseline = self._run(program, None)
        plan = FaultPlan([Fault("analysis.raise", at=at, target="svd")])
        result = self._run(program, plan, window=window)
        failure = result.failures["svd"]
        assert (failure.phase, failure.stage, failure.event_index,
                failure.seq, failure.error) == (
            0, "event", at, at,
            f"InjectedFault: injected analysis.raise in 'svd' at "
            f"dispatched event {at} (seq {at})")
        assert list(result.failures) == ["svd"]
        assert _keys(result.report("frd")) == _keys(
            baseline.report("frd"))

    def test_quarantined_analysis_report_still_materializes(self, program):
        plan = FaultPlan([Fault("analysis.raise", at=0, target="frd")])
        result = self._run(program, plan)
        report = result.report("frd")
        assert report.dynamic_count == 0
        assert [f.analysis for f in report.failures] == ["frd"]

    def test_fault_against_absent_analysis_is_inert(self, program):
        plan = FaultPlan([Fault("analysis.raise", at=0,
                                target="not-attached")])
        result = self._run(program, plan, detectors=("svd",))
        assert not result.degraded
        assert result.failures == {}

    def test_run_trace_applies_stream_faults_once(self, program):
        """A multi-phase trace replay must see one consistently faulted
        stream, not a fresh injection per phase."""
        trace = _record_trace(program).trace
        plan = FaultPlan([Fault("stream.truncate", at=25)])
        with faults.install(plan):
            # offline is multi-phase; svd single-phase
            result = DetectorEngine(program,
                                    ["svd", "offline"]).run_trace(trace)
        assert not result.degraded
        assert result.end_seq == list(trace)[24].seq + 1


def fault_double(payload):
    return payload * 2


class TestWorkerFaults:
    def test_crash_fault_surfaces_exit_code(self):
        plan = FaultPlan([Fault("worker.crash", at=1)])
        with faults.install(plan):
            outcomes = parallel_map(fault_double, [1, 2, 3], workers=2)
        statuses = [status for status, _ in outcomes]
        assert statuses == ["ok", "error", "ok"]
        assert f"exitcode {CRASH_EXIT_CODE}" in outcomes[1][1]

    def test_crash_fault_recovers_with_retry(self):
        plan = FaultPlan([Fault("worker.crash", at=1)])
        with obs.session(tracing=False) as handle:
            with faults.install(plan):
                outcomes = parallel_map(fault_double, [1, 2, 3],
                                        workers=2, retries=1)
        assert [(s, v) for s, v in outcomes] == [("ok", 2), ("ok", 4),
                                                 ("ok", 6)]
        counters = handle.registry.snapshot()["counters"]
        assert counters["pool.task_retried"] == 1
        assert counters["pool.worker_crash"] == 1

    def test_hang_fault_recovers_with_timeout_and_retry(self):
        plan = FaultPlan([Fault("worker.hang", at=0)])
        with faults.install(plan):
            outcomes = parallel_map(fault_double, [5, 6], workers=2,
                                    timeout=1.0, retries=1)
        assert [(s, v) for s, v in outcomes] == [("ok", 10), ("ok", 12)]

    def test_slow_fault_just_delays(self):
        plan = FaultPlan([Fault("worker.slow", at=0, count=1)])
        with faults.install(plan):
            outcomes = parallel_map(fault_double, [7], workers=2)
        assert outcomes == [("ok", 14)]

    def test_serial_mode_ignores_worker_faults(self):
        # in-process execution cannot survive os._exit; the plan only
        # binds to forked workers
        plan = FaultPlan([Fault("worker.crash", at=0)])
        with faults.install(plan):
            outcomes = parallel_map(fault_double, [1, 2], workers=1)
        assert [s for s, _ in outcomes] == ["ok", "ok"]

    def test_hang_fault_without_retry_is_a_timeout_outcome(self):
        # the hang fires on attempt 0 only; with no retries the task
        # must surface as `timeout` (never `error`, never a stuck pool)
        plan = FaultPlan([Fault("worker.hang", at=0)])
        with faults.install(plan):
            outcomes = parallel_map(fault_double, [5, 6], workers=2,
                                    timeout=1.0)
        assert outcomes[0][0] == "timeout"
        assert "exceeded" in outcomes[0][1]
        assert outcomes[1] == ("ok", 12)

    def test_hang_fault_recovers_on_retry_within_deadline(self):
        # attempt 0 hangs, the watchdog timeout reclaims the worker,
        # and the retry (fault-free by the attempt-0 contract) finishes
        # well inside one extra per-task deadline
        import time as _time
        plan = FaultPlan([Fault("worker.hang", at=0)])
        started = _time.perf_counter()
        with obs.session(tracing=False) as handle:
            with faults.install(plan):
                outcomes = parallel_map(fault_double, [5, 6], workers=2,
                                        timeout=1.0, retries=1)
        elapsed = _time.perf_counter() - started
        assert outcomes == [("ok", 10), ("ok", 12)]
        counters = handle.registry.snapshot()["counters"]
        assert counters["pool.task_retried"] == 1
        assert elapsed < 30.0  # one timeout + one clean attempt, slack


class TestServeFaultSites:
    """The serve-level fault family: execution-indexed, worker-shaped."""

    def test_serve_sites_round_trip_and_map(self, tmp_path):
        from repro.faults import SERVE_SITES
        plan = FaultPlan([Fault("exec.stall", at=4),
                          Fault("exec.crash", at=7),
                          Fault("serve.slow_consumer", at=9, count=3),
                          Fault("worker.crash", at=1)])
        path = str(tmp_path / "plan.json")
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert [f.site for f in loaded.serve_faults()] == [
            "exec.stall", "exec.crash", "serve.slow_consumer"]
        assert sorted(loaded.serve_fault_map()) == [4, 7, 9]
        assert loaded.serve_fault_map()[9].count == 3
        # families stay disjoint: serve sites never leak into the
        # worker map and vice versa
        assert sorted(loaded.worker_fault_map()) == [1]
        assert set(SERVE_SITES) == {"exec.stall", "exec.crash",
                                    "serve.slow_consumer"}

    def test_unknown_serve_site_rejected(self):
        with pytest.raises(ValueError):
            Fault("exec.explode", at=0)


_FLAKY_STATE = {"failures_left": 0}


def flaky_task(payload):
    if _FLAKY_STATE["failures_left"] > 0:
        _FLAKY_STATE["failures_left"] -= 1
        raise RuntimeError("transient")
    return payload + 1


class TestRetryPolicy:
    def test_serial_retry_recovers_flaky_task(self):
        _FLAKY_STATE["failures_left"] = 1
        outcomes = parallel_map(flaky_task, [10], workers=1, retries=2)
        assert outcomes == [("ok", 11)]

    def test_serial_retry_budget_respected(self):
        _FLAKY_STATE["failures_left"] = 5
        outcomes = parallel_map(flaky_task, [10], workers=1, retries=2)
        status, error = outcomes[0]
        assert status == "error"
        assert "transient" in error


class TestBerStorms:
    def _run(self, plan=None, budget=8, n=40):
        program = compile_source(COUNTER_LOCKED)
        with faults.install(plan):
            controller = BerController(
                program, [("worker", (n,)), ("worker", (n,))],
                RandomScheduler(seed=5, switch_prob=0.4),
                checkpoint_interval=50, recovery_window=100,
                region_rollback_budget=budget)
            outcome = controller.run(max_steps=100_000)
        return outcome, controller.machine.read_global("counter")

    def test_storm_exhausts_budget_but_preserves_result(self):
        clean, final_clean = self._run()
        assert not clean.budget_exhausted and clean.rollbacks == 0
        plan = FaultPlan([Fault("ber.storm", at=300, count=12)])
        with obs.session(tracing=False) as handle:
            outcome, final = self._run(plan)
        assert outcome.budget_exhausted
        assert outcome.rollbacks >= 8
        assert outcome.status == MachineStatus.FINISHED
        # degraded to serial, but the program still ran to the same
        # correct final state
        assert final == final_clean == 80
        counters = handle.registry.snapshot()["counters"]
        assert counters["ber.budget_exhausted"] == 1

    def test_small_storm_stays_within_budget(self):
        plan = FaultPlan([Fault("ber.storm", at=300, count=3)])
        outcome, final = self._run(plan)
        assert not outcome.budget_exhausted
        assert outcome.rollbacks >= 3
        assert final == 80


class TestRuntimeScoping:
    def test_install_is_scoped_and_nestable(self):
        assert faults.active() is None
        outer = FaultPlan([Fault("stream.drop", at=0)])
        inner = FaultPlan([Fault("stream.dup", at=1)])
        with faults.install(outer):
            assert faults.active() is outer
            with faults.install(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_install_none_is_a_no_op(self):
        with faults.install(None):
            assert faults.active() is None
            assert not faults.enabled()
