"""DetectorEngine: registry, phase scheduling, single-pass dispatch.

The acceptance probe lives here: a 4-detector comparison (SVD, FRD,
lockset, Atomizer) over one recorded trace must perform exactly one pass
of the event stream per engine-scheduled phase -- verified both through
:class:`repro.engine.EngineStats` (events *delivered* per phase) and
through external counters the engine cannot see (trace iteration and
batch-window requests).  Windows are the only delivery path: an
analysis receives each event once, through ``consume_batch``, and one
that subscribes to events without it is refused.
"""

import pytest

from repro.core.online import OnlineSVD
from repro.engine import (Analysis, DetectorEngine, EngineError,
                          ObserverAnalysis, SharedAddressIndex, available,
                          canonical_name, create, describe,
                          parse_detector_list)
from repro.lang import compile_source
from repro.machine import Machine, RandomScheduler
from repro.machine.events import EV_LOAD, EV_STORE
from repro.trace.trace import Trace

from .. import conftest as fixtures


def _machine(source, threads, seed=1, switch_prob=0.4):
    program = compile_source(source)
    return program, Machine(
        program, threads,
        scheduler=RandomScheduler(seed=seed, switch_prob=switch_prob))


def _race_machine(seed=1):
    return _machine(fixtures.COUNTER_RACE,
                    [("worker", (15,)), ("worker", (15,))], seed=seed)


class TestRegistry:
    def test_available_names(self):
        names = available()
        for expected in ("svd", "frd", "lockset", "atomizer", "stale",
                         "lockorder", "hybrid", "offline", "precise"):
            assert expected in names

    def test_auxiliary_passes_hidden(self):
        assert "shared-index" not in available()
        assert "shared-index" in available(public_only=False)

    def test_aliases_resolve(self):
        assert canonical_name("lock-order") == "lockorder"
        assert canonical_name("stale-value") == "stale"
        assert canonical_name("svd-offline") == "offline"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown detector"):
            canonical_name("nonesuch")

    def test_create_builds_fresh_instances(self):
        program = compile_source(fixtures.COUNTER_RACE)
        first = create("frd", program)
        second = create("frd", program)
        assert first is not second
        assert first.name == "frd"

    def test_parse_detector_list(self):
        assert parse_detector_list("svd, frd") == ["svd", "frd"]
        assert parse_detector_list("frd,frd,lock-order") == ["frd",
                                                            "lockorder"]
        assert set(parse_detector_list("all")) == set(available())
        with pytest.raises(KeyError):
            parse_detector_list(", ,")

    def test_descriptions_exist(self):
        for name in available(public_only=False):
            assert describe(name)


class TestScheduling:
    def test_four_detector_probe_two_phases(self):
        """The acceptance probe: svd+frd+lockset stream in phase 0;
        atomizer (requires lockset) streams in phase 1; nothing else."""
        program, machine = _race_machine()
        engine = DetectorEngine(program,
                                ["svd", "frd", "lockset", "atomizer"])
        result = engine.run_machine(machine)
        stats = result.stats
        assert len(stats.phases) == 2
        assert stats.stream_passes == 2
        assert set(stats.phases[0].analyses) == {"svd", "frd", "lockset"}
        assert set(stats.phases[1].analyses) == {"atomizer"}
        # one pass per phase: each phase read the whole stream exactly once
        assert stats.phases[0].events_read == result.end_seq
        assert stats.phases[1].events_read == result.end_seq

    def test_external_event_count_probe(self):
        """Count stream materializations with probes the engine cannot
        see: a Trace subclass instrumenting both the per-event iterator
        and the window accessor.  A replay must request the windows once
        per streamed phase and never walk the per-event iterator; every
        phase still *delivers* the full stream (events_read ==
        end_seq)."""

        class ProbedTrace(Trace):
            iterations = 0
            batch_requests = 0

            def __iter__(self):
                ProbedTrace.iterations += 1
                return super().__iter__()

            def batches(self, *args, **kwargs):
                ProbedTrace.batch_requests += 1
                return super().batches(*args, **kwargs)

        program, machine = _race_machine()
        live = DetectorEngine(program, ["svd"])
        trace = live.run_machine(machine, keep_trace=True).trace
        probed = ProbedTrace(program, list(trace.events), trace.n_threads)

        engine = DetectorEngine(program,
                                ["svd", "frd", "lockset", "atomizer"])
        result = engine.run_trace(probed)
        assert ProbedTrace.iterations == 0   # no per-event pass at all
        assert ProbedTrace.batch_requests == 2  # one per phase, no more
        assert result.stats.stream_passes == 2
        # events-delivered: each phase saw the whole stream exactly once
        for phase in result.stats.phases:
            assert phase.events_read == result.end_seq

    def test_batch_path_analysis_never_sees_per_event_call(self):
        """An analysis receives the stream exclusively through
        consume_batch -- a per-event method it happens to define is
        never called -- and every event exactly once."""

        class BatchOnlyProbe(Analysis):
            name = "batch-only-probe"
            interests = None

            def __init__(self):
                self.per_event_calls = 0
                self.batches = 0
                self.events_delivered = 0

            def on_event(self, event):
                self.per_event_calls += 1

            def consume_batch(self, batch):
                self.batches += 1
                self.events_delivered += batch.count

        program, machine = _race_machine()
        batch_probe = BatchOnlyProbe()
        result = DetectorEngine(
            program, ["svd", batch_probe]).run_machine(machine)
        assert batch_probe.per_event_calls == 0
        assert batch_probe.batches >= 1
        assert batch_probe.events_delivered == result.end_seq

    @pytest.mark.parametrize("interests", [None, frozenset({EV_LOAD})],
                             ids=["all-kinds", "loads"])
    def test_subscriber_without_consume_batch_refused(self, interests):
        """An analysis that subscribes to events but has no
        consume_batch fails loudly before the run instead of silently
        seeing nothing."""

        class NoWindowProbe(Analysis):
            name = "no-window-probe"

        NoWindowProbe.interests = interests
        program, machine = _race_machine()
        with pytest.raises(EngineError, match="no consume_batch"):
            DetectorEngine(program,
                           ["svd", NoWindowProbe()]).run_machine(machine)
        assert machine.steps == 0
        trace = DetectorEngine(program, ["svd"]).run_machine(
            _race_machine()[1], keep_trace=True).trace
        with pytest.raises(EngineError, match="no consume_batch"):
            DetectorEngine(program, [NoWindowProbe()]).run_trace(trace)

    def test_dependencies_instantiated_once(self):
        program, machine = _race_machine()
        engine = DetectorEngine(program, ["stale", "hybrid", "atomizer"])
        # hybrid pulls lockset+frd, stale pulls shared-index, atomizer
        # reuses the same lockset instance
        names = sorted(engine._analyses)
        assert names == ["atomizer", "frd", "hybrid", "lockset",
                         "shared-index", "stale"]

    def test_pure_composition_phase_skipped(self):
        """hybrid subscribes to no events; when it is the only analysis
        in its phase the stream is not re-read."""
        program, machine = _race_machine()
        engine = DetectorEngine(program, ["hybrid"])
        result = engine.run_machine(machine)
        last = result.stats.phases[-1]
        assert last.analyses == ("hybrid",)
        assert last.skipped
        assert last.events_read == 0
        assert result.stats.stream_passes == len(result.stats.phases) - 1

    def test_cycle_detection(self):
        class A(Analysis):
            name = "cyc-a"
            requires = ("cyc-b",)

        class B(Analysis):
            name = "cyc-b"
            requires = ("cyc-a",)

        program, _ = _race_machine()
        engine = DetectorEngine(program)
        engine._analyses = {"cyc-a": A(), "cyc-b": B()}
        engine._requested = ["cyc-a"]
        with pytest.raises(EngineError, match="cycle"):
            engine._phases()

    def test_engine_is_single_use(self):
        program, machine = _race_machine()
        engine = DetectorEngine(program, ["svd"])
        engine.run_machine(machine)
        _, machine2 = _race_machine(seed=2)
        with pytest.raises(EngineError, match="one execution"):
            engine.run_machine(machine2)

    def test_no_analyses_rejected(self):
        program, machine = _race_machine()
        with pytest.raises(EngineError, match="no analyses"):
            DetectorEngine(program).run_machine(machine)

    def test_duplicate_name_rejected(self):
        program, _ = _race_machine()
        engine = DetectorEngine(program, ["frd"])
        clash = SharedAddressIndex(program)
        clash.name = "frd"
        with pytest.raises(EngineError, match="named 'frd'"):
            engine.add(clash)


class TestRecording:
    def test_no_recorder_for_single_online_phase(self):
        program, machine = _race_machine()
        result = DetectorEngine(program, ["svd", "frd"]).run_machine(machine)
        assert result.trace is None

    def test_recorder_attached_when_later_phases_exist(self):
        program, machine = _race_machine()
        result = DetectorEngine(program, ["svd", "atomizer"]).run_machine(
            machine)
        assert result.trace is not None
        assert result.trace.end_seq == result.end_seq

    def test_keep_trace_forces_recording(self):
        program, machine = _race_machine()
        result = DetectorEngine(program, ["svd"]).run_machine(
            machine, keep_trace=True)
        assert result.trace is not None
        assert len(result.trace) == result.end_seq


class TestEquivalence:
    """Engine runs must reproduce the standalone detector APIs exactly."""

    def _trace_and_reports(self, source, threads, detectors, seed=1):
        program, machine = _machine(source, threads, seed=seed)
        result = DetectorEngine(program, detectors).run_machine(
            machine, keep_trace=True)
        return program, result

    @pytest.mark.parametrize("name", ["frd", "lockset", "atomizer",
                                      "stale", "lockorder", "hybrid"])
    def test_engine_matches_standalone(self, name):
        program, result = self._trace_and_reports(
            fixtures.COUNTER_RACE, [("worker", (15,)), ("worker", (15,))],
            [name])
        standalone = create(name, program)
        expected = standalone.run(result.trace)
        got = result.report(name)
        assert [(v.kind, v.seq, v.tid, v.loc, v.address, v.other_loc,
                 v.other_tid) for v in got] == \
               [(v.kind, v.seq, v.tid, v.loc, v.address, v.other_loc,
                 v.other_tid) for v in expected]

    def test_svd_live_equals_replay(self):
        program, result = self._trace_and_reports(
            fixtures.COUNTER_RACE, [("worker", (15,)), ("worker", (15,))],
            ["svd"])
        replay = DetectorEngine(program, ["svd"]).run_trace(result.trace)
        live_report = result.report("svd")
        assert [(v.seq, v.kind, v.loc) for v in replay.report("svd")] == \
               [(v.seq, v.kind, v.loc) for v in live_report]
        live_svd: OnlineSVD = result.detector("svd")
        assert isinstance(live_svd, OnlineSVD)
        assert replay.detector("svd").instructions == live_svd.instructions

    def test_shared_index_matches_private_pass(self):
        program, result = self._trace_and_reports(
            fixtures.COUNTER_RACE, [("worker", (15,)), ("worker", (15,))],
            ["stale"])
        index = result.analysis("shared-index")
        expected = {e.addr for e in result.trace
                    if e.kind in (EV_LOAD, EV_STORE)
                    and len({x.tid for x in result.trace
                             if x.kind in (EV_LOAD, EV_STORE)
                             and x.addr == e.addr}) > 1}
        assert index.shared_addresses == expected


class TestResultSurface:
    def test_reports_keyed_by_request(self):
        program, machine = _race_machine()
        result = DetectorEngine(program, ["svd", "frd"]).run_machine(machine)
        assert set(result.reports) == {"svd", "frd"}
        assert result.report("svd") is result.reports["svd"]

    def test_unwrap_reaches_observer(self):
        program, machine = _race_machine()
        result = DetectorEngine(program, ["svd"]).run_machine(machine)
        assert isinstance(result.analysis("svd"), ObserverAnalysis)
        assert isinstance(result.detector("svd"), OnlineSVD)

    def test_reportless_analysis_raises(self):
        program, machine = _race_machine()
        engine = DetectorEngine(program, ["shared-index"])
        result = engine.run_machine(machine)
        with pytest.raises(KeyError, match="no report"):
            result.report("shared-index")
        assert result.reports == {}
