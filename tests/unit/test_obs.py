"""Observability substrate tests: registry semantics, deterministic
merge, span export round-trips, and the scoped runtime switchboard."""

import json

import pytest

import repro.obs as obs
from repro.engine import DetectorEngine
from repro.harness.runner import run_workload
from repro.machine.scheduler import RandomScheduler
from repro.obs import (DEFAULT_BOUNDS, MetricsRegistry, NULL_REGISTRY,
                       Tracer, atomic_write_text, merge_snapshots,
                       snapshot_percentile)
from repro.workloads import stringbuffer


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.snapshot()["counters"] == {"a": 5}

    def test_add_shorthand(self):
        registry = MetricsRegistry()
        registry.add("a")
        registry.add("a", 2)
        assert registry.snapshot()["counters"] == {"a": 3}

    def test_gauge_set_and_set_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.set_max(3)  # lower: ignored
        assert registry.snapshot()["gauges"] == {"g": 7}
        gauge.set_max(9)
        assert registry.snapshot()["gauges"] == {"g": 9}

    def test_histogram_bucket_placement(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(10, 100))
        for value in (5, 10, 50, 1000):
            histogram.observe(value)
        data = registry.snapshot()["histograms"]["h"]
        assert data["bounds"] == [10, 100]
        assert data["buckets"] == [2, 1, 1]  # <=10, <=100, overflow
        assert data["count"] == 4
        assert data["sum"] == 1065
        assert (data["min"], data["max"]) == (5, 1000)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", bounds=(100, 10))

    def test_histogram_bounds_conflict_detected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(3, 4))

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        for name in ("zebra", "alpha", "middle"):
            registry.add(name)
        assert list(registry.snapshot()["counters"]) == \
            ["alpha", "middle", "zebra"]

    def test_snapshot_is_json_safe_and_canonical(self):
        registry = MetricsRegistry()
        registry.add("c", 2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(42)
        text = json.dumps(registry.snapshot(), sort_keys=True)
        assert json.loads(text) == registry.snapshot()


class TestMerge:
    def snap(self, **counters):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.add(name, value)
        return registry.snapshot()

    def test_counters_sum(self):
        merged = merge_snapshots([self.snap(a=1, b=2), self.snap(a=10)])
        assert merged["counters"] == {"a": 11, "b": 2}

    def test_gauges_take_max(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("peak").set(5)
        second.gauge("peak").set(3)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["gauges"] == {"peak": 5}

    def test_histograms_add_bucketwise(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", bounds=(10, 100)).observe(5)
        second.histogram("h", bounds=(10, 100)).observe(50)
        second.histogram("h", bounds=(10, 100)).observe(500)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        data = merged["histograms"]["h"]
        assert data["buckets"] == [1, 1, 1]
        assert data["count"] == 3
        assert (data["min"], data["max"]) == (5, 500)

    def test_histogram_bounds_mismatch_raises(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", bounds=(1, 2)).observe(1)
        second.histogram("h", bounds=(3, 4)).observe(3)
        with pytest.raises(ValueError):
            merge_snapshots([first.snapshot(), second.snapshot()])

    def test_merge_is_order_independent(self):
        snaps = [self.snap(a=i, b=2 * i) for i in range(5)]
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(list(reversed(snaps)))
        assert json.dumps(forward, sort_keys=True) == \
            json.dumps(backward, sort_keys=True)

    def test_merged_keys_sorted(self):
        merged = merge_snapshots([self.snap(zebra=1), self.snap(alpha=1)])
        assert list(merged["counters"]) == ["alpha", "zebra"]

    def test_empty_merge(self):
        assert merge_snapshots([]) == \
            {"counters": {}, "gauges": {}, "histograms": {}}


class TestTracer:
    def test_spans_record_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["outer"].start <= by_name["inner"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work", phase=1):
            pass
        path = tmp_path / "spans.jsonl"
        tracer.write_jsonl(str(path))
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["name"] == "work"
        assert records[0]["attrs"] == {"phase": 1}
        assert records[0]["dur_us"] >= 0

    def test_chrome_trace_pairs_match(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == 6
        # every B must close with an E of the same name, stack-style
        stack = []
        for event in events:
            assert event["ph"] in ("B", "E")
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack.pop() == event["name"]
        assert stack == []

    def test_chrome_timestamps_nondecreasing(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("x"):
                pass
        events = tracer.chrome_trace_events(pid=1)
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)


class TestRuntime:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.metrics() is NULL_REGISTRY
        obs.add("ignored")  # must be a silent no-op
        with obs.span("ignored"):
            pass
        assert obs.metrics().snapshot()["counters"] == {}

    def test_session_activates_and_restores(self):
        with obs.session() as handle:
            assert obs.metrics_enabled() and obs.tracing_enabled()
            obs.add("hits")
            with obs.span("work"):
                pass
        assert not obs.enabled()
        assert handle.registry.snapshot()["counters"] == {"hits": 1}
        assert [s.name for s in handle.tracer.spans] == ["work"]

    def test_session_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with obs.session():
                raise RuntimeError("boom")
        assert not obs.enabled()

    def test_metrics_scope_isolates_registry(self):
        with obs.session() as outer:
            obs.add("outer")
            with obs.metrics_scope() as inner:
                obs.add("inner")
                assert obs.tracing_enabled()  # tracer passes through
            obs.add("outer")
        assert inner.snapshot()["counters"] == {"inner": 1}
        assert outer.registry.snapshot()["counters"] == {"outer": 2}

    def test_metrics_only_session(self):
        with obs.session(tracing=False) as handle:
            assert obs.metrics_enabled()
            assert not obs.tracing_enabled()
        assert handle.tracer is None


class TestEngineIntegration:
    def run_engine(self, batch_size=None):
        workload = stringbuffer()
        kwargs = {} if batch_size is None else {"batch_size": batch_size}
        machine = workload.make_machine(
            RandomScheduler(seed=0, switch_prob=0.3), **kwargs)
        return DetectorEngine(workload.program,
                              ["svd", "frd"]).run_machine(
            machine, max_steps=50_000)

    def test_engine_metrics_recorded(self):
        with obs.session(tracing=False) as handle:
            result = self.run_engine()
        counters = handle.registry.snapshot()["counters"]
        assert counters["engine.runs"] == 1
        assert counters["engine.events.read"] == result.end_seq
        assert counters["engine.stream_passes"] == \
            result.stats.stream_passes
        # per-kind dispatch counts cover every event exactly once
        kinds = sum(value for name, value in counters.items()
                    if name.startswith("engine.events.kind."))
        assert kinds == result.end_seq
        assert counters["engine.analysis.svd.events"] > 0

    def test_event_counters_independent_of_window_size(self):
        """The per-kind read counters do not depend on where window
        boundaries fall: one-row windows and default windows count the
        same events; only the window count differs."""
        with obs.session(tracing=False) as wide_handle:
            wide = self.run_engine()
        with obs.session(tracing=False) as narrow_handle:
            narrow = self.run_engine(batch_size=1)
        wide_counters = wide_handle.registry.snapshot()["counters"]
        narrow_counters = narrow_handle.registry.snapshot()["counters"]
        events = {name: value for name, value in wide_counters.items()
                  if name.startswith("engine.events.")}
        assert events["engine.events.read"] == wide.end_seq
        assert events == {name: value
                          for name, value in narrow_counters.items()
                          if name.startswith("engine.events.")}
        assert narrow_counters["engine.batch_flushed"] == narrow.end_seq
        assert 1 <= wide_counters["engine.batch_flushed"] < narrow.end_seq
        assert wide.end_seq == narrow.end_seq

    def test_engine_spans_recorded(self):
        with obs.session() as handle:
            self.run_engine()
        names = {s.name for s in handle.tracer.spans}
        assert "engine.phase" in names
        assert "machine.run" in names
        assert "analysis.finish" in names

    def test_engine_stats_on_report_without_obs(self):
        result = self.run_engine()
        report = result.report("svd")
        assert report.engine_stats is result.stats
        assert report.engine_stats.stream_passes >= 1

    def test_same_verdicts_with_and_without_obs(self):
        bare = self.run_engine()
        with obs.session():
            observed = self.run_engine()
        assert bare.end_seq == observed.end_seq
        for name in ("svd", "frd"):
            assert bare.report(name).dynamic_count == \
                observed.report(name).dynamic_count


class TestRunnerIntegration:
    def test_run_workload_metrics(self):
        with obs.session(tracing=False) as handle:
            result = run_workload(stringbuffer(), seed=0,
                                  max_steps=50_000)
        counters = handle.registry.snapshot()["counters"]
        assert counters["runner.runs"] == 1
        assert counters["machine.events"] == result.engine.end_seq
        assert "violations.svd.dynamic" in counters
        histograms = handle.registry.snapshot()["histograms"]
        assert histograms["run.instructions"]["count"] == 1

    def test_default_bounds_are_sorted(self):
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)


class TestMergeEdgeCases:
    def snap(self, **counters):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.add(name, value)
        return registry.snapshot()

    def test_empty_iterable_not_just_empty_list(self):
        assert merge_snapshots(iter(())) == \
            {"counters": {}, "gauges": {}, "histograms": {}}

    def test_single_snapshot_merges_to_itself(self):
        registry = MetricsRegistry()
        registry.add("a", 3)
        registry.gauge("g").set(7)
        registry.histogram("h", bounds=(10, 100)).observe(5)
        snapshot = registry.snapshot()
        merged = merge_snapshots([snapshot])
        assert merged == snapshot
        # ... without aliasing the input's mutable histogram entry
        merged["histograms"]["h"]["buckets"][0] = 99
        assert snapshot["histograms"]["h"]["buckets"][0] == 1

    def test_mismatched_bounds_error_names_the_histogram(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("lat", bounds=(1, 2)).observe(1)
        second.histogram("lat", bounds=(1, 3)).observe(1)
        with pytest.raises(ValueError, match="lat"):
            merge_snapshots([first.snapshot(), second.snapshot()])

    def test_same_name_across_metric_kinds_stays_separate(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.add("x", 5)
        second.gauge("x").set(9)
        second.histogram("x").observe(2)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"]["x"] == 5
        assert merged["gauges"]["x"] == 9
        assert merged["histograms"]["x"]["count"] == 1

    def test_missing_sections_tolerated(self):
        # a snapshot from an older producer may omit whole sections
        merged = merge_snapshots([{"counters": {"a": 1}}, self.snap(a=2)])
        assert merged["counters"] == {"a": 3}


class TestPercentiles:
    def histogram(self, values, bounds=(10, 100, 1000)):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=bounds)
        for value in values:
            hist.observe(value)
        return hist

    def test_empty_histogram_is_zero(self):
        assert self.histogram([]).percentile(0.5) == 0.0

    def test_out_of_range_quantile_rejected(self):
        hist = self.histogram([5])
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_estimates_stay_within_observed_range(self):
        hist = self.histogram([5, 50, 500, 5000])
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert 5 <= hist.percentile(q) <= 5000

    def test_p50_lands_in_the_median_bucket(self):
        # 10 values in (10, 100], 2 above: p50 interpolates in bucket 1
        hist = self.histogram([50] * 10 + [500] * 2)
        p50 = hist.percentile(0.5)
        assert 10 < p50 <= 100

    def test_p95_prefers_the_tail_bucket(self):
        hist = self.histogram([5] * 10 + [900] * 10)
        assert hist.percentile(0.95) > 100

    def test_single_bucket_degenerate_is_truthful(self):
        # every observation is the same value: all percentiles equal it
        hist = self.histogram([42] * 7)
        for q in (0.1, 0.5, 0.99):
            assert hist.percentile(q) == 42

    def test_overflow_bucket_capped_at_observed_max(self):
        hist = self.histogram([5000, 6000, 7000])  # all overflow
        assert hist.percentile(0.99) <= 7000

    def test_snapshot_percentile_matches_live(self):
        hist = self.histogram([5, 50, 500])
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(10, 100, 1000))
        data = {"bounds": list(hist.bounds),
                "buckets": list(hist.buckets), "count": hist.count,
                "sum": hist.sum, "min": hist.min, "max": hist.max}
        assert snapshot_percentile(data, 0.5) == hist.percentile(0.5)

    def test_summary_renders_percentile_columns(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (5, 50, 500):
            hist.observe(value)
        text = obs.render_metrics_summary(registry.snapshot())
        header = [line for line in text.splitlines()
                  if "histogram" in line and "count" in line][0]
        assert "p50" in header and "p95" in header


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "first\n")
        atomic_write_text(str(path), "second\n")
        assert path.read_text() == "second\n"
        # no stray temp files left beside the destination
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_leaves_previous_content(self, tmp_path,
                                             monkeypatch):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "good\n")
        import repro.obs.io as io_mod
        monkeypatch.setattr(io_mod.os, "replace",
                            lambda *a: (_ for _ in ()).throw(
                                OSError("disk full")))
        with pytest.raises(OSError):
            atomic_write_text(str(path), "bad\n")
        assert path.read_text() == "good\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_metrics_out_uses_atomic_write(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "metrics.json"
        assert main(["run", "stringbuffer", "--max-steps", "20000",
                     "--metrics-out", str(out)]) in (0, 1)
        snapshot = json.loads(out.read_text())
        assert "counters" in snapshot
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
