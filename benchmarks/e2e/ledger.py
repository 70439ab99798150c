"""The per-layer ledger: spans around calls into each layer.

:class:`Instrumentation` replaces the public entry points of each layer
with timing wrappers for the length of a ``with`` block and restores
the originals on exit; nothing inside ``src/`` is edited.  Spans are
kept in memory (:class:`SpanLog`) as name, start, end, parent and unit
id, and written out afterwards as Chrome trace-event JSON.

A span's *self time* is its duration minus its children's.  The ledger
of a workload (:func:`layer_metrics`) turns the spans of a traced pass,
the bare-machine arm and the untraced pass over the same units into
the per-layer metrics of :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: per workload, the per-layer metrics the traced run reports, with
#: their units and which direction is better
LAYER_METRICS: Dict[str, List[Tuple[str, str, str]]] = {
    "monitor-apache": [
        ("machine.build_ms", "ms", "lower"),
        ("machine.bare_ns_per_event", "ns/event", "lower"),
        ("engine.self_ns_per_event", "ns/event", "lower"),
        ("engine.events_per_window", "events/window", "higher"),
        ("engine.stream_passes", "count", "lower"),
        ("svd.ns_per_event", "ns/event", "lower"),
        ("svd.finish_ms", "ms", "lower"),
        ("svd.remote_per_kevent", "count/kevent", "lower"),
        ("svd.cus_per_kevent", "count/kevent", "lower"),
        ("svd.checks_per_kevent", "count/kevent", "lower"),
        ("frd.ns_per_event", "ns/event", "lower"),
        ("frd.finish_ms", "ms", "lower"),
        ("runner.post_ms", "ms", "lower"),
        ("reports.frd_per_exec", "count", "lower"),
        ("lang.compile_ms", "ms", "lower"),
        ("ledger.coverage", "ratio", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
    ],
    "monitor-mysql": [
        ("machine.build_ms", "ms", "lower"),
        ("machine.bare_ns_per_event", "ns/event", "lower"),
        ("engine.self_ns_per_event", "ns/event", "lower"),
        ("engine.events_per_window", "events/window", "higher"),
        ("engine.stream_passes", "count", "lower"),
        ("svd.ns_per_event", "ns/event", "lower"),
        ("svd.finish_ms", "ms", "lower"),
        ("svd.remote_per_kevent", "count/kevent", "lower"),
        ("svd.cus_per_kevent", "count/kevent", "lower"),
        ("svd.checks_per_kevent", "count/kevent", "lower"),
        ("runner.post_ms", "ms", "lower"),
        ("lang.compile_ms", "ms", "lower"),
        ("ledger.coverage", "ratio", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
    ],
    "replay-apache": [
        ("machine.build_ms", "ms", "lower"),
        ("engine.replay_self_ns_per_event", "ns/event", "lower"),
        ("engine.events_per_window", "events/window", "higher"),
        ("engine.stream_passes", "count", "lower"),
        ("frd.ns_per_event", "ns/event", "lower"),
        ("frd.finish_ms", "ms", "lower"),
        ("lockset.ns_per_event", "ns/event", "lower"),
        ("lockset.finish_ms", "ms", "lower"),
        ("atomizer.ns_per_event", "ns/event", "lower"),
        ("atomizer.finish_ms", "ms", "lower"),
        ("trace.load_ns_per_event", "ns/event", "lower"),
        ("trace.save_ns_per_event", "ns/event", "lower"),
        ("trace.bytes_per_event", "B/event", "lower"),
        ("lang.compile_ms", "ms", "lower"),
        ("ledger.coverage", "ratio", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
    ],
    "campaign-small": [
        ("campaign.strict_ns_per_event", "ns/event", "lower"),
        ("campaign.tso_ns_per_event", "ns/event", "lower"),
        ("campaign.task_ms_p50", "ms", "lower"),
        ("journal.record_ms", "ms", "lower"),
        ("heartbeat.task_done_us", "us", "lower"),
        ("aggregate.fold_us", "us", "lower"),
        ("resultsdb.write_ms", "ms", "lower"),
        ("pool.overhead_ms_per_task", "ms", "lower"),
        ("svd.ns_per_event", "ns/event", "lower"),
        ("frd.ns_per_event", "ns/event", "lower"),
        ("machine.build_ms", "ms", "lower"),
        ("lang.compile_ms", "ms", "lower"),
        ("runner.post_ms", "ms", "lower"),
        ("ledger.coverage", "ratio", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
    ],
}

#: the span every unit of a traced pass runs under
UNIT_SPAN = "unit"


class SpanLog:
    """In-memory spans: ``[name, start_ns, end_ns, parent, unit]``, with
    ``parent`` the index of the enclosing span (-1 at top level)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: unit id stamped on spans opened from now on (-1: set-up)
        self.unit = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        log = self

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, log.unit])
            stack.append(index)
            spans[index][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return timed

    def totals(self) -> Dict[str, List[int]]:
        """name -> [calls, total ns, self ns]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _unit in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, List[int]] = {}
        for index, (name, start, end, _parent, _unit) in enumerate(
                self.spans):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[index]
        return out

    def durations(self, name: str) -> List[int]:
        return [end - start for span_name, start, end, _p, _u in self.spans
                if span_name == name]

    def coverage(self) -> float:
        """Share of unit wall time spent inside some layer's span: the
        self times below a unit sum to its direct children's time."""
        unit_ns = 0
        covered_ns = 0
        units = set()
        for index, (name, start, end, parent, _unit) in enumerate(
                self.spans):
            if name == UNIT_SPAN and parent < 0:
                unit_ns += end - start
                units.add(index)
        for name, start, end, parent, _unit in self.spans:
            if parent in units:
                covered_ns += end - start
        return covered_ns / unit_ns if unit_ns else 0.0

    def chrome_trace(self) -> Dict[str, Any]:
        """Complete (``X``) events; Perfetto nests them by time."""
        epoch = min((span[1] for span in self.spans), default=0)
        events = []
        for name, start, end, parent, unit in self.spans:
            args = {"unit": unit}
            if parent >= 0:
                args["parent"] = self.spans[parent][0]
            events.append({"name": name, "cat": "e2e", "ph": "X",
                           "ts": (start - epoch) / 1000.0,
                           "dur": (end - start) / 1000.0,
                           "pid": 1, "tid": 1, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class Instrumentation:
    """Timing wrappers on each layer's public functions, installed for
    the length of a ``with`` block.

    Every analysis instance ``repro.engine.registry.create`` returns
    gets its ``consume_batch``/``on_event``/``finish`` wrapped as
    ``<analysis>.<method>``.  Wrappers only time and forward, so a
    wrapped run's verdicts are byte-identical to an unwrapped one.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner, attr: str, name: str,
               fn: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        if fn is None:
            fn = (original.__func__ if isinstance(original, classmethod)
                  else original)
        wrapped = self.log.wrap(name, fn)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, original))

    def _create(self, original: Callable) -> Callable:
        wrap = self.log.wrap

        def create(name, program, svd_config=None):
            analysis = original(name, program, svd_config)
            for method in ("consume_batch", "on_event", "finish"):
                bound = getattr(analysis, method, None)
                if callable(bound):
                    setattr(analysis, method,
                            wrap(f"{analysis.name}.{method}", bound))
            return analysis

        return create

    def __enter__(self) -> "Instrumentation":
        import repro.harness.campaign as campaign
        import repro.harness.runner as runner
        import repro.workloads.base as workload_base
        from repro.engine import DetectorEngine, registry
        from repro.harness.heartbeat import CampaignHeartbeat
        from repro.harness.journal import CampaignJournal
        from repro.resultsdb import ResultsDB
        from repro.trace.trace import Trace

        self._patch(registry, "create", "registry.create",
                    self._create(registry.create))
        self._patch(workload_base, "compile_source", "lang.compile")
        self._patch(workload_base.Workload, "make_machine",
                    "workload.make_machine")
        self._patch(workload_base.Workload, "validate", "workload.validate")
        self._patch(DetectorEngine, "run_machine", "engine.run_machine")
        self._patch(DetectorEngine, "run_trace", "engine.run_trace")
        self._patch(runner, "classify_reports", "metrics.classify_reports")
        self._patch(Trace, "load", "trace.load")
        self._patch(Trace, "save", "trace.save")
        self._patch(campaign.WorkloadSpec, "build", "campaign.build")
        self._patch(campaign, "run_workload", "runner.run_workload")
        self._patch(campaign, "execute_task", "campaign.task")
        self._patch(campaign.CampaignAggregate, "fold", "aggregate.fold")
        self._patch(CampaignJournal, "record", "journal.record")
        self._patch(CampaignHeartbeat, "task_done", "heartbeat.task_done")
        self._patch(ResultsDB, "write_run", "resultsdb.write_run")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _per_call(totals: Dict[str, List[int]], name: str,
              scale: float) -> float:
    calls, total_ns, _self_ns = totals.get(name, (0, 0, 0))
    return total_ns / calls / scale if calls else 0.0


def _analysis_ns(totals: Dict[str, List[int]], analysis: str) -> int:
    return sum(totals.get(f"{analysis}.{method}", (0, 0, 0))[1]
               for method in ("consume_batch", "on_event"))


def layer_metrics(workload: str, log: SpanLog,
                  traced: Dict[str, Any],
                  untraced: Dict[str, Any],
                  extra: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one workload's traced pass.

    ``traced``/``untraced`` hold the passes over the same units:
    ``events``, ``wall_s`` (summed unit wall time), ``units`` and the
    summed ``counters``; ``extra`` holds what only some workloads
    measure (bare arm, saved traces, the campaign's ``-j 1`` pass).
    """
    totals = log.totals()
    events = traced["events"]
    counters = traced["counters"]
    units = traced["units"]
    out: Dict[str, float] = {}

    def per_event(ns: float) -> float:
        return ns / events

    def per_kevent(count: float) -> float:
        return count * 1000.0 / events

    out["machine.build_ms"] = _per_call(totals, "workload.make_machine", 1e6)
    out["lang.compile_ms"] = _per_call(totals, "lang.compile", 1e6)
    for analysis in ("svd", "frd", "lockset", "atomizer"):
        out[f"{analysis}.ns_per_event"] = per_event(
            _analysis_ns(totals, analysis))
        out[f"{analysis}.finish_ms"] = _per_call(
            totals, f"{analysis}.finish", 1e6)
    # every window of a pass reaches the analysis that reads all kinds
    windows = max((totals[name][0] for name in totals
                   if name.endswith(".consume_batch")), default=0)
    if windows:
        out["engine.events_per_window"] = events / windows
    out["engine.stream_passes"] = counters.get("stream_passes", 0) / units
    out["runner.post_ms"] = (
        (totals.get("workload.validate", (0, 0, 0))[1]
         + totals.get("metrics.classify_reports", (0, 0, 0))[1])
        / units / 1e6)
    if workload.startswith("monitor-"):
        bare_s, bare_events = extra["bare"]
        out["machine.bare_ns_per_event"] = bare_s * 1e9 / bare_events
        run_machine_self = totals["engine.run_machine"][2]
        out["engine.self_ns_per_event"] = per_event(
            run_machine_self - bare_s * 1e9)
        out["svd.remote_per_kevent"] = per_kevent(counters["svd.remote"])
        out["svd.cus_per_kevent"] = per_kevent(counters["svd.cus"])
        out["svd.checks_per_kevent"] = per_kevent(counters["svd.checks"])
        if "frd.reports" in counters:
            out["reports.frd_per_exec"] = counters["frd.reports"] / units
    elif workload == "replay-apache":
        out["engine.replay_self_ns_per_event"] = per_event(
            totals["engine.run_trace"][2])
        out["trace.load_ns_per_event"] = per_event(
            totals["trace.load"][1])
        saved_events, saved_bytes = extra["saved"]
        out["trace.save_ns_per_event"] = (
            totals["trace.save"][1] / saved_events)
        out["trace.bytes_per_event"] = saved_bytes / saved_events
    elif workload == "campaign-small":
        tasks = counters["tasks"]
        for model in ("strict", "tso"):
            task_ns, model_events = extra["by_model"][model]
            out[f"campaign.{model}_ns_per_event"] = task_ns / model_events
        out["campaign.task_ms_p50"] = statistics.median(
            log.durations("campaign.task")) / 1e6
        out["journal.record_ms"] = _per_call(totals, "journal.record", 1e6)
        out["heartbeat.task_done_us"] = _per_call(
            totals, "heartbeat.task_done", 1e3)
        out["aggregate.fold_us"] = _per_call(totals, "aggregate.fold", 1e3)
        out["resultsdb.write_ms"] = _per_call(
            totals, "resultsdb.write_run", 1e6)
        # the pool has two workers, so the untraced pass had twice its
        # wall time of worker time to spend on these tasks
        out["pool.overhead_ms_per_task"] = (
            (2 * untraced["wall_s"] * 1e9 - totals["campaign.task"][1])
            / tasks / 1e6)
    out["ledger.coverage"] = log.coverage()
    # the traced campaign runs -j 1, so its overhead is measured against
    # an untraced -j 1 pass over the same units
    baseline = extra.get("serial", untraced)
    untraced_eps = baseline["events"] / baseline["wall_s"]
    traced_eps = events / traced["wall_s"]
    out["trace_overhead_frac"] = untraced_eps / traced_eps - 1.0
    names = [name for name, _unit, _better in LAYER_METRICS[workload]]
    return {name: out[name] for name in names}
