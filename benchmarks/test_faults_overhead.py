"""Fault-injection overhead: the disabled-mode hooks must be free.

The ``repro.faults`` contract mirrors ``repro.obs``: hardened code asks
the switchboard for a plan **once per run** (engine construction wraps
an analysis's ``consume_batch`` only when an analysis fault targets
it; ``run_trace``
consults ``faults.active()`` once before the stream loop; the machine
binds its stream injector at construction), so with no plan armed every
per-event code path is byte-identical to the unhardened engine.

Two measurements pin that claim:

* **deterministic** (asserted) -- total interpreter function calls per
  engine run under ``cProfile``.  The counts are exactly reproducible,
  so the "no per-event hook" claim is checked at machine precision: a
  hook that fires per event would add >= ``len(trace)`` calls (~4% of a
  run); disabled mode must add **zero** and an armed-but-empty plan
  only a per-run constant, both far under ``MAX_DISABLED_OVERHEAD``.
* **wall-clock** (recorded) -- interleaved best-of-ROUNDS single-pass
  engine runs over one shared recording, the same methodology as
  ``BENCH_obs.json``.  Recorded for CI history, gated only loosely:
  shared runners jitter far more than the bound under test, so the
  tight bound rides on the deterministic measurement above.

Results land in ``benchmarks/out/BENCH_faults.json`` next to
``BENCH_obs.json``.
"""

import cProfile
import gc
import json
import os
import pstats
import time

import pytest

import repro.faults.runtime as faults
from repro.engine import DetectorEngine
from repro.faults import FaultPlan
from repro.machine.scheduler import RandomScheduler
from repro.workloads import apache_log

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

DETECTORS = ["svd", "frd", "lockset", "atomizer"]
ROUNDS = 5
#: disabled-mode overhead ceiling, asserted on the deterministic
#: call-count measurement (a per-event hook would cost ~4%)
MAX_DISABLED_OVERHEAD = 0.02
#: wall-clock sanity gate only -- shared-runner jitter on identical
#: code routinely exceeds 5%, so this catches gross regressions without
#: flaking while the call-count assertion carries the tight bound
MAX_WALL_CLOCK_OVERHEAD = 0.25


@pytest.fixture(scope="module")
def recorded():
    """One shared recording every timed mode replays (the same fixture
    the engine-throughput and obs benchmarks use)."""
    workload = apache_log(writers=3, requests=40)
    machine = workload.make_machine(
        RandomScheduler(seed=11, switch_prob=0.3))
    result = DetectorEngine(workload.program, ["svd"]).run_machine(
        machine, max_steps=300_000, keep_trace=True)
    assert result.trace is not None and len(result.trace) > 10_000
    return workload.program, result.trace


def _run(program, trace):
    return DetectorEngine(program, DETECTORS).run_trace(trace)


def _run_armed_noop(program, trace):
    with faults.install(FaultPlan([])):
        return _run(program, trace)


def _total_calls(fn, *args):
    """Interpreter function calls for one invocation -- deterministic,
    so mode deltas are exact (GC off so collection-triggered calls
    cannot alias as hook cost)."""
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        profile.enable()
        fn(*args)
        profile.disable()
        return pstats.Stats(profile).total_calls
    finally:
        gc.enable()


def _interleaved_best_of(modes, *args):
    """Best-of-ROUNDS per mode, rounds interleaved so CPU-frequency and
    cache drift hit every mode equally."""
    best = {name: None for name, _fn in modes}
    for _name, fn in modes:  # untimed warmup
        fn(*args)
    for _ in range(ROUNDS):
        for name, fn in modes:
            gc.collect()
            started = time.perf_counter()
            fn(*args)
            elapsed = time.perf_counter() - started
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    return best


def test_disabled_faults_are_free(recorded, emit_result):
    program, trace = recorded
    assert not faults.enabled()  # the disabled measurements must be honest

    _run(program, trace)  # warm lazy init so call counts are steady-state
    calls = {
        "baseline": _total_calls(_run, program, trace),
        "disabled": _total_calls(_run, program, trace),
        "armed_noop": _total_calls(_run_armed_noop, program, trace),
    }
    disabled_overhead = calls["disabled"] / calls["baseline"] - 1.0
    armed_noop_overhead = calls["armed_noop"] / calls["baseline"] - 1.0

    best = _interleaved_best_of(
        [("baseline", _run), ("disabled", _run),
         ("armed_noop", _run_armed_noop)],
        program, trace)

    events = len(trace)
    record = {
        "events": events,
        "detectors": DETECTORS,
        "rounds": ROUNDS,
        "calls": calls,
        "disabled_overhead": round(disabled_overhead, 6),
        "armed_noop_overhead": round(armed_noop_overhead, 6),
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "wall_clock": {
            name: {
                "seconds": round(seconds, 6),
                "events_per_sec": round(events / seconds),
            }
            for name, seconds in sorted(best.items())
        },
        "wall_clock_disabled_overhead":
            round(best["disabled"] / best["baseline"] - 1.0, 4),
    }

    from repro.harness import bench_gate
    record = bench_gate.write_artefact(
        os.path.join(OUT_DIR, "BENCH_faults.json"), record)
    emit_result("faults_overhead", json.dumps(record, indent=2))

    # the tight bound, at machine precision: no plan armed -> the exact
    # same work as the unhardened engine, call for call
    assert calls["disabled"] == calls["baseline"], record
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, record
    # an armed empty plan pays a per-run constant, never per-event work
    assert calls["armed_noop"] - calls["baseline"] < events / 10, record
    assert armed_noop_overhead < MAX_DISABLED_OVERHEAD, record
    # loose wall-clock gate against gross regressions
    assert record["wall_clock_disabled_overhead"] < \
        MAX_WALL_CLOCK_OVERHEAD, record


def test_armed_plan_results_match_unarmed(recorded):
    """Arming an empty plan must not change a single report: same
    violations, no degradation, no quarantine."""
    program, trace = recorded
    clean = _run(program, trace)
    armed = _run_armed_noop(program, trace)
    assert not armed.degraded and not armed.failures
    for name in DETECTORS:
        assert armed.report(name).dynamic_count == \
            clean.report(name).dynamic_count
