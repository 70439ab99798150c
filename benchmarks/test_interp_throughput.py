"""Interpreter throughput: steps/sec of the pre-decoded interpreter.

The interpreter runs per-pc specialized step closures compiled from
``program.code``, with kind-masked row staging.  This benchmark records
its steps/sec on ``apache_log(writers=3, requests=40)`` under three
observer loads,

* **0 observers** -- pure interpretation; the kind mask stages nothing.
* **trace only**  -- one full-stream recorder attached.
* **full SVD**    -- the online detector attached.

A fourth mode, **full-svd-mysql**, runs full SVD on
``mysql_prepared(queries=2, fixed=True)``: almost no sharing, so SVD's
register and store path dominates its detector cost, where apache's is
dominated by remote delivery and CU closure.

It asserts absolute floors (``bench_gate.FLOORS["BENCH_interp.json"]``:
0-observers, full-SVD and full-SVD-on-mysql steps/sec); trace-only is
recorded for context.  Mode keys keep their ``predecoded/`` prefix, so
the floors and the results-DB trend history stay keyed alike.

Rounds are interleaved (best-of-5, like BENCH_obs) so CPU-frequency and
cache drift hit every configuration equally.  Machine construction
(which includes the pre-decode compile) happens outside the timer: the
table is built once per Machine and amortized over the whole run, and
the run itself is what campaigns and the fuzzer repeat millions of
times.  Results land in ``benchmarks/out/BENCH_interp.json``.
"""

import json
import os
import time

import pytest

from repro.core.online import OnlineSVD
from repro.harness import bench_gate
from repro.machine.scheduler import RandomScheduler
from repro.trace.trace import TraceRecorder
from repro.workloads import apache_log, mysql_prepared

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

ROUNDS = 5
MAX_STEPS = 300_000
FLOORS = bench_gate.FLOORS["BENCH_interp.json"]


def _workload():
    return apache_log(writers=3, requests=40)


def _mysql_workload():
    return mysql_prepared(queries=2, fixed=True)


def _observers_none(_workload_obj):
    return []


def _observers_trace(workload):
    return [TraceRecorder(workload.program, len(workload.threads))]


def _observers_svd(workload):
    return [OnlineSVD(workload.program)]


CONFIGS = [
    ("0-observers", _observers_none),
    ("trace-only", _observers_trace),
    ("full-svd", _observers_svd),
]

#: the register-and-store-path mode
MYSQL_MODE = "predecoded/full-svd-mysql"


def _timed_run(workload, make_observers):
    """Build the machine outside the timer, time only the run."""
    machine = workload.make_machine(
        RandomScheduler(seed=11, switch_prob=0.3),
        observers=make_observers(workload))
    started = time.perf_counter()
    machine.run(max_steps=MAX_STEPS)
    elapsed = time.perf_counter() - started
    return machine.steps, elapsed


def test_interp_throughput(emit_result):
    workload = _workload()
    modes = [(f"predecoded/{config}", workload, make_observers)
             for config, make_observers in CONFIGS]
    modes.append((MYSQL_MODE, _mysql_workload(), _observers_svd))

    best = {name: None for name, _w, _m in modes}
    steps_by_mode = {}
    for _ in range(ROUNDS):
        for name, mode_workload, make_observers in modes:
            steps, elapsed = _timed_run(mode_workload, make_observers)
            steps_by_mode[name] = steps
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed

    record = {
        "workload": "apache_log(writers=3, requests=40)",
        "mysql_workload": "mysql_prepared(queries=2, fixed=True)",
        "max_steps": MAX_STEPS,
        "rounds": ROUNDS,
        "modes": {
            name: {
                "seconds": round(seconds, 6),
                "steps": steps_by_mode[name],
                "steps_per_sec": round(steps_by_mode[name] / seconds),
            }
            for name, seconds in sorted(best.items())
        },
        "floors": dict(FLOORS),
    }

    record = bench_gate.write_artefact(
        os.path.join(OUT_DIR, "BENCH_interp.json"), record)
    emit_result("interp_throughput", json.dumps(record, indent=2))

    for check in bench_gate.check_record(record, FLOORS):
        assert check.ok, (check, record)
