"""End-to-end benchmark of the SVD reproduction: four workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                 # all workloads
    python3 benchmarks/e2e/run.py --workload monitor-apache --seed 3
    python3 benchmarks/e2e/run.py --seed 0 --trace         # per-layer ledger
    python3 benchmarks/e2e/run.py --quick                  # smoke run

Each workload is a closed loop from one process: units run back to
back.  A run is three rounds; every round starts a fresh process per
workload (``child.py``), in rotated workload order, and measures a
third of ``--seconds``.  The untraced run prints every end-to-end
metric by name with its unit; ``--trace`` prints the per-layer ledger
of all four workloads instead (see ``ledger.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Verdicts are checked on every seed: every run of one input must give
the same digest, in any round's process, and the traced pass must
match the untraced one.  Every run of a seed-0 input must match
``golden.json`` (``--update-golden`` regenerates it): with ``--seed 0``
that is every unit, and on every seed the monitor workloads' warm-up.
A failed unit makes the run exit 1.  Exit 2 means the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import units
from ledger import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out", "e2e")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: workloads in their fixed order (round r starts at position r)
WORKLOADS = tuple(units.WORKLOADS)
#: seconds of unit wall time per workload when --seconds is not given
DEFAULT_SECONDS = 20.0
#: a run must end within this many seconds of starting
DEADLINE_S = 175.0
#: percentiles reported for a timing, each only with >= 10 samples
#: beyond it
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: the end-to-end metrics, as BENCHMARK.json names and gates them
END_TO_END_UNITS = {"events_per_s": "1/s", "exec_ms_p50": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run (not a wrong verdict)."""


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` that has at least ten of
    ``n`` samples beyond it, or None when even the median has not."""
    best = None
    for p in TAIL_PERCENTILES:
        # n * (100 - p) / 100 >= 10, with slack for 99.9's rounding
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            best = p
    return best


def spread(values: Sequence[float]) -> float:
    """(max - min) / median: the run-to-run spread of round values."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


# -- child processes ----------------------------------------------------------


def _child_env(workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # pool workers' stderr capture files stay inside the checkout, and
    # the results DB skips asking git for a commit id
    env["TMPDIR"] = workdir
    env["REPRO_GIT_COMMIT"] = "e2e-bench"
    return env


def run_child(workload: str, seed: int, round_: int, seconds: float,
              mode: str, deadline: float,
              count: Optional[int] = None) -> Dict[str, Any]:
    """Run one round in a fresh process group and return its result
    document; every process it started is gone when this returns."""
    work = os.path.join(OUT_DIR, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tag = f"{workload}-{mode}-r{round_}"
    result_path = os.path.join(work, f"{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--round", str(round_), "--seconds", repr(seconds),
            "--mode", mode, "--workdir", os.path.join(work, tag),
            "--result", result_path,
            "--trace-out", os.path.join(OUT_DIR, f"{workload}.trace.json")]
    if count is not None:
        argv += ["--count", str(count)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(tmp),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{tag}: no result before the deadline")
    finally:
        # pool workers left behind by a crashed round share its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = "\n".join(err.strip().splitlines()[-12:])
        raise BenchError(f"{tag}: exited {proc.returncode}\n{tail}")
    with open(result_path) as fh:
        return json.load(fh)


def schedule(names: Sequence[str], rounds: int) -> List[Tuple[str, int]]:
    """(workload, round) in run order: round r starts at workload r."""
    order = []
    for round_ in range(rounds):
        shift = round_ % len(names)
        for name in list(names[shift:]) + list(names[:shift]):
            order.append((name, round_))
    return order


# -- verdicts -----------------------------------------------------------------


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["workloads"]


def unit_problems(workload: str, seed: int, results: List[Dict[str, Any]],
                  golden: Dict[str, str]) -> Tuple[int, List[str]]:
    """(units attempted, one line per failed unit).

    ``golden`` holds the workload's seed-0 digests by input key.  Every
    run of one input, in any round's process or pass, must give the
    same digest, and every run of a seed-0 input must match golden.
    """
    attempted = 0
    problems: List[str] = []
    # (seed, key) -> the digests seen for that input
    seen: Dict[Tuple[int, int], set] = {}
    for result in results:
        warmup_seed, warmup_digest = result["warmup"]
        if warmup_seed is not None:
            seen.setdefault((warmup_seed, 0), set()).add(warmup_digest)
            if warmup_seed == 0 and warmup_digest != golden["0"]:
                problems.append(
                    f"{workload} warm-up (round {result['round']}): digest "
                    f"{warmup_digest} != golden {golden['0']}")
        passes = [("untraced", result["units"])]
        for name in ("serial_units", "traced_units"):
            if name in result:
                passes.append((name.split("_")[0], result[name]))
        for label, records in passes:
            for record in records:
                attempted += 1
                where = f"{workload} unit {record['j']} ({label})"
                expected = golden.get(str(record["key"]))
                if not record["ok"]:
                    error = (record.get("error") or "bad verdict").strip()
                    problems.append(f"{where}: {error.splitlines()[-1]}")
                    continue
                if seed == 0 and expected != record["digest"]:
                    problems.append(f"{where}: digest {record['digest']} "
                                    f"!= golden {expected}")
                seen.setdefault((seed, record["key"]), set()).add(
                    record["digest"])
        for check in result.get("checks", []):
            problems.append(f"{workload} unit {check['j']}: "
                            f"{check['problem']}")
    for (input_seed, key), digests in sorted(seen.items()):
        if len(digests) > 1:
            problems.append(f"{workload} input {key} of seed {input_seed}: "
                            f"digests differ: {sorted(digests)}")
    return attempted, problems


# -- metrics ------------------------------------------------------------------


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload's rounds, each with its
    per-round values for the spread.

    The rounds are replicates in fresh processes.  On a shared box,
    other tenants slow stretches of units by up to 2x, and interference
    only ever slows a unit down, so the per-unit figures come from the
    least disturbed round: the highest round median of per-unit
    throughput and the lowest round median of unit wall time.  The
    tail percentile of unit wall time, pooled over the rounds, is
    reported but gated nowhere.
    """
    walls_ms = [unit["wall_s"] * 1000.0
                for result in results for unit in result["units"]]
    rounds: Dict[str, List[float]] = {name: [] for name in END_TO_END_UNITS}
    for result in results:
        timed = result["units"]
        rounds["events_per_s"].append(statistics.median(
            unit["events"] / unit["wall_s"] for unit in timed))
        rounds["exec_ms_p50"].append(
            statistics.median(unit["wall_s"] for unit in timed) * 1000.0)
        rounds["setup_s"].append(result["setup_s"])
        rounds["peak_rss_mb"].append(result["peak_rss_bytes"] / 2.0 ** 20)
    values = {
        "events_per_s": max(rounds["events_per_s"]),
        "exec_ms_p50": min(rounds["exec_ms_p50"]),
        "setup_s": statistics.median(rounds["setup_s"]),
        "peak_rss_mb": max(rounds["peak_rss_mb"]),
    }
    metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name],
                      "rounds": rounds[name]}
               for name in END_TO_END_UNITS}
    tail = highest_percentile(len(walls_ms))
    metrics["exec_ms_p50"].update(
        samples=len(walls_ms),
        tail=[tail, percentile(walls_ms, tail)] if tail else None)
    return metrics


# -- entry point --------------------------------------------------------------


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; every unit's inputs derive "
                        "from it")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="unit wall time measured per workload; with "
                        "--trace, shared by all four workloads")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1: print the per-layer ledger of all four "
                        "workloads instead of the end-to-end metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one round of one unit each")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full result document here")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate golden.json from --seed 0")
    return parser.parse_args(argv)


def _box() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def update_golden(deadline: float) -> int:
    workloads = {}
    for name in WORKLOADS:
        result = run_child(name, 0, 0, 0.0, "golden", deadline)
        if result["checks"]:
            raise BenchError(f"{name}: {result['checks']}")
        workloads[name] = result["golden"]
        print(f"{name}: {len(result['golden'])} unit digests")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"seed": 0, "workloads": workloads}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH, ROOT)}")
    return 0


def measure(args: argparse.Namespace, deadline: float) -> Dict[str, Any]:
    """Run the rounds and build the result document."""
    names = list(WORKLOADS) if args.trace or not args.workload \
        else [args.workload]
    golden = load_golden()
    rounds = 1 if args.quick or args.trace else units.ROUNDS
    seconds = 0.0 if args.quick else args.seconds
    if args.trace:
        # half of each workload's share is the untraced pass; the
        # traced pass repeats its units
        plan = [(name, 0, seconds / len(names) / 2, "trace")
                for name in names]
    else:
        plan = [(name, round_, seconds / rounds, "measure")
                for name, round_ in schedule(names, rounds)]
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for name, round_, share, mode in plan:
        results[name].append(run_child(name, args.seed, round_, share,
                                       mode, deadline,
                                       1 if args.quick else None))
    doc: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                           "trace": bool(args.trace), "quick": args.quick,
                           "box": _box(), "workloads": {}}
    for name in names:
        attempted, problems = unit_problems(name, args.seed, results[name],
                                            golden[name])
        entry: Dict[str, Any] = {"attempted": attempted,
                                 "failed": len(problems),
                                 "fail_frac": len(problems) / attempted,
                                 "problems": problems}
        if args.trace:
            layer_units = {metric: unit
                           for metric, unit, _better in LAYER_METRICS[name]}
            entry["ledger"] = {
                metric: {"value": value, "unit": layer_units[metric]}
                for metric, value in results[name][0]["ledger"].items()}
        else:
            entry["metrics"] = end_to_end(results[name])
        doc["workloads"][name] = entry
    return doc


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(doc: Dict[str, Any], single: bool) -> Dict[str, Any]:
    """Print the human-readable table and return the final JSON line."""
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for name, entry in doc["workloads"].items():
        attempted += entry["attempted"]
        failed += entry["failed"]
        print(f"{name}: {entry['attempted']} units, fail_frac "
              f"{_fmt(entry['fail_frac'])}")
        for problem in entry["problems"]:
            print(f"  FAILED {problem}", file=sys.stderr)
        table = entry.get("ledger") or entry["metrics"]
        for metric, data in table.items():
            line = (f"  {metric:34s} {_fmt(data['value']):>12s} "
                    f"{data['unit']}")
            if "rounds" in data:
                line += (f"  rounds [{', '.join(map(_fmt, data['rounds']))}]"
                         f" spread {spread(data['rounds']):.1%}")
            if "samples" in data:
                line += f"; n={data['samples']}"
                if data["tail"]:
                    line += (f", p{data['tail'][0]:g} "
                             f"{_fmt(data['tail'][1])} ms (not gated)")
            print(line)
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": data["value"], "unit": data["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2e: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.update_golden:
            return update_golden(time.monotonic() + 10 * DEADLINE_S)
        doc = measure(args, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, "work"), ignore_errors=True)
    line = report(doc, single=bool(args.workload) and not args.trace)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
