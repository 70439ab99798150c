"""One round of one workload in a fresh process; ``run.py`` starts it.

Modes:

* ``measure`` -- set up, run the workload's warm-up once untimed, then
  time units back to back for ``--seconds`` of unit wall time.
* ``trace`` -- the same measured pass, the same units again under
  :class:`ledger.Instrumentation`, the arm the workload's ledger needs
  (a bare machine, or the campaign's untraced ``-j 1`` pass), and the
  per-layer ledger computed from them.
* ``golden`` -- run every input key once and report its digest.

The result document goes to ``--result`` as JSON.
"""

import time

# set-up time runs from here, before the first import of repro
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import units  # noqa: E402


def _run_unit(workload, j: int, timed=None) -> Dict[str, Any]:
    """Run unit ``j`` (through ``timed`` when given); a unit that
    raises is recorded as failed and the run goes on."""
    run = timed or workload.run
    record: Dict[str, Any] = {"j": j, "key": j % workload.pool}
    started = time.perf_counter()
    try:
        raw = run(j)
        record["wall_s"] = time.perf_counter() - started
        outcome = workload.outcome(j, raw)
    except Exception:
        record.setdefault("wall_s", time.perf_counter() - started)
        record.update(events=0, digest=None, ok=False,
                      error=traceback.format_exc(limit=4))
        return record
    record.update(events=outcome.events, digest=outcome.digest,
                  ok=outcome.ok, counters=outcome.counters)
    return record


def run_units(workload, first: int, seconds: float,
              count: Optional[int] = None) -> List[Dict[str, Any]]:
    """Units ``first, first + ROUNDS, ...`` back to back: ``count`` of
    them, or until the next would end more than halfway past
    ``seconds`` of unit wall time (and at least ``min_units``)."""
    records: List[Dict[str, Any]] = []
    spent = 0.0
    while True:
        done = len(records)
        if count is not None:
            if done >= count:
                break
        elif (done >= workload.min_units
              and spent + spent / done / 2 >= seconds):
            break
        record = _run_unit(workload, first + units.ROUNDS * done)
        spent += record["wall_s"]
        records.append(record)
    return records


def totals(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    counters: Dict[str, float] = {}
    for record in records:
        for name, value in record.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"events": sum(r["events"] for r in records),
            "wall_s": sum(r["wall_s"] for r in records),
            "units": len(records), "counters": counters}


def digest_mismatches(name: str, reference: List[Dict[str, Any]],
            other: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Units whose digest differs between two passes over them."""
    return [{"j": a["j"], "problem": f"{name} digest {b['digest']} != "
             f"untraced {a['digest']}"}
            for a, b in zip(reference, other)
            if a["digest"] != b["digest"]]


def trace_round(cls, args, workload, untraced: List[Dict[str, Any]],
                result: Dict[str, Any]) -> None:
    """Re-run the untraced pass's units under the wrappers, plus the
    arm each ledger needs, and compute the per-layer metrics."""
    import ledger

    indices = [record["j"] for record in untraced]
    checks = result["checks"]
    extra: Dict[str, Any] = {}
    if cls is units.CampaignSmall:
        serial = units.CampaignSmall(args.seed, workload.workdir, workers=1)
        serial_records = [_run_unit(serial, j) for j in indices]
        checks.extend(digest_mismatches("-j 1", untraced, serial_records))
        result["serial_units"] = serial_records
        extra["serial"] = totals(serial_records)

    log = ledger.SpanLog()
    traced_dir = os.path.join(args.workdir, "traced")
    os.makedirs(traced_dir)
    with ledger.Instrumentation(log):
        if cls is units.CampaignSmall:
            traced_workload = cls(args.seed, traced_dir, workers=1)
        else:
            traced_workload = cls(args.seed, traced_dir)
        timed = log.wrap(ledger.UNIT_SPAN, traced_workload.run)
        traced: List[Dict[str, Any]] = []
        for j in indices:
            log.unit = j
            traced.append(_run_unit(traced_workload, j, timed))
    checks.extend(digest_mismatches("traced", untraced, traced))
    result["traced_units"] = traced

    if cls is units.ReplayApache:
        extra["saved"] = (traced_workload.saved_events,
                          traced_workload.saved_bytes)
    elif cls is units.CampaignSmall:
        task_ns: Dict[int, int] = {}
        for name, start, end, _parent, unit in log.spans:
            if name == "campaign.task":
                task_ns[unit] = task_ns.get(unit, 0) + end - start
        by_model = {"strict": [0, 0], "tso": [0, 0]}
        for record in traced:
            entry = by_model[workload.consistency(record["j"])]
            entry[0] += task_ns.get(record["j"], 0)
            entry[1] += record["events"]
        extra["by_model"] = by_model
    else:
        bare_s, bare_events = 0.0, 0
        for record in traced:
            seconds, events = workload.bare(record["j"])
            bare_s += seconds
            bare_events += events
            if events != record["events"]:
                checks.append({"j": record["j"], "problem":
                               f"bare machine retired {events} events, "
                               f"monitored {record['events']}"})
        extra["bare"] = (bare_s, bare_events)

    result["ledger"] = ledger.layer_metrics(
        cls.name, log, totals(traced), totals(untraced), extra)
    log.write_chrome_trace(args.trace_out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(units.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=None,
                        help="run exactly this many units")
    parser.add_argument("--mode", default="measure",
                        choices=["measure", "trace", "golden"])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    cls = units.WORKLOADS[args.workload]
    os.makedirs(args.workdir)
    try:
        workload = cls(args.seed, args.workdir)
        result: Dict[str, Any] = {
            "workload": cls.name, "round": args.round, "checks": []}
        if args.mode == "golden":
            records = [_run_unit(workload, key) for key in range(cls.pool)]
            result["golden"] = {str(r["key"]): r["digest"] for r in records}
            result["checks"] = [{"j": r["j"], "problem": "bad verdict"}
                                for r in records if not r["ok"]]
        else:
            result["warmup"] = workload.warmup()
            result["setup_s"] = time.perf_counter() - STARTED
            records = run_units(workload, args.round, args.seconds,
                                args.count)
            result["units"] = records
            if args.mode == "trace":
                trace_round(cls, args, workload, records, result)
        from repro.obs.rss import peak_rss_bytes
        result["peak_rss_bytes"] = peak_rss_bytes()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
