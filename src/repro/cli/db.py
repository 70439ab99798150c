"""``repro bench`` and ``repro db``: the results database."""

from __future__ import annotations

import contextlib
import json
import os
import sys

from repro.cli.lifecycle import Outcome, UsageError, add_db_flag
from repro.harness import bench_gate

#: default results-database path for ``repro db`` queries
DEFAULT_DB = "results.db"


def register(sub) -> None:
    bench = sub.add_parser(
        "bench", help="gate recorded benchmark artefacts against "
        "pinned performance floors")
    bench.add_argument("--check", required=True, metavar="FILE",
                       help="benchmark artefact to gate (e.g. "
                       "benchmarks/out/BENCH_engine.json)")
    bench.add_argument("--floor", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="extra floor: dotted key into the artefact "
                       "and its minimum value (e.g. speedup=1.5); "
                       "repeatable, overrides the built-in table")
    bench.add_argument("--no-builtin", action="store_true",
                       help="ignore the built-in floor table and gate "
                       "only the --floor specs")
    bench.add_argument("--gate", action="store_true",
                       help="also gate against the recorded trend: fail "
                       "if a floored value regressed more than "
                       "--tolerance below the median of its recent "
                       "history in --db (requires --db)")
    bench.add_argument("--trend-window", type=int, default=5,
                       metavar="N",
                       help="number of recent recorded runs the trend "
                       "median is taken over (default: 5)")
    bench.add_argument("--tolerance", type=float, default=0.10,
                       metavar="F",
                       help="allowed fractional regression below the "
                       "trend median (default: 0.10)")
    bench.add_argument("--no-record", action="store_true",
                       help="with --db: gate against history but do not "
                       "append this artefact to the database")
    add_db_flag(bench)
    bench.set_defaults(func=_bench)

    db = sub.add_parser(
        "db", help="query the persistent results database")
    dbsub = db.add_subparsers(dest="db_command", required=True)

    def _db_path_flag(p):
        p.add_argument("--db", default=DEFAULT_DB, metavar="PATH",
                       help=f"results database path "
                       f"(default: {DEFAULT_DB})")

    rec = dbsub.add_parser(
        "record", help="record a benchmark artefact into the database")
    rec.add_argument("artefact", help="benchmark artefact JSON file")
    rec.add_argument("--kind", default="bench", metavar="KIND",
                     help="run kind to record under (default: bench)")
    rec.add_argument("--label", default=None, metavar="NAME",
                     help="run label (default: artefact basename)")
    _db_path_flag(rec)
    rec.set_defaults(func=_db_record)

    lst = dbsub.add_parser("list", help="list recorded runs")
    lst.add_argument("--kind", default=None,
                     help="only runs of this kind")
    lst.add_argument("--label", default=None,
                     help="only runs with this label")
    lst.add_argument("--limit", type=int, default=20,
                     help="show only the newest N runs (default: 20)")
    _db_path_flag(lst)
    lst.set_defaults(func=_db_list)

    show = dbsub.add_parser("show", help="show one recorded run")
    show.add_argument("run_id", nargs="?", type=int, default=None,
                      help="run id (default: the latest run)")
    show.add_argument("--field", default=None,
                      choices=["obs", "payload", "config", "heartbeat"],
                      help="print just this stored JSON document "
                      "(canonical indented JSON) instead of the "
                      "full record")
    _db_path_flag(show)
    show.set_defaults(func=_db_show)

    trend = dbsub.add_parser(
        "trend", help="render the recorded trajectory of one metric")
    trend.add_argument("label", help="run label (e.g. BENCH_engine.json)")
    trend.add_argument("key", help="dotted key into the recorded "
                       "payload (e.g. speedup)")
    trend.add_argument("--kind", default="bench",
                       help="run kind (default: bench)")
    trend.add_argument("--fingerprint", default=None,
                       help="only runs with this config fingerprint")
    trend.add_argument("--limit", type=int, default=None,
                       help="use only the newest N runs")
    _db_path_flag(trend)
    trend.set_defaults(func=_db_trend)

    exp = dbsub.add_parser(
        "export", help="export the database as deterministic JSONL")
    exp.add_argument("out", help="output path (one canonical JSON "
                     "record per line)")
    _db_path_flag(exp)
    exp.set_defaults(func=_db_export)

    mrg = dbsub.add_parser(
        "merge", help="merge result databases into one (commutative; "
        "duplicate rows -- same kind, label, fingerprint, seeds, and "
        "recording time -- are kept once)")
    mrg.add_argument("sources", nargs="+",
                     help="source database paths")
    mrg.add_argument("--into", required=True, metavar="DST",
                     help="destination database (created if missing)")
    mrg.set_defaults(func=_db_merge)


def _bench(inv) -> Outcome:
    """Gate a benchmark artefact against its pinned floors and,
    with ``--gate``, against its recorded trend."""
    args = inv.args
    if args.gate and not args.db:
        raise UsageError("--gate compares against recorded history; "
                         "pass --db PATH")
    basename = os.path.basename(args.check)
    extra = {}
    try:
        for spec in args.floor:
            key, value = bench_gate.parse_floor(spec)
            extra[key] = value
        record = bench_gate.load_artefact(args.check)
        floors = bench_gate.floors_for(basename, extra_floors=extra,
                                       use_builtin=not args.no_builtin)
        checks = bench_gate.check_record(record, floors)
    except bench_gate.FloorSpecError as exc:
        raise UsageError(f"error: {exc}") from None
    for check in checks:
        print(f"{args.check}: {check.render()}")
    ok = all(c.ok for c in checks)

    if args.db:
        from repro import resultsdb
        # the fingerprint groups every recording of the same artefact,
        # so the trend compares like with like across commits
        config = {"artefact": basename}
        with resultsdb.open_db(args.db) as db:
            if args.gate:
                trends = resultsdb.trend_check(
                    db, basename, record, sorted(floors),
                    fingerprint=resultsdb.config_fingerprint(config),
                    window=args.trend_window, tolerance=args.tolerance)
                for trend in trends:
                    print(f"{args.check}: {trend.render()}")
                ok = ok and all(t.ok for t in trends)
            if not args.no_record:
                run_id = db.write_run(
                    "bench", basename, config,
                    status="ok" if ok else "violations",
                    payload=record)
                print(f"recorded bench {run_id} in {args.db}",
                      file=sys.stderr)
    return Outcome("ok" if ok else "violations")


@contextlib.contextmanager
def _errors_are_usage():
    """Results-DB failures (schema mismatch, unknown run, ...) are input
    errors: exit 2."""
    from repro import resultsdb
    try:
        yield
    except resultsdb.ResultsDBError as exc:
        raise UsageError(f"error: {exc}") from None


@contextlib.contextmanager
def _existing_db(path: str):
    from repro import resultsdb
    if not os.path.exists(path):
        raise UsageError(f"error: no results database at {path}")
    with _errors_are_usage(), resultsdb.open_db(path) as db:
        yield db


def _db_record(inv) -> Outcome:
    from repro import resultsdb
    args = inv.args
    try:
        record = bench_gate.load_artefact(args.artefact)
    except bench_gate.FloorSpecError as exc:
        raise UsageError(f"error: {exc}") from None
    label = args.label or os.path.basename(args.artefact)
    with _errors_are_usage():
        run_id = resultsdb.write_run(
            args.db, args.kind, label, {"artefact": label},
            payload=record)
    print(f"recorded {args.kind} {run_id} in {args.db}")
    return Outcome()


def _db_merge(inv) -> Outcome:
    from repro import resultsdb
    with _errors_are_usage():
        added = resultsdb.merge_databases(inv.args.sources, inv.args.into)
    print(f"merged {added} new row(s) into {inv.args.into}")
    return Outcome()


def _db_list(inv) -> Outcome:
    args = inv.args
    with _existing_db(args.db) as db:
        records = db.list_runs(kind=args.kind, label=args.label,
                               limit=args.limit)
    if not records:
        print("(no matching runs)")
        return Outcome()
    header = (f"{'id':>4}  {'recorded':<25} {'kind':<9} "
              f"{'label':<24} {'fingerprint':<16} "
              f"{'status':<10} {'viol':>5} {'events':>9}")
    print(header)
    print("-" * len(header))
    for rec in records:
        print(f"{rec.run_id:>4}  {rec.recorded_at:<25} "
              f"{rec.kind:<9} {rec.label:<24} "
              f"{rec.fingerprint:<16} {rec.status:<10} "
              f"{rec.violations:>5} {rec.events:>9}")
    return Outcome()


def _db_show(inv) -> Outcome:
    args = inv.args
    with _existing_db(args.db) as db:
        rec = (db.get(args.run_id) if args.run_id is not None
               else db.latest())
    if not args.field:
        print(json.dumps(rec.to_json(), sort_keys=True, indent=2))
        return Outcome()
    doc = getattr(rec, args.field)
    if doc is None:
        raise UsageError(f"error: run {rec.run_id} has no {args.field}")
    # byte-identical to the --metrics-out file format
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return Outcome()


def _db_trend(inv) -> Outcome:
    from repro import resultsdb
    args = inv.args
    with _existing_db(args.db) as db:
        points = db.trend_values(args.label, args.key, kind=args.kind,
                                 fingerprint=args.fingerprint,
                                 limit=args.limit)
    if not points:
        print(f"(no recorded values of {args.key!r} for "
              f"{args.label!r})")
        return Outcome()
    print(resultsdb.render_trend_table(points, args.key))
    return Outcome()


def _db_export(inv) -> Outcome:
    with _existing_db(inv.args.db) as db:
        count = db.export_jsonl(inv.args.out)
    print(f"exported {count} records to {inv.args.out}")
    return Outcome()
