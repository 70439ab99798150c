"""``repro run|exec|analyze|replay|compile|table1|table2|overhead``."""

from __future__ import annotations

import sys
from typing import List, Sequence

import repro.obs as obs
from repro.cli.lifecycle import (Outcome, Row, UsageError,
                                 add_consistency_flags, add_db_flag,
                                 add_obs_flags, load_fault_plan,
                                 load_program, parse_detectors, probability,
                                 status_of)
from repro.core import OnlineSVD
from repro.engine import DetectorEngine, available
from repro.harness import measure_overhead, render_table
from repro.harness.runner import record_run_metrics
from repro.harness.table1 import render_table1, table1_rows
from repro.harness.table2 import render_table2, table2_rows
from repro.machine import Machine, RandomScheduler, resolve_model
from repro.trace import TraceRecorder
from repro.workloads import (WORKLOADS, apache_log, mysql_prepared,
                             queue_region, stringbuffer)


#: workload factories that accept ``fixed=``
_FIXABLE = {"apache": apache_log, "mysql-prepared": mysql_prepared,
            "stringbuffer": stringbuffer, "queue-region": queue_region}


def register(sub) -> None:
    run = sub.add_parser("run", help="run a bundled workload")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--switch-prob", type=probability, default=0.4)
    run.add_argument("--fixed", action="store_true",
                     help="use the patched variant where one exists")
    run.add_argument("--detector", default="svd",
                     choices=["svd", "precise", "frd", "lockset",
                              "atomizer", "offline", "stale",
                              "lock-order", "hybrid", "all"])
    run.add_argument("--detectors", default=None, metavar="NAMES",
                     help="comma-separated registry detector names (or "
                     "'all') multiplexed over one execution by the "
                     "engine; available: " + ", ".join(available()))
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.add_argument("--inject", default=None, metavar="PLAN",
                     help="fault-plan JSON file (see docs/robustness.md); "
                     "stream faults perturb the event stream, analysis "
                     "faults exercise engine quarantine, trace faults "
                     "round-trip the run through a corrupted trace file "
                     "and the salvaging reader")
    add_consistency_flags(run)
    add_obs_flags(run)
    add_db_flag(run)
    run.set_defaults(func=_run)

    execute = sub.add_parser("exec", help="compile and run a MiniSMP file")
    execute.add_argument("source", help="path to the MiniSMP source file")
    execute.add_argument("--thread", action="append", default=[],
                         metavar="NAME[:ARG,ARG...]",
                         help="thread instance to run (repeatable)")
    execute.add_argument("--seed", type=int, default=0)
    execute.add_argument("--switch-prob", type=probability, default=0.4)
    execute.add_argument("--svd", action="store_true",
                         help="attach the online detector")
    execute.add_argument("--save-trace", metavar="PATH",
                         help="record the execution trace to a file")
    execute.add_argument("--record", metavar="PATH",
                         help="save a replayable schedule recording")
    execute.add_argument("--max-steps", type=int, default=1_000_000)
    execute.set_defaults(func=_exec)

    analyze = sub.add_parser(
        "analyze", help="run trace-based detectors over a saved trace")
    analyze.add_argument("source", help="the MiniSMP source the trace "
                         "was recorded from")
    analyze.add_argument("trace", help="trace file saved by `exec "
                         "--save-trace`")
    analyze.add_argument("--detector", default="frd",
                         metavar="NAMES",
                         help="comma-separated registry detector names "
                         "(or 'all'), or 'queries'; available: "
                         + ", ".join(available()))
    analyze.add_argument("--variable", default=None,
                         help="with --detector queries: variable history "
                         "to print")
    analyze.add_argument("--salvage", action="store_true",
                         help="recover what the framing checksums can "
                         "vouch for from a damaged trace instead of "
                         "failing on the first bad record")
    analyze.set_defaults(func=_analyze)

    replay = sub.add_parser(
        "replay", help="replay a schedule recording with detectors")
    replay.add_argument("source", help="the MiniSMP source the recording "
                        "was captured from")
    replay.add_argument("recording", help="file saved by `exec --record`")
    replay.add_argument("--svd", action="store_true",
                        help="attach the online detector during replay")
    replay.set_defaults(func=_replay)

    comp = sub.add_parser("compile", help="compile and show the listing")
    comp.add_argument("source")
    comp.add_argument("--stats", action="store_true",
                      help="print layout statistics instead of a listing")
    comp.set_defaults(func=_compile)

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    t1.add_argument("--seed", type=int, default=3)
    t1.set_defaults(func=_table1)

    t2 = sub.add_parser("table2", help="regenerate Table 2")
    t2.add_argument("--scale", type=int, default=1)
    t2.add_argument("--max-steps", type=int, default=400_000)
    t2.set_defaults(func=_table2)

    over = sub.add_parser("overhead", help="measure detection overheads")
    over.add_argument("workload", choices=sorted(WORKLOADS), nargs="?",
                      default="mysql-tablelock")
    over.add_argument("--repeats", type=int, default=2)
    over.set_defaults(func=_overhead)


def _parse_threads(specs: Sequence[str]) -> List:
    threads = []
    for spec in specs:
        name, _sep, args = spec.partition(":")
        values = tuple(int(a) for a in args.split(",") if a)
        threads.append((name, values))
    return threads


def _run(inv) -> Outcome:
    """One execution of a bundled workload under one engine; SVD in the
    set adds its a-posteriori log and the ``runner.*``/``svd.*``
    metrics."""
    import repro.faults.runtime as faults

    args = inv.args
    if args.fixed and args.workload not in _FIXABLE:
        raise UsageError(f"workload {args.workload!r} has no patched "
                         f"variant")
    # --detector X means --detectors X, with 'all' the SVD+FRD pair
    names = parse_detectors(args.detectors or (
        "svd,frd" if args.detector == "all" else args.detector))
    plan = load_fault_plan(args.inject)
    model_seed = (args.model_seed if args.model_seed is not None
                  else args.seed)
    inv.start(Row("run", args.workload, {
        "command": "run",
        "workload": args.workload,
        "fixed": bool(args.fixed),
        "detector": args.detector,
        "detectors": args.detectors,
        "switch_prob": args.switch_prob,
        "max_steps": args.max_steps,
        "consistency": args.consistency,
        "inject": bool(args.inject),
    }, seeds={"schedule_seed": args.seed, "model_seed": model_seed},
        detectors=sorted(names), consistency=args.consistency))

    workload = (_FIXABLE[args.workload](fixed=True) if args.fixed
                else WORKLOADS[args.workload]())
    print(f"workload: {workload.description}")
    keep_trace = plan is not None and bool(plan.trace_faults())
    with faults.install(plan):
        engine = DetectorEngine(workload.program, names)
        machine = workload.make_machine(
            RandomScheduler(seed=args.seed, switch_prob=args.switch_prob),
            memmodel=resolve_model(args.consistency, model_seed))
        result = engine.run_machine(machine, max_steps=args.max_steps,
                                    keep_trace=keep_trace)
    print(f"outcome : {workload.validate(machine).detail}")
    print(f"status  : {result.status}, {result.end_seq} events, "
          f"{result.stats.stream_passes} stream pass(es) for "
          f"{len(result.requested)} detector(s)")
    reports = {name: result.report(name) for name in result.requested}
    for report in reports.values():
        print()
        print(report.describe())
    if "svd" in reports:
        svd = result.detector("svd")
        print()
        print(svd.log.describe(limit=5))
        if obs.metrics_enabled():
            record_run_metrics(result, svd, svd.instructions)
    _print_failures(result.failures.values())
    degraded = result.degraded
    if keep_trace and result.trace is not None:
        degraded = _trace_round_trip(result.trace, workload.program,
                                     plan) or degraded
    violations = sum(r.dynamic_count for r in reports.values())
    fingerprints = ()
    if args.db:
        from repro.resultsdb import violation_report_fingerprints
        fingerprints = violation_report_fingerprints(reports)
    return Outcome(status_of(violations > 0, degraded),
                   violations=violations, events=result.end_seq,
                   fingerprints=fingerprints)


def _print_failures(failures) -> None:
    for failure in failures:
        print(f"DEGRADED: {failure.describe()}", file=sys.stderr)


def _trace_round_trip(trace, program, plan) -> bool:
    """Demonstrate the ``trace.*`` faults in ``plan``: save the recorded
    trace, corrupt the file as planned, salvage-load it back.  Returns
    True when records were skipped or lost (a degraded result)."""
    import tempfile

    from repro.faults.inject import corrupt_trace_file
    from repro.trace import Trace

    with tempfile.TemporaryDirectory(prefix="repro-inject-") as tmp:
        path = f"{tmp}/run.trace"
        trace.save(path)
        corrupt_trace_file(path, plan)
        _salvaged, report = Trace.salvage_load(path, program)
        print()
        print(report.describe())
        return not report.clean


def _exec(inv) -> Outcome:
    args = inv.args
    program = load_program(args.source)
    threads = _parse_threads(args.thread)
    if not threads:
        threads = [(name, ()) for name, spec in program.threads.items()
                   if not spec.param_offsets]
        if not threads:
            raise UsageError("no --thread given and every thread body "
                             "takes parameters")
    detector = OnlineSVD(program) if args.svd else None
    observers = [detector] if detector else []
    recorder = None
    if args.save_trace:
        recorder = TraceRecorder(program, len(threads))
        observers.append(recorder)
    if args.record:
        from repro.machine import record_execution
        machine, recording = record_execution(
            program, threads,
            RandomScheduler(seed=args.seed, switch_prob=args.switch_prob),
            max_steps=args.max_steps, observers=observers)
        recording.save(args.record)
        print(f"recording saved to {args.record} "
              f"({recording.steps} steps)")
        status = machine.status
    else:
        machine = Machine(program, threads,
                          scheduler=RandomScheduler(
                              seed=args.seed,
                              switch_prob=args.switch_prob),
                          observers=observers)
        status = machine.run(max_steps=args.max_steps)
    if recorder is not None:
        trace = recorder.trace()
        trace.save(args.save_trace)
        print(f"trace saved to {args.save_trace} "
              f"({len(trace)} events)")
    print(f"status: {status} after {machine.steps} steps")
    if machine.output:
        print("output:", " ".join(str(v) for _t, v in machine.output))
    _print_crashes(program, machine)
    if detector is not None:
        print()
        print(detector.report.describe())
    return Outcome()


def _print_crashes(program, machine) -> None:
    for crash in machine.crashes:
        loc = program.locs[crash.loc] if crash.loc >= 0 else "?"
        print(f"CRASH thread {crash.tid}: {crash.reason} at {loc}")


def _compile(inv) -> Outcome:
    program = load_program(inv.args.source)
    if inv.args.stats:
        rows = [(name, spec.entry, spec.frame_words, spec.reg_count)
                for name, spec in program.threads.items()]
        print(render_table(["thread", "entry pc", "frame words", "regs"],
                           rows, title=f"{len(program.code)} instructions, "
                           f"{program.shared_words} shared words"))
    else:
        print(program.disassemble())
    return Outcome()


def _table1(inv) -> Outcome:
    print(render_table1(table1_rows(seed=inv.args.seed)))
    return Outcome()


def _table2(inv) -> Outcome:
    print(render_table2(table2_rows(scale=inv.args.scale,
                                    max_steps=inv.args.max_steps)))
    return Outcome()


def _overhead(inv) -> Outcome:
    result = measure_overhead(WORKLOADS[inv.args.workload](),
                              repeats=inv.args.repeats)
    print(f"{result.workload}: {result.instructions} instructions")
    print(f"bare machine : {result.bare_seconds * 1e3:8.1f} ms")
    print(f"with SVD     : {result.svd_seconds * 1e3:8.1f} ms "
          f"({result.slowdown:.1f}x)")
    print(f"tracked state: {result.peak_detector_state} block entries "
          f"({result.memory_overhead_fraction:.2f}x program memory)")
    return Outcome()


def _analyze(inv) -> Outcome:
    from repro.trace import Trace, TraceLoadError, TraceQuery
    args = inv.args
    program = load_program(args.source)
    degraded = False
    try:
        if args.salvage:
            trace, salvage = Trace.salvage_load(args.trace, program)
            print(salvage.describe())
            degraded = not salvage.clean
        else:
            trace = Trace.load(args.trace, program)
    except TraceLoadError as exc:
        raise UsageError(f"{exc}\nhint: --salvage recovers the readable "
                         f"records from a damaged trace") from None
    except OSError as exc:
        raise UsageError(f"cannot read {args.trace}: {exc}") from None
    print(f"loaded {len(trace)} events, {trace.n_threads} threads")
    if args.detector == "queries":
        query = TraceQuery(trace)
        print(query.render_shared_report())
        if args.variable:
            print()
            print(query.render_history(args.variable))
        return Outcome(status_of(False, degraded))
    names = parse_detectors(args.detector)
    result = DetectorEngine(program, names).run_trace(trace)
    violations = False
    for i, name in enumerate(result.requested):
        if i:
            print()
        report = result.report(name)
        violations = violations or report.dynamic_count > 0
        print(report.describe())
    _print_failures(result.failures.values())
    return Outcome(status_of(violations, degraded or result.degraded))


def _replay(inv) -> Outcome:
    from repro.machine import Recording, replay_execution
    args = inv.args
    program = load_program(args.source)
    try:
        recording = Recording.load(args.recording)
    except OSError as exc:
        raise UsageError(f"cannot read {args.recording}: {exc}") from None
    detector = OnlineSVD(program) if args.svd else None
    try:
        machine = replay_execution(
            program, recording,
            observers=[detector] if detector else [])
    except ValueError as exc:
        raise UsageError(f"replay failed: {exc}") from None
    print(f"replayed {machine.steps} steps deterministically "
          f"(status {machine.status})")
    _print_crashes(program, machine)
    if detector is not None:
        print()
        print(detector.report.describe())
        print()
        print(detector.log.describe(limit=5))
    return Outcome()
