"""``repro serve``: the long-lived supervised detector fleet."""

from __future__ import annotations

import sys

from repro.cli.lifecycle import (Outcome, Row, UsageError,
                                 add_consistency_flags, add_db_flag,
                                 add_obs_flags, load_fault_plan,
                                 parse_detectors, parse_workloads,
                                 probability)


def register(sub) -> None:
    serve = sub.add_parser(
        "serve", help="long-lived supervised fleet of detector "
        "executions (see docs/robustness.md)")
    serve.add_argument("--workloads", default="all",
                       help="comma-separated workload names, or 'all'")
    serve.add_argument("--executions", type=int, default=100,
                       help="total executions to run (default: 100)")
    serve.add_argument("--concurrency", type=int, default=4,
                       help="executions in flight at once (default: 4)")
    serve.add_argument("--master-seed", type=int, default=0)
    serve.add_argument("--switch-prob", type=probability, default=0.3)
    serve.add_argument("--max-steps", type=int, default=20_000,
                       help="per-execution step cap (default: 20000)")
    serve.add_argument("--detectors", default=None, metavar="NAMES",
                       help="comma-separated registry detector names "
                       "per execution (default: svd)")
    serve.add_argument("--wall-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-execution wall-clock deadline enforced "
                       "by the watchdog (default: 30)")
    serve.add_argument("--stall-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="kill an execution making no progress for "
                       "this long (default: 5)")
    serve.add_argument("--max-restarts", type=int, default=2,
                       help="crash-restart attempts per execution, with "
                       "capped exponential backoff (default: 2)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="cross-execution failures before an analysis "
                       "is quarantined fleet-wide (default: 3)")
    serve.add_argument("--budget-events-per-sec", type=float,
                       default=None, metavar="RATE",
                       help="fleet event-rate budget driving the "
                       "degradation ladder (full -> sampled -> paused); "
                       "default: no budget, ladder pinned at full")
    serve.add_argument("--ladder-dwell", type=float, default=1.0,
                       metavar="SECONDS",
                       help="minimum seconds between ladder transitions "
                       "(default: 1.0)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       metavar="SECONDS",
                       help="grace window for running executions on "
                       "SIGTERM/SIGINT before kill flags (default: 5)")
    serve.add_argument("--http-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live JSON status on 127.0.0.1:PORT "
                       "(0 = ephemeral; default: no endpoint)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound HTTP port to PATH "
                       "(for scripts using --http-port 0)")
    serve.add_argument("--inject", default=None, metavar="PLAN",
                       help="fault-plan JSON file; exec.stall / "
                       "exec.crash / serve.slow_consumer sites address "
                       "executions by index (attempt 0 only, so "
                       "restart recovers)")
    serve.add_argument("--heartbeat-out", default=None, metavar="PATH",
                       help="append the heartbeat telemetry stream as "
                       "JSONL to PATH")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       metavar="SECONDS")
    serve.add_argument("--progress", action="store_true",
                       help="render a live heartbeat status line")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the final summary lines")
    add_consistency_flags(serve)
    add_obs_flags(serve)
    add_db_flag(serve)
    serve.set_defaults(func=_serve)


def _serve(inv) -> Outcome:
    import repro.faults.runtime as fault_runtime
    from repro.harness.heartbeat import ServeHeartbeat
    from repro.serve import ServeConfig, Supervisor

    args = inv.args
    names = parse_workloads(args.workloads)
    detectors = (tuple(parse_detectors(args.detectors)) if args.detectors
                 else ("svd",))
    plan = load_fault_plan(args.inject)
    if args.port_file and args.http_port is None:
        raise UsageError("--port-file needs --http-port")
    try:
        config = ServeConfig(
            workloads=names, executions=args.executions,
            concurrency=args.concurrency, max_steps=args.max_steps,
            detectors=detectors, switch_prob=args.switch_prob,
            master_seed=args.master_seed, consistency=args.consistency,
            wall_deadline=args.wall_deadline,
            stall_timeout=args.stall_timeout,
            max_restarts=args.max_restarts,
            breaker_threshold=args.breaker_threshold,
            budget_events_per_sec=args.budget_events_per_sec,
            ladder_dwell=args.ladder_dwell,
            drain_grace=args.drain_grace,
            http_port=args.http_port, port_file=args.port_file)
    except ValueError as exc:
        raise UsageError(f"error: {exc}") from None
    # --db records the fleet's metrics, so it opens the obs session too
    config.heartbeat = inv.start(Row("serve", "serve", {
        "command": "serve",
        "workloads": sorted(names),
        "executions": args.executions,
        "concurrency": args.concurrency,
        "max_steps": args.max_steps,
        "detectors": list(detectors),
        "consistency": args.consistency,
        "budget_events_per_sec": args.budget_events_per_sec,
        "inject": bool(args.inject),
    }, seeds={"master_seed": args.master_seed}, detectors=detectors,
        consistency=args.consistency),
        heartbeat=ServeHeartbeat, total=args.executions,
        obs_on=bool(args.db))
    supervisor = Supervisor(config)
    with fault_runtime.install(plan):
        outcome = supervisor.run()
    totals = supervisor.totals
    if not args.quiet:
        print(f"serve: {outcome}: {totals.completed} completed, "
              f"{totals.failed} failed of {totals.launched} launched "
              f"({config.executions} planned), {totals.restarts} "
              f"restart(s), {totals.watchdog_kills} watchdog kill(s), "
              f"{totals.violations} violation report(s), "
              f"ladder level {supervisor.ladder.level}",
              file=sys.stderr)
    return Outcome(outcome, violations=totals.violations,
                   events=totals.events, elapsed=supervisor.elapsed,
                   payload=supervisor.final_payload())
