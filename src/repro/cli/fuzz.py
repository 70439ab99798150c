"""``repro fuzz``: differential fuzzing of the SVD detector family."""

from __future__ import annotations

import dataclasses
import sys

from repro.cli.lifecycle import (Outcome, Row, UsageError, add_db_flag,
                                 add_obs_flags, status_of)


def register(sub) -> None:
    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the SVD detector family")
    fuzz.add_argument("--budget", type=float, default=30.0,
                      help="wall-clock budget in seconds")
    fuzz.add_argument("--programs", type=int, default=None,
                      help="cap on generated programs (default: "
                      "budget-bound only)")
    fuzz.add_argument("--seeds", type=int, default=2,
                      help="schedule probes per generated program")
    fuzz.add_argument("--workers", type=int, default=1)
    fuzz.add_argument("--master-seed", type=int, default=0)
    fuzz.add_argument("--minimize", action="store_true",
                      help="shrink violating programs before reporting")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="existing corpus directory; report which "
                      "entries this session rediscovered")
    fuzz.add_argument("--save-corpus", default=None, metavar="DIR",
                      help="write up to 10 violating programs as a "
                      "seed corpus")
    fuzz.add_argument("--faults", action="store_true",
                      help="fault-matrix mode: probe each generated "
                      "program's recorded trace under every single-fault "
                      "plan and check the degradation oracle (no "
                      "uncaught exceptions, quarantine isolates the "
                      "targeted analysis)")
    fuzz.add_argument("--directed", action="store_true",
                      help="conflict-directed violation hunt on the "
                      "transactional workloads: profile conflict sites, "
                      "then compare directed vs uniformly random "
                      "schedule search at equal probe budgets")
    fuzz.add_argument("--probes", type=int, default=120,
                      help="probes per (workload, arm) in --directed "
                      "mode (default: 120)")
    fuzz.add_argument("--consistency", default="tso",
                      choices=["strict", "tso"],
                      help="memory model for --directed probes "
                      "(default: tso)")
    add_obs_flags(fuzz)
    add_db_flag(fuzz)
    fuzz.set_defaults(func=_fuzz)


def _fuzz(inv) -> Outcome:
    from repro.fuzz import (load_corpus, rediscovered, run_fuzz,
                            save_corpus)
    args = inv.args
    if args.budget is not None and args.budget <= 0:
        args.budget = None
    if args.directed and args.probes <= 0:
        raise UsageError("--probes must be positive")
    inv.start(Row("fuzz", "directed" if args.directed else "fuzz", {
        "command": "fuzz",
        "budget": args.budget,
        "programs": args.programs,
        "seeds": args.seeds,
        "minimize": bool(args.minimize),
        "faults": bool(args.faults),
        "directed": bool(args.directed),
        "probes": args.probes,
        "consistency": args.consistency,
    }, seeds={"master_seed": args.master_seed},
        consistency=args.consistency))
    if args.directed:
        return _directed_hunt(args)
    try:
        report = run_fuzz(budget=args.budget, max_programs=args.programs,
                          probes_per_program=args.seeds,
                          workers=args.workers,
                          master_seed=args.master_seed,
                          minimize=args.minimize,
                          fault_mode=args.faults)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(report.describe())
    if args.corpus:
        try:
            entries = load_corpus(args.corpus)
        except OSError as exc:
            raise UsageError(f"cannot read corpus: {exc}") from None
        hits = rediscovered(report, entries)
        print(f"corpus: rediscovered {len(hits)}/{len(entries)} entries")
        for entry in hits:
            print(f"  {entry.file}")
    if args.save_corpus:
        entries = save_corpus(args.save_corpus, report.findings)
        print(f"saved {len(entries)} corpus entries to {args.save_corpus}")
    stats = report.stats
    # a failed oracle is the fuzzer's "violation"; worker errors mean
    # probes were silently lost: a degraded session
    status = status_of(False, stats.errors > 0)
    if stats.replay_divergences:
        print("FAIL: live and trace-replayed online SVD disagreed "
              f"{stats.replay_divergences} time(s)", file=sys.stderr)
        status = "violations"
    elif stats.fault_crashes or stats.fault_isolation_breaks:
        print(f"FAIL: fault oracle: {stats.fault_crashes} uncaught "
              f"crash(es), {stats.fault_isolation_breaks} isolation "
              f"break(s)", file=sys.stderr)
        status = "violations"
    return Outcome(status, violations=stats.violations, events=stats.probes,
                   payload={"stats": dataclasses.asdict(stats),
                            "findings": len(report.findings),
                            "elapsed": report.elapsed})


def _directed_hunt(args) -> Outcome:
    """``fuzz --directed``: conflict-directed vs random violation hunt
    over the transactional workloads at equal probe budgets."""
    from repro.fuzz.directed import compare_hunts, describe_comparison
    from repro.workloads import TXN_WORKLOADS

    workloads = [factory() for factory in TXN_WORKLOADS.values()]
    pairs = compare_hunts(workloads, args.probes,
                          master_seed=args.master_seed,
                          consistency=args.consistency,
                          budget=args.budget)
    print(f"conflict-directed hunt: {len(workloads)} workloads x "
          f"{args.probes} probes/arm, consistency={args.consistency}, "
          f"master seed {args.master_seed}")
    print()
    print(describe_comparison(pairs))
    elapsed = sum(d.elapsed + r.elapsed for d, r in pairs)
    directed_hits = sum(d.violations for d, _ in pairs)
    random_hits = sum(r.violations for _, r in pairs)
    print()
    print(f"total: directed {directed_hits}, random {random_hits} "
          f"manifested violations in {elapsed:.1f}s")
    for directed, _rand in pairs:
        for hit in directed.hits[:1]:
            print(f"  replay {directed.workload}: schedule seed "
                  f"{hit.schedule_seed}, model seed {hit.model_seed} "
                  f"-> {hit.detail}")
    # the hunt *measures* violation yield; finding seeded violations in
    # the buggy transactional workloads is the expected outcome, so the
    # status only distinguishes "ran" from "could not run"
    return Outcome(
        violations=directed_hits + random_hits,
        events=sum(d.probes + r.probes for d, r in pairs),
        payload={"arms": [{"workload": arm.workload, "mode": arm.mode,
                           "probes": arm.probes,
                           "violations": arm.violations,
                           "elapsed": arm.elapsed}
                          for pair in pairs for arm in pair],
                 "elapsed": elapsed})
