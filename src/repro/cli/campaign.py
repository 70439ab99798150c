"""``repro campaign`` and ``repro shard plan|run|merge|drive``."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, Optional, Tuple

from repro.cli.lifecycle import (Outcome, Row, UsageError,
                                 add_consistency_flags, add_db_flag,
                                 add_obs_flags, non_negative_float,
                                 non_negative_int, obs_requested,
                                 parse_detectors, parse_workloads,
                                 positive_float, positive_int, probability,
                                 status_of)


def _add_matrix_flags(parser: argparse.ArgumentParser) -> None:
    """The campaign matrix + execution-policy flags, shared by
    ``repro campaign`` and ``repro shard plan`` so both expand the
    exact same task matrix for the same flags."""
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--configs", default="default",
                        help="comma-separated detector configs "
                        "(default, block4, all-blocks, no-addr-deps, "
                        "no-ctrl-deps, cut-at-wait)")
    parser.add_argument("--seeds", type=positive_int, default=8,
                        help="seeded segments per (workload, config) cell")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--switch-prob", type=probability, default=0.3)
    parser.add_argument("--max-steps", type=int, default=400_000)
    parser.add_argument("--timeout", type=positive_float, default=None,
                        help="per-run wall-clock limit in seconds "
                        "(parallel mode); a hung run becomes one "
                        "timeout result")
    parser.add_argument("--retries", type=non_negative_int, default=0,
                        help="re-dispatch a crashed/timed-out run up to N "
                        "times before recording the failure")
    parser.add_argument("--retry-backoff", type=non_negative_float,
                        default=0.0,
                        help="seconds before retry k runs (scaled by k)")
    parser.add_argument("--no-frd", action="store_true",
                        help="skip the FRD comparison pass")
    parser.add_argument("--detectors", default=None, metavar="NAMES",
                        help="extra registry detector names attached to "
                        "every run alongside SVD(+FRD)")
    add_consistency_flags(parser)


def register(sub) -> None:
    camp = sub.add_parser(
        "campaign", help="parallel (workload, seed, config) sweep")
    _add_matrix_flags(camp)
    camp.add_argument("-j", "--workers", type=positive_int, default=1,
                      help="worker processes (1 = serial in-process)")
    camp.add_argument("--budget", type=float, default=None,
                      help="campaign wall-clock budget in seconds; "
                      "undispatched runs are marked skipped")
    camp.add_argument("--journal", default=None, metavar="DIR",
                      help="checkpoint every finished run to an atomic "
                      "journal in DIR (resume later with --resume DIR)")
    camp.add_argument("--resume", default=None, metavar="DIR",
                      help="resume an interrupted campaign from its "
                      "journal; already-journaled runs are skipped and "
                      "the merged output is identical to an "
                      "uninterrupted run")
    camp.add_argument("--shard", default=None, metavar="K/N",
                      help="run only shard K of N (1-based): the tasks "
                      "whose global matrix index i satisfies "
                      "i %% N == K-1; seeds and results are identical "
                      "to the same tasks of the unsharded campaign "
                      "(see docs/scaling.md)")
    camp.add_argument("--table2", action="store_true",
                      help="also render with the paper's Table 2 "
                      "reference columns")
    camp.add_argument("--quiet", action="store_true",
                      help="suppress per-run progress lines")
    camp.add_argument("--progress", action="store_true",
                      help="render a live heartbeat status line "
                      "(tasks, events/sec, violations, worker "
                      "liveness) instead of per-run lines")
    camp.add_argument("--heartbeat-out", default=None, metavar="PATH",
                      help="append the heartbeat telemetry stream as "
                      "JSONL to PATH (one record per beat; "
                      "tail -f friendly)")
    camp.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="SECONDS",
                      help="seconds between heartbeat records "
                      "(default: 1.0)")
    add_obs_flags(camp)
    add_db_flag(camp)
    camp.set_defaults(func=_campaign)

    shard = sub.add_parser(
        "shard", help="split a campaign across independent shard "
        "processes and merge their journals (see docs/scaling.md)")
    shsub = shard.add_subparsers(dest="shard_command", required=True)

    splan = shsub.add_parser(
        "plan", help="write an N-shard plan for a campaign matrix")
    splan.add_argument("--shards", type=positive_int, required=True,
                       metavar="N",
                       help="number of shards to split the matrix into")
    splan.add_argument("--out", required=True, metavar="DIR",
                       help="plan directory (one subdirectory per shard)")
    splan.add_argument("--no-obs", action="store_true",
                       help="plan without per-task metrics collection "
                       "(fastest; the merge then has no obs snapshot)")
    _add_matrix_flags(splan)
    splan.set_defaults(func=_shard_plan)

    srun = shsub.add_parser(
        "run", help="run one shard directory (journaled; rerunning "
        "resumes from the journal)")
    srun.add_argument("shard_dir", help="a shard directory written by "
                      "`repro shard plan`")
    srun.add_argument("-j", "--workers", type=positive_int, default=1,
                      help="worker processes for this shard")
    srun.add_argument("--budget", type=float, default=None,
                      help="shard wall-clock budget in seconds")
    srun.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="SECONDS")
    add_db_flag(srun)
    srun.set_defaults(func=_shard_run)

    smerge = shsub.add_parser(
        "merge", help="merge every shard's journal into the final "
        "campaign report (commutative; byte-identical to the unsharded "
        "campaign)")
    smerge.add_argument("plan_dir", help="the plan directory")
    smerge.add_argument("--table2", action="store_true",
                        help="also render with the paper's Table 2 "
                        "reference columns")
    smerge.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the merged obs snapshot as "
                        "canonical JSON")
    add_db_flag(smerge)
    smerge.set_defaults(func=_shard_merge)

    sdrive = shsub.add_parser(
        "drive", help="run every shard as a local subprocess, then "
        "merge (the single-host multi-process backend)")
    sdrive.add_argument("plan_dir", help="the plan directory")
    sdrive.add_argument("-j", "--workers", type=positive_int, default=1,
                        help="worker processes per shard subprocess")
    sdrive.add_argument("--table2", action="store_true")
    sdrive.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the merged obs snapshot as "
                        "canonical JSON")
    add_db_flag(sdrive)
    sdrive.set_defaults(func=_shard_drive)


def _resolve_campaign_spec(args, obs_on: bool):
    """Expand the shared matrix flags into ``(spec, config_doc)``.  One
    resolver for ``campaign`` and ``shard plan`` keeps the expanded task
    matrix -- and therefore the journal fingerprint -- identical for
    identical flags.  The config document is what the results DB
    fingerprints; the shard plan manifest carries it, so a merged shard
    campaign records the same row as an unsharded one."""
    from repro.harness.campaign import (CampaignSpec, NAMED_CONFIGS,
                                        WorkloadSpec)
    names = parse_workloads(args.workloads)
    configs = []
    for cname in args.configs.split(","):
        cname = cname.strip()
        if cname not in NAMED_CONFIGS:
            raise UsageError(
                f"unknown config {cname!r} (choose from "
                f"{', '.join(sorted(NAMED_CONFIGS))})")
        config = NAMED_CONFIGS[cname]()
        config.switch_prob = args.switch_prob
        config.max_steps = args.max_steps
        config.run_frd = not args.no_frd
        config.consistency = args.consistency
        config.model_seed = args.model_seed
        if args.detectors:
            config.detectors = tuple(parse_detectors(args.detectors))
        configs.append(config)
    spec = CampaignSpec(
        workloads=[WorkloadSpec(name=n) for n in names],
        configs=configs, seeds=args.seeds,
        master_seed=args.master_seed, task_timeout=args.timeout,
        task_retries=args.retries, retry_backoff=args.retry_backoff,
        obs=obs_on)
    config_doc = {
        "command": "campaign",
        "workloads": sorted(names),
        "configs": sorted(c.name for c in configs),
        "seeds": args.seeds,
        "switch_prob": args.switch_prob,
        "max_steps": args.max_steps,
        "frd": not args.no_frd,
        "detectors": args.detectors,
        "consistency": args.consistency,
    }
    return spec, config_doc


def _parse_shard_flag(value: str) -> Tuple[int, int]:
    """``K/N`` (1-based K) -> 0-based ``(index, count)``."""
    try:
        k_text, n_text = value.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise UsageError(f"--shard wants K/N (e.g. 2/4), got {value!r}")
    if n < 1 or not 1 <= k <= n:
        raise UsageError(f"--shard {value}: K must be in 1..N")
    return k - 1, n


def _task_count(spec, shard: Optional[Tuple[int, int]] = None) -> int:
    """Tasks in the matrix, or in shard ``(index, count)`` of it: the
    global indices ``i`` with ``i % count == index``."""
    total = len(spec.workloads) * len(spec.configs) * spec.seeds
    if shard is None:
        return total
    index, count = shard
    return len(range(index, total, count))


def _campaign_row(config: Dict[str, Any], spec,
                  shard: Optional[Tuple[int, int]] = None) -> Row:
    """The ``--db`` row of ``campaign``, ``shard run`` and ``shard
    merge``: the same matrix (or the same shard of it) records the same
    row whichever command ran it.  :func:`_campaign_outcome` is its
    measured half."""
    label = ("campaign" if shard is None
             else f"campaign[shard {shard[0] + 1}/{shard[1]}]")
    first = spec.configs[0] if spec.configs else None
    return Row("campaign", label, config,
               seeds={"master_seed": spec.master_seed},
               detectors=first.detectors if first else (),
               consistency=first.consistency if first else "")


def _campaign_outcome(report, snapshot,
                      heartbeat: Optional[Dict[str, Any]] = None) -> Outcome:
    aggregate = report.aggregate
    failed = report.failed_count
    status = ("interrupted" if report.interrupted
              else status_of(aggregate.violations > 0, failed > 0))
    return Outcome(status, violations=aggregate.violations,
                   events=aggregate.events, elapsed=report.elapsed,
                   payload={"runs": report.completed, "failed": failed},
                   fingerprints=sorted(aggregate.violation_fingerprints),
                   snapshot=snapshot, heartbeat=heartbeat)


def _print_report(report, table2: bool) -> None:
    print(report.render_metrics())
    if table2:
        print()
        print(report.render_table2())


def _campaign(inv) -> Outcome:
    from repro.harness import CampaignHeartbeat
    from repro.harness.campaign import run_campaign
    from repro.harness.journal import JournalError

    args = inv.args
    # --db wants the merged obs snapshot in the record, so recording a
    # campaign implies collecting task metrics even without --obs
    spec, config_doc = _resolve_campaign_spec(
        args, obs_requested(args) or bool(args.db))
    shard = _parse_shard_flag(args.shard) if args.shard else None
    if args.journal and args.resume:
        raise UsageError("--journal starts a fresh journal, --resume "
                         "continues one; give only the one you mean")
    journal_dir = args.resume or args.journal
    total = _task_count(spec, shard)
    done = [0]

    def progress(result) -> None:
        done[0] += 1
        # --progress replaces the per-run lines with the live
        # heartbeat status line; mixing both garbles the terminal
        if args.quiet or args.progress:
            return
        note = result.status
        if result.ok:
            note += (f", {result.svd.dynamic_total} svd reports, "
                     f"{result.instructions} insts")
        print(f"[{done[0]}/{total}] {result.workload}/{result.config} "
              f"seed#{result.seed_index} -> {note}", file=sys.stderr)

    heartbeat = inv.start(_campaign_row(config_doc, spec, shard),
                          heartbeat=CampaignHeartbeat, total=total,
                          obs_on=spec.obs)
    # keep_results=False: every result folds into the streaming
    # aggregate on arrival, so parent memory stays O(1) in completed
    # tasks no matter how large the matrix is.  A signal inside
    # run_campaign yields the partial report, flagged interrupted.
    try:
        report = run_campaign(spec, workers=args.workers,
                              budget=args.budget, on_result=progress,
                              journal_dir=journal_dir,
                              resume=bool(args.resume),
                              heartbeat=heartbeat,
                              keep_results=False, shard=shard)
    except JournalError as exc:
        raise UsageError(str(exc)) from None
    _print_report(report, args.table2)
    completed = report.completed
    failed_count = report.failed_count
    print(f"{completed} runs ({completed - failed_count}"
          f" ok, {failed_count} failed/skipped) in {report.elapsed:.1f}s "
          f"with {args.workers} worker(s)", file=sys.stderr)
    for result in report.errors[:5]:
        first_line = result.error.strip().splitlines()[-1:] or ["?"]
        print(f"  {result.workload}/{result.config} seed#"
              f"{result.seed_index}: {result.status}: {first_line[0]}",
              file=sys.stderr)
    if report.interrupted:
        print(f"campaign interrupted after {completed} of "
              f"{total} runs; journal and heartbeat are flushed"
              + (", resume with --resume" if journal_dir else ""),
              file=sys.stderr)
    return _campaign_outcome(report, report.merged_obs())


def _shard_plan(inv) -> Outcome:
    from repro.harness import shard as shardlib
    args = inv.args
    # shards collect per-task metrics by default so the merged report
    # carries the campaign-wide obs snapshot, exactly like
    # `campaign --db`; --no-obs opts out for throughput runs
    spec, config_doc = _resolve_campaign_spec(args, obs_on=not args.no_obs)
    try:
        plan = shardlib.plan_shards(spec, args.shards, args.out,
                                    config_doc=config_doc)
    except shardlib.ShardError as exc:
        raise UsageError(str(exc)) from None
    per_shard = [_task_count(spec, (k, plan.count))
                 for k in range(plan.count)]
    print(f"planned {plan.total_tasks} tasks across {plan.count} "
          f"shard(s) in {args.out} ({min(per_shard)}-{max(per_shard)} "
          f"tasks/shard, fingerprint {plan.fingerprint[:16]})")
    return Outcome()


def _plan_config(shard_dir: str, spec) -> Dict[str, Any]:
    """The config document of the plan a shard directory belongs to (a
    minimal one when the shard was moved away from its plan)."""
    from repro.harness import shard as shardlib
    try:
        config = shardlib.load_plan(
            os.path.dirname(os.path.abspath(shard_dir))).config
    except shardlib.ShardError:
        config = None
    return config or {"command": "campaign",
                      "workloads": sorted(w.name for w in spec.workloads),
                      "configs": sorted(c.name for c in spec.configs),
                      "seeds": spec.seeds}


def _shard_run(inv) -> Outcome:
    from repro.harness import CampaignHeartbeat
    from repro.harness import shard as shardlib
    from repro.harness.campaign import run_campaign
    from repro.harness.journal import JOURNAL_NAME, JournalError

    args = inv.args
    try:
        spec, shard = shardlib.load_shard(args.shard_dir)
    except shardlib.ShardError as exc:
        raise UsageError(str(exc)) from None
    total = _task_count(spec, shard)
    # rerunning a shard directory always resumes its journal: the
    # normal recovery path after a crash or kill is simply to run the
    # same command again
    resume = os.path.exists(os.path.join(args.shard_dir, JOURNAL_NAME))
    # the shard's metrics file is its contribution to the merged
    # campaign snapshot: its task obs plus its own pool counters.
    # merge_snapshots is associative and commutative, so folding the
    # per-shard files reproduces the unsharded snapshot byte-identically
    heartbeat = inv.start(
        _campaign_row(_plan_config(args.shard_dir, spec), spec, shard),
        heartbeat=CampaignHeartbeat, total=total,
        heartbeat_out=os.path.join(args.shard_dir, shardlib.HEARTBEAT_NAME),
        metrics_out=(os.path.join(args.shard_dir, shardlib.METRICS_NAME)
                     if spec.obs else None),
        obs_on=spec.obs)
    try:
        report = run_campaign(
            spec, workers=args.workers, budget=args.budget,
            journal_dir=args.shard_dir, resume=resume,
            heartbeat=heartbeat, keep_results=False, shard=shard)
    except JournalError as exc:
        raise UsageError(str(exc)) from None
    completed = report.completed
    failed_count = report.failed_count
    print(f"shard {shard[0] + 1}/{shard[1]}: {completed}/{total} tasks "
          f"({completed - failed_count} ok, {failed_count} "
          f"failed/skipped) in {report.elapsed:.1f}s")
    if report.interrupted:
        print(f"shard interrupted; the journal is flushed, rerun "
              f"`repro shard run {args.shard_dir}` to resume",
              file=sys.stderr)
    return _campaign_outcome(report, report.merged_obs())


def _shard_merge(inv) -> Outcome:
    from repro.harness import shard as shardlib
    from repro.harness.journal import JournalError
    try:
        merge = shardlib.merge_shards(inv.args.plan_dir)
    except (shardlib.ShardError, JournalError) as exc:
        raise UsageError(str(exc)) from None
    inv.start(_campaign_row(merge.plan.config or {}, merge.plan.spec))
    report = merge.report
    _print_report(report, inv.args.table2)
    completed = report.completed
    failed_count = report.failed_count
    print(f"merged {len(merge.shards)}/{merge.plan.count} shard "
          f"journal(s): {completed}/{merge.plan.total_tasks} runs "
          f"({completed - failed_count} ok, {failed_count} "
          f"failed/skipped)", file=sys.stderr)
    if merge.missing:
        sample = ", ".join(str(i) for i in merge.missing_sample)
        print(f"{merge.missing} task(s) not covered by any shard "
              f"journal (e.g. indices {sample}); the merged report is "
              f"partial -- rerun the missing shards and merge again",
              file=sys.stderr)
    # a partial merge reports interrupted (see merge_shards)
    return _campaign_outcome(report, merge.obs, heartbeat=merge.heartbeat)


def _shard_drive(inv) -> Outcome:
    from repro.harness import shard as shardlib
    try:
        codes = shardlib.drive_shards(inv.args.plan_dir,
                                      workers=inv.args.workers)
    except shardlib.ShardError as exc:
        raise UsageError(str(exc)) from None
    for index in sorted(codes):
        print(f"shard {index + 1}/{len(codes)}: exit {codes[index]}",
              file=sys.stderr)
    bad = {i: c for i, c in codes.items() if c not in (0, 1)}
    if bad:
        print(f"{len(bad)} shard(s) did not complete cleanly (see "
              f"shard.log in each shard directory); merging what "
              f"finished", file=sys.stderr)
    return _shard_merge(inv)
