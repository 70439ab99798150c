"""Campaign throughput (sharded and pooled) and coordinator memory
flatness.

The distribution layer should be close to free, the worker pool should
keep its workers busy on short tasks, and the streaming aggregation
keeps the coordinator O(1).  This bench pins those claims in
``benchmarks/out/BENCH_campaign.json``:

* **sharded.events_per_sec** (asserted) -- end-to-end throughput of
  the full multi-shard path: ``plan`` (obs off) -> ``drive`` (3 local
  shard subprocesses) -> ``merge``.  The matrix is sized so the run
  retires >2M interpreted events, large enough that the fixed
  subprocess fan-out cost (3 interpreter startups on a single-core
  box) cannot dominate the measurement.  Recorded ~316k ev/s on the
  reference box against a ~420k ev/s single-pool baseline; the pinned
  floor (``bench_gate.FLOORS["BENCH_campaign.json"]``, 250k) catches a
  real regression in either the engine or the shard plumbing.
* **rss.flatness** (asserted) -- the O(1)-aggregation memory gate: one
  coordinator subprocess runs a small campaign, another runs the same
  campaign with 10x the tasks, and each reports its own peak RSS in
  its final heartbeat record.  Streaming aggregation means the peak is
  set by the widest single task, not the task count, so
  small_peak / large_peak stays near 1.0 (recorded ~0.96); a
  result-retaining coordinator drags the ratio well below the 0.90
  floor.  Subprocesses keep the measurement honest -- each campaign's
  high-water mark is its own, not this process's.

* **pool.events_per_sec** (asserted) -- the crash-isolating worker
  pool on many short tasks: the 12-workload x 15-seed matrix of the
  end-to-end benchmark's ``campaign-small`` workload (default config,
  a few ms per task) through in-process ``run_campaign`` at
  ``workers=2``, after one untimed warm-up campaign.  A parent that
  napped 50 ms between drains left the workers idle and read
  187k-191k ev/s, under half the serial run; one woken by each result
  read 794k-816k, 1.8x the serial run.  The serial rate and the
  parallel/serial ratio ride alongside, unasserted: a ratio floor
  would measure the serial run as much as the pool.

A ``single_pool`` reference section records the same matrix through
in-process ``run_campaign`` so the artefact always shows what the
sharding overhead actually cost.  The floors are re-checked in CI via
``repro bench --check``.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.harness import shard as shardlib
from repro.harness.bench_gate import FLOORS
from repro.harness.campaign import (CampaignSpec, ConfigSpec,
                                    WorkloadSpec, run_campaign)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

SHARDS = 3
SEEDS = 48
MAX_STEPS = 60_000
#: sharded-throughput rounds (best wins; early exit above the margin)
ROUNDS = 2
EPS_FLOOR = FLOORS["BENCH_campaign.json"]["sharded.events_per_sec"]
RSS_FLOOR = FLOORS["BENCH_campaign.json"]["rss.flatness"]

#: the memory-flatness campaigns: identical per-task shape, 10x tasks
RSS_SMALL_SEEDS = 25
RSS_LARGE_SEEDS = 250
RSS_MAX_STEPS = 2_000

#: the pool matrix: ``campaign-small``'s workloads of the end-to-end
#: benchmark, many short tasks that put the pool's wake-up on the
#: critical path
POOL_WORKLOADS = ("mysql-tablelock", "pgsql", "stringbuffer",
                  "queue-region", "bank-transfer", "bounded-buffer",
                  "rwlock-db", "double-checked-init", "spsc-ring",
                  "txn-bank", "txn-cart", "txn-session")
POOL_SEEDS = 15
POOL_WORKERS = 2
POOL_FLOOR = FLOORS["BENCH_campaign.json"]["pool.events_per_sec"]


def _throughput_spec():
    """The timed matrix: obs off (throughput mode), ~2.3M events."""
    return CampaignSpec(
        workloads=[WorkloadSpec(name="apache"),
                   WorkloadSpec(name="stringbuffer")],
        configs=[ConfigSpec(name="bench", max_steps=MAX_STEPS)],
        seeds=SEEDS, obs=False)


def _run_sharded(plan_dir):
    """One timed plan/drive/merge pass; returns (events, seconds,
    merged report)."""
    plan = shardlib.plan_shards(_throughput_spec(), SHARDS, plan_dir)
    assert plan.total_tasks == 2 * SEEDS
    started = time.perf_counter()
    codes = shardlib.drive_shards(plan_dir, workers=1)
    merge = shardlib.merge_shards(plan_dir)
    seconds = time.perf_counter() - started
    # violations are the expected outcome (these are buggy workloads);
    # anything else means a shard died
    assert all(code in (0, 1) for code in codes.values()), codes
    assert merge.missing == 0, (merge.missing, merge.missing_sample)
    aggregate = merge.report.aggregate
    assert aggregate.completed == plan.total_tasks
    assert aggregate.failed_count == 0
    return aggregate.events, seconds, merge


def _run_single_pool():
    """The in-process baseline over the identical matrix."""
    started = time.perf_counter()
    report = run_campaign(_throughput_spec(), keep_results=False)
    seconds = time.perf_counter() - started
    aggregate = report.aggregate
    assert aggregate.failed_count == 0
    return aggregate.events, seconds


def _run_pool(workers):
    """One campaign over the pool matrix; returns (events, seconds)."""
    spec = CampaignSpec(
        workloads=[WorkloadSpec(name=name) for name in POOL_WORKLOADS],
        seeds=POOL_SEEDS)
    started = time.perf_counter()
    report = run_campaign(spec, workers=workers, keep_results=False)
    seconds = time.perf_counter() - started
    aggregate = report.aggregate
    assert aggregate.completed == len(POOL_WORKLOADS) * POOL_SEEDS
    assert aggregate.failed_count == 0
    return aggregate.events, seconds


def _coordinator_peak_rss(tmp_path, tag, seeds):
    """Run one campaign as its own subprocess and return the
    coordinator's peak RSS from its final heartbeat record."""
    heartbeat = os.path.join(str(tmp_path), f"hb_{tag}.jsonl")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign",
         "--workloads", "stringbuffer", "--seeds", str(seeds),
         "--max-steps", str(RSS_MAX_STEPS), "--quiet",
         "--heartbeat-out", heartbeat],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    with open(heartbeat) as fh:
        final = json.loads(fh.readlines()[-1])
    assert final.get("final"), final
    assert final["completed"] == seeds, final
    rss = int(final["rss_peak_bytes"])
    assert rss > 0, final
    return rss


def test_sharded_campaign_throughput_and_rss(tmp_path, emit_result):
    best_events, best_seconds, merge = None, None, None
    rounds = 0
    while rounds < ROUNDS:
        events, seconds, merge = _run_sharded(
            str(tmp_path / f"plan-{rounds}"))
        rounds += 1
        if (best_seconds is None
                or events / seconds > best_events / best_seconds):
            best_events, best_seconds = events, seconds
        if best_events / best_seconds >= EPS_FLOOR * 1.15:
            break
    sharded_eps = best_events / best_seconds

    single_events, single_seconds = _run_single_pool()
    # the task set and seeds are globally derived, so both paths must
    # have interpreted the identical stream
    assert single_events == best_events, (single_events, best_events)

    # untimed warm-up: the timed run's forked workers inherit the
    # parent's imports instead of paying for them.  They do not inherit
    # compiles: each worker keeps the workloads it builds, and the
    # warm-up's die with its workers, so every timed worker compiles
    # each program once itself
    _run_pool(POOL_WORKERS)
    pool_events, pool_seconds = _run_pool(POOL_WORKERS)
    serial_events, serial_seconds = _run_pool(1)
    assert serial_events == pool_events, (serial_events, pool_events)
    pool_eps = pool_events / pool_seconds
    serial_eps = serial_events / serial_seconds

    small_rss = _coordinator_peak_rss(tmp_path, "small", RSS_SMALL_SEEDS)
    large_rss = _coordinator_peak_rss(tmp_path, "large", RSS_LARGE_SEEDS)
    flatness = small_rss / large_rss

    record = {
        "shards": SHARDS,
        "tasks": 2 * SEEDS,
        "max_steps": MAX_STEPS,
        "rounds": rounds,
        "sharded": {
            "events": best_events,
            "seconds": round(best_seconds, 6),
            "events_per_sec": round(sharded_eps),
            "merged_heartbeat_events_per_sec":
                merge.heartbeat["events_per_sec"] if merge.heartbeat
                else None,
        },
        "single_pool": {
            "events": single_events,
            "seconds": round(single_seconds, 6),
            "events_per_sec": round(single_events / single_seconds),
        },
        "pool": {
            "tasks": len(POOL_WORKLOADS) * POOL_SEEDS,
            "workers": POOL_WORKERS,
            "events": pool_events,
            "seconds": round(pool_seconds, 6),
            "events_per_sec": round(pool_eps),
            "serial_seconds": round(serial_seconds, 6),
            "serial_events_per_sec": round(serial_eps),
            "parallel_over_serial": round(pool_eps / serial_eps, 3),
        },
        "rss": {
            "small_tasks": RSS_SMALL_SEEDS,
            "large_tasks": RSS_LARGE_SEEDS,
            "small_peak_bytes": small_rss,
            "large_peak_bytes": large_rss,
            "flatness": round(flatness, 4),
        },
        "events_per_sec_floor": EPS_FLOOR,
        "pool_events_per_sec_floor": POOL_FLOOR,
        "rss_flatness_floor": RSS_FLOOR,
    }
    from repro.harness import bench_gate
    record = bench_gate.write_artefact(
        os.path.join(OUT_DIR, "BENCH_campaign.json"), record)

    emit_result("campaign_throughput", json.dumps(record, indent=2))
    # the pinned claims (also enforced on the artefact in CI via
    # ``repro bench --check``): the shard fan-out stays cheap, the pool
    # keeps its workers busy on short tasks, and the coordinator's
    # memory does not scale with the task count
    assert sharded_eps >= EPS_FLOOR, record
    assert pool_eps >= POOL_FLOOR, record
    assert flatness >= RSS_FLOOR, record
