"""Sharded campaigns: plan, run anywhere, merge commutatively.

The campaign matrix is embarrassingly parallel -- every (workload,
config, seed) task is independent and its schedule seed is derived
from *global* task identity (:func:`repro.harness.campaign.derive_seed`
never sees worker or shard identity).  This module exploits that to
split one campaign across N independent processes (today) or hosts
(the transport is a directory copy away):

* :func:`plan_shards` expands nothing and copies nothing: it writes N
  shard directories each holding the *full* campaign spec plus a shard
  assignment ``(index, count)``.  Shard ``k`` runs exactly the tasks
  whose global matrix index satisfies ``index % count == k``, so the
  task set, per-task seeds, and per-task results are byte-identical to
  the unsharded campaign at any shard count.
* ``repro shard run`` executes one shard as an ordinary journaled
  campaign (crash-isolated pool, resume, heartbeat) and leaves three
  artefacts in its directory: the fsynced result journal, the
  heartbeat stream, and a merged obs snapshot.
* :func:`merge_shards` replays every shard journal into one streaming
  :class:`~repro.harness.campaign.CampaignAggregate`.  Every
  accumulator is commutative and associative (integer sums, set
  unions, the obs merge) and the fold is idempotent per task index, so
  the merge is order-independent, tolerant of overlapping replays, and
  byte-identical to the unsharded report.
* :func:`drive_shards` is the first multi-process backend: one
  subprocess per shard on the local host, stdout/stderr captured to
  ``shard.log``.

See ``docs/scaling.md`` for the invariants and the end-to-end flow.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.harness.campaign import (CampaignAggregate, CampaignReport,
                                    CampaignSpec, ConfigSpec, WorkloadSpec)
from repro.harness.journal import (JOURNAL_NAME, CampaignJournal,
                                   spec_fingerprint)

PLAN_FORMAT = "repro-shard-plan"
SHARD_FORMAT = "repro-shard-spec"
_VERSION = 1

MANIFEST_NAME = "manifest.json"
SPEC_NAME = "spec.json"
#: written by ``repro shard run``: the shard's task-merged obs snapshot
#: plus its own pool counters, ready to fold at merge time
METRICS_NAME = "metrics.json"
HEARTBEAT_NAME = "heartbeat.jsonl"
LOG_NAME = "shard.log"


class ShardError(ValueError):
    """A malformed, missing, or mismatched shard plan artefact."""


def shard_dir_name(index: int) -> str:
    return f"shard-{index:02d}"


# -- spec serialization ----------------------------------------------------

def spec_to_json(spec: CampaignSpec) -> Dict[str, Any]:
    """The full campaign spec as a JSON-safe document (round-trips
    exactly through :func:`spec_from_json`)."""
    return {
        "workloads": [w.to_json() for w in spec.workloads],
        "configs": [{
            "name": c.name,
            "svd": dict(c.svd),
            "switch_prob": c.switch_prob,
            "max_steps": c.max_steps,
            "run_frd": c.run_frd,
            "detectors": list(c.detectors),
            "consistency": c.consistency,
            "model_seed": c.model_seed,
        } for c in spec.configs],
        "seeds": spec.seeds,
        "master_seed": spec.master_seed,
        "task_timeout": spec.task_timeout,
        "obs": spec.obs,
        "task_retries": spec.task_retries,
        "retry_backoff": spec.retry_backoff,
    }


def spec_from_json(doc: Dict[str, Any]) -> CampaignSpec:
    return CampaignSpec(
        workloads=[WorkloadSpec(name=w["name"], factory=w.get("factory"),
                                kwargs=dict(w.get("kwargs", {})))
                   for w in doc["workloads"]],
        configs=[ConfigSpec(
            name=c["name"], svd=dict(c["svd"]),
            switch_prob=c["switch_prob"], max_steps=c["max_steps"],
            run_frd=c["run_frd"], detectors=tuple(c["detectors"]),
            consistency=c["consistency"], model_seed=c["model_seed"])
            for c in doc["configs"]],
        seeds=doc["seeds"],
        master_seed=doc["master_seed"],
        task_timeout=doc["task_timeout"],
        obs=doc["obs"],
        task_retries=doc["task_retries"],
        retry_backoff=doc["retry_backoff"])


# -- planning --------------------------------------------------------------

@dataclass
class ShardPlan:
    """A loaded plan directory: the spec, the shard count, and the
    campaign-level config document the merged DB row must carry."""

    directory: str
    count: int
    fingerprint: str
    spec: CampaignSpec
    total_tasks: int
    #: the ``repro campaign`` config document (what the results DB
    #: fingerprints); carried in the manifest so the merged row is
    #: byte-identical to an unsharded ``campaign --db`` row
    config: Optional[Dict[str, Any]] = None

    def shard_dirs(self) -> List[str]:
        return [os.path.join(self.directory, shard_dir_name(k))
                for k in range(self.count)]


def plan_shards(spec: CampaignSpec, count: int, out_dir: str,
                config_doc: Optional[Dict[str, Any]] = None) -> ShardPlan:
    """Write an ``out_dir`` plan splitting ``spec`` into ``count``
    shards.

    Each shard directory gets the complete spec plus its assignment;
    the manifest is written last (atomically), so a plan with a
    manifest is always complete.
    """
    if count < 1:
        raise ShardError(f"shard count must be >= 1, got {count}")
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        raise ShardError(
            f"{manifest_path}: plan already exists; pick a fresh "
            f"directory")
    fingerprint = spec_fingerprint(spec)
    tasks = spec.tasks()
    spec_doc = spec_to_json(spec)
    for index in range(count):
        shard_dir = os.path.join(out_dir, shard_dir_name(index))
        os.makedirs(shard_dir, exist_ok=True)
        doc = {
            "format": SHARD_FORMAT,
            "version": _VERSION,
            "fingerprint": fingerprint,
            "shard": {"index": index, "count": count},
            "tasks": sum(1 for t in tasks if t.index % count == index),
            "spec": spec_doc,
        }
        obs.atomic_write_text(
            os.path.join(shard_dir, SPEC_NAME),
            json.dumps(doc, sort_keys=True, indent=2) + "\n")
    manifest = {
        "format": PLAN_FORMAT,
        "version": _VERSION,
        "shards": count,
        "fingerprint": fingerprint,
        "total_tasks": len(tasks),
        "config": config_doc,
        "spec": spec_doc,
    }
    obs.atomic_write_text(
        manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return ShardPlan(directory=out_dir, count=count,
                     fingerprint=fingerprint, spec=spec,
                     total_tasks=len(tasks), config=config_doc)


def _load_json(path: str, expected_format: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ShardError(f"{path}: cannot read ({exc})") from None
    except ValueError as exc:
        raise ShardError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ShardError(f"{path}: not a {expected_format} document")
    return doc


def load_plan(directory: str) -> ShardPlan:
    doc = _load_json(os.path.join(directory, MANIFEST_NAME), PLAN_FORMAT)
    spec = spec_from_json(doc["spec"])
    fingerprint = spec_fingerprint(spec)
    if fingerprint != doc.get("fingerprint"):
        raise ShardError(
            f"{directory}: manifest fingerprint {doc.get('fingerprint')!r} "
            f"does not match its own spec ({fingerprint!r})")
    return ShardPlan(directory=directory, count=int(doc["shards"]),
                     fingerprint=fingerprint, spec=spec,
                     total_tasks=int(doc["total_tasks"]),
                     config=doc.get("config"))


def load_shard(shard_dir: str) -> Tuple[CampaignSpec, Tuple[int, int]]:
    """The spec and ``(index, count)`` assignment of one shard
    directory."""
    doc = _load_json(os.path.join(shard_dir, SPEC_NAME), SHARD_FORMAT)
    spec = spec_from_json(doc["spec"])
    shard = doc["shard"]
    return spec, (int(shard["index"]), int(shard["count"]))


# -- merging ---------------------------------------------------------------

@dataclass
class ShardMerge:
    """The commutative merge of every shard's artefacts."""

    plan: ShardPlan
    report: CampaignReport
    #: shard indices whose journals were found and replayed
    shards: List[int]
    #: matrix tasks no replayed journal covered (0 == complete)
    missing: int
    missing_sample: List[int] = field(default_factory=list)
    #: fold of the shards' ``metrics.json`` snapshots (task obs + each
    #: shard's own pool counters) -- the sharded equivalent of the
    #: unsharded CLI's final snapshot
    obs: Optional[Dict[str, Any]] = None
    #: merged final heartbeat records (see :func:`merge_heartbeats`)
    heartbeat: Optional[Dict[str, Any]] = None


def merge_heartbeats(finals: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Fold shard-final heartbeat records into one campaign-level
    record: counts sum, wall-clock is the slowest shard (they ran
    concurrently), peak RSS is the largest shard parent, and the
    cumulative rate is recomputed over the merged totals.  Commutative,
    like everything else in the merge."""
    if not finals:
        return None
    merged: Dict[str, Any] = {
        "completed": 0, "total": 0, "events": 0, "violations": 0,
        "failures": 0, "worker_crashes": 0, "task_retries": 0,
        "elapsed": 0.0, "rss_peak_bytes": 0, "shards": len(finals),
        "final": True, "merged": True, "workers": [],
    }
    interrupted = False
    for record in finals:
        for key in ("completed", "total", "events", "violations",
                    "failures", "worker_crashes", "task_retries"):
            merged[key] += int(record.get(key, 0))
        merged["elapsed"] = max(merged["elapsed"],
                                float(record.get("elapsed",
                                                 record.get("ts", 0.0))))
        merged["rss_peak_bytes"] = max(merged["rss_peak_bytes"],
                                       int(record.get("rss_peak_bytes", 0)))
        interrupted = interrupted or bool(record.get("interrupted"))
    if interrupted:
        merged["interrupted"] = True
    merged["ts"] = merged["elapsed"]
    merged["events_per_sec"] = round(
        merged["events"] / merged["elapsed"] if merged["elapsed"] > 0
        else 0.0, 1)
    return merged


def shard_final_heartbeat(shard_dir: str) -> Optional[Dict[str, Any]]:
    """The last (final) heartbeat record a shard run left behind."""
    path = os.path.join(shard_dir, HEARTBEAT_NAME)
    try:
        with open(path) as fh:
            last = None
            for line in fh:
                line = line.strip()
                if line:
                    last = line
    except OSError:
        return None
    if last is None:
        return None
    try:
        return json.loads(last)
    except ValueError:
        return None


def merge_shards(plan_dir: str) -> ShardMerge:
    """Replay every shard journal under ``plan_dir`` into one streaming
    aggregate and fold the shard obs/heartbeat artefacts alongside.

    Order-independent and duplicate-tolerant: the aggregate dedups by
    global task index, so replaying shards in any order -- or a journal
    that overlaps another -- produces the same report.  Shards that
    never ran simply leave their tasks missing (reported, and reflected
    in the report's ``interrupted`` flag so exit codes say degraded).
    """
    plan = load_plan(plan_dir)
    aggregate = CampaignAggregate(plan.spec)
    merged_snapshot: Optional[Dict[str, Any]] = None
    finals: List[Dict[str, Any]] = []
    replayed: List[int] = []
    for index in range(plan.count):
        shard_dir = os.path.join(plan_dir, shard_dir_name(index))
        if not os.path.exists(os.path.join(shard_dir, JOURNAL_NAME)):
            continue
        journal = CampaignJournal.open(
            shard_dir, plan.spec, resume=True, shard=(index, plan.count))
        for result in journal.replay():
            aggregate.fold(result)
        replayed.append(index)
        metrics_path = os.path.join(shard_dir, METRICS_NAME)
        if os.path.exists(metrics_path):
            with open(metrics_path) as fh:
                snapshot = json.load(fh)
            merged_snapshot = obs.merge_snapshots(
                [merged_snapshot, snapshot]
                if merged_snapshot is not None else [snapshot])
        final = shard_final_heartbeat(shard_dir)
        if final is not None:
            finals.append(final)
    missing, sample = aggregate.missing_indices()
    heartbeat = merge_heartbeats(finals)
    elapsed = float(heartbeat["elapsed"]) if heartbeat else 0.0
    report = CampaignReport(
        spec=plan.spec, results=[], elapsed=elapsed,
        interrupted=missing > 0, aggregate=aggregate)
    return ShardMerge(plan=plan, report=report, shards=replayed,
                      missing=missing, missing_sample=sample,
                      obs=merged_snapshot, heartbeat=heartbeat)


# -- local multi-process driver --------------------------------------------

def drive_shards(plan_dir: str, workers: int = 1,
                 extra_args: Sequence[str] = ()) -> Dict[int, int]:
    """Run every shard of ``plan_dir`` as a local subprocess
    (``repro shard run``), concurrently, and return each shard's exit
    code.  Each shard's stdout/stderr goes to ``shard.log`` in its
    directory.  The first "many hosts" backend: on a real fleet the
    same shard directories ship to different machines and only the
    journals come back."""
    plan = load_plan(plan_dir)
    procs: List[Tuple[int, subprocess.Popen, Any]] = []
    for index in range(plan.count):
        shard_dir = os.path.join(plan_dir, shard_dir_name(index))
        log = open(os.path.join(shard_dir, LOG_NAME), "w")
        cmd = [sys.executable, "-m", "repro", "shard", "run", shard_dir,
               "-j", str(workers), *extra_args]
        procs.append((index, subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT), log))
    codes: Dict[int, int] = {}
    for index, proc, log in procs:
        proc.wait()
        log.close()
        codes[index] = proc.returncode
    return codes
