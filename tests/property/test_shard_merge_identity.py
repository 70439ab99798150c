"""Shard/merge identity: sharding must be invisible in every artefact.

The sharded-campaign contract is byte-identity: because per-task seeds
derive from *global* matrix identity and every aggregation accumulator
is commutative and associative, splitting a campaign across N shards,
running them in any order, and merging the journals must reproduce the
unsharded campaign exactly -- same Table 2, same merged obs snapshot,
same results-database row.

This suite drives the real CLI surface (``repro campaign`` vs
``repro shard plan`` / ``run`` / ``merge``) over the full cross product
of shard counts {1, 2, 3, 7} and worker counts {1, 2}, with the shard
execution order shuffled per case.  The 6-task matrix means the
7-shard case leaves one shard with zero tasks, so the empty-shard
merge path is exercised too.  Compared artefacts:

* the rendered campaign table (stdout up to the obs section);
* the ``--metrics-out`` merged obs snapshot, byte for byte;
* the ``--db`` campaign row, minus the telemetry fields that
  legitimately differ per invocation (row id, wall-clock timestamps,
  heartbeat, recording commit).
"""

import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.harness.shard import shard_dir_name
from repro.resultsdb import open_db

MATRIX = ["--workloads", "stringbuffer,queue-region",
          "--seeds", "3", "--max-steps", "30000"]
TASKS = 6

#: RunRecord fields that may differ between two recordings of the same
#: campaign: identity/wall-clock telemetry, never evidence
TELEMETRY_FIELDS = ("run_id", "recorded_at", "git_commit", "elapsed",
                    "heartbeat")

SHARD_COUNTS = [1, 2, 3, 7]
WORKER_COUNTS = [1, 2]


def _run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _table(stdout):
    """The campaign table section: everything before the obs summary."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith("metrics:"):
            break
        lines.append(line.rstrip())
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def _campaign_row(db_path):
    """The campaign row as a comparable document (telemetry dropped)."""
    with open_db(db_path) as db:
        record = db.latest()
    assert record is not None and record.kind == "campaign"
    doc = record.to_json()
    for field in TELEMETRY_FIELDS:
        doc.pop(field, None)
    return doc


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One unsharded ``repro campaign`` run: the identity baseline."""
    base = tmp_path_factory.mktemp("unsharded")
    metrics = str(base / "metrics.json")
    db_path = str(base / "results.db")
    code, stdout = _run_cli(["campaign", *MATRIX,
                             "--metrics-out", metrics, "--db", db_path])
    assert code == 1  # stringbuffer is a buggy workload: violations
    return {
        "table": _table(stdout),
        "metrics": open(metrics, "rb").read(),
        "row": _campaign_row(db_path),
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_merge_is_byte_identical(shards, workers, tmp_path,
                                         reference):
    plan_dir = str(tmp_path / "plan")
    code, stdout = _run_cli(["shard", "plan", *MATRIX,
                             "--shards", str(shards), "--out", plan_dir])
    assert code == 0
    assert f"planned {TASKS} tasks across {shards} shard(s)" in stdout

    # run the shards in a shuffled order: the merge must not care
    order = list(range(shards))
    random.Random(shards * 10 + workers).shuffle(order)
    for index in order:
        shard_dir = os.path.join(plan_dir, shard_dir_name(index))
        code, _stdout = _run_cli(["shard", "run", shard_dir,
                                  "-j", str(workers)])
        # 0 = an empty or violation-free shard, 1 = violations found
        assert code in (0, 1), (shards, workers, index, code)

    metrics = str(tmp_path / "metrics.json")
    db_path = str(tmp_path / "results.db")
    code, stdout = _run_cli(["shard", "merge", plan_dir,
                             "--metrics-out", metrics, "--db", db_path])
    assert code == 1  # the merged campaign carries the violations

    assert _table(stdout) == reference["table"]
    assert open(metrics, "rb").read() == reference["metrics"]
    assert _campaign_row(db_path) == reference["row"]


def test_merge_is_order_independent_and_idempotent(tmp_path, reference):
    """Merging twice -- and merging after re-running a shard over its
    own completed journal -- never changes the evidence."""
    plan_dir = str(tmp_path / "plan")
    code, _stdout = _run_cli(["shard", "plan", *MATRIX,
                              "--shards", "3", "--out", plan_dir])
    assert code == 0
    for index in (2, 0, 1):
        shard_dir = os.path.join(plan_dir, shard_dir_name(index))
        code, _stdout = _run_cli(["shard", "run", shard_dir])
        assert code in (0, 1)

    # merging is idempotent: two merges of the same journals agree with
    # each other and with the unsharded baseline, byte for byte
    for attempt in range(2):
        metrics = str(tmp_path / f"metrics-{attempt}.json")
        code, stdout = _run_cli(["shard", "merge", plan_dir,
                                 "--metrics-out", metrics])
        assert code == 1
        assert open(metrics, "rb").read() == reference["metrics"]
        assert _table(stdout) == reference["table"]

    # re-run one shard: its journal is already complete, so this is a
    # pure resume.  The journal-derived evidence (the table) must not
    # move; only session-scoped pool counters in the shard's metrics
    # snapshot may legitimately reflect the resuming session -- the
    # same behaviour an unsharded resumed campaign has.
    code, _stdout = _run_cli(
        ["shard", "run", os.path.join(plan_dir, shard_dir_name(1))])
    assert code in (0, 1)
    code, stdout = _run_cli(["shard", "merge", plan_dir])
    assert code == 1
    assert _table(stdout) == reference["table"]


#: the RunRecord fields one shard's row must agree on however it ran
SHARD_ROW_FIELDS = ("kind", "label", "fingerprint", "detectors",
                    "consistency", "status", "violations", "events",
                    "master_seed", "payload")


def _shard_row(db_path):
    with open_db(db_path) as db:
        record = db.latest()
    return {name: getattr(record, name) for name in SHARD_ROW_FIELDS}


def test_shard_run_row_matches_campaign_shard_row(tmp_path):
    """``shard run`` on shard 1 of a 2-shard plan records the same
    campaign row as ``campaign --shard 1/2`` -- extra detectors
    included."""
    direct = str(tmp_path / "direct.db")
    code, _stdout = _run_cli(["campaign", *MATRIX, "--detectors",
                              "lockset", "--shard", "1/2", "--quiet",
                              "--db", direct])
    assert code in (0, 1)

    plan_dir = str(tmp_path / "plan")
    code, _stdout = _run_cli(["shard", "plan", *MATRIX, "--detectors",
                              "lockset", "--shards", "2",
                              "--out", plan_dir])
    assert code == 0
    sharded = str(tmp_path / "sharded.db")
    code, _stdout = _run_cli(["shard", "run",
                              os.path.join(plan_dir, shard_dir_name(0)),
                              "--db", sharded])
    assert code in (0, 1)

    assert _shard_row(sharded) == _shard_row(direct)
    assert _shard_row(direct)["detectors"] == ("lockset",)
    assert _shard_row(direct)["label"] == "campaign[shard 1/2]"
