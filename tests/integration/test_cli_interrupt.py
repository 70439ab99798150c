"""SIGINT/SIGTERM on every long-running command: exit 3, a final
heartbeat record flagged interrupted, no traceback, and an
``interrupted`` results-DB row when one is written.

The signal is sent the moment the heartbeat file exists -- the first
sign of life an operator or supervisor can watch for -- which probes
the startup window where the handlers, the heartbeat and (for serve)
the event loop are wired together.  Inputs are sized so no arm can
finish before the signal lands.  ``test_campaign_interrupt.py`` covers
the journal and ``--resume`` side of the same contract.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

MATRIX = ["--workloads", "apache,pgsql", "--seeds", "20",
          "--max-steps", "200000"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _repro(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          env=_env(), cwd=REPO, capture_output=True,
                          text=True, timeout=120, **kwargs)


def _campaign(workers):
    def arm(tmp):
        hb = tmp / "hb.jsonl"
        return (["campaign", *MATRIX, "-j", str(workers), "--quiet",
                 "--heartbeat-out", str(hb)], hb)
    return arm


def _shard_run(tmp):
    plan = tmp / "plan"
    planned = _repro(["shard", "plan", *MATRIX, "--shards", "1",
                      "--out", str(plan)])
    assert planned.returncode == 0, planned.stderr
    shard = plan / "shard-00"
    return ["shard", "run", str(shard)], shard / "heartbeat.jsonl"


def _serve(tmp):
    hb = tmp / "hb.jsonl"
    return (["serve", "--workloads", "apache,pgsql", "--executions", "200",
             "--concurrency", "2", "--max-steps", "200000",
             "--drain-grace", "0.5", "--quiet",
             "--heartbeat-out", str(hb)], hb)


ARMS = {"campaign-j1": _campaign(1), "campaign-j2": _campaign(2),
        "shard-run": _shard_run, "serve": _serve}


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_signal_exits_3_with_interrupted_final_records(arm, signum,
                                                       tmp_path):
    argv, hb = ARMS[arm](tmp_path)
    db = tmp_path / "results.db"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv, "--db", str(db)],
        env=_env(), cwd=REPO, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.time() + 60
        while not hb.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.time() < deadline, "no heartbeat file"
            time.sleep(0.0002)
        proc.send_signal(signum)
        stderr = proc.communicate(timeout=120)[1]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == 3, stderr
    assert "Traceback" not in stderr, stderr
    final = json.loads(hb.read_text().splitlines()[-1])
    assert final["final"] is True
    assert final["interrupted"] is True
    assert final["completed"] < final["total"]
    if db.exists():
        from repro import resultsdb
        with resultsdb.open_db(str(db)) as handle:
            statuses = {record.status for record in handle.list_runs()}
        assert statuses <= {"interrupted"}, statuses
