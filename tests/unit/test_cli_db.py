"""The results-database CLI surface: ``--db`` recording on
run/campaign/fuzz/bench, ``repro bench --gate`` trend gating, the
``repro db`` subcommands, and the obs byte-identity contract."""

import json

import pytest

from repro.cli import main
from repro.resultsdb import config_fingerprint, iter_jsonl, open_db


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "results.db")


@pytest.fixture
def artefact(tmp_path):
    """A BENCH_engine.json that passes every built-in floor."""
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({
        "speedup": 1.61,
        "single_pass": {"events_per_sec": 1_100_000},
        "campaign": {"events_per_sec": 200_000},
        "trace_io": {"load_events_per_sec": 2_500_000},
    }))
    return str(path)


def regress(artefact, tmp_path):
    """A 2x-regressed copy of ``artefact`` under the same basename."""
    record = json.loads(open(artefact).read())
    record["speedup"] /= 2
    record["single_pass"]["events_per_sec"] /= 2
    record["campaign"]["events_per_sec"] /= 2
    out = tmp_path / "slow" / "BENCH_engine.json"
    out.parent.mkdir()
    out.write_text(json.dumps(record))
    return str(out)


class TestRunRecording:
    def test_run_recorded_with_fingerprints(self, db_path, capsys):
        assert main(["run", "stringbuffer", "--seed", "1",
                     "--db", db_path]) == 1
        assert f"recorded run 1 in {db_path}" in capsys.readouterr().err
        with open_db(db_path) as db:
            record = db.get(1)
        assert record.kind == "run"
        assert record.label == "stringbuffer"
        assert record.status == "violations"
        assert record.violations > 0
        assert record.events > 0
        assert record.schedule_seed == 1
        assert record.detectors == ("svd",)
        assert record.violation_fingerprints
        assert all(f.startswith("svd:") for f
                   in record.violation_fingerprints)
        assert record.obs is None  # no --obs requested

    def test_run_with_obs_stores_snapshot(self, db_path, capsys):
        assert main(["run", "stringbuffer", "--obs",
                     "--db", db_path]) == 0
        with open_db(db_path) as db:
            record = db.latest()
        assert record.obs is not None
        assert "engine.runs" in record.obs["counters"]

    def test_same_flags_same_fingerprint_new_seed(self, db_path, capsys):
        main(["run", "stringbuffer", "--seed", "1", "--db", db_path])
        main(["run", "stringbuffer", "--seed", "2", "--db", db_path])
        main(["run", "queue-region", "--seed", "1", "--db", db_path])
        with open_db(db_path) as db:
            one, two, three = db.list_runs()
        assert one.fingerprint == two.fingerprint
        assert one.fingerprint != three.fingerprint
        assert (one.schedule_seed, two.schedule_seed) == (1, 2)


class TestCampaignRecording:
    ARGS = ["campaign", "--workloads", "stringbuffer", "--seeds", "2",
            "--max-steps", "30000"]

    def test_progress_db_and_byte_identity(self, db_path, tmp_path,
                                           capsys):
        metrics = str(tmp_path / "metrics.json")
        hb_path = str(tmp_path / "heartbeat.jsonl")
        assert main(self.ARGS + ["-j", "2", "--progress",
                                 "--db", db_path,
                                 "--heartbeat-out", hb_path,
                                 "--metrics-out", metrics]) == 1
        err = capsys.readouterr().err
        assert "[heartbeat]" in err
        assert "2/2 tasks" in err
        with open_db(db_path) as db:
            record = db.latest(kind="campaign")
        # the heartbeat stream was ingested at completion
        assert record.heartbeat["final"] is True
        assert record.heartbeat["completed"] == 2
        assert record.violations > 0
        assert record.events == record.heartbeat["events"]
        lines = open(hb_path).read().splitlines()
        assert json.loads(lines[-1]) == record.heartbeat
        # acceptance: db show --field obs is byte-identical to the
        # --metrics-out file
        assert main(["db", "show", "--field", "obs",
                     "--db", db_path]) == 0
        shown = capsys.readouterr().out
        assert shown == open(metrics).read()

    def test_db_without_obs_still_snapshots(self, db_path, capsys):
        assert main(self.ARGS + ["--quiet", "--db", db_path]) == 1
        with open_db(db_path) as db:
            record = db.latest()
        assert record.obs is not None
        assert record.obs["counters"]
        assert record.payload["runs"] == 2

    def test_progress_suppresses_per_run_lines(self, db_path, capsys):
        assert main(self.ARGS + ["--progress", "--db", db_path]) == 1
        err = capsys.readouterr().err
        assert "[1/2]" not in err and "[2/2]" not in err


class TestFuzzRecording:
    def test_fuzz_recorded(self, db_path, capsys):
        assert main(["fuzz", "--programs", "1", "--seeds", "1",
                     "--budget", "0", "--db", db_path]) == 0
        with open_db(db_path) as db:
            record = db.latest()
        assert record.kind == "fuzz"
        assert record.payload["stats"]["programs"] == 1
        assert record.events == record.payload["stats"]["probes"]


class TestBenchGate:
    def test_gate_requires_db(self, artefact, capsys):
        assert main(["bench", "--check", artefact, "--gate"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_insufficient_history_passes_and_records(self, artefact,
                                                     db_path, capsys):
        assert main(["bench", "--check", artefact, "--gate",
                     "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "trend --:" in out and "needs >= 2" in out
        with open_db(db_path) as db:
            assert db.count() == 1
            record = db.latest()
        assert record.kind == "bench"
        assert record.label == "BENCH_engine.json"
        assert record.payload["speedup"] == 1.61
        assert record.fingerprint == config_fingerprint(
            {"artefact": "BENCH_engine.json"})

    def test_synthetic_regression_fails_gate(self, artefact, db_path,
                                             tmp_path, capsys):
        # acceptance: two healthy recordings, then a 2x regression
        # passes the static floors it is given but fails the trend
        for _ in range(2):
            assert main(["bench", "--check", artefact, "--gate",
                         "--db", db_path]) == 0
        capsys.readouterr()
        slow = regress(artefact, tmp_path)
        assert main(["bench", "--check", slow, "--gate",
                     "--db", db_path, "--no-builtin",
                     "--floor", "speedup=0.1",
                     "--floor", "campaign.events_per_sec=1"]) == 1
        out = capsys.readouterr().out
        assert "ok: speedup" in out  # static floor passed
        assert "trend FAIL" in out  # the trend gate is what fired

    def test_no_record_leaves_history_untouched(self, artefact, db_path,
                                                capsys):
        assert main(["bench", "--check", artefact, "--gate",
                     "--db", db_path, "--no-record"]) == 0
        with open_db(db_path) as db:
            assert db.count() == 0

    def test_tolerance_flag_widens_band(self, artefact, db_path,
                                        tmp_path, capsys):
        for _ in range(2):
            main(["bench", "--check", artefact, "--db", db_path])
        slow = regress(artefact, tmp_path)
        args = ["bench", "--check", slow, "--gate", "--db", db_path,
                "--no-builtin", "--floor", "speedup=0.1",
                "--no-record"]
        assert main(args) == 1
        assert main(args + ["--tolerance", "0.6"]) == 0

    def test_record_without_gate(self, artefact, db_path, capsys):
        assert main(["bench", "--check", artefact,
                     "--db", db_path]) == 0
        assert "trend" not in capsys.readouterr().out
        with open_db(db_path) as db:
            assert db.count() == 1


class TestDbCommands:
    def seed(self, artefact, db_path, runs=2):
        for _ in range(runs):
            assert main(["bench", "--check", artefact,
                         "--db", db_path]) == 0

    def test_record_and_list(self, artefact, db_path, capsys):
        assert main(["db", "record", artefact, "--db", db_path]) == 0
        assert main(["db", "list", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "BENCH_engine.json" in out
        assert "bench" in out

    def test_record_unreadable_artefact(self, tmp_path, db_path, capsys):
        assert main(["db", "record", str(tmp_path / "nope.json"),
                     "--db", db_path]) == 2

    def test_record_bad_kind(self, artefact, db_path, capsys):
        assert main(["db", "record", artefact, "--db", db_path,
                     "--kind", "nope"]) == 2

    def test_trend_trajectory(self, artefact, db_path, capsys):
        # acceptance: the trend table renders a per-commit trajectory
        # from >= 2 recorded runs
        self.seed(artefact, db_path, runs=2)
        capsys.readouterr()
        assert main(["db", "trend", "BENCH_engine.json", "speedup",
                     "--db", db_path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "speedup" in lines[0]
        assert len([l for l in lines[1:] if "1.61" in l]) == 2

    def test_trend_no_points(self, artefact, db_path, capsys):
        self.seed(artefact, db_path, runs=1)
        capsys.readouterr()
        assert main(["db", "trend", "BENCH_engine.json", "nope.key",
                     "--db", db_path]) == 0
        assert "no recorded values" in capsys.readouterr().out

    def test_show_full_and_field(self, artefact, db_path, capsys):
        self.seed(artefact, db_path, runs=1)
        capsys.readouterr()
        assert main(["db", "show", "1", "--db", db_path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["label"] == "BENCH_engine.json"
        assert main(["db", "show", "1", "--field", "payload",
                     "--db", db_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["speedup"] == 1.61

    def test_show_missing_field_and_run(self, artefact, db_path, capsys):
        self.seed(artefact, db_path, runs=1)
        assert main(["db", "show", "1", "--field", "obs",
                     "--db", db_path]) == 2
        assert main(["db", "show", "99", "--db", db_path]) == 2

    def test_missing_database_is_usage_error(self, db_path, capsys):
        assert main(["db", "list", "--db", db_path]) == 2
        assert "no results database" in capsys.readouterr().err

    def test_list_empty_database(self, artefact, db_path, capsys):
        self.seed(artefact, db_path, runs=1)
        capsys.readouterr()
        assert main(["db", "list", "--kind", "fuzz",
                     "--db", db_path]) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_export(self, artefact, db_path, tmp_path, capsys):
        self.seed(artefact, db_path, runs=2)
        out = str(tmp_path / "export.jsonl")
        assert main(["db", "export", out, "--db", db_path]) == 0
        records = list(iter_jsonl(out))
        assert len(records) == 2
        assert records[0]["payload"]["speedup"] == 1.61
