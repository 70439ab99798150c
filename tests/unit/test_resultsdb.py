"""The persistent results database: schema, the ``write_run`` entry
point, fingerprint grouping, trend queries and gating, and the
deterministic JSONL export."""

import json
import sqlite3

import pytest

from repro import resultsdb
from repro.core.report import ViolationReport
from repro.resultsdb import (MIN_HISTORY, ResultsDB, ResultsDBError,
                             config_fingerprint, iter_jsonl, open_db,
                             render_trend_table, trend_check,
                             violation_report_fingerprints)


@pytest.fixture
def db(tmp_path):
    with open_db(str(tmp_path / "results.db")) as handle:
        yield handle


def bench(db, value, label="BENCH_engine.json", **kwargs):
    """Record one bench run whose payload carries ``speedup=value``."""
    return db.write_run("bench", label, {"artefact": label},
                        payload={"speedup": value}, **kwargs)


class TestFingerprint:
    def test_deterministic_and_order_independent(self):
        a = config_fingerprint({"x": 1, "y": [2, 3]})
        b = config_fingerprint({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0

    def test_differs_on_content(self):
        assert config_fingerprint({"x": 1}) != config_fingerprint({"x": 2})


class TestWriteRun:
    def test_round_trip_all_columns(self, db):
        run_id = db.write_run(
            "run", "stringbuffer", {"workload": "stringbuffer"},
            status="violations", violations=3, events=1000, elapsed=0.5,
            schedule_seed=7, model_seed=7, master_seed=None,
            detectors=["frd", "svd"], consistency="tso",
            payload={"p": 1}, obs={"counters": {"a": 1}},
            violation_fingerprints=["svd:rw:loc=1,other=2"],
            heartbeat={"completed": 4}, git_commit="abc123",
            recorded_at="2026-08-08T00:00:00+00:00")
        record = db.get(run_id)
        assert record.kind == "run"
        assert record.label == "stringbuffer"
        assert record.fingerprint == config_fingerprint(
            {"workload": "stringbuffer"})
        assert record.status == "violations"
        assert (record.violations, record.events) == (3, 1000)
        assert record.elapsed == 0.5
        assert (record.schedule_seed, record.model_seed) == (7, 7)
        assert record.detectors == ("frd", "svd")
        assert record.consistency == "tso"
        assert record.payload == {"p": 1}
        assert record.obs == {"counters": {"a": 1}}
        assert record.violation_fingerprints == ["svd:rw:loc=1,other=2"]
        assert record.heartbeat == {"completed": 4}
        assert record.git_commit == "abc123"
        assert record.recorded_at == "2026-08-08T00:00:00+00:00"

    def test_unknown_kind_rejected(self, db):
        with pytest.raises(ResultsDBError):
            db.write_run("benchmark", "x", {})

    def test_defaults_fill_in(self, db):
        run_id = db.write_run("bench", "x", {}, git_commit="")
        record = db.get(run_id)
        assert record.status == "ok"
        assert record.violations == 0 and record.events == 0
        assert record.recorded_at  # stamped now
        assert record.payload is None and record.obs is None

    def test_module_level_one_shot(self, tmp_path):
        path = str(tmp_path / "one.db")
        run_id = resultsdb.write_run(path, "bench", "x", {"a": 1})
        with open_db(path) as db:
            assert db.get(run_id).config == {"a": 1}

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "results.db")
        with open_db(path) as db:
            bench(db, 1.5)
        with open_db(path) as db:
            assert db.count() == 1
            assert db.latest().payload == {"speedup": 1.5}

    def test_not_a_database_is_an_error(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("definitely not sqlite, padded to be longer "
                        "than the sqlite header so the open fails")
        with pytest.raises(ResultsDBError):
            open_db(str(path))

    def test_newer_schema_rejected(self, tmp_path):
        path = str(tmp_path / "results.db")
        with open_db(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '99' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ResultsDBError):
            open_db(path)


class TestQueries:
    def test_missing_run_id(self, db):
        with pytest.raises(ResultsDBError):
            db.get(42)

    def test_latest_and_filters(self, db):
        bench(db, 1.0)
        bench(db, 2.0, label="BENCH_interp.json")
        db.write_run("fuzz", "fuzz", {})
        assert db.latest().kind == "fuzz"
        assert db.latest(kind="bench").payload == {"speedup": 2.0}
        assert [r.label for r in db.list_runs(kind="bench")] == [
            "BENCH_engine.json", "BENCH_interp.json"]
        with pytest.raises(ResultsDBError):
            db.latest(kind="campaign")

    def test_limit_keeps_newest_oldest_first(self, db):
        for value in (1.0, 2.0, 3.0, 4.0):
            bench(db, value)
        records = db.list_runs(limit=2)
        assert [r.payload["speedup"] for r in records] == [3.0, 4.0]

    def test_trend_values_skip_missing_keys(self, db):
        bench(db, 1.0)
        db.write_run("bench", "BENCH_engine.json",
                     {"artefact": "BENCH_engine.json"},
                     payload={"other": 9})
        bench(db, 3.0)
        points = db.trend_values("BENCH_engine.json", "speedup")
        assert [v for _r, v in points] == [1.0, 3.0]

    def test_trend_values_filter_by_fingerprint(self, db):
        bench(db, 1.0)
        db.write_run("bench", "BENCH_engine.json", {"different": True},
                     payload={"speedup": 99.0})
        fp = config_fingerprint({"artefact": "BENCH_engine.json"})
        points = db.trend_values("BENCH_engine.json", "speedup",
                                 fingerprint=fp)
        assert [v for _r, v in points] == [1.0]


class TestViolationFingerprints:
    def report(self, *pairs):
        report = ViolationReport("svd")
        for i, (loc, other) in enumerate(pairs):
            report.add((i, 0, loc, 0, "unserializable", other, 1, -1))
        return report

    def test_static_dedup_and_sort(self):
        reports = {"svd": self.report((5, 9), (5, 9), (2, 3))}
        keys = violation_report_fingerprints(reports)
        assert keys == ["svd:unserializable:loc=2,other=3",
                        "svd:unserializable:loc=5,other=9"]

    def test_empty_and_missing_attribute(self):
        assert violation_report_fingerprints({}) == []
        assert violation_report_fingerprints({"svd": object()}) == []


class TestTrendCheck:
    def seeded(self, db, *values):
        for value in values:
            bench(db, value)

    def test_insufficient_history_passes(self, db):
        self.seeded(db, 1.5)
        assert MIN_HISTORY == 2
        (check,) = trend_check(db, "BENCH_engine.json",
                               {"speedup": 0.1}, ["speedup"])
        assert check.ok and check.median is None
        assert "needs >= 2" in check.render()

    def test_regression_beyond_tolerance_fails(self, db):
        self.seeded(db, 1.5, 1.6, 1.7)
        (check,) = trend_check(db, "BENCH_engine.json",
                               {"speedup": 0.8}, ["speedup"])
        assert not check.ok
        assert check.median == 1.6
        assert check.threshold == pytest.approx(1.44)
        assert "FAIL" in check.render()

    def test_within_tolerance_passes(self, db):
        self.seeded(db, 1.5, 1.6, 1.7)
        (check,) = trend_check(db, "BENCH_engine.json",
                               {"speedup": 1.5}, ["speedup"])
        assert check.ok and "trend ok" in check.render()

    def test_median_ignores_one_outlier(self, db):
        self.seeded(db, 1.6, 1.6, 1.6, 1.6, 40.0)
        (check,) = trend_check(db, "BENCH_engine.json",
                               {"speedup": 1.55}, ["speedup"])
        assert check.ok and check.median == 1.6

    def test_window_limits_history(self, db):
        # five ancient slow runs roll out of a window of 2
        self.seeded(db, 9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 1.0)
        (check,) = trend_check(db, "BENCH_engine.json",
                               {"speedup": 1.0}, ["speedup"], window=2)
        assert check.ok and check.median == 1.0

    def test_improvement_always_passes(self, db):
        self.seeded(db, 1.5, 1.5)
        (check,) = trend_check(db, "BENCH_engine.json",
                               {"speedup": 100.0}, ["speedup"])
        assert check.ok


class TestRenderTrendTable:
    def test_renders_one_line_per_point(self, db):
        for value in (1.5, 1.6, 0.8):
            bench(db, value)
        points = db.trend_values("BENCH_engine.json", "speedup")
        table = render_trend_table(points, "speedup")
        lines = table.splitlines()
        assert len(lines) == 4  # header + 3 points
        assert "speedup" in lines[0]
        # the regression shows a negative delta vs the running median
        assert "-" in lines[3] and "%" in lines[3]

    def test_empty(self):
        assert "no recorded runs" in render_trend_table([], "speedup")


class TestExport:
    def test_jsonl_round_trip_and_determinism(self, db, tmp_path):
        bench(db, 1.5, git_commit="aaa",
              recorded_at="2026-08-08T00:00:00+00:00")
        bench(db, 1.6, git_commit="bbb",
              recorded_at="2026-08-08T00:01:00+00:00")
        out = tmp_path / "export.jsonl"
        assert db.export_jsonl(str(out)) == 2
        first = out.read_bytes()
        records = list(iter_jsonl(str(out)))
        assert [r["payload"]["speedup"] for r in records] == [1.5, 1.6]
        assert records[0]["fingerprint"] == config_fingerprint(
            {"artefact": "BENCH_engine.json"})
        # canonical JSON: re-exporting the same database is byte-stable
        db.export_jsonl(str(out))
        assert out.read_bytes() == first


class TestMergeDatabases:
    """``repro db merge``: commutative, idempotent consolidation of
    per-shard (or per-host) result stores."""

    def _shard_db(self, tmp_path, name, rows):
        path = str(tmp_path / f"{name}.db")
        with open_db(path) as db:
            for seed, at in rows:
                db.write_run(
                    "run", "stringbuffer", {"workload": "stringbuffer"},
                    schedule_seed=seed, violations=1, events=100,
                    git_commit="abc",
                    recorded_at=f"2026-08-08T00:0{at}:00+00:00")
        return path

    def _export(self, path, tmp_path, tag):
        out = str(tmp_path / f"{tag}.jsonl")
        with open_db(path) as db:
            db.export_jsonl(out)
        # run_id depends on insertion order alone; drop it so two
        # merged stores compare on content
        return [{k: v for k, v in record.items() if k != "run_id"}
                for record in iter_jsonl(out)]

    def test_merge_is_commutative_and_idempotent(self, tmp_path):
        a = self._shard_db(tmp_path, "a", [(1, 1), (2, 2)])
        b = self._shard_db(tmp_path, "b", [(3, 3)])
        ab = str(tmp_path / "ab.db")
        ba = str(tmp_path / "ba.db")
        assert resultsdb.merge_databases([a, b], ab) == 3
        assert resultsdb.merge_databases([b, a], ba) == 3
        assert self._export(ab, tmp_path, "ab") == \
            self._export(ba, tmp_path, "ba")
        # merging again adds nothing and changes nothing
        before = self._export(ab, tmp_path, "ab2")
        assert resultsdb.merge_databases([a, b], ab) == 0
        assert self._export(ab, tmp_path, "ab3") == before

    def test_duplicate_rows_collapse_real_reruns_survive(self, tmp_path):
        # a and b share one identical row (same seed, same timestamp);
        # c re-ran the same seed at a different time -- a genuine rerun
        a = self._shard_db(tmp_path, "a", [(1, 1)])
        b = self._shard_db(tmp_path, "b", [(1, 1), (2, 2)])
        c = self._shard_db(tmp_path, "c", [(1, 5)])
        dest = str(tmp_path / "all.db")
        assert resultsdb.merge_databases([a, b, c], dest) == 3
        with open_db(dest) as db:
            seeds = sorted((r.schedule_seed, r.recorded_at)
                           for r in db.list_runs())
        assert seeds == [(1, "2026-08-08T00:01:00+00:00"),
                         (1, "2026-08-08T00:05:00+00:00"),
                         (2, "2026-08-08T00:02:00+00:00")]

    def test_merge_into_existing_destination_dedups(self, tmp_path):
        a = self._shard_db(tmp_path, "a", [(1, 1), (2, 2)])
        dest = self._shard_db(tmp_path, "dest", [(2, 2), (3, 3)])
        assert resultsdb.merge_databases([a], dest) == 1
        with open_db(dest) as db:
            assert sorted(r.schedule_seed for r in db.list_runs()) == \
                [1, 2, 3]

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(ResultsDBError, match="no such results"):
            resultsdb.merge_databases(
                [str(tmp_path / "nope.db")], str(tmp_path / "out.db"))
