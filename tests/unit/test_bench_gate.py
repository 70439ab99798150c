"""The benchmark floor gate: spec parsing, dotted lookup, artefact
checks, and the ``repro bench`` CLI wrapper around them."""

import json

import pytest

from repro.cli import main
from repro.harness import bench_gate
from repro.harness.bench_gate import (FLOORS, FloorSpecError, check_file,
                                      check_record, lookup, parse_floor)


@pytest.fixture
def artefact(tmp_path):
    """A plausible BENCH_engine.json that clears every built-in floor."""
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({
        "events": 38484,
        "speedup": 1.61,
        "single_pass": {"seconds": 0.07, "events_per_sec": 1_100_000},
        "per_detector_refeed": {"seconds": 0.11},
        "campaign": {"events_per_sec": 200_000},
        "trace_io": {"load_events_per_sec": 2_500_000},
    }))
    return str(path)


class TestParseFloor:
    def test_simple(self):
        assert parse_floor("speedup=1.5") == ("speedup", 1.5)

    def test_dotted_key_and_spaces(self):
        assert parse_floor(" single_pass.events_per_sec =2e5 ") == (
            "single_pass.events_per_sec", 200_000.0)

    @pytest.mark.parametrize("spec", ["bogus", "=1.5", "speedup=fast"])
    def test_malformed(self, spec):
        with pytest.raises(FloorSpecError):
            parse_floor(spec)


class TestLookup:
    def test_top_level_and_nested(self):
        record = {"speedup": 1.6, "single_pass": {"seconds": 0.07}}
        assert lookup(record, "speedup") == 1.6
        assert lookup(record, "single_pass.seconds") == 0.07

    def test_missing_key(self):
        with pytest.raises(FloorSpecError):
            lookup({"speedup": 1.6}, "single_pass.seconds")

    def test_non_numeric_value(self):
        with pytest.raises(FloorSpecError):
            lookup({"detectors": ["svd"]}, "detectors")
        with pytest.raises(FloorSpecError):
            lookup({"ok": True}, "ok")  # bools are not gate values


class TestCheckRecord:
    def test_pass_and_fail(self):
        record = {"speedup": 1.6}
        (ok,) = check_record(record, {"speedup": 1.5})
        assert ok.ok and ok.value == 1.6 and ok.floor == 1.5
        (bad,) = check_record(record, {"speedup": 1.7})
        assert not bad.ok
        assert "FAIL" in bad.render()

    def test_floor_met_exactly_passes(self):
        (check,) = check_record({"speedup": 1.5}, {"speedup": 1.5})
        assert check.ok


class TestCheckFile:
    def test_builtin_floor_applies_by_basename(self, artefact):
        checks = check_file(artefact)
        assert [c.key for c in checks] == sorted(
            FLOORS["BENCH_engine.json"])
        assert all(c.ok for c in checks)

    def test_extra_floor_overrides_builtin(self, artefact):
        checks = check_file(
            artefact, extra_floors={"single_pass.events_per_sec": 2e6})
        assert not any(c.ok for c in checks
                       if c.key == "single_pass.events_per_sec")

    def test_unknown_artefact_without_floors_is_error(self, tmp_path):
        path = tmp_path / "BENCH_other.json"
        path.write_text("{}")
        with pytest.raises(FloorSpecError):
            check_file(str(path))

    def test_unreadable_and_malformed(self, tmp_path):
        with pytest.raises(FloorSpecError):
            check_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "BENCH_engine.json"
        bad.write_text("not json")
        with pytest.raises(FloorSpecError):
            check_file(str(bad))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("[1, 2]")
        with pytest.raises(FloorSpecError):
            check_file(str(path))


class TestBenchCommand:
    def test_pass_exits_zero(self, artefact, capsys):
        assert main(["bench", "--check", artefact]) == 0
        out = capsys.readouterr().out
        floor = FLOORS["BENCH_engine.json"]["single_pass.events_per_sec"]
        assert (f"ok: single_pass.events_per_sec = 1.1e+06 "
                f"(floor {floor:g})") in out

    def test_floor_breach_exits_one(self, artefact, capsys):
        assert main(["bench", "--check", artefact,
                     "--floor", "single_pass.events_per_sec=9e6"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["bench", "--check",
                     str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_floor_spec_is_usage_error(self, artefact, capsys):
        assert main(["bench", "--check", artefact,
                     "--floor", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_builtin_requires_explicit_floor(self, artefact, capsys):
        assert main(["bench", "--check", artefact, "--no-builtin"]) == 2
        assert main(["bench", "--check", artefact, "--no-builtin",
                     "--floor", "single_pass.events_per_sec=1e5"]) == 0

    def test_builtin_table_pins_absolute_floors(self):
        # every built-in floor is an absolute throughput, never a ratio
        # against a reference implementation
        assert FLOORS["BENCH_engine.json"]["single_pass.events_per_sec"] > 0
        interp = FLOORS["BENCH_interp.json"]
        assert set(interp) == {
            "modes.predecoded/0-observers.steps_per_sec",
            "modes.predecoded/full-svd.steps_per_sec",
            "modes.predecoded/full-svd-mysql.steps_per_sec"}
        assert not any("speedup" in key
                       for floors in FLOORS.values() for key in floors)
        assert bench_gate.FLOORS is FLOORS


class TestLoadArtefactAndFloorsFor:
    def test_load_artefact_round_trips(self, artefact):
        record = bench_gate.load_artefact(artefact)
        assert record["speedup"] == 1.61

    def test_floors_for_overlays_extra_on_builtin(self):
        floors = bench_gate.floors_for(
            "BENCH_engine.json",
            extra_floors={"single_pass.events_per_sec": 9.0,
                          "extra.key": 1.0})
        assert floors["single_pass.events_per_sec"] == 9.0  # extra wins
        assert floors["campaign.events_per_sec"] == \
            FLOORS["BENCH_engine.json"]["campaign.events_per_sec"]
        assert floors["extra.key"] == 1.0

    def test_floors_for_without_builtin(self):
        floors = bench_gate.floors_for("BENCH_engine.json",
                                       extra_floors={"speedup": 2.0},
                                       use_builtin=False)
        assert floors == {"speedup": 2.0}

    def test_floors_for_empty_is_an_error(self):
        with pytest.raises(FloorSpecError, match="no floors apply"):
            bench_gate.floors_for("BENCH_unknown.json")
        with pytest.raises(FloorSpecError):
            bench_gate.floors_for("BENCH_engine.json", use_builtin=False)


class TestBenchCommandEdgeCases:
    @pytest.mark.parametrize("spec", ["bogus", "=1.5", "speedup=fast",
                                      " =2"])
    def test_malformed_floor_specs(self, artefact, spec, capsys):
        assert main(["bench", "--check", artefact, "--floor", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dotted_key_missing_from_artefact(self, artefact, capsys):
        assert main(["bench", "--check", artefact,
                     "--floor", "campaign.missing.deeply=1"]) == 2
        assert "no key" in capsys.readouterr().err

    def test_non_numeric_gated_value(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "single_pass": {"events_per_sec": "fast"},
            "campaign": {"events_per_sec": 200_000}}))
        assert main(["bench", "--check", str(path)]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_no_builtin_gates_only_explicit_floors(self, tmp_path,
                                                   capsys):
        # an artefact that would fail the builtin table passes when
        # only the explicit floor applies
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "speedup": 0.5,
            "single_pass": {"events_per_sec": 1},
            "campaign": {"events_per_sec": 1},
            "trace_io": {"load_events_per_sec": 1}}))
        assert main(["bench", "--check", str(path)]) == 1
        assert main(["bench", "--check", str(path), "--no-builtin",
                     "--floor", "speedup=0.4"]) == 0
        out = capsys.readouterr().out
        assert "campaign.events_per_sec" not in out.splitlines()[-1]
