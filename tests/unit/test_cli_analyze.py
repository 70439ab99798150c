"""CLI exec --save-trace / analyze tests."""

import pytest

from repro.cli import main

RACE = """shared int counter = 0;
thread worker(int n) {
    int i = 0;
    while (i < n) {
        int c = counter;
        counter = c + 1;
        i = i + 1;
    }
}
"""


@pytest.fixture
def saved_trace(tmp_path, capsys):
    source = tmp_path / "race.msp"
    source.write_text(RACE)
    trace = tmp_path / "race.trace"
    assert main(["exec", str(source), "--thread", "worker:15",
                 "--thread", "worker:15", "--seed", "2",
                 "--save-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "trace saved" in out
    return str(source), str(trace)


class TestAnalyze:
    def test_frd_over_saved_trace(self, saved_trace, capsys):
        source, trace = saved_trace
        # the trace is racy: reports -> exit 1
        assert main(["analyze", source, trace, "--detector", "frd"]) == 1
        out = capsys.readouterr().out
        assert "loaded" in out
        assert "frd:" in out
        assert "data-race" in out

    @pytest.mark.parametrize("detector,expected",
                             [("lockset", 1), ("offline", 1), ("stale", 0),
                              ("lock-order", 0), ("hybrid", 1),
                              ("atomizer", 0)])
    def test_every_detector_runs(self, saved_trace, detector, expected,
                                 capsys):
        source, trace = saved_trace
        assert main(["analyze", source, trace,
                     "--detector", detector]) == expected
        assert "dynamic reports" in capsys.readouterr().out

    def test_queries_mode(self, saved_trace, capsys):
        source, trace = saved_trace
        assert main(["analyze", source, trace, "--detector", "queries",
                     "--variable", "counter"]) == 0
        out = capsys.readouterr().out
        assert "shared variables" in out
        assert "history of counter" in out

    def test_missing_trace_file(self, saved_trace, capsys):
        source, _trace = saved_trace
        assert main(["analyze", source, "/does/not/exist"]) == 2

    def test_missing_source_file(self, saved_trace):
        _source, trace = saved_trace
        assert main(["analyze", "/does/not/exist.msp", trace]) == 2


class TestRecordReplayCli:
    def test_record_then_replay(self, tmp_path, capsys):
        source = tmp_path / "race.msp"
        source.write_text(RACE)
        recording = tmp_path / "run.rec"
        assert main(["exec", str(source), "--thread", "worker:15",
                     "--thread", "worker:15", "--seed", "2",
                     "--record", str(recording)]) == 0
        assert "recording saved" in capsys.readouterr().out
        assert main(["replay", str(source), str(recording), "--svd"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "svd:" in out

    def test_replay_step_limited_recording(self, tmp_path, capsys):
        """A recording cut by --max-steps replays to the same cut."""
        source = tmp_path / "race.msp"
        source.write_text(RACE)
        recording = tmp_path / "r.json"
        assert main(["exec", str(source), "--thread", "worker:15",
                     "--thread", "worker:15", "--seed", "3",
                     "--max-steps", "10", "--record", str(recording)]) == 0
        assert "(10 steps)" in capsys.readouterr().out
        assert main(["replay", str(source), str(recording)]) == 0
        assert ("replayed 10 steps deterministically (status step_limit)"
                in capsys.readouterr().out)

    def test_replay_wrong_program_rejected(self, tmp_path, capsys):
        source = tmp_path / "race.msp"
        source.write_text(RACE)
        recording = tmp_path / "run.rec"
        assert main(["exec", str(source), "--thread", "worker:10",
                     "--thread", "worker:10", "--record",
                     str(recording)]) == 0
        capsys.readouterr()
        other = tmp_path / "other.msp"
        other.write_text(RACE.replace("c + 1", "c + 2"))
        assert main(["replay", str(other), str(recording)]) == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_replay_missing_recording(self, tmp_path):
        source = tmp_path / "race.msp"
        source.write_text(RACE)
        assert main(["replay", str(source), "/does/not/exist"]) == 2
