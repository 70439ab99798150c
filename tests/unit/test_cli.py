"""CLI tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


@pytest.fixture
def msp_file(tmp_path):
    path = tmp_path / "prog.msp"
    path.write_text(
        "shared int x = 0;\n"
        "thread t(int n) { int i = 0; while (i < n) {"
        " x = x + 1; i = i + 1; } output(x); }\n")
    return str(path)


class TestRun:
    def test_run_svd(self, capsys):
        assert main(["run", "mysql-tablelock", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "svd: 0 dynamic reports" in out
        assert "a-posteriori log" in out

    def test_run_all_detectors(self, capsys):
        # apache is buggy: violations reported -> exit 1
        assert main(["run", "apache", "--seed", "3",
                     "--detector", "all"]) == 1
        out = capsys.readouterr().out
        assert "svd:" in out
        assert "frd:" in out

    def test_run_fixed_variant(self, capsys):
        assert main(["run", "apache", "--fixed", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "patched" in out

    def test_run_fixed_unsupported(self, capsys):
        assert main(["run", "pgsql", "--fixed"]) == 2

    def test_run_frd(self, capsys):
        # FRD reports the benign races -> exit 1
        assert main(["run", "mysql-tablelock", "--detector", "frd",
                     "--seed", "1"]) == 1
        assert "frd:" in capsys.readouterr().out

    def test_run_precise(self, capsys):
        assert main(["run", "queue-region", "--detector", "precise"]) == 0
        assert "svd-precise:" in capsys.readouterr().out

    @pytest.mark.parametrize("detector", ["lockset", "atomizer", "offline"])
    def test_run_other_detectors(self, detector, capsys):
        # each reports something on mysql-tablelock's benign races
        assert main(["run", "mysql-tablelock", "--detector", detector]) == 1
        assert "dynamic reports" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent"])


class TestRunDetectorFlags:
    """``--detector X`` is ``--detectors X`` (``all`` is SVD+FRD): one
    engine run, one output format, one exit code."""

    @pytest.mark.parametrize("choice", [
        "svd", "precise", "frd", "lockset", "atomizer", "offline",
        "stale", "lock-order", "hybrid", "all"])
    def test_detector_means_detectors(self, choice, capsys):
        names = "svd,frd" if choice == "all" else choice
        code = main(["run", "mysql-tablelock", "--detector", choice])
        out = capsys.readouterr().out
        assert main(["run", "mysql-tablelock",
                     "--detectors", names]) == code
        assert capsys.readouterr().out == out
        assert "stream pass(es)" in out


class TestExec:
    def test_exec_with_threads(self, msp_file, capsys):
        assert main(["exec", msp_file, "--thread", "t:5",
                     "--thread", "t:5", "--svd"]) == 0
        out = capsys.readouterr().out
        assert "status: finished" in out
        assert "svd:" in out

    def test_exec_missing_file(self, capsys):
        assert main(["exec", "/does/not/exist.msp"]) == 2

    def test_exec_compile_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.msp"
        bad.write_text("thread t() { undeclared = 1; }")
        assert main(["exec", str(bad)]) == 2
        assert "compile error" in capsys.readouterr().err

    def test_exec_needs_threads_when_parameterised(self, msp_file, capsys):
        assert main(["exec", msp_file]) == 2

    def test_exec_reports_crash(self, tmp_path, capsys):
        prog = tmp_path / "crash.msp"
        prog.write_text("thread t() { assert(0); }")
        assert main(["exec", str(prog)]) == 0
        assert "CRASH" in capsys.readouterr().out


class TestCompile:
    def test_listing(self, msp_file, capsys):
        assert main(["compile", msp_file]) == 0
        out = capsys.readouterr().out
        assert "LOAD" in out or "STORE" in out

    def test_stats(self, msp_file, capsys):
        assert main(["compile", msp_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "frame words" in out

    def test_missing_file(self, capsys):
        assert main(["compile", "/does/not/exist.msp"]) == 2


class TestHarnessCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_overhead(self, capsys):
        assert main(["overhead", "mysql-tablelock", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "with SVD" in out


class TestCampaignCmd:
    ARGS = ["campaign", "--workloads", "stringbuffer,queue-region",
            "--seeds", "2", "--max-steps", "30000", "--quiet"]

    # the buggy workloads report violations, so a clean sweep exits 1

    def test_serial_campaign(self, capsys):
        assert main(self.ARGS + ["--workers", "1"]) == 1
        out = capsys.readouterr().out
        assert "Campaign: 4 runs" in out
        assert "stringbuffer" in out and "queue-region" in out

    def test_parallel_matches_serial_output(self, capsys):
        assert main(self.ARGS + ["--workers", "1"]) == 1
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 1
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_table2_rendering(self, capsys):
        assert main(self.ARGS + ["--table2"]) == 1
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["campaign", "--workloads", "nope"]) == 2

    def test_unknown_config(self, capsys):
        assert main(["campaign", "--workloads", "stringbuffer",
                     "--configs", "nope"]) == 2


class TestObsFlags:
    def test_run_obs_summary(self, capsys):
        assert main(["run", "stringbuffer", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "metrics: counters" in out
        assert "engine.runs" in out
        assert "spans:" in out

    def test_run_engine_line_without_obs(self, capsys):
        assert main(["run", "stringbuffer"]) == 0
        out = capsys.readouterr().out
        assert "stream pass(es)" in out

    def test_run_metrics_out(self, tmp_path, capsys):
        import json
        path = tmp_path / "metrics.json"
        assert main(["run", "stringbuffer",
                     "--metrics-out", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["runner.runs"] == 1

    def test_run_trace_out_chrome(self, tmp_path, capsys):
        import json
        path = tmp_path / "trace.json"
        assert main(["run", "stringbuffer", "--trace-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        begins = [e for e in payload["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in payload["traceEvents"] if e["ph"] == "E"]
        assert begins and len(begins) == len(ends)

    def test_run_trace_out_jsonl(self, tmp_path, capsys):
        import json
        path = tmp_path / "spans.jsonl"
        assert main(["run", "stringbuffer", "--trace-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines and all("name" in json.loads(line) for line in lines)

    def test_campaign_obs_metrics_out(self, tmp_path, capsys):
        import json
        path = tmp_path / "campaign.json"
        assert main(["campaign", "--workloads", "stringbuffer",
                     "--seeds", "2", "--max-steps", "30000", "--quiet",
                     "-j", "2", "--metrics-out", str(path)]) == 1
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["runner.runs"] == 2
        assert snapshot["counters"]["pool.tasks.ok"] == 2

    def test_fuzz_obs(self, capsys):
        assert main(["fuzz", "--budget", "0", "--programs", "2",
                     "--seeds", "1", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "fuzz.programs" in out


class TestServeUsage:
    @pytest.mark.parametrize("flags", [["--port-file", "port"],
                                       ["--executions", "-1"]],
                             ids=["port-file-without-http-port",
                                  "negative-executions"])
    def test_usage_error_leaves_nothing_behind(self, flags, tmp_path,
                                               capsys):
        flags = [str(tmp_path / f) if f == "port" else f for f in flags]
        hb = tmp_path / "hb"
        assert main(["serve", *flags, "--heartbeat-out", str(hb)]) == 2
        assert not hb.exists()
        assert list(tmp_path.iterdir()) == []


class TestFuzzCmd:
    def test_program_capped_fuzz(self, capsys):
        assert main(["fuzz", "--budget", "0", "--programs", "6",
                     "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "6 programs" in out
        assert "online-vs-replay divergences  : 0" in out

    def test_save_and_rediscover_corpus(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert main(["fuzz", "--budget", "0", "--programs", "10",
                     "--seeds", "2", "--save-corpus", corpus]) == 0
        assert "saved" in capsys.readouterr().out
        assert main(["fuzz", "--budget", "0", "--programs", "10",
                     "--seeds", "2", "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        assert "rediscovered" in out

    def test_missing_corpus_dir(self, capsys):
        assert main(["fuzz", "--budget", "0", "--programs", "2",
                     "--corpus", "/does/not/exist"]) == 2


#: a command body that catches a KeyboardInterrupt raised inside
#: ``exec()`` of source text -- where a SIGINT landing during a lazy
#: import (a frozen dataclass builds its methods with ``exec``) raises
#: it -- and reports the run interrupted
SIGINT_PROBE = """
import argparse
import sys

from repro.cli.lifecycle import Invocation, Outcome


def body(invocation):
    try:
        exec("raise KeyboardInterrupt('SIGINT')")
    except KeyboardInterrupt:
        pass
    return Outcome("interrupted")


args = argparse.Namespace(command="probe", func=body, db=None)
sys.exit(Invocation(args).run())
"""


class TestHandledInterruptExitCode:
    def test_caught_interrupt_from_exec_exits_3(self, tmp_path):
        """CPython flags a KeyboardInterrupt that leaves ``exec()`` of
        source text as unhandled even when the program catches it, and
        ``python -m`` then exits by SIGINT (-2) after a clean shutdown.
        An interrupted invocation must still exit 3."""
        (tmp_path / "sigint_probe.py").write_text(SIGINT_PROBE)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
        proc = subprocess.run([sys.executable, "-m", "sigint_probe"],
                              cwd=str(tmp_path), env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == 3, proc.stderr.decode()
