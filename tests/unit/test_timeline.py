"""CU timeline renderer tests."""

import pytest

from repro.core import OnlineSVD, render_cu_timeline
from repro.core.posteriori import PosterioriLog
from repro.machine import RandomScheduler
from repro.workloads import apache_log
from tests.conftest import COUNTER_LOCKED, run_with_svd


class TestRenderer:
    def test_empty_log(self):
        assert render_cu_timeline(PosterioriLog()) == "no CU records"

    def test_synthetic_records(self):
        log = PosterioriLog()
        log.cu_rows.append((0, 1, 0, 50, (3,), (4,), "thread-end"))
        log.cu_rows.append((1, 2, 25, 75, (), (3,), "stored-shared-load"))
        text = render_cu_timeline(log, chart_width=20)
        assert "thread 0" in text
        assert "thread 1" in text
        assert "cut:WrRd" in text
        assert "end" in text

    def test_bars_reflect_spans(self):
        log = PosterioriLog()
        log.cu_rows.append((0, 1, 0, 100, (), (), "thread-end"))
        log.cu_rows.append((0, 2, 0, 10, (), (), "thread-end"))
        text = render_cu_timeline(log, chart_width=40)
        lines = [l for l in text.splitlines() if "#" in l and "|" in l]
        long_bar = lines[0].split("|")[1].count("#")
        short_bar = lines[1].split("|")[1].count("#")
        assert long_bar > short_bar

    def test_real_run_names_shared_variables(self):
        workload = apache_log(writers=2, requests=4)
        svd = OnlineSVD(workload.program)
        machine = workload.make_machine(
            RandomScheduler(seed=3, switch_prob=0.4), observers=[svd])
        machine.run()
        text = render_cu_timeline(svd.log, workload.program)
        assert "outcnt" in text
        assert "local@" in text  # frame addresses labelled distinctly

    def test_truncation(self):
        _m, svd = run_with_svd(COUNTER_LOCKED,
                               [("worker", (30,)), ("worker", (30,))])
        text = render_cu_timeline(svd.log, max_cus_per_thread=2)
        assert "more" in text

    def test_every_thread_listed(self):
        _m, svd = run_with_svd(COUNTER_LOCKED,
                               [("worker", (5,)), ("worker", (5,))])
        text = render_cu_timeline(svd.log)
        assert "thread 0" in text and "thread 1" in text
