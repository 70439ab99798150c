"""Metrics classification tests."""

import pytest

from repro.core.report import ViolationReport
from repro.metrics import DetectorMetrics, classify_report


def violation(loc, other_loc=-1, seq=0):
    """One report row, in VIOLATION_FIELDS order."""
    return (seq, 0, loc, 0, "serializability-violation", other_loc, -1, -1)


class TestClassification:
    def test_loc_match_is_tp(self):
        report = ViolationReport("svd")
        report.add(violation(loc=5))
        metrics = classify_report(report, bug_locs={5}, instructions=100)
        assert metrics.dynamic_tp == 1
        assert metrics.dynamic_fp == 0
        assert metrics.found_bug

    def test_other_loc_match_is_tp(self):
        report = ViolationReport("svd")
        report.add(violation(loc=1, other_loc=5))
        metrics = classify_report(report, bug_locs={5})
        assert metrics.dynamic_tp == 1

    def test_no_match_is_fp(self):
        report = ViolationReport("svd")
        report.add(violation(loc=1))
        metrics = classify_report(report, bug_locs={5})
        assert metrics.dynamic_fp == 1
        assert not metrics.found_bug

    def test_static_sets_disjoint_by_site(self):
        report = ViolationReport("svd")
        report.add(violation(loc=5))
        report.add(violation(loc=5, seq=1))
        report.add(violation(loc=9, seq=2))
        metrics = classify_report(report, bug_locs={5})
        assert metrics.static_tp == 1
        assert metrics.static_fp == 1

    def test_empty_bug_locs_everything_fp(self):
        report = ViolationReport("svd")
        report.add(violation(loc=5))
        metrics = classify_report(report, bug_locs=set())
        assert metrics.dynamic_fp == 1

    def test_per_million(self):
        report = ViolationReport("svd")
        report.add(violation(loc=1))
        metrics = classify_report(report, bug_locs=set(),
                                  instructions=2_000_000)
        assert metrics.dynamic_fp_per_million() == pytest.approx(0.5)

    def test_per_million_zero_instructions(self):
        metrics = DetectorMetrics("svd")
        assert metrics.dynamic_fp_per_million() == 0.0


class TestMerge:
    def test_merge_accumulates(self):
        a = DetectorMetrics("svd", dynamic_tp=1, dynamic_fp=2,
                            static_tp_locs={1}, static_fp_locs={2},
                            instructions=10)
        b = DetectorMetrics("svd", dynamic_tp=3, dynamic_fp=4,
                            static_tp_locs={1, 5}, static_fp_locs={6},
                            instructions=20)
        a.merge(b)
        assert a.dynamic_tp == 4
        assert a.dynamic_fp == 6
        assert a.static_tp == 2
        assert a.static_fp == 2
        assert a.instructions == 30

    def test_merge_rejects_different_detectors(self):
        a = DetectorMetrics("svd")
        b = DetectorMetrics("frd")
        with pytest.raises(ValueError):
            a.merge(b)
