"""Reports and the a-posteriori log hold rows; their views read rows.

Detectors write each report as a row tuple, and SVD writes its log the
same way; :class:`~repro.core.report.Violation`,
:class:`~repro.core.posteriori.LogEntry` and
:class:`~repro.core.posteriori.CuLogRecord` objects are built only when
a caller reads them.  This suite runs apache once under strict and once
under TSO with every registry detector attached, and checks each view
that reads rows against the same view computed from the built objects
by the object code below -- a copy of the views as they were written
before reports held rows.

It also pins lockset's ``dedup_rejected`` and the
``violations.<name>.{dynamic,static,deduped}`` counters of the strict
run, as the object-holding reports counted them.
"""

import dataclasses
from typing import Dict, List, Set, Tuple

import pytest

import repro.obs as obs
from repro.core.posteriori import LogEntry
from repro.core.report import Violation
from repro.engine.registry import available
from repro.harness.runner import run_workload
from repro.metrics.classify import classify_report
from repro.resultsdb import violation_report_fingerprints
from repro.workloads import WORKLOADS

#: long enough for hundreds of FRD reports and lockset rejections; a
#: longer run's transient memory (the offline passes) lifts the test
#: process's peak RSS, which ``test_shard.py::TestPeakRss`` needs to
#: stay within a few MB of its current RSS
MAX_STEPS = 10_000


# -- reference: the views over objects --------------------------------------


def ref_static_key(violation: Violation) -> Tuple[str, int]:
    return (violation.kind, violation.loc)


def ref_static_keys(violations: List[Violation]) -> Set[Tuple[str, int]]:
    return {ref_static_key(v) for v in violations}


def ref_static_locs(violations: List[Violation]) -> Set[int]:
    return {v.loc for v in violations}


def ref_describe(detector, program, violations: List[Violation],
                 limit: int = 20) -> str:
    if program is None:
        return f"{detector}: {len(violations)} reports"
    grouped: Dict[Tuple[str, int], List[Violation]] = {}
    for v in violations:
        grouped.setdefault(ref_static_key(v), []).append(v)
    lines = [f"{detector}: {len(violations)} dynamic reports, "
             f"{len(grouped)} static sites"]
    for (kind, loc), items in sorted(grouped.items())[:limit]:
        where = (str(program.locs[loc])
                 if 0 <= loc < len(program.locs) else f"loc {loc}")
        sample = items[0]
        addr_name = (program.name_of_address(sample.address)
                     if sample.address >= 0 else "?")
        lines.append(f"  [{kind}] {where}  (x{len(items)}, on {addr_name})")
    return "\n".join(lines)


def ref_fingerprints(reports) -> List[str]:
    keys = set()
    for name in reports:
        for violation in reports[name].violations:
            keys.add(f"{name}:{violation.kind}:loc={violation.loc},"
                     f"other={violation.other_loc}")
    return sorted(keys)


def ref_classify(violations: List[Violation], bug_locs: Set[int]):
    dynamic_tp = dynamic_fp = 0
    tp_locs: Set[int] = set()
    fp_locs: Set[int] = set()
    for violation in violations:
        if violation.loc in bug_locs or violation.other_loc in bug_locs:
            dynamic_tp += 1
            tp_locs.add(violation.loc)
        else:
            dynamic_fp += 1
            fp_locs.add(violation.loc)
    return dynamic_tp, dynamic_fp, tp_locs, fp_locs


def ref_entry_key(entry: LogEntry) -> Tuple[int, int, int]:
    return (entry.reader_loc, entry.remote_loc, entry.local_loc)


def ref_static_entries(entries: List[LogEntry]) -> Set[Tuple[int, int, int]]:
    return {ref_entry_key(e) for e in entries}


def ref_suspicious_addresses(entries: List[LogEntry]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for entry in entries:
        counts[entry.address] = counts.get(entry.address, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))


def ref_log_describe(program, entries: List[LogEntry], n_cu_records: int,
                     limit: int = 20) -> str:
    lines = [f"a-posteriori log: {len(entries)} communication "
             f"triples ({len(ref_static_entries(entries))} static), "
             f"{n_cu_records} CU records"]
    if program is None:
        return lines[0]

    def loc_text(loc: int) -> str:
        if 0 <= loc < len(program.locs):
            return str(program.locs[loc])
        return f"loc {loc}"

    seen: Set[Tuple[int, int, int]] = set()
    shown = 0
    for entry in entries:
        key = ref_entry_key(entry)
        if key in seen:
            continue
        seen.add(key)
        name = program.name_of_address(entry.address)
        lines.append(
            f"  {name}: read at {{{loc_text(entry.reader_loc)}}} saw "
            f"remote write t{entry.remote_tid} {{{loc_text(entry.remote_loc)}}} "
            f"overwriting local write {{{loc_text(entry.local_loc)}}}")
        shown += 1
        if shown >= limit:
            break
    return "\n".join(lines)


def ref_posteriori_found_bug(entries: List[LogEntry],
                             bug_locs: Set[int]) -> bool:
    for entry in entries:
        if (entry.reader_loc in bug_locs or entry.remote_loc in bug_locs
                or entry.local_loc in bug_locs):
            return True
    return False


# -- the runs -----------------------------------------------------------------


def _run(consistency):
    with obs.session(tracing=False) as handle:
        result = run_workload(WORKLOADS["apache"](), seed=0,
                              max_steps=MAX_STEPS, detectors=available(),
                              consistency=consistency)
    return result, handle.registry.snapshot()["counters"]


@pytest.fixture(scope="module", params=["strict", "tso"])
def run(request):
    return _run(request.param)


class TestRowViews:
    def test_every_registry_detector_reported(self, run):
        result, _counters = run
        assert sorted(result.reports) == available()
        # the run exercises both the append and the dedup paths
        assert result.reports["frd"].dynamic_count > 500
        assert result.reports["lockset"].dedup_rejected > 0

    def test_report_views(self, run):
        result, _counters = run
        program = result.svd_report.program
        bug_sets = [result.bug_locs, result.svd_report.static_locs(), set()]
        for name, report in result.reports.items():
            violations = report.violations
            assert all(v.detector == report.detector for v in violations)
            assert report.dynamic_count == len(violations), name
            assert len(report) == len(violations), name
            assert report.static_keys == ref_static_keys(violations), name
            assert report.static_count == len(ref_static_keys(violations))
            assert report.static_locs() == ref_static_locs(violations), name
            assert report.describe() == ref_describe(
                report.detector, program, violations), name
            assert report.describe(limit=2) == ref_describe(
                report.detector, program, violations, limit=2), name
            for bug_locs in bug_sets:
                metrics = classify_report(report, bug_locs)
                assert (metrics.dynamic_tp, metrics.dynamic_fp,
                        metrics.static_tp_locs, metrics.static_fp_locs) == \
                    ref_classify(violations, bug_locs), name

    def test_fingerprints(self, run):
        result, _counters = run
        assert violation_report_fingerprints(result.reports) == \
            ref_fingerprints(result.reports)

    def test_log_views(self, run):
        result, _counters = run
        logs = [result.log, result.engine.detector("precise").log]
        program = result.svd_report.program
        for log in logs:
            entries = log.entries
            assert entries, "the run logs communication triples"
            assert log.static_entries == ref_static_entries(entries)
            assert log.suspicious_addresses() == \
                ref_suspicious_addresses(entries)
            assert list(log.suspicious_addresses().items()) == \
                list(ref_suspicious_addresses(entries).items())
            assert log.describe() == ref_log_describe(
                program, entries, len(log.cu_records))
            for address in {e.address for e in entries}:
                assert log.entries_for_address(address) == \
                    [e for e in entries if e.address == address]

    def test_posteriori_found_bug(self, run):
        result, _counters = run
        entries = result.log.entries
        for bug_locs in (result.bug_locs, {entries[0].local_loc},
                         {entries[-1].remote_loc}, set()):
            probe = dataclasses.replace(result, bug_locs=bug_locs)
            assert probe.posteriori_found_bug == \
                ref_posteriori_found_bug(entries, bug_locs)


#: counted by the object-holding reports, for the strict run
STRICT_COUNTERS = {
    "violations.atomizer.deduped": 0,
    "violations.atomizer.dynamic": 0,
    "violations.atomizer.static": 0,
    "violations.frd.deduped": 0,
    "violations.frd.dynamic": 703,
    "violations.frd.static": 6,
    "violations.hybrid.deduped": 0,
    "violations.hybrid.dynamic": 691,
    "violations.hybrid.static": 6,
    "violations.lockorder.deduped": 0,
    "violations.lockorder.dynamic": 0,
    "violations.lockorder.static": 0,
    "violations.lockset.deduped": 434,
    "violations.lockset.dynamic": 37,
    "violations.lockset.static": 2,
    "violations.offline-nc.deduped": 0,
    "violations.offline-nc.dynamic": 242,
    "violations.offline-nc.static": 5,
    "violations.offline.deduped": 0,
    "violations.offline.dynamic": 248,
    "violations.offline.static": 4,
    "violations.precise.deduped": 17,
    "violations.precise.dynamic": 18,
    "violations.precise.static": 3,
    "violations.stale.deduped": 0,
    "violations.stale.dynamic": 0,
    "violations.stale.static": 0,
    "violations.svd.deduped": 0,
    "violations.svd.dynamic": 17,
    "violations.svd.static": 4,
}


class TestPinnedCounts:
    def test_strict_counters(self):
        result, counters = _run("strict")
        assert result.reports["lockset"].dedup_rejected == 434
        assert {k: v for k, v in counters.items()
                if k.startswith("violations.")} == STRICT_COUNTERS
