"""Violation report and a-posteriori log unit tests."""

import dataclasses

import pytest

from repro.core.posteriori import (CU_RECORD_FIELDS, LOG_ENTRY_FIELDS,
                                   CuLogRecord, LogEntry, PosterioriLog)
from repro.core.report import VIOLATION_FIELDS, Violation, ViolationReport
from repro.isa.program import Program, SourceLoc


def make_violation(loc=0, seq=0, kind="serializability-violation",
                   address=0, tid=0):
    """One report row, in VIOLATION_FIELDS order."""
    return (seq, tid, loc, address, kind, -1, -1, -1)


def field_names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


class TestRowLayout:
    """Rows are the objects' fields in order, so ``cls(*row)`` builds
    the object a row stands for."""

    def test_violation_row_is_violation_after_detector(self):
        assert field_names(Violation)[0] == "detector"
        assert VIOLATION_FIELDS == field_names(Violation)[1:]

    def test_log_rows_follow_the_record_fields(self):
        assert LOG_ENTRY_FIELDS == field_names(LogEntry)
        assert CU_RECORD_FIELDS == field_names(CuLogRecord)

    def test_violations_are_built_from_rows_on_each_read(self):
        report = ViolationReport("frd")
        report.add((4, 1, 7, 30, "data-race", 2, 0, -1))
        first = report.violations
        assert first == [Violation("frd", 4, 1, 7, 30, "data-race", 2, 0)]
        assert dataclasses.asdict(first[0]) == {
            "detector": "frd", **dict(zip(VIOLATION_FIELDS,
                                          report.rows[0]))}
        assert report.violations is not first
        assert list(report) == first

    def test_log_records_are_built_from_rows(self):
        log = PosterioriLog()
        entry = (0, 10, 1, 7, 1, 8, 2, 5, 3)
        record = (1, 4, 0, 9, (1,), (), "thread-end")
        log.entry_rows.append(entry)
        log.cu_rows.append(record)
        assert dataclasses.asdict(log.entries[0]) == dict(
            zip(LOG_ENTRY_FIELDS, entry))
        assert dataclasses.asdict(log.cu_records[0]) == dict(
            zip(CU_RECORD_FIELDS, record))

    def test_add_once_dedups_on_the_key(self):
        report = ViolationReport("lockset")
        row = (1, 0, 3, 9, "lockset-empty", -1, -1, -1)
        assert report.add_once(row, key=("lockset-empty", 9))
        assert not report.add_once((2, 1, 4, 9, "lockset-empty", -1, -1, -1),
                                   key=("lockset-empty", 9))
        assert report.dedup_rejected == 1
        assert report.rows == [row]
        assert report.already_reported(("lockset-empty", 9))

    def test_add_once_defaults_to_the_static_key(self):
        report = ViolationReport("svd")
        assert report.add_once(make_violation(loc=3, seq=1))
        assert not report.add_once(make_violation(loc=3, seq=2))
        assert report.add_once(make_violation(loc=3, seq=3, kind="other"))
        assert report.dedup_rejected == 1
        assert report.static_keys == {("serializability-violation", 3),
                                      ("other", 3)}


class TestViolationReport:
    def test_dynamic_counts_every_instance(self):
        report = ViolationReport("svd")
        for i in range(5):
            report.add(make_violation(loc=1, seq=i))
        assert report.dynamic_count == 5
        assert report.static_count == 1

    def test_static_key_includes_kind(self):
        report = ViolationReport("svd")
        report.add(make_violation(loc=1, kind="a"))
        report.add(make_violation(loc=1, kind="b"))
        assert report.static_count == 2

    def test_per_million(self):
        report = ViolationReport("svd")
        report.add(make_violation())
        report.add(make_violation())
        assert report.dynamic_per_million(1_000_000) == pytest.approx(2.0)
        assert report.dynamic_per_million(500_000) == pytest.approx(4.0)
        assert report.dynamic_per_million(0) == 0.0

    def test_describe_groups_by_site(self):
        prog = Program(locs=[SourceLoc(3, 1, "x = y;")])
        prog.globals_layout["x"] = (0, 1)
        report = ViolationReport("svd", prog)
        report.add(make_violation(loc=0))
        report.add(make_violation(loc=0))
        text = report.describe()
        assert "x = y;" in text
        assert "x2" in text.replace("(x2", "x2")  # grouped count shown

    def test_iteration_and_len(self):
        report = ViolationReport("svd")
        report.add(make_violation())
        assert len(report) == 1
        assert list(report)[0].detector == "svd"


class TestPosterioriLog:
    def _entry(self, reader_loc=1, remote_loc=2, local_loc=3, addr=7):
        """One log row, in LOG_ENTRY_FIELDS order."""
        return (0, 10, reader_loc, addr, 1, 8, remote_loc, 5, local_loc)

    def test_static_entries_dedup(self):
        log = PosterioriLog()
        log.entry_rows.append(self._entry())
        log.entry_rows.append(self._entry())
        log.entry_rows.append(self._entry(reader_loc=9))
        assert len(log.entries) == 3
        assert len(log.static_entries) == 2

    def test_entries_for_address(self):
        log = PosterioriLog()
        log.entry_rows.append(self._entry(addr=7))
        log.entry_rows.append(self._entry(addr=8))
        assert len(log.entries_for_address(7)) == 1

    def test_suspicious_addresses_ranked(self):
        log = PosterioriLog()
        for _ in range(3):
            log.entry_rows.append(self._entry(addr=5))
        log.entry_rows.append(self._entry(addr=9))
        ranked = list(log.suspicious_addresses())
        assert ranked[0] == 5

    def test_describe_renders_symbols(self):
        prog = Program(locs=[SourceLoc(1, 1, "a"), SourceLoc(2, 1, "b"),
                             SourceLoc(3, 1, "c"), SourceLoc(4, 1, "d")])
        prog.globals_layout["used_fields"] = (7, 1)
        log = PosterioriLog(prog)
        log.entry_rows.append(self._entry(reader_loc=0, remote_loc=1, local_loc=2))
        text = log.describe()
        assert "used_fields" in text
        assert "communication" in text

    def test_cu_records(self):
        log = PosterioriLog()
        log.cu_rows.append((0, 1, 0, 9, (1, 2), (3,), "thread-end"))
        assert log.cu_records == [
            CuLogRecord(tid=0, uid=1, birth_seq=0, end_seq=9,
                        read_blocks=(1, 2), write_blocks=(3,),
                        reason="thread-end")]
