"""Trace framing, located load errors, and the salvaging reader."""

import json
import struct
import zlib

import pytest

from repro.engine import DetectorEngine
from repro.faults import Fault, FaultPlan, corrupt_trace_file
from repro.lang import compile_source
from repro.machine.batch import EventBatch
from repro.machine.machine import Machine
from repro.machine.scheduler import RandomScheduler
from repro.trace import SalvageReport, Trace, TraceLoadError, TraceRecorder
from repro.trace.trace import CHUNK_RECORDS, RECORD, record_offset
from tests.conftest import COUNTER_RACE


@pytest.fixture(scope="module")
def recorded():
    """A real recorded trace plus its program."""
    program = compile_source(COUNTER_RACE)
    machine = Machine(program, [("worker", (12,)), ("worker", (12,))],
                      scheduler=RandomScheduler(seed=3, switch_prob=0.5))
    result = DetectorEngine(program, ["svd"]).run_machine(machine,
                                                          keep_trace=True)
    return program, result.trace


def _tuples(trace):
    return [(e.kind, e.seq, e.tid, e.pc, e.addr, e.value, e.taken,
             e.target) for e in trace]


#: the crc32 that opens every chunk
CHUNK_CRC = struct.Struct("<I")


def _header_end(data):
    return data.index(b"\n") + 1


def _write_v2(path, trace):
    """A v2 file as the previous writer made it: a JSON header, then
    one ``<length>:<crc32>:<json>`` line per record."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "repro-trace", "version": 2,
                             "n_threads": trace.n_threads,
                             "n_events": len(trace)}) + "\n")
        for e in trace:
            payload = json.dumps([e.kind, e.seq, e.tid, e.pc, e.addr,
                                  e.value, int(e.taken), e.target])
            raw = payload.encode("utf-8")
            fh.write(f"{len(raw)}:{zlib.crc32(raw):08x}:{payload}\n")


def _synthetic(program, n):
    """``n`` hand-built ALU rows on one thread (two chunks for n above
    the chunk size)."""
    rows = [(2, seq, 0, 0, program.code[0].loc, -1, seq, False, -1)
            for seq in range(n)]
    return Trace.from_batch(program, EventBatch(rows), 1)


class TestFraming:
    def test_v3_round_trip(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        loaded = Trace.load(path, program)
        assert _tuples(loaded) == _tuples(trace)
        assert loaded.n_threads == trace.n_threads

    def test_loaded_batch_equals_the_live_one(self, recorded, tmp_path):
        """Load decodes straight into the replay batch, and that batch
        equals the recorder's live rows field for field (loc from
        the program, taken as a bool)."""
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        loaded = Trace.load(path, program)
        assert loaded.batch.rows == trace.batch.rows
        assert all(type(row[7]) is bool for row in loaded.batch.rows)

    def test_v3_chunks_and_records_are_crc_framed(self, recorded,
                                                   tmp_path):
        program, _trace = recorded
        n = CHUNK_RECORDS + 6
        path = tmp_path / "t.trace"
        _synthetic(program, n).save(str(path))
        data = path.read_bytes()
        start = _header_end(data)
        header = json.loads(data[:start])
        assert header["version"] == 3
        assert header["n_events"] == n
        assert RECORD.size == 40
        # two chunks: a full one, then the 6-record remainder; each
        # starts with the crc32 of its record bytes
        sizes = [CHUNK_RECORDS * RECORD.size, 6 * RECORD.size]
        assert len(data) == start + 2 * 4 + sum(sizes)
        offset = start
        for size in sizes:
            (crc,) = CHUNK_CRC.unpack_from(data, offset)
            assert crc == zlib.crc32(data[offset + 4:offset + 4 + size])
            offset += 4 + size
        # every record ends in the crc32 of its first 36 bytes
        for index in (0, CHUNK_RECORDS - 1, CHUNK_RECORDS, n - 1):
            at = start + record_offset(index)
            record = data[at:at + RECORD.size]
            fields = RECORD.unpack(record)
            assert fields[1] == index  # seq
            assert fields[-1] == zlib.crc32(record[:36])

    def test_v1_files_are_rejected(self, recorded, tmp_path):
        """The pre-framing format (no version, bare JSON records) is no
        longer read: both loaders say so at the header."""
        program, trace = recorded
        path = tmp_path / "v1.trace"
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "repro-trace",
                                 "n_threads": trace.n_threads,
                                 "n_events": len(trace)}) + "\n")
            for e in trace:
                fh.write(json.dumps([e.kind, e.seq, e.tid, e.pc, e.addr,
                                     e.value, int(e.taken), e.target])
                         + "\n")
        for load in (Trace.load, Trace.salvage_load):
            with pytest.raises(TraceLoadError,
                               match="v1 trace .* no longer readable"
                               ) as exc_info:
                load(str(path), program)
            assert exc_info.value.record_index == -1

    def test_v2_files_still_load(self, recorded, tmp_path):
        program, trace = recorded
        path = tmp_path / "v2.trace"
        _write_v2(path, trace)
        loaded = Trace.load(str(path), program)
        assert _tuples(loaded) == _tuples(trace)
        assert loaded.batch.rows == trace.batch.rows
        # salvage skips one corrupted line and keeps the rest
        lines = path.read_bytes().splitlines(keepends=True)
        lines[11] = lines[11].replace(b",", b";", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceLoadError, match="record 10"):
            Trace.load(str(path), program)
        salvaged, report = Trace.salvage_load(str(path), program)
        assert (report.records_read, report.records_skipped,
                report.records_lost) == (len(trace) - 1, 1, 0)
        expected = _tuples(trace)
        del expected[10]
        assert _tuples(salvaged) == expected

    def test_out_of_range_field_fails_to_save_located(self, tmp_path):
        """Literals are not wrapped to 64 bits, so a STORE can record a
        value no v3 record holds: save names the record, the field and
        the value, and writes nothing."""
        program = compile_source(
            "shared int x; thread t() { x = 1180591620717411303424; }")
        recorder = TraceRecorder(program, 1)
        Machine(program, [("t", ())], observers=[recorder]).run()
        trace = recorder.trace()
        assert trace.events[0].value == 2 ** 70
        path = tmp_path / "big.trace"
        with pytest.raises(ValueError,
                           match=r"record 0: field value = "
                                 r"1180591620717411303424 does not fit"):
            trace.save(str(path))
        assert not path.exists()


class TestStrictErrors:
    def test_corrupt_record_error_is_located(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.corrupt",
                                                  at=10)], seed=1))
        with pytest.raises(TraceLoadError) as exc_info:
            Trace.load(path, program)
        err = exc_info.value
        assert err.path == path
        assert err.record_index == 10
        assert err.byte_offset > 0
        assert "record 10" in str(err)
        assert path in str(err)

    def test_truncated_file_reports_missing_records(self, recorded,
                                                    tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.truncate",
                                                  at=20)]))
        # the torn record itself fails first, precisely located
        with pytest.raises(TraceLoadError, match="record 20"):
            Trace.load(path, program)

    def test_short_file_reports_missing_records(self, recorded, tmp_path):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        data = path.read_bytes()
        # header + 20 whole records, cut at a record boundary
        path.write_bytes(data[:_header_end(data) + record_offset(20)])
        with pytest.raises(TraceLoadError,
                           match=f"ends after 20 of {len(trace)}"):
            Trace.load(str(path), program)

    def test_damaged_chunk_crc_fails_at_that_chunk(self, recorded,
                                                   tmp_path):
        """With every record intact, a damaged chunk crc still fails a
        strict load, located at that chunk; salvage checks the chunk's
        record crcs instead and loses no record."""
        program, _trace = recorded
        trace = _synthetic(program, 2 * CHUNK_RECORDS + 5)
        path = tmp_path / "t.trace"
        trace.save(str(path))
        data = bytearray(path.read_bytes())
        chunk_at = _header_end(data) + record_offset(CHUNK_RECORDS) - 4
        data[chunk_at] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceLoadError,
                           match="chunk checksum mismatch") as exc_info:
            Trace.load(str(path), program)
        assert exc_info.value.record_index == CHUNK_RECORDS
        assert exc_info.value.byte_offset == chunk_at
        salvaged, report = Trace.salvage_load(str(path), program)
        assert report.clean
        assert (report.records_read, report.records_skipped,
                report.records_lost) == (len(trace), 0, 0)
        assert salvaged.batch.rows == trace.batch.rows

    def test_garbage_header_is_located(self, recorded, tmp_path):
        program, _trace = recorded
        path = tmp_path / "bad.trace"
        path.write_text("not json at all\n")
        with pytest.raises(TraceLoadError) as exc_info:
            Trace.load(str(path), program)
        assert exc_info.value.byte_offset == 0
        assert exc_info.value.record_index == -1


class TestSalvage:
    def test_clean_file_salvages_clean(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        loaded, report = Trace.salvage_load(path, program)
        assert report.clean
        assert report.records_read == len(trace)
        assert report.records_skipped == report.records_lost == 0
        assert _tuples(loaded) == _tuples(trace)

    def test_corrupt_record_is_skipped_and_resynced(self, recorded,
                                                    tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.corrupt",
                                                  at=10)], seed=1))
        loaded, report = Trace.salvage_load(path, program)
        assert not report.clean
        assert report.records_read == len(trace) - 1
        assert report.records_skipped == 1
        assert report.records_lost == 0
        # every surviving record is intact, in order
        expected = _tuples(trace)
        del expected[10]
        assert _tuples(loaded) == expected
        assert "1 skipped" in report.describe()

    def test_truncation_counts_lost_records(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.truncate",
                                                  at=20)]))
        loaded, report = Trace.salvage_load(path, program)
        assert report.records_read == 20
        assert report.records_skipped == 1  # the torn line
        assert report.records_lost == len(trace) - 21
        assert _tuples(loaded) == _tuples(trace)[:20]

    def test_destroyed_header_still_salvages_records(self, recorded,
                                                     tmp_path):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b"\x00garbage\n"
        path.write_bytes(b"".join(lines))
        loaded, report = Trace.salvage_load(str(path), program)
        assert not report.header_ok
        assert report.records_read == len(trace)
        # thread count inferred from the surviving events
        assert loaded.n_threads == trace.n_threads

    def test_salvaged_trace_is_analyzable(self, recorded, tmp_path):
        """The point of salvage: detectors still run over the
        recovered prefix."""
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.corrupt",
                                                  at=5)], seed=2))
        loaded, report = Trace.salvage_load(path, program)
        result = DetectorEngine(program, ["svd", "frd"]).run_trace(loaded)
        assert not result.degraded
        assert result.report("frd") is not None


class TestCorruptTraceFile:
    def test_corruption_is_deterministic(self, recorded, tmp_path):
        program, trace = recorded
        a, b = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
        trace.save(a)
        trace.save(b)
        plan = FaultPlan([Fault("trace.corrupt", at=7)], seed=9)
        assert corrupt_trace_file(a, plan) == 1
        assert corrupt_trace_file(b, plan) == 1
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_position_past_eof_is_inert(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        plan = FaultPlan([Fault("trace.corrupt", at=10 ** 6)])
        assert corrupt_trace_file(path, plan) == 0
        Trace.load(path, program)  # untouched

    def test_non_v3_file_is_refused(self, recorded, tmp_path):
        """trace.* faults address v3 records; a v2 file is not damaged
        at line offsets but refused."""
        _program, trace = recorded
        path = tmp_path / "v2.trace"
        _write_v2(path, trace)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not v3"):
            corrupt_trace_file(str(path), FaultPlan(
                [Fault("trace.corrupt", at=3)]))
        assert path.read_bytes() == before
