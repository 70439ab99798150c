"""Trace recording and serialization.

A :class:`Trace` holds one :class:`~repro.machine.batch.EventBatch`,
the recorded stream as row tuples; every replay slices it into
windows.  :class:`Event` objects are built from it lazily, once, for
the offline layer that walks events one at a time.

Format version 3 (what :meth:`Trace.save` writes) is a JSON header
line carrying ``format``/``version``/``n_threads``/``n_events``,
followed by binary chunks of :data:`CHUNK_RECORDS` records (the last
chunk holds the remainder)::

    chunk  := crc32 "<I" over the chunk's record bytes, then its records
    record := "<BqHiqqBiI": kind, seq, tid, pc, addr, value, taken,
              target, crc32 of the record's first 36 bytes (40 bytes)

Chunk boundaries follow from ``n_events`` and :data:`CHUNK_RECORDS`,
so no count is stored.  Checksum rules:

* :meth:`Trace.load` checks one crc per chunk, decodes the chunk with
  one flat ``struct`` unpack and builds its rows with one ``zip`` over
  strided slices of it.  Only a chunk whose crc fails has its record
  crcs checked, to locate the damage: any damage raises
  :class:`TraceLoadError` carrying the file path, byte offset and
  record index (the first damaged record, or the chunk's first record
  and its crc's offset when every record of the chunk is intact).
* :meth:`Trace.salvage_load` decodes every intact chunk the same way.
  In a damaged chunk it keeps each record whose own crc holds and
  skips the rest -- the fixed record stride resyncs on the next
  record -- and counts a torn final record as skipped; records missing
  from the end of the file are lost (:class:`SalvageReport`).

Version 2 files (one ``<length>:<crc32-8hex>:<json-array>`` line per
record) are still read by both loaders, into the same batch.  Version
1 files (a header without ``version``) are rejected.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.isa.program import Program
from repro.machine.batch import DEFAULT_BATCH_SIZE, EventBatch
from repro.machine.events import (
    EV_ACQUIRE, EV_LOAD, EV_RELEASE, EV_STORE, N_KINDS, Event,
    MachineObserver,
)

#: the version :meth:`Trace.save` writes
FORMAT_VERSION = 3

#: records per chunk; the last chunk of a file holds the remainder
CHUNK_RECORDS = 1024

#: one v3 record: kind, seq, tid, pc, addr, value, taken, target, then
#: the crc32 of the record's other 36 bytes
RECORD = struct.Struct("<BqHiqqBiI")

_FIELDS = ("kind", "seq", "tid", "pc", "addr", "value", "taken", "target")
_PAYLOAD = struct.Struct(RECORD.format[:-1])
_CRC = struct.Struct("<I")
_CHUNK_SIZE = _CRC.size + CHUNK_RECORDS * RECORD.size
_BOUNDS = {"B": (0, 2 ** 8 - 1), "H": (0, 2 ** 16 - 1),
           "i": (-2 ** 31, 2 ** 31 - 1), "q": (-2 ** 63, 2 ** 63 - 1)}


def record_offset(index: int) -> int:
    """Byte offset of v3 record ``index`` from the end of the header
    line."""
    chunk, within = divmod(index, CHUNK_RECORDS)
    return chunk * _CHUNK_SIZE + _CRC.size + within * RECORD.size


def read_v3_header(path: str, data: bytes) -> Tuple[int, int]:
    """``(header length, n_events)`` of the v3 trace file whose bytes
    are ``data``; ValueError for any other file."""
    start = _header_end(data)
    header = _parse_header(path, data[:start])
    version = _version(path, header)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: a v{version} trace, not v3")
    return start, _n_events(path, header)


class TraceLoadError(ValueError):
    """A malformed trace file, located precisely.

    Attributes:
        path: the file that failed to load.
        byte_offset: offset of the offending record's first byte.
        record_index: 0-based record number (-1 for the header).
    """

    def __init__(self, path: str, byte_offset: int, record_index: int,
                 reason: str) -> None:
        what = ("header" if record_index < 0
                else f"record {record_index}")
        super().__init__(
            f"{path}: {what} at byte {byte_offset}: {reason}")
        self.path = path
        self.byte_offset = byte_offset
        self.record_index = record_index


@dataclass
class SalvageReport:
    """What :meth:`Trace.salvage_load` recovered from a damaged file.

    ``records_lost`` is how far short of the header's ``n_events`` the
    recovery fell (covers truncation: records that are simply *gone*,
    not present-but-damaged); ``records_skipped`` counts records that
    were present but undecodable.
    """

    path: str
    records_read: int = 0
    records_skipped: int = 0
    records_lost: int = 0
    header_ok: bool = True

    @property
    def clean(self) -> bool:
        return (self.header_ok and self.records_skipped == 0
                and self.records_lost == 0)

    def describe(self) -> str:
        if self.clean:
            return (f"salvage: {self.path}: clean, "
                    f"{self.records_read} records")
        parts = [f"{self.records_read} read",
                 f"{self.records_skipped} skipped",
                 f"{self.records_lost} lost"]
        if not self.header_ok:
            parts.append("header damaged")
        return f"salvage: {self.path}: {', '.join(parts)}"


def conflicting(a: Event, b: Event) -> bool:
    """Two accesses conflict iff they touch the same address from
    different threads and at least one is a write (paper §2.2)."""
    return (a.addr == b.addr and a.tid != b.tid
            and a.is_memory_access and b.is_memory_access
            and (a.is_write or b.is_write))


class Trace:
    """An immutable recorded program trace."""

    def __init__(self, program: Program, events: Sequence[Event],
                 n_threads: int) -> None:
        self.program = program
        self.n_threads = n_threads
        events = list(events)
        #: the recorded stream; replay windows are slices of it
        self.batch = EventBatch.from_events(events)
        self._events: Optional[List[Event]] = events

    @classmethod
    def from_batch(cls, program: Program, batch: EventBatch,
                   n_threads: int) -> "Trace":
        """A trace over an already batched stream (no Event built)."""
        trace = cls(program, (), n_threads)
        trace.batch = batch
        trace._events = None
        return trace

    @property
    def events(self) -> List[Event]:
        """The stream as :class:`Event` objects, built on first use."""
        if self._events is None:
            self._events = self.batch.to_events(self.program)
        return self._events

    def __len__(self) -> int:
        return self.batch.count

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def thread_trace(self, tid: int) -> List[Event]:
        """The subsequence executed by thread ``tid``."""
        return [e for e in self.events if e.tid == tid]

    def memory_events(self) -> List[Event]:
        """All LOAD/STORE events, in program-trace order."""
        return [e for e in self.events if e.kind in (EV_LOAD, EV_STORE)]

    def sync_events(self) -> List[Event]:
        """All ACQUIRE/RELEASE events, in program-trace order."""
        return [e for e in self.events if e.kind in (EV_ACQUIRE, EV_RELEASE)]

    @property
    def instruction_count(self) -> int:
        return self.batch.count

    @property
    def end_seq(self) -> int:
        """The sequence number one past the last event -- what
        ``machine.seq`` was when the recording stopped.  Analyses replayed
        over the trace receive this as their end-of-stream position."""
        rows = self.batch.rows
        return rows[-1][1] + 1 if rows else 0

    def accesses_by_address(self) -> Dict[int, List[Event]]:
        """Group memory accesses by word address, preserving order."""
        by_addr: Dict[int, List[Event]] = {}
        for event in self.events:
            if event.kind in (EV_LOAD, EV_STORE):
                by_addr.setdefault(event.addr, []).append(event)
        return by_addr

    def conflict_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Yield conflicting access pairs (earlier, later), per address.

        Quadratic per address; intended for tests and small traces.  The
        detectors use incremental structures instead.
        """
        for accesses in self.accesses_by_address().values():
            for i, early in enumerate(accesses):
                for late in accesses[i + 1:]:
                    if conflicting(early, late):
                        yield early, late

    def feed(self, observer: MachineObserver) -> int:
        """Deliver every recorded event to ``observer`` in trace order,
        as a live machine would have.  Returns :attr:`end_seq` so callers
        can synthesise the end-of-run callback.  To feed *several*
        analyses in one pass, use :class:`repro.engine.DetectorEngine`
        instead of calling this once per detector."""
        consume = observer.consume_batch
        for batch in self.batches():
            consume(batch)
        return self.end_seq

    def batches(self,
                batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[EventBatch]:
        """The trace sliced into :class:`EventBatch` windows, made as
        the caller walks them."""
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        whole = self.batch
        return (whole.slice(start, start + batch_size)
                for start in range(0, whole.count, batch_size))

    # -- serialization ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the trace in the v3 format (see module doc).  A field
        that does not fit its record slot raises ValueError naming the
        record, the field and the value; no file is written then."""
        header = {"format": "repro-trace", "version": FORMAT_VERSION,
                  "n_threads": self.n_threads, "n_events": len(self)}
        data = _encode_v3(self.batch)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            fh.write(data)

    @classmethod
    def load(cls, path: str, program: Program) -> "Trace":
        """Strictly load a trace saved by :meth:`save` (v3, or a v2
        file); the same compiled program must be supplied so events
        re-link to instructions.  Any damage raises
        :class:`TraceLoadError` locating the file, byte offset, and
        record index -- use :meth:`salvage_load` to recover what is
        readable instead."""
        data = _read(path)
        start = _header_end(data)
        header = _parse_header(path, data[:start])
        if _version(path, header) == 2:
            chunks = [_v2_fields(path, data, start, header)]
        else:
            chunks = _v3_chunks(path, data, start, _n_events(path, header))
        return cls.from_batch(program, _link(program, chunks),
                              header["n_threads"])

    @classmethod
    def salvage_load(cls, path: str,
                     program: Program) -> Tuple["Trace", "SalvageReport"]:
        """Recover everything readable from a (possibly damaged) trace.

        Damaged records are skipped and the reader resynchronizes on the
        next record; the companion :class:`SalvageReport` says exactly
        how much was read, skipped, and lost.  With a destroyed header
        the file is read as v3, its record count inferred from its
        length and the thread count from the surviving events.
        """
        report = SalvageReport(path=path)
        data = _read(path)
        start = _header_end(data)
        try:
            header = _parse_header(path, data[:start])
            version = _version(path, header)
            if version == FORMAT_VERSION:
                n_events = _n_events(path, header)
        except _DamagedHeader:
            header, version = {}, FORMAT_VERSION
            n_events = _inferred_count(len(data) - start)
            report.header_ok = False
        if version == 2:
            chunks = [_v2_salvage(data, start, report)]
        else:
            chunks = _v3_salvage(data, start, n_events, report)
        batch = _link(program, chunks)
        report.records_read = batch.count
        expected = header.get("n_events")
        if expected is not None:
            report.records_lost = max(
                0, expected - report.records_read - report.records_skipped)
        n_threads = header.get("n_threads")
        if n_threads is None:
            n_threads = 1 + max((row[2] for row in batch.rows), default=0)
        return cls.from_batch(program, batch, n_threads), report


class TraceRecorder(MachineObserver):
    """Observer that records the full event stream of a run.

    Optionally restricted to a window ``[start_seq, end_seq)`` to support
    the paper's sampling of execution segments (§6.1 "fast-forwarding and
    sampling").
    """

    def __init__(self, program: Program, n_threads: int,
                 start_seq: int = 0, end_seq: Optional[int] = None) -> None:
        self._program = program
        self._n_threads = n_threads
        self._start_seq = start_seq
        self._end_seq = end_seq
        #: the rows recorded since the last :meth:`trace` call
        self._rows: List[Tuple] = []

    def consume_batch(self, batch: EventBatch) -> None:
        """Append the window's rows (no Event is built), cut to the
        recording window."""
        start, end = self._start_seq, self._end_seq
        if start == 0 and end is None:
            self._rows += batch.rows
        else:
            self._rows += [row for row in batch.rows
                           if row[1] >= start
                           and (end is None or row[1] < end)]

    def trace(self) -> Trace:
        """Hand the recording over: the events recorded since the
        recorder started, or since the previous call.  The recorder
        keeps no copy."""
        batch = EventBatch(self._rows)
        self._rows = []
        return Trace.from_batch(self._program, batch, self._n_threads)


# -- file formats --------------------------------------------------------------


class _DamagedHeader(TraceLoadError):
    """The header line does not parse (salvage reads on as v3)."""


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _header_end(data: bytes) -> int:
    """Offset just past the header line."""
    return data.find(b"\n") + 1 or len(data)


def _parse_header(path: str, line: bytes) -> dict:
    try:
        header = json.loads(line.decode("utf-8"))
        if not isinstance(header, dict) or "n_threads" not in header:
            raise ValueError("not a trace header")
    except ValueError as exc:
        raise _DamagedHeader(path, 0, -1, str(exc)) from None
    return header


def _version(path: str, header: dict) -> int:
    version = header.get("version")
    if version is None:
        raise TraceLoadError(
            path, 0, -1, "a v1 trace (header without a version) is no "
            "longer readable; record it again")
    if version not in (2, FORMAT_VERSION):
        raise TraceLoadError(path, 0, -1,
                             f"unsupported trace version {version!r}")
    return version


def _n_events(path: str, header: dict) -> int:
    n_events = header.get("n_events")
    if (not isinstance(n_events, int) or isinstance(n_events, bool)
            or n_events < 0):
        raise _DamagedHeader(path, 0, -1,
                             f"bad n_events {n_events!r} in a v3 header")
    return n_events


def _columns(rows: Sequence[Sequence]) -> List[Sequence]:
    """Decoded records -> one column per field."""
    return list(zip(*rows)) if rows else [()] * len(_FIELDS)


def _link(program: Program,
          chunks: Iterable[Sequence[Sequence]]) -> EventBatch:
    """Decoded records, eight field columns per chunk, as the replay
    batch: ``loc`` from the program's pc->loc table and ``taken`` as a
    bool, so each row equals the live one field for field.  One
    C-level ``zip`` builds a chunk's rows."""
    loc_of_pc = [instr.loc for instr in program.code]
    n = len(loc_of_pc)
    rows: List[Tuple] = []
    for kinds, seqs, tids, pcs, addrs, values, takens, targets in chunks:
        if pcs and 0 <= min(pcs) and max(pcs) < n:
            locs = map(loc_of_pc.__getitem__, pcs)
        else:
            locs = (loc_of_pc[pc] if 0 <= pc < n else -1 for pc in pcs)
        rows += zip(kinds, seqs, tids, pcs, locs, addrs, values,
                    map(bool, takens), targets)
    return EventBatch(rows)


# -- v3 ------------------------------------------------------------------------

#: fields per record, the record crc included
_WIDTH = len(RECORD.format) - 1
#: a full chunk's records as one flat struct format (compiled on first
#: use by the struct module's own cache, not at import)
_FULL_CHUNK = "<" + RECORD.format[1:] * CHUNK_RECORDS


def _encode_v3(batch: EventBatch) -> bytes:
    """Every row of ``batch`` as a record (``loc`` is not stored), in
    chunks, as :meth:`Trace.save` writes them after the header."""
    pack, pack_crc, crc32 = _PAYLOAD.pack, _CRC.pack, zlib.crc32
    rows = batch.rows
    out: List[bytes] = []
    for first in range(0, len(rows), CHUNK_RECORDS):
        chunk: List[bytes] = []
        for index, (kind, seq, tid, pc, _loc, addr, value, taken,
                    target) in enumerate(
                        rows[first:first + CHUNK_RECORDS], first):
            try:
                payload = pack(kind, seq, tid, pc, addr, value, taken,
                               target)
            except struct.error as exc:
                raise _unfit(index, rows[index], exc) from None
            chunk.append(payload + pack_crc(crc32(payload)))
        body = b"".join(chunk)
        out += (pack_crc(crc32(body)), body)
    return b"".join(out)


def _unfit(index: int, row: Tuple, exc: struct.error) -> ValueError:
    """The located error for a row :data:`RECORD` cannot hold."""
    fields = row[:4] + row[5:]  # a record has no loc
    for name, code, value in zip(_FIELDS, _PAYLOAD.format[1:], fields):
        low, high = _BOUNDS[code]
        if not isinstance(value, int) or not low <= value <= high:
            return ValueError(
                f"record {index}: field {name} = {value!r} does not fit "
                f"a v3 trace record ({low}..{high})")
    return ValueError(f"record {index}: {exc}")


def _chunks(data: bytes, start: int, n_events: int
            ) -> Iterator[Tuple[int, int, int, memoryview, bool]]:
    """Walk the chunks ``n_events`` implies: yields ``(first record,
    record count, crc offset, record bytes, intact)`` -- the bytes cut
    short where the file ends, ``intact`` when they are whole and
    match their crc."""
    view = memoryview(data)
    offset = start
    for first in range(0, n_events, CHUNK_RECORDS):
        count = min(CHUNK_RECORDS, n_events - first)
        end = offset + _CRC.size + count * RECORD.size
        body = view[offset + _CRC.size:end]
        intact = (end <= len(data) and zlib.crc32(body)
                  == _CRC.unpack_from(data, offset)[0])
        yield first, count, offset, body, intact
        offset = end


def _body_size(n_events: int) -> int:
    """Bytes of the chunks that hold ``n_events`` records."""
    chunks = -(-n_events // CHUNK_RECORDS)
    return chunks * _CRC.size + n_events * RECORD.size


def _unpack(body: memoryview, count: int) -> Tuple[int, ...]:
    """An intact chunk's records as one flat tuple of fields."""
    if count == CHUNK_RECORDS:
        return struct.unpack(_FULL_CHUNK, body)
    # a file's last chunk: compiled for this call only, so the struct
    # module's cache does not keep one large layout per remainder
    return struct.Struct("<" + RECORD.format[1:] * count).unpack(body)


def _strided(run: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """A chunk's flat run of record fields -> its eight field columns
    (the record-crc field dropped)."""
    return [run[k::_WIDTH] for k in range(len(_FIELDS))]


def _check_records(body: memoryview, first: int,
                   base: int) -> Iterator[Tuple[int, int, tuple, str]]:
    """Check a chunk's records one by one: yields ``(index, offset,
    row, reason)`` per record, ``row`` None (and ``reason`` set) for a
    damaged or torn one."""
    size = RECORD.size
    checked = size - _CRC.size
    whole = len(body) // size
    for i in range(whole):
        at = i * size
        row = RECORD.unpack_from(body, at)
        if zlib.crc32(body[at:at + checked]) != row[-1]:
            yield first + i, base + at, None, "record checksum mismatch"
        elif row[0] >= N_KINDS:
            yield (first + i, base + at, None,
                   f"event kind {row[0]} out of range")
        else:
            yield first + i, base + at, row, ""
    if len(body) % size:
        at = whole * size
        yield (first + whole, base + at, None,
               f"torn record ({len(body) - at} of {size} bytes)")


def _v3_chunks(path: str, data: bytes, start: int,
               n_events: int) -> Iterator[List[Tuple[int, ...]]]:
    """Each chunk's records as eight field columns.  The first damaged
    chunk raises, located; so does, once every chunk has been read, the
    first record of an unknown kind."""
    end = start + _body_size(n_events)
    if len(data) > end:
        raise TraceLoadError(path, end, n_events,
                             f"{len(data) - end} bytes after the last "
                             f"record")
    unknown = None
    for first, count, offset, body, intact in _chunks(data, start,
                                                      n_events):
        if not intact:
            _raise_damage(path, first, count, offset, body, n_events)
        columns = _strided(_unpack(body, count))
        kinds = columns[0]
        if unknown is None and max(kinds) >= N_KINDS:
            i = next(i for i, kind in enumerate(kinds) if kind >= N_KINDS)
            unknown = (first + i, kinds[i])
        yield columns
    if unknown is not None:
        index, kind = unknown
        raise TraceLoadError(path, start + record_offset(index), index,
                             f"event kind {kind} out of range")


def _raise_damage(path: str, first: int, count: int, offset: int,
                  body: memoryview, n_events: int) -> None:
    """Locate why a chunk failed its crc and raise it."""
    base = offset + _CRC.size
    for index, at, row, reason in _check_records(body, first, base):
        if row is None:
            raise TraceLoadError(path, at, index, reason)
    found = first + len(body) // RECORD.size
    if found < first + count:
        raise TraceLoadError(path, base + len(body), found,
                             f"file ends after {found} of {n_events} "
                             f"records")
    raise TraceLoadError(path, offset, first,
                         f"chunk checksum mismatch (its records "
                         f"{first}..{found - 1} are intact)")


def _v3_salvage(data: bytes, start: int, n_events: int,
                report: SalvageReport) -> Iterator[List[Sequence]]:
    """Each chunk's readable records as eight field columns: a damaged
    chunk keeps the records whose own crc holds, and a record of an
    unknown kind is skipped."""
    for first, count, offset, body, intact in _chunks(data, start,
                                                      n_events):
        if intact:
            columns = _strided(_unpack(body, count))
            if max(columns[0]) < N_KINDS:
                yield columns
                continue
            kept = [record for record in zip(*columns)
                    if record[0] < N_KINDS]
            report.records_skipped += count - len(kept)
        else:
            kept = []
            for _index, _at, record, _reason in _check_records(
                    body, first, offset + _CRC.size):
                if record is None:
                    report.records_skipped += 1
                else:
                    kept.append(record[:-1])
        yield _columns(kept)


def _inferred_count(size: int) -> int:
    """How many records ``size`` bytes of v3 chunks hold (a torn
    trailing record included, so salvage counts it as skipped)."""
    full, rest = divmod(size, _CHUNK_SIZE)
    partial = max(0, rest - _CRC.size)
    return full * CHUNK_RECORDS + -(-partial // RECORD.size)


# -- v2 ------------------------------------------------------------------------


def _v2_record(line: bytes) -> list:
    """Decode one framed v2 record line to its 8 fields; raises
    ValueError with a human reason on any damage."""
    text = line.decode("utf-8").rstrip("\n")
    length_text, sep1, rest = text.partition(":")
    crc_text, sep2, payload = rest.partition(":")
    if not sep1 or not sep2:
        raise ValueError("missing length:crc framing")
    try:
        length = int(length_text)
        crc = int(crc_text, 16)
    except ValueError:
        raise ValueError("unparseable length/crc prefix") from None
    payload_bytes = payload.encode("utf-8")
    if len(payload_bytes) != length:
        raise ValueError(
            f"payload length {len(payload_bytes)} != framed {length}")
    if zlib.crc32(payload_bytes) != crc:
        raise ValueError("checksum mismatch")
    fields = json.loads(payload)
    if not isinstance(fields, list) or len(fields) != 8:
        raise ValueError("record is not an 8-field array")
    kind = fields[0]
    if not isinstance(kind, int) or not 0 <= kind < N_KINDS:
        raise ValueError(f"event kind {kind!r} out of range")
    return fields


def _v2_lines(data: bytes, start: int) -> Iterator[bytes]:
    body = io.BytesIO(data)
    body.seek(start)
    return iter(body)


def _v2_fields(path: str, data: bytes, start: int,
               header: dict) -> List[Sequence]:
    rows: List[list] = []
    offset = start
    for index, line in enumerate(_v2_lines(data, start)):
        try:
            rows.append(_v2_record(line))
        except ValueError as exc:
            raise TraceLoadError(path, offset, index, str(exc)) from None
        offset += len(line)
    expected = header.get("n_events")
    if expected is not None and expected != len(rows):
        raise TraceLoadError(
            path, offset, len(rows),
            f"file ends after {len(rows)} of {expected} records")
    return _columns(rows)


def _v2_salvage(data: bytes, start: int,
                report: SalvageReport) -> List[Sequence]:
    rows: List[list] = []
    for line in _v2_lines(data, start):
        try:
            rows.append(_v2_record(line))
        except ValueError:
            report.records_skipped += 1
    return _columns(rows)
