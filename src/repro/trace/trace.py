"""Trace recording and queries.

Serialization formats.  Version 2 (what :meth:`Trace.save` writes) is a
JSON header line carrying ``format``/``version``/``n_threads``/
``n_events`` followed by one *framed* record per line::

    <payload-byte-length>:<crc32-8hex>:<json-array-payload>

The length+checksum framing makes corruption detectable per record, so
:meth:`Trace.salvage_load` can skip damaged records, resynchronize on
the next line, and report exactly what was lost
(:class:`SalvageReport`) instead of raising.  Version 1 files (bare
JSON-array lines, header without a ``version`` key) are still read by
both loaders.  Strict loading failures raise :class:`TraceLoadError`
carrying the file path, byte offset, and record index.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.program import Program
from repro.machine.batch import DEFAULT_BATCH_SIZE, EventBatch
from repro.machine.events import (
    EV_ACQUIRE, EV_ALU, EV_BRANCH, EV_CRASH, EV_HALT, EV_JUMP, EV_LOAD,
    EV_OUTPUT, EV_RELEASE, EV_STORE, N_KINDS, Event, MachineObserver,
)


class TraceLoadError(ValueError):
    """A malformed trace file, located precisely.

    Attributes:
        path: the file that failed to load.
        byte_offset: offset of the offending line's first byte.
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
    not present-but-damaged); ``records_skipped`` counts lines that were
    present but undecodable.
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


def _decode_record(line: bytes, version: int) -> list:
    """Decode one record line to its 8 fields; raises ValueError with a
    human reason on any damage."""
    text = line.decode("utf-8").rstrip("\n")
    if version >= 2:
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
    else:
        payload = text
    fields = json.loads(payload)
    if not isinstance(fields, list) or len(fields) != 8:
        raise ValueError("record is not an 8-field array")
    kind = fields[0]
    if not isinstance(kind, int) or not 0 <= kind < N_KINDS:
        raise ValueError(f"event kind {kind!r} out of range")
    return fields


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
        self.events: List[Event] = list(events)
        self.n_threads = n_threads
        #: lazily built columnar form shared by every replay of this
        #: trace (the trace is immutable, so build it once)
        self._whole: Optional[EventBatch] = None

    def __len__(self) -> int:
        return len(self.events)

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
        return len(self.events)

    @property
    def end_seq(self) -> int:
        """The sequence number one past the last event -- what
        ``machine.seq`` was when the recording stopped.  Analyses replayed
        over the trace receive this as their end-of-stream position."""
        return self.events[-1].seq + 1 if self.events else 0

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
        """The trace sliced into columnar :class:`EventBatch` windows.

        The whole trace is columnarized once and cached; windows are
        cheap slices of it, made as the caller walks them, and each
        window's ``to_events`` answer is the corresponding slice of
        :attr:`events` (no re-materialization).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        whole = self._whole
        if whole is None:
            whole = self._whole = EventBatch.from_events(self.events)
        return (whole.slice(start, start + batch_size)
                for start in range(0, whole.count, batch_size))

    # -- serialization ---------------------------------------------------------

    FORMAT_VERSION = 2

    def save(self, path: str) -> None:
        """Write the trace in the framed v2 format (see module doc)."""
        with open(path, "w") as fh:
            header = {"format": "repro-trace",
                      "version": self.FORMAT_VERSION,
                      "n_threads": self.n_threads,
                      "n_events": len(self.events)}
            fh.write(json.dumps(header) + "\n")
            for e in self.events:
                payload = json.dumps([e.kind, e.seq, e.tid, e.pc, e.addr,
                                      e.value, int(e.taken), e.target])
                raw = payload.encode("utf-8")
                fh.write(f"{len(raw)}:{zlib.crc32(raw):08x}:{payload}\n")

    @staticmethod
    def _read_header(path: str, line: bytes) -> Tuple[dict, int]:
        """Parse the header line; returns (header, format version)."""
        try:
            header = json.loads(line.decode("utf-8"))
            if not isinstance(header, dict) or "n_threads" not in header:
                raise ValueError("not a trace header")
        except ValueError as exc:
            raise TraceLoadError(path, 0, -1, str(exc)) from None
        return header, int(header.get("version", 1))

    @staticmethod
    def _link_event(fields: list, program: Program) -> Event:
        kind, seq, tid, pc, addr, value, taken, target = fields
        instr = program.code[pc] if 0 <= pc < len(program.code) else None
        return Event(kind, seq, tid, pc, instr, addr=addr, value=value,
                     taken=bool(taken), target=target)

    @classmethod
    def load(cls, path: str, program: Program) -> "Trace":
        """Strictly load a trace saved by :meth:`save` (either format
        version); the same compiled program must be supplied so events
        re-link to instructions.  Any damage raises
        :class:`TraceLoadError` locating the file, byte offset, and
        record index -- use :meth:`salvage_load` to recover what is
        readable instead."""
        events: List[Event] = []
        with open(path, "rb") as fh:
            header_line = fh.readline()
            header, version = cls._read_header(path, header_line)
            offset = len(header_line)
            index = 0
            for line in fh:
                try:
                    fields = _decode_record(line, version)
                except ValueError as exc:
                    raise TraceLoadError(path, offset, index,
                                         str(exc)) from None
                events.append(cls._link_event(fields, program))
                offset += len(line)
                index += 1
        expected = header.get("n_events")
        if expected is not None and expected != len(events):
            raise TraceLoadError(
                path, offset, len(events),
                f"file ends after {len(events)} of {expected} records")
        return cls(program, events, header["n_threads"])

    @classmethod
    def salvage_load(cls, path: str,
                     program: Program) -> Tuple["Trace", "SalvageReport"]:
        """Recover everything readable from a (possibly damaged) trace.

        Damaged records are skipped and the reader resynchronizes on the
        next line; the companion :class:`SalvageReport` says exactly how
        much was read, skipped, and lost.  With a destroyed header the
        thread count is inferred from the surviving events.
        """
        report = SalvageReport(path=path)
        events: List[Event] = []
        with open(path, "rb") as fh:
            header_line = fh.readline()
            try:
                header, version = cls._read_header(path, header_line)
            except TraceLoadError:
                # assume the modern format and recover what frames parse
                header, version = {}, cls.FORMAT_VERSION
                report.header_ok = False
            for line in fh:
                try:
                    fields = _decode_record(line, version)
                except ValueError:
                    report.records_skipped += 1
                    continue
                events.append(cls._link_event(fields, program))
                report.records_read += 1
        expected = header.get("n_events")
        if expected is not None:
            report.records_lost = max(
                0, expected - report.records_read - report.records_skipped)
        n_threads = header.get("n_threads")
        if n_threads is None:
            n_threads = 1 + max((e.tid for e in events), default=0)
        return cls(program, events, n_threads), report


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
        self.events: List[Event] = []

    def consume_batch(self, batch: EventBatch) -> None:
        """Materialize the window once (shared with any other consumer
        of the same batch) and append the events that fall inside the
        recording window."""
        events = batch.to_events(self._program)
        start, end = self._start_seq, self._end_seq
        if start == 0 and end is None:
            self.events.extend(events)
            return
        self.events.extend(
            e for e in events
            if e.seq >= start and (end is None or e.seq < end))

    def trace(self) -> Trace:
        return Trace(self._program, self.events, self._n_threads)
