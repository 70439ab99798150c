"""The a-posteriori examination log (paper §2.3).

Two record kinds are produced while SVD runs:

* :class:`LogEntry` -- a *communication triple* ``(s, rw, lw)``: a
  statement ``s`` read a variable last written by a remote write ``rw``
  that overwrote an immediately preceding thread-local write ``lw``.
  If the local communication ``lw -> s`` was intended, a likely bug has
  been found (the paper's Figure 3 MySQL bug was discovered this way).
* :class:`CuLogRecord` -- the shape of a CU at the moment it ended
  (its input/output blocks and cut reason), "the log effectively records
  shapes of inferred CUs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.program import Program


@dataclass(frozen=True)
class LogEntry:
    """A ``(s, rw, lw)`` communication triple."""

    tid: int
    reader_seq: int
    reader_loc: int
    address: int
    remote_tid: int
    remote_seq: int
    remote_loc: int
    local_seq: int
    local_loc: int


@dataclass(frozen=True)
class CuLogRecord:
    """Shape of a CU at the moment it was deactivated."""

    tid: int
    uid: int
    birth_seq: int
    end_seq: int
    read_blocks: Tuple[int, ...]
    write_blocks: Tuple[int, ...]
    reason: str  # 'stored-shared-load' | 'remote-true-dep' | 'thread-end'


#: one communication triple as a row tuple, in :class:`LogEntry`'s
#: field order
LOG_ENTRY_FIELDS = ("tid", "reader_seq", "reader_loc", "address",
                    "remote_tid", "remote_seq", "remote_loc", "local_seq",
                    "local_loc")

#: one CU shape as a row tuple, in :class:`CuLogRecord`'s field order
CU_RECORD_FIELDS = ("tid", "uid", "birth_seq", "end_seq", "read_blocks",
                    "write_blocks", "reason")


class PosterioriLog:
    """Accumulates log records and renders the examination report.

    SVD appends row tuples to :attr:`entry_rows`
    (:data:`LOG_ENTRY_FIELDS` order) and :attr:`cu_rows`
    (:data:`CU_RECORD_FIELDS` order); :attr:`entries` and
    :attr:`cu_records` build the objects afresh on each read.
    """

    def __init__(self, program: Optional[Program] = None) -> None:
        self.program = program
        self.entry_rows: List[Tuple] = []
        self.cu_rows: List[Tuple] = []

    @property
    def entries(self) -> List[LogEntry]:
        """The communication triples as :class:`LogEntry` objects."""
        return [LogEntry(*row) for row in self.entry_rows]

    @property
    def cu_records(self) -> List[CuLogRecord]:
        """The CU shapes as :class:`CuLogRecord` objects."""
        return [CuLogRecord(*row) for row in self.cu_rows]

    @property
    def static_entries(self) -> Set[Tuple[int, int, int]]:
        """Distinct communication triples by static statements."""
        return {(row[2], row[6], row[8]) for row in self.entry_rows}

    def entries_for_address(self, address: int) -> List[LogEntry]:
        return [LogEntry(*row) for row in self.entry_rows
                if row[3] == address]

    def suspicious_addresses(self) -> Dict[int, int]:
        """Addresses ranked by how often a local write was overwritten
        remotely before being read back -- candidates for "mistakenly
        shared" variables (the Figure 3 pattern)."""
        counts: Dict[int, int] = {}
        for row in self.entry_rows:
            address = row[3]
            counts[address] = counts.get(address, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))

    def describe(self, limit: int = 20) -> str:
        """Render the examination report a programmer would read."""
        lines = [f"a-posteriori log: {len(self.entry_rows)} communication "
                 f"triples ({len(self.static_entries)} static), "
                 f"{len(self.cu_rows)} CU records"]
        if self.program is None:
            return lines[0]

        def loc_text(loc: int) -> str:
            if 0 <= loc < len(self.program.locs):
                return str(self.program.locs[loc])
            return f"loc {loc}"

        seen: Set[Tuple[int, int, int]] = set()
        shown = 0
        for (_tid, _reader_seq, reader_loc, address, remote_tid, _remote_seq,
             remote_loc, _local_seq, local_loc) in self.entry_rows:
            key = (reader_loc, remote_loc, local_loc)
            if key in seen:
                continue
            seen.add(key)
            name = self.program.name_of_address(address)
            lines.append(
                f"  {name}: read at {{{loc_text(reader_loc)}}} saw "
                f"remote write t{remote_tid} {{{loc_text(remote_loc)}}} "
                f"overwriting local write {{{loc_text(local_loc)}}}")
            shown += 1
            if shown >= limit:
                break
        return "\n".join(lines)
