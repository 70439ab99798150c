"""Event batches: the one form of the event stream.

An :class:`EventBatch` is a *mixed-kind* window of consecutive events,
held as a list of row tuples in :data:`ROW_FIELDS` order -- the very
tuples the machine's step closures stage, so no event is copied or
transposed on its way to a consumer.  Rows appear in global sequence
order, so a consumer that walks a batch front to back sees the event
stream in order; each row's ``kind`` is the dispatch key consumers
switch on.

Why mixed-kind windows rather than one buffer per kind: measured
same-kind run lengths in real traces are ~1.2 events, so per-kind
buffers would flush constantly *and* lose the global order every
order-sensitive analysis (SVD, FRD) depends on.  A mixed window keeps
order by construction and pays per window, not per event, for object
allocation, observer calls and dispatch-table probes.

Batches are the only form in which events travel from a source to its
consumers.  They are produced in two places:

* the live machine's emission buffer (:meth:`repro.machine.Machine`
  staging rows and flushing via :meth:`Machine.flush_events`);
* trace replay (:meth:`repro.trace.Trace.batches` slices the one
  batch a trace holds into windows).

and consumed through the ``consume_batch(batch)`` observer/analysis
protocol, the only way an observer or analysis receives events (see
``docs/architecture.md``).  A consumer may receive kinds outside its
declared interests -- batches are shared between consumers, so every
consumer dispatches on each row's kind, ignores kinds it does not
handle, and never mutates the rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.machine.events import Event, N_KINDS

#: default capacity of the live emission buffer and of replay windows
DEFAULT_BATCH_SIZE = 1024

#: one staged row per event: (kind, seq, tid, pc, loc, addr, value,
#: taken, target) -- the full observable payload of an Event
ROW_FIELDS = ("kind", "seq", "tid", "pc", "loc", "addr", "value",
              "taken", "target")


class EventBatch:
    """One flushed window of the event stream, as row tuples.

    Rows are in global sequence order; ``count`` is the window length.
    ``to_events`` builds the equivalent :class:`Event` objects, for the
    offline layer (see :attr:`repro.trace.Trace.events`).
    """

    __slots__ = ("rows", "count", "_kind_counts")

    def __init__(self, rows: List[Tuple]) -> None:
        self.rows = rows
        self.count = len(rows)
        self._kind_counts: Optional[List[int]] = None

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "EventBatch":
        """The rows of existing Event objects."""
        return cls([(e.kind, e.seq, e.tid, e.pc, e.loc, e.addr, e.value,
                     e.taken, e.target) for e in events])

    def slice(self, start: int, stop: int) -> "EventBatch":
        """Rows ``[start, stop)`` as a window of their own (itself when
        the slice covers the whole window)."""
        if start <= 0 and stop >= self.count:
            return self
        return EventBatch(self.rows[start:stop])

    def kind_counts(self) -> List[int]:
        """Events per kind in this window (cached)."""
        counts = self._kind_counts
        if counts is None:
            counts = [0] * N_KINDS
            for row in self.rows:
                counts[row[0]] += 1
            self._kind_counts = counts
        return counts

    def to_events(self, program) -> List[Event]:
        """The window as :class:`Event` objects, each re-linked to its
        instruction ``program.code[pc]``."""
        code = program.code
        ncode = len(code)
        return [Event(kind, seq, tid, pc,
                      code[pc] if 0 <= pc < ncode else None,
                      addr, value, taken, target)
                for kind, seq, tid, pc, _loc, addr, value, taken, target
                in self.rows]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "<EventBatch empty>"
        return (f"<EventBatch {self.count} events "
                f"seq {self.rows[0][1]}..{self.rows[-1][1]}>")
