"""Columnar event batches: the flat-buffer form of the event stream.

An :class:`EventBatch` is a *mixed-kind* window of consecutive events
held as parallel columns (``kinds``, ``seqs``, ``tids``, ``pcs``,
``locs``, ``addrs``, ``values``, ``takens``, ``targets``) instead of a
list of :class:`~repro.machine.events.Event` objects.  Rows appear in
global sequence order, so a consumer that walks a batch front to back
sees the event stream in order -- the ``kinds`` column is the dispatch
key each consumer switches on.

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
consumer dispatches on the ``kinds`` column and ignores kinds it does
not handle.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.machine.events import Event, N_KINDS

#: default capacity of the live emission buffer and of replay windows
DEFAULT_BATCH_SIZE = 1024

#: one staged row per event: (kind, seq, tid, pc, loc, addr, value,
#: taken, target) -- the full observable payload of an Event
ROW_FIELDS = ("kind", "seq", "tid", "pc", "loc", "addr", "value",
              "taken", "target")

_EMPTY_COLUMNS: Tuple[Tuple, ...] = ((),) * len(ROW_FIELDS)


class EventBatch:
    """One flushed window of the event stream, in columnar form.

    Rows are in global sequence order; ``count`` is the window length.
    ``to_events`` builds the equivalent :class:`Event` objects, for the
    offline layer (see :attr:`repro.trace.Trace.events`).
    """

    __slots__ = ("count", "kinds", "seqs", "tids", "pcs", "locs", "addrs",
                 "values", "takens", "targets", "_kind_counts")

    def __init__(self, columns: Sequence[Sequence]) -> None:
        (self.kinds, self.seqs, self.tids, self.pcs, self.locs,
         self.addrs, self.values, self.takens, self.targets) = columns
        self.count = len(self.kinds)
        self._kind_counts: Optional[List[int]] = None

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple]) -> "EventBatch":
        """Transpose staged row tuples (the live buffer) into columns."""
        if not rows:
            return cls(_EMPTY_COLUMNS)
        return cls(tuple(zip(*rows)))

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "EventBatch":
        """Columnarize existing Event objects."""
        events = list(events)
        if not events:
            return cls(_EMPTY_COLUMNS)
        columns = tuple(zip(*((e.kind, e.seq, e.tid, e.pc, e.loc, e.addr,
                               e.value, e.taken, e.target)
                              for e in events)))
        return cls(columns)

    def columns(self) -> Tuple[Sequence, ...]:
        """The nine columns, in :data:`ROW_FIELDS` order."""
        return (self.kinds, self.seqs, self.tids, self.pcs, self.locs,
                self.addrs, self.values, self.takens, self.targets)

    def rows(self) -> Iterator[Tuple]:
        """The window as row tuples, in :data:`ROW_FIELDS` order."""
        return zip(*self.columns())

    def slice(self, start: int, stop: int) -> "EventBatch":
        """Rows ``[start, stop)`` as a window of their own (itself when
        the slice covers the whole window)."""
        if start <= 0 and stop >= self.count:
            return self
        return EventBatch(tuple(col[start:stop] for col in self.columns()))

    def kind_counts(self) -> List[int]:
        """Events per kind in this window (cached)."""
        counts = self._kind_counts
        if counts is None:
            counts = [0] * N_KINDS
            for kind in self.kinds:
                counts[kind] += 1
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
                for kind, seq, tid, pc, addr, value, taken, target
                in zip(self.kinds, self.seqs, self.tids, self.pcs,
                       self.addrs, self.values, self.takens, self.targets)]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "<EventBatch empty>"
        return (f"<EventBatch {self.count} events "
                f"seq {self.seqs[0]}..{self.seqs[-1]}>")
