"""Injectors: where a :class:`FaultPlan` actually touches the system.

Four hook families, matching the plan's site families:

* :class:`StreamInjector` -- transforms the machine's staged event
  rows at every flush (``Machine.flush_events``), so observers see the
  faulted stream; :func:`apply_to_trace` is the same transformation
  over an already recorded :class:`repro.trace.Trace` (applied once, so
  a multi-phase engine replay sees one consistently faulted stream, not
  a re-roll per phase).
* :class:`RaisingConsumer` -- wraps one analysis's ``consume_batch``
  so it raises :class:`InjectedFault` at the Nth event dispatched to
  it, cutting that event's window there; the engine's quarantine path
  must absorb it.
* :func:`corrupt_trace_file` -- flips bytes in / truncates records of
  a *saved* trace file, to exercise the salvaging reader.
* :func:`apply_worker_fault` -- run inside a pool worker child just
  before a task: crash (``os._exit``), hang (sleep past any timeout),
  or slow (brief sleep).

Everything here is deterministic: corruption bytes come from
``plan.corruption_rng(position)``, never ambient randomness.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults.plan import Fault, FaultPlan, InjectedFault
from repro.machine.batch import EventBatch

__all__ = ["StreamInjector", "RaisingConsumer", "apply_to_trace",
           "corrupt_trace_file", "apply_worker_fault", "InjectedFault"]


def _corrupted_row(row: Tuple, plan: FaultPlan, position: int) -> Tuple:
    """A mutated copy of one staged row: seeded scribble over value and
    (for memory accesses) address -- the kinds of damage a lost DMA or
    torn write would do to a trace record."""
    kind, seq, tid, pc, loc, addr, value, taken, target = row
    rng = plan.corruption_rng(position)
    if addr >= 0:
        addr = rng.randrange(0, max(2 * addr + 2, 64))
    value = value ^ rng.getrandbits(16)
    return (kind, seq, tid, pc, loc, addr, value, taken, target)


class StreamInjector:
    """Transforms an event stream according to the plan's ``stream.*``
    faults, addressed by emission ordinal (0-based count of events
    emitted, which unlike ``seq`` never rewinds under BER rollback).

    Works on the staged row tuples of :mod:`repro.machine.batch`: the
    machine runs every flushed window through :meth:`transform`, and
    :func:`apply_to_trace` runs a recorded trace through the same
    method."""

    __slots__ = ("_plan", "_by_ordinal", "_truncate_at", "_ordinal")

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._by_ordinal = {}
        self._truncate_at = None
        for fault in plan.stream_faults():
            if fault.site == "stream.truncate":
                if (self._truncate_at is None
                        or fault.at < self._truncate_at):
                    self._truncate_at = fault.at
            else:
                self._by_ordinal[fault.at] = fault
        self._ordinal = 0

    def transform(self, rows: Sequence[Tuple]) -> List[Tuple]:
        """The rows observers should see in place of ``rows`` (the
        next ``len(rows)`` emissions)."""
        first = self._ordinal
        self._ordinal = first + len(rows)
        if self._truncate_at is not None:
            rows = rows[:max(0, self._truncate_at - first)]
        by_ordinal = self._by_ordinal
        out: List[Tuple] = []
        for ordinal, row in enumerate(rows, first):
            fault = by_ordinal.get(ordinal)
            if fault is None:
                out.append(row)
            elif fault.site == "stream.dup":
                out.extend((row,) * (1 + max(1, fault.count)))
            elif fault.site == "stream.corrupt":
                out.append(_corrupted_row(row, self._plan, ordinal))
            # stream.drop: nothing
        return out


def apply_to_trace(trace, plan: FaultPlan):
    """The :class:`StreamInjector` transformation over a recorded trace:
    returns a new :class:`repro.trace.Trace` (same program / thread
    count) with the plan's ``stream.*`` faults applied once to the
    rows of its batch."""
    from repro.trace.trace import Trace

    rows = StreamInjector(plan).transform(list(trace.batch.rows()))
    return Trace.from_batch(trace.program, EventBatch.from_rows(rows),
                            trace.n_threads)


class RaisingConsumer:
    """Wraps one analysis's ``consume_batch`` so the ``at``-th event
    dispatched to it raises :class:`InjectedFault`.

    Events are counted in the analysis's own view of the stream: the
    kinds it reads (``kinds``, None for all of them).  The window that
    holds the faulting event is cut there -- the analysis consumes the
    rows before it, then the fault is raised with ``row`` set to the
    event's index in the window, so the engine anchors the failure at
    that event.
    """

    __slots__ = ("fault", "inner", "kinds", "dispatched")

    def __init__(self, fault: Fault, inner: Callable[[EventBatch], None],
                 kinds: Optional[Tuple[int, ...]]) -> None:
        self.fault = fault
        self.inner = inner
        self.kinds = kinds
        self.dispatched = 0

    def __call__(self, batch: EventBatch) -> None:
        kinds = self.kinds
        at = self.fault.at
        for row, kind in enumerate(batch.kinds):
            if kinds is None or kind in kinds:
                if self.dispatched == at:
                    break
                self.dispatched += 1
        else:
            self.inner(batch)
            return
        if row:
            self.inner(batch.slice(0, row))
        fault = InjectedFault(
            f"injected analysis.raise in {self.fault.target!r} at "
            f"dispatched event {at} (seq {batch.seqs[row]})")
        fault.row = row
        raise fault


# -- trace-file damage -------------------------------------------------------------


def corrupt_trace_file(path: str, plan: FaultPlan) -> int:
    """Apply the plan's ``trace.*`` faults to a saved v3 trace file in
    place; returns how many faults were applied.

    Record ``i`` is addressed by its byte span, found from the header's
    ``n_events`` and the chunk layout (a position past the last record
    is inert).  ``trace.corrupt`` flips a seeded span of 1-4 bytes
    inside the record, a burst its crc32 always detects;
    ``trace.truncate`` cuts the file in the middle of the record,
    leaving it torn.  A file that is not v3 raises ValueError.
    """
    from repro.trace.trace import RECORD, read_v3_header, record_offset

    faults = plan.trace_faults()
    if not faults:
        return 0
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    start, n_events = read_v3_header(path, data)
    applied = 0
    for fault in sorted(faults, key=lambda f: f.at):
        begin = start + record_offset(fault.at)
        if fault.at >= n_events or begin + RECORD.size > len(data):
            continue
        if fault.site == "trace.truncate":
            del data[begin + RECORD.size // 2:]
            applied += 1
            break
        # trace.corrupt
        rng = plan.corruption_rng(fault.at)
        at = begin + rng.randrange(0, RECORD.size)
        span = min(begin + RECORD.size - at, 1 + rng.randrange(0, 4))
        for i in range(at, at + span):
            data[i] ^= 1 + rng.randrange(0, 255)
        applied += 1
    with open(path, "wb") as fh:
        fh.write(data)
    return applied


# -- worker faults -----------------------------------------------------------------

#: exit code a ``worker.crash`` fault dies with (distinctive, so crash
#: forensics in the pool error outcome show where it came from)
CRASH_EXIT_CODE = 23

#: how long a ``worker.hang`` sleeps -- far past any sane task timeout
HANG_SECONDS = 3600.0


def apply_worker_fault(fault: Fault) -> None:
    """Executed inside a pool worker child, before running the task the
    fault addresses."""
    if fault.site == "worker.crash":
        os._exit(CRASH_EXIT_CODE)
    elif fault.site == "worker.hang":
        time.sleep(HANG_SECONDS)
    elif fault.site == "worker.slow":
        time.sleep(0.1 * max(1, fault.count))
