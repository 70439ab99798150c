"""The Frontier Race Detector (paper §6.2).

FRD works in two passes over a recorded trace:

1. **Frontier pass** -- without using any synchronization knowledge,
   compute the *tightest* races: conflicting access pairs not causally
   ordered by program order plus previously observed conflicting
   accesses (Choi-Min race frontier).  In the paper a programmer then
   annotates each frontier race as data or synchronization; here the
   machine's lock events are the ground-truth synchronization
   annotation, so the annotation step is automatic.
2. **Happens-before pass** -- standard Lamport happens-before data-race
   detection: lock release->acquire edges (plus program order) define
   causality; conflicting accesses not ordered by it are data races.

The happens-before pass is a streaming :class:`repro.engine.Analysis`:
under the :class:`repro.engine.DetectorEngine` it consumes the shared
event stream (live or replayed) alongside every other detector;
:meth:`FrontierRaceDetector.run` remains the standalone one-shot entry
point.  Dynamic reports are per racy access instance; static
deduplication is by the (kind, source statement) key, via
:meth:`repro.core.report.ViolationReport.static_keys`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.report import ViolationReport
from repro.detectors.vector_clock import VectorClock
from repro.engine.analysis import Analysis
from repro.machine.events import (
    EV_ACQUIRE, EV_LOAD, EV_RELEASE, EV_STORE, EV_WAIT, Event,
    MEMORY_KINDS, SYNC_KINDS,
)
from repro.trace.trace import Trace


@dataclass(frozen=True)
class FrontierRace:
    """A tightest (frontier) conflicting pair, earlier access first."""

    first_seq: int
    first_loc: int
    first_tid: int
    second_seq: int
    second_loc: int
    second_tid: int
    address: int


def frontier_races(trace: Trace) -> List[FrontierRace]:
    """Pass 1: frontier races, computed with no synchronization knowledge.

    Vector clocks carry program order; every observed conflicting pair
    adds a causal edge *after* the pair itself has been classified, so a
    pair is a frontier race iff it is not ordered by earlier conflicts.
    """
    n = trace.n_threads
    clocks = [VectorClock(n) for _ in range(n)]
    for tid in range(n):
        clocks[tid].tick(tid)
    # per address: last write and reads-since-write, as (tid, VC, seq, loc)
    last_write: Dict[int, Tuple[int, VectorClock, int, int]] = {}
    reads: Dict[int, List[Tuple[int, VectorClock, int, int]]] = {}
    races: List[FrontierRace] = []

    def check_and_order(prev: Tuple[int, VectorClock, int, int],
                        event: Event) -> None:
        prev_tid, prev_vc, prev_seq, prev_loc = prev
        if prev_tid == event.tid:
            return
        current = clocks[event.tid]
        if not prev_vc.happens_before(current) and prev_vc != current:
            races.append(FrontierRace(
                first_seq=prev_seq, first_loc=prev_loc, first_tid=prev_tid,
                second_seq=event.seq, second_loc=event.loc,
                second_tid=event.tid, address=event.addr))
        # conflict edge: the earlier access now happens before us
        current.join(prev_vc)

    for event in trace:
        if event.kind == EV_LOAD:
            prev = last_write.get(event.addr)
            if prev is not None:
                check_and_order(prev, event)
            reads.setdefault(event.addr, []).append(
                (event.tid, clocks[event.tid].copy(), event.seq, event.loc))
            clocks[event.tid].tick(event.tid)
        elif event.kind == EV_STORE:
            prev = last_write.get(event.addr)
            if prev is not None:
                check_and_order(prev, event)
            for read in reads.get(event.addr, ()):
                check_and_order(read, event)
            reads[event.addr] = []
            last_write[event.addr] = (
                event.tid, clocks[event.tid].copy(), event.seq, event.loc)
            clocks[event.tid].tick(event.tid)
    return races


class FrontierRaceDetector(Analysis):
    """Pass 2: happens-before data races with known synchronization."""

    name = "frd"
    interests = MEMORY_KINDS | SYNC_KINDS

    def __init__(self, program) -> None:
        self.program = program
        self.report = ViolationReport("frd", program)
        self._clocks: List[VectorClock] = []
        self._lock_clocks: Dict[int, VectorClock] = {}
        self._last_write: Dict[int, Tuple[int, VectorClock, int, int]] = {}
        self._reads: Dict[int, List[Tuple[int, VectorClock, int, int]]] = {}
        # per-thread frozen copy of the clock, valid until the next sync
        # op mutates it; recorded access tuples share the snapshot, which
        # is safe because nothing ever mutates a recorded clock
        self._snapshots: List[Optional[VectorClock]] = []

    def start(self, n_threads: int) -> None:
        self.report = ViolationReport("frd", self.program)
        self._clocks = [VectorClock(n_threads) for _ in range(n_threads)]
        for tid in range(n_threads):
            self._clocks[tid].tick(tid)
        self._lock_clocks = {}
        self._last_write = {}
        self._reads = {}
        self._snapshots = [None] * n_threads

    def _race(self, prev: Tuple[int, VectorClock, int, int], tid: int,
              seq: int, loc: int, addr: int) -> None:
        prev_tid, prev_vc, _prev_seq, prev_loc = prev
        if prev_tid == tid:
            return
        if not prev_vc.happens_before(self._clocks[tid]):
            self.report.add((seq, tid, loc, addr, "data-race", prev_loc,
                             prev_tid, -1))

    def consume_batch(self, batch) -> None:
        """Advance the vector clocks over one shared mixed-kind window
        (kinds outside :attr:`interests` fall through the dispatch
        chain untouched).  A Wait atomically releases its lock, so it
        carries the same happens-before edge as a Release; the woken
        side re-acquires and joins the lock clock via its ACQUIRE."""
        clocks = self._clocks
        lock_clocks = self._lock_clocks
        last_write = self._last_write
        reads = self._reads
        snapshots = self._snapshots
        race = self._race
        load = EV_LOAD
        store = EV_STORE
        acquire = EV_ACQUIRE
        release = EV_RELEASE
        wait = EV_WAIT
        for (kind, seq, tid, _pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if kind == load:
                prev = last_write.get(addr)
                # the prev[0] != tid guard is _race's first early-out,
                # hoisted so same-thread re-accesses skip the call
                if prev is not None and prev[0] != tid:
                    race(prev, tid, seq, loc, addr)
                lst = reads.get(addr)
                if lst is None:
                    lst = reads[addr] = []
                vc = snapshots[tid]
                if vc is None:
                    vc = snapshots[tid] = clocks[tid].copy()
                lst.append((tid, vc, seq, loc))
            elif kind == store:
                prev = last_write.get(addr)
                if prev is not None and prev[0] != tid:
                    race(prev, tid, seq, loc, addr)
                for read in reads.get(addr, ()):
                    if read[0] != tid:
                        race(read, tid, seq, loc, addr)
                reads[addr] = []
                vc = snapshots[tid]
                if vc is None:
                    vc = snapshots[tid] = clocks[tid].copy()
                last_write[addr] = (tid, vc, seq, loc)
            elif kind == acquire:
                held = lock_clocks.get(addr)
                if held is not None:
                    clocks[tid].join(held)
                    snapshots[tid] = None
            elif kind == release or kind == wait:
                vc = snapshots[tid]
                if vc is None:
                    vc = clocks[tid].copy()
                lock_clocks[addr] = vc
                clocks[tid].tick(tid)
                snapshots[tid] = None

    def run(self, trace: Trace) -> ViolationReport:
        """Standalone one-shot: stream ``trace`` and return the report."""
        self.start(trace.n_threads)
        for batch in trace.batches():
            self.consume_batch(batch)
        self.finish(trace.end_seq)
        return self.report
