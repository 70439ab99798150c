"""Eraser-style lockset detector (Savage et al., paper §8 related work).

Each shared variable should be consistently protected by at least one
lock.  The candidate lockset of a variable is refined at every access to
the intersection with the accessing thread's held locks; an empty
candidate set in a write-exposed state is reported.

State machine per address (as in the Eraser paper):
``VIRGIN -> EXCLUSIVE -> SHARED / SHARED_MODIFIED``; refinement happens
only once the variable leaves its first-owner phase, which suppresses
initialisation false positives.

The detector streams: under the :class:`repro.engine.DetectorEngine` it
subscribes to memory and synchronization events of the shared stream;
:meth:`LocksetDetector.run` remains the standalone one-shot entry point.
Reports are deduplicated per address through
:meth:`repro.core.report.ViolationReport.add_once`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.report import ViolationReport
from repro.engine.analysis import Analysis
from repro.machine.events import (
    EV_ACQUIRE, EV_LOAD, EV_RELEASE, EV_STORE, EV_WAIT, MEMORY_KINDS,
    SYNC_KINDS,
)
from repro.trace.trace import Trace

VIRGIN = 0
EXCLUSIVE = 1
SHARED = 2
SHARED_MODIFIED = 3


@dataclass
class _AddrState:
    state: int = VIRGIN
    owner: int = -1
    candidates: Optional[Set[int]] = None  # None = universe (not refined yet)


class LocksetDetector(Analysis):
    """The streaming lockset algorithm."""

    name = "lockset"
    interests = MEMORY_KINDS | SYNC_KINDS

    def __init__(self, program) -> None:
        self.program = program
        self.report = ViolationReport("lockset", program)
        self._held: Dict[int, Set[int]] = {}
        self._addrs: Dict[int, _AddrState] = {}

    def start(self, n_threads: int) -> None:
        self.report = ViolationReport("lockset", self.program)
        self._held = {}
        self._addrs = {}

    def consume_batch(self, batch) -> None:
        """Run one shared mixed-kind window through the held-lock sets
        and the Eraser FSM; every other kind skips.  A Wait releases
        its lock like a Release."""
        held_by = self._held
        addr_states = self._addrs
        load = EV_LOAD
        store = EV_STORE
        acquire = EV_ACQUIRE
        release = EV_RELEASE
        wait = EV_WAIT
        # per-thread-run cache: scheduler quanta make same-tid runs the
        # common case, so the held-set lookup moves off the access path
        last_tid = -1
        held: Set[int] = set()
        for (kind, seq, tid, _pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if tid != last_tid:
                held = held_by.get(tid)
                if held is None:
                    held = held_by[tid] = set()
                last_tid = tid
            if kind == load:
                is_write = False
            elif kind == store:
                is_write = True
            elif kind == acquire:
                held.add(addr)
                continue
            elif kind == release or kind == wait:
                held.discard(addr)
                continue
            else:
                continue  # alien kind in the shared window
            entry = addr_states.get(addr)
            if entry is None:
                entry = addr_states[addr] = _AddrState()
            if entry.state == VIRGIN:
                entry.state = EXCLUSIVE
                entry.owner = tid
                continue
            if entry.state == EXCLUSIVE:
                if tid == entry.owner:
                    continue
                entry.state = SHARED_MODIFIED if is_write else SHARED
                entry.candidates = set(held)
            else:
                if is_write:
                    entry.state = SHARED_MODIFIED
                entry.candidates &= held
            if entry.state == SHARED_MODIFIED and not entry.candidates:
                self.report.add_once(
                    (seq, tid, loc, addr, "lockset-empty", -1, -1, -1),
                    key=("lockset-empty", addr))

    def run(self, trace: Trace) -> ViolationReport:
        """Standalone one-shot: stream ``trace`` and return the report."""
        self.start(trace.n_threads)
        for batch in trace.batches():
            self.consume_batch(batch)
        self.finish(trace.end_seq)
        return self.report
