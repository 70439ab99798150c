"""Lock-order (potential deadlock) detector (RacerX-style, paper §8).

Builds the dynamic lock-order graph: an edge ``l1 -> l2`` is recorded
whenever a thread acquires ``l2`` while holding ``l1``.  A cycle in the
graph is a *potential deadlock*: there exists a schedule in which the
participating threads block each other, even if this particular run got
lucky.  The bank-transfer workload's ordered acquisition keeps the graph
acyclic; swapping the order introduces a cycle.

Streaming split: edges accumulate online from synchronization events
(so the detector only subscribes to lock traffic under the
:class:`repro.engine.DetectorEngine`); the cycle search runs over the
finished graph in :meth:`finish`.  Cycles are deduplicated per
unordered lock pair through
:meth:`repro.core.report.ViolationReport.add_once`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.report import ViolationReport
from repro.engine.analysis import Analysis
from repro.machine.events import EV_ACQUIRE, EV_RELEASE, EV_WAIT, SYNC_KINDS
from repro.trace.trace import Trace


@dataclass(frozen=True)
class LockOrderEdge:
    """``held`` was held while ``acquired`` was taken (witness event)."""

    held: int
    acquired: int
    tid: int
    seq: int
    loc: int


class LockOrderDetector(Analysis):
    """Build the lock-order graph of an execution and report cycles."""

    name = "lockorder"
    interests = SYNC_KINDS

    def __init__(self, program) -> None:
        self.program = program
        self.report = ViolationReport("lock-order", program)
        self._held: Dict[int, List[int]] = {}
        self._seen: Set[Tuple[int, int]] = set()
        self._edges: List[LockOrderEdge] = []

    def start(self, n_threads: int) -> None:
        self.report = ViolationReport("lock-order", self.program)
        self._held = {}
        self._seen = set()
        self._edges = []

    def consume_batch(self, batch) -> None:
        """Walk one window's lock traffic: an Acquire records an edge
        from every lock its thread holds, a Release or Wait drops the
        lock; every other kind skips."""
        held_by = self._held
        seen = self._seen
        edges = self._edges
        acquire = EV_ACQUIRE
        release = EV_RELEASE
        wait = EV_WAIT
        for (kind, seq, tid, _pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if kind == acquire:
                stack = held_by.get(tid)
                if stack is None:
                    stack = held_by[tid] = []
                for lock in stack:
                    if (lock, addr) not in seen:
                        seen.add((lock, addr))
                        edges.append(LockOrderEdge(
                            held=lock, acquired=addr, tid=tid, seq=seq,
                            loc=loc))
                stack.append(addr)
            elif kind == release or kind == wait:
                stack = held_by.get(tid)
                if stack and addr in stack:
                    stack.remove(addr)

    def finish(self, end_seq: int) -> None:
        edges = self._edges
        succ: Dict[int, List[LockOrderEdge]] = {}
        for edge in edges:
            succ.setdefault(edge.held, []).append(edge)

        # find one representative cycle per participating edge pair
        for edge in edges:
            # DFS from edge.acquired looking for edge.held
            stack = [edge.acquired]
            seen: Set[int] = set()
            back: Optional[LockOrderEdge] = None
            while stack and back is None:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                for out in succ.get(node, ()):
                    if out.acquired == edge.held:
                        back = out
                        break
                    stack.append(out.acquired)
            if back is None:
                continue
            self.report.add_once(
                (edge.seq, edge.tid, edge.loc, edge.acquired,
                 "potential-deadlock", back.loc, back.tid, -1),
                key=(min(edge.held, edge.acquired),
                     max(edge.held, edge.acquired)))

    def edges(self, trace: Trace) -> List[LockOrderEdge]:
        """The deduplicated lock-order edges of ``trace``."""
        self.start(trace.n_threads)
        for batch in trace.batches():
            self.consume_batch(batch)
        return list(self._edges)

    def run(self, trace: Trace) -> ViolationReport:
        """Standalone one-shot: stream ``trace`` and return the report."""
        self.edges(trace)
        self.finish(trace.end_seq)
        return self.report
