"""Shared per-event precomputation passes.

Several detectors need the same cheap derived facts about an execution
-- most prominently *which addresses are actually shared* (accessed by
more than one thread).  Before the engine existed, each detector
recomputed those facts in its own private pass over the trace; here they
are ordinary registry analyses, computed once per engine run and
consumed by any number of dependents via ``requires``.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.engine.analysis import Analysis
from repro.machine.events import EV_LOAD, EV_STORE, MEMORY_KINDS


class SharedAddressIndex(Analysis):
    """One-pass address index: accessors, access counts, shared set.

    Registry name ``shared-index``.  Dependents (e.g. the stale-value
    detector) read :attr:`shared_addresses` in their own ``start``,
    after this pass has finished.
    """

    name = "shared-index"
    interests = MEMORY_KINDS

    def __init__(self, program=None) -> None:
        self.program = program
        self.accessors: Dict[int, Set[int]] = {}
        self.access_counts: Dict[int, int] = {}
        self.shared_addresses: Set[int] = set()

    def start(self, n_threads: int) -> None:
        self.accessors = {}
        self.access_counts = {}
        self.shared_addresses = set()

    def consume_batch(self, batch) -> None:
        """Index the window's memory accesses (the shared window carries
        other kinds too; they are skipped)."""
        accessors_by_addr = self.accessors
        counts = self.access_counts
        load = EV_LOAD
        store = EV_STORE
        for (kind, _seq, tid, _pc, _loc, addr, _value, _taken,
             _target) in batch.rows:
            if kind != load and kind != store:
                continue
            accessors = accessors_by_addr.get(addr)
            if accessors is None:
                accessors = accessors_by_addr[addr] = set()
            accessors.add(tid)
            counts[addr] = counts.get(addr, 0) + 1

    def finish(self, end_seq: int) -> None:
        self.shared_addresses = {addr for addr, tids in self.accessors.items()
                                 if len(tids) > 1}

    def run(self, trace) -> Set[int]:
        """Standalone convenience: index ``trace``, return the shared set."""
        self.start(trace.n_threads)
        for batch in trace.batches():
            self.consume_batch(batch)
        self.finish(trace.end_seq)
        return self.shared_addresses
