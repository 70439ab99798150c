"""Precise online serializability detection (paper §3.3, future work).

The paper deploys the strict-2PL relaxation because it is cheap: "more
accurate detection of serializability violations is possible with higher
detection cost.  We leave exploring this direction to future work."
This module explores it: :class:`PreciseSVD` reuses the identical online
CU inference (the Figure 7 machinery) but replaces the 2PL conflict-flag
check with an *incremental CU conflict graph* -- the database-theory
criterion directly.

Every conflicting pair of accesses from different threads adds an edge
from the earlier access's CU to the later one's; a violation is reported
exactly when an edge closes a cycle, i.e. when the execution provably
stopped being conflict-serializable.  Same-thread CU ordering is implied
by the conflict edges that matter for cycles and is not materialised.

Relative to the 2PL heuristic this detector:

* never reports an execution that is conflict-serializable *with respect
  to the inferred CUs* -- the strict-2PL-gap false positives (e.g. a
  critical-section value used after the lock release) disappear;
* BUT inherits the CU approximation unfiltered: a long-lived CU (a reader
  whose unit is never cut) genuinely cycles with writers it straddles, so
  new false positives appear that the paper's input-blocks-at-stores
  heuristic implicitly suppresses (an old CU stops being *checked* once
  no store depends on it, even though it is still *open*);
* pays graph maintenance on every shared access and a DFS per edge.

The ablation bench quantifies this trade-off -- it is the empirical
argument for the paper's §3.3/§4.3 heuristic choices.  Statistics:
:attr:`edges_added`, :attr:`cycle_checks`, :attr:`nodes_tracked`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.cu import Cu
from repro.core.online import OnlineSVD, SvdConfig
from repro.core.report import ViolationReport
from repro.isa.program import Program
from repro.machine.events import EV_LOAD, EV_STORE


class PreciseSVD(OnlineSVD):
    """Online detector with exact conflict-cycle detection.

    Drop-in replacement for :class:`OnlineSVD`; violations appear in
    :attr:`report` (detector name ``svd-precise``).
    """

    def __init__(self, program: Program,
                 config: Optional[SvdConfig] = None) -> None:
        config = config if config is not None else SvdConfig()
        config.enable_2pl_check = False
        super().__init__(program, config)
        self.report = ViolationReport("svd-precise", program)
        #: conflict-graph successors, keyed by CU uid at insertion time
        self._succ: Dict[int, Set[int]] = {}
        self._cu_by_uid: Dict[int, Cu] = {}
        #: per block: (uid, tid, loc) of the last writing CU
        self._writer: Dict[int, Tuple[int, int, int]] = {}
        #: per block: reading CUs since the last write, deduplicated by
        #: CU uid (a long-lived reader appears once, not once per read)
        self._readers: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        self.edges_added = 0
        self.cycle_checks = 0
        #: bounded search: a DFS visiting more nodes than this gives up
        #: (conservatively missing a potential cycle); keeps detection
        #: cost linear-ish on adversarial conflict densities
        self.max_dfs_nodes = 2000
        self.bounded_aborts = 0

    @property
    def nodes_tracked(self) -> int:
        return len(self._cu_by_uid)

    # -- graph maintenance ---------------------------------------------------

    def _canon_uid(self, uid: int) -> int:
        """Resolve a uid through CU merges, consolidating edge sets."""
        cu = self._cu_by_uid.get(uid)
        if cu is None:
            return uid
        root = cu.resolve()
        if root.uid != uid:
            self._cu_by_uid.setdefault(root.uid, root)
            stale = self._succ.pop(uid, None)
            if stale:
                self._succ.setdefault(root.uid, set()).update(stale)
        return root.uid

    def _register(self, cu: Cu) -> int:
        root = cu.resolve()
        self._cu_by_uid.setdefault(root.uid, root)
        return root.uid

    def _reaches(self, start: int, goal: int) -> bool:
        """Bounded DFS over the conflict graph, resolving merged nodes."""
        self.cycle_checks += 1
        stack = [start]
        seen: Set[int] = set()
        while stack:
            if len(seen) > self.max_dfs_nodes:
                self.bounded_aborts += 1
                return False
            node = self._canon_uid(stack.pop())
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            for succ in self._succ.get(node, ()):
                succ = self._canon_uid(succ)
                if succ not in seen:
                    stack.append(succ)
        return False

    def _add_edge(self, src_uid: int, src_tid: int, src_loc: int,
                  dst: Cu, seq: int, tid: int, loc: int,
                  addr: int) -> None:
        src = self._canon_uid(src_uid)
        dst_uid = self._canon_uid(self._register(dst))
        if src == dst_uid:
            return
        succ = self._succ.setdefault(src, set())
        if dst_uid in succ:
            return
        self.edges_added += 1
        # adding src -> dst closes a cycle iff dst already reaches src
        if self._reaches(dst_uid, src):
            self.report.add_once(
                (seq, tid, loc, addr, "serializability-cycle", src_loc,
                 src_tid, dst.resolve().birth_seq),
                key=(min(src, dst_uid), max(src, dst_uid)))
            return  # keep the graph acyclic so later cycles stay visible
        succ.add(dst_uid)

    # -- event hook -----------------------------------------------------------

    def consume_batch(self, batch) -> None:
        """Drive the inherited SVD state through sub-windows that each
        end at a memory access, then extend the conflict graph from the
        CU that access landed in."""
        start = 0
        for i, (kind, seq, tid, _pc, loc, addr, _value, _taken,
                _target) in enumerate(batch.rows):
            if kind != EV_LOAD and kind != EV_STORE:
                continue
            OnlineSVD.consume_batch(self, batch.slice(start, i + 1))
            start = i + 1
            self._on_access(kind == EV_STORE, seq, tid, loc, addr)
        if start < batch.count:
            OnlineSVD.consume_batch(self, batch.slice(start, batch.count))

    def _on_access(self, is_write: bool, seq: int, tid: int, loc: int,
                   addr: int) -> None:
        cu = self.threads[tid].last_access_cu
        if cu is None:
            return
        uid = self._register(cu)
        block = addr // self.config.block_size
        writer = self._writer.get(block)
        if writer is not None and writer[1] != tid:
            self._add_edge(writer[0], writer[1], writer[2], cu,
                           seq, tid, loc, addr)
        if not is_write:
            self._readers.setdefault(block, {})[uid] = (uid, tid, loc)
            return
        for reader in self._readers.get(block, {}).values():
            if reader[1] != tid:
                self._add_edge(reader[0], reader[1], reader[2], cu,
                               seq, tid, loc, addr)
        self._readers[block] = {}
        self._writer[block] = (uid, tid, loc)
