"""The offline, multi-pass SVD algorithm (paper §4.1, Figures 5 and 6).

Pass 1 scans each thread trace and computes CUs from dependence
predecessors (true + control) and ground-truth shared flags -- both of
which the offline algorithm is allowed to assume, unlike the online
detector which infers them.  Pass 2 assigns the total order (our traces
already carry sequence numbers) and records where each CU finishes.
Pass 3 scans the program trace and reports strict-2PL violations.

The implementation consumes a recorded :class:`repro.trace.Trace` plus a
:class:`repro.pdg.DynamicPdg` (which supplies ``depPred`` and the shared
flags), and emits the same :class:`CuPartition` structure used by the
precise serializability checker, so offline CUs plug into every other
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.report import ViolationReport
from repro.engine.analysis import TraceAnalysis
from repro.machine.events import EV_ALU, EV_BRANCH, EV_LOAD, EV_STORE, Event
from repro.pdg.cu import CuPartition
from repro.pdg.dpdg import CONTROL, TRUE_LOCAL, TRUE_SHARED, DynamicPdg, build_dpdg
from repro.serializability.checker import strict_2pl_violations
from repro.trace.trace import Trace


class _OffCu:
    """Pass-1 CU record (Figure 5's CU_T)."""

    __slots__ = ("stmts", "sh_vars", "active", "merged_into")

    def __init__(self) -> None:
        self.stmts: List[int] = []
        self.sh_vars: Set[int] = set()
        self.active = True
        self.merged_into: Optional["_OffCu"] = None

    def resolve(self) -> "_OffCu":
        cu = self
        while cu.merged_into is not None:
            if cu.merged_into.merged_into is not None:
                cu.merged_into = cu.merged_into.merged_into
            cu = cu.merged_into
        return cu


@dataclass
class OfflineResult:
    """Everything the three passes produce."""

    partitions: Dict[int, CuPartition]
    report: ViolationReport
    cu_count: int

    def cus_of(self, tid: int) -> CuPartition:
        return self.partitions[tid]


class OfflineSVD:
    """Driver for the three-pass offline algorithm.

    Args:
        program: the compiled program (for report rendering).
        merge_control: Figure 5 merges the CUs of *all* dependence
            predecessors, control-dependence predecessors included.  Set
            False to merge via true dependences only, mirroring the
            online implementation's pragmatic restriction (§4.3) -- this
            is the offline-vs-online ablation knob.
    """

    def __init__(self, program, merge_control: bool = True) -> None:
        self.program = program
        self.merge_control = merge_control

    # -- pass 1: CU formation per thread trace (Figure 5) ----------------------

    def _compute_cus(self, trace: Trace, pdg: DynamicPdg) -> Dict[int, CuPartition]:
        merge_kinds = {TRUE_LOCAL, TRUE_SHARED}
        if self.merge_control:
            merge_kinds = merge_kinds | {CONTROL}
        cu_of_event: Dict[int, _OffCu] = {}

        tids = sorted({e.tid for e in trace if e.seq in pdg.events
                       or e.kind in (EV_LOAD, EV_STORE, EV_ALU, EV_BRANCH)})
        for tid in tids:
            for seq in pdg.thread_vertices(tid):
                event = pdg.events[seq]
                preds = pdg.predecessors(seq, kinds=merge_kinds | {TRUE_SHARED})
                pred_cus = []
                for arc in preds:
                    pred_cu = cu_of_event.get(arc.dst)
                    if pred_cu is not None:
                        pred_cus.append(pred_cu.resolve())

                # lines 4-9: a read of a shared variable some predecessor
                # CU wrote deactivates that CU (the crossing-arc cut)
                if event.kind == EV_LOAD:
                    for pred_cu in pred_cus:
                        if pred_cu.active and event.addr in pred_cu.sh_vars:
                            pred_cu.active = False

                # lines 10-13: merge the active predecessor CUs (only
                # those reached through `merge_kinds` arcs) and add s
                active = []
                seen: Set[int] = set()
                for arc in preds:
                    if arc.kind not in merge_kinds:
                        continue
                    pred_cu = cu_of_event.get(arc.dst)
                    if pred_cu is None:
                        continue
                    pred_cu = pred_cu.resolve()
                    if pred_cu.active and id(pred_cu) not in seen:
                        seen.add(id(pred_cu))
                        active.append(pred_cu)
                if active:
                    active.sort(key=lambda c: len(c.stmts), reverse=True)
                    target = active[0]
                    for other in active[1:]:
                        target.stmts.extend(other.stmts)
                        target.sh_vars |= other.sh_vars
                        other.merged_into = target
                else:
                    target = _OffCu()
                target.stmts.append(seq)
                cu_of_event[seq] = target

                # lines 15-16: record shared variables this CU wrote
                if (event.kind == EV_STORE
                        and event.addr in pdg.shared_addresses):
                    target.sh_vars.add(event.addr)

        partitions: Dict[int, CuPartition] = {}
        for tid in tids:
            partition = CuPartition(tid=tid)
            roots: Dict[int, int] = {}
            for seq in pdg.thread_vertices(tid):
                root = cu_of_event[seq].resolve()
                cu_id = roots.setdefault(id(root), len(roots))
                partition.cu_of[seq] = cu_id
                partition.members.setdefault(cu_id, []).append(seq)
            for members in partition.members.values():
                members.sort()
            partitions[tid] = partition
        return partitions

    # -- passes 2 + 3: total order and strict-2PL scan (Figure 6) ------------------

    def run(self, trace: Trace,
            pdg: Optional[DynamicPdg] = None) -> OfflineResult:
        if pdg is None:
            pdg = build_dpdg(trace)
        partitions = self._compute_cus(trace, pdg)
        report = ViolationReport("svd-offline", self.program)
        for violation in strict_2pl_violations(trace, partitions):
            report.add(
                (violation.intruder.seq, violation.victim_access.tid,
                 violation.victim_access.loc, violation.address,
                 "serializability-violation", violation.intruder.loc,
                 violation.intruder.tid, -1))
        cu_count = sum(len(p.members) for p in partitions.values())
        return OfflineResult(partitions=partitions, report=report,
                             cu_count=cu_count)


class OfflineSvdAnalysis(TraceAnalysis):
    """Engine adapter for the batch three-pass algorithm.

    Under the :class:`repro.engine.DetectorEngine` the shared recorded
    trace is injected once for all batch analyses; ``name`` lets the two
    ablation variants ("offline" with control-dependence merging,
    "offline-nc" without) coexist in one engine run.
    """

    def __init__(self, program, merge_control: bool = True,
                 name: str = "offline") -> None:
        super().__init__()
        self.name = name
        self.svd = OfflineSVD(program, merge_control=merge_control)
        self.offline_result: Optional[OfflineResult] = None
        self.report: Optional[ViolationReport] = None

    def start(self, n_threads: int) -> None:
        self.offline_result = None
        self.report = None

    def analyze(self, trace: Trace) -> None:
        self.offline_result = self.svd.run(trace)
        self.report = self.offline_result.report

    def unwrap(self):
        return self.svd
