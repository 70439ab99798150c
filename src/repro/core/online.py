"""The online one-pass Serializability Violation Detector (paper §4.2).

One detector instance runs per processor ("SVD approximates threads with
processors"); the :class:`OnlineSVD` manager routes the machine's global
event stream to per-thread detectors and synthesises REMOTE_ACCESS
messages through a coherence-directory-like interest map, so a thread
only hears about remote accesses to blocks it currently tracks.

Per the paper's pragmatic considerations (§4.3):

* CUs are represented by block read/write sets, not instruction sets;
* CUs are connected (merged) via *true* dependences only -- control
  dependences are consulted for the violation check but do not merge;
* vector/pointer stores contribute *address dependences*: the CUs that
  fed the address computation are also checked at a store;
* only a CU's *input blocks* (read set) are checked for conflicts
  (configurable for the ablation study);
* fixed-size blocks (word-sized by default) approximate variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cu import Cu, merge_cus
from repro.core.fsm import (
    IDLE, STATE_NAMES, WRITTEN_STATES, on_local_load, on_local_store,
    on_remote_access,
)
from repro.core.posteriori import CuLogRecord, LogEntry, PosterioriLog
from repro.core.report import Violation, ViolationReport
from repro.isa.instructions import Alu, Branch, Load, Reg, Store
from repro.isa.program import Program
from repro.machine.events import (
    EV_ALU, EV_BRANCH, EV_CRASH, EV_HALT, EV_LOAD, EV_STORE, EV_WAIT,
    MachineObserver,
)


@dataclass
class SvdConfig:
    """Detector knobs; defaults match the paper's deployed configuration."""

    #: words per memory block ("we use word-size blocks ... to avoid
    #: false sharing", §6.2).  Larger blocks are the false-sharing
    #: ablation.
    block_size: int = 1
    #: check a CU's write set too, not just its input blocks (§4.3
    #: ablation; the paper checks inputs only).
    check_all_blocks: bool = False
    #: propagate address dependences into the store-time check (§4.3).
    use_address_deps: bool = True
    #: consult the Skipper control-dependence stack at stores (§4.2).
    use_control_deps: bool = True
    #: record (s, rw, lw) communication triples for the a-posteriori log.
    log_communications: bool = True
    #: run the strict-2PL conflict check at stores (the paper's detection
    #: heuristic).  :class:`repro.core.precise.PreciseSVD` turns it off to
    #: replace it with exact conflict-cycle detection.
    enable_2pl_check: bool = True
    #: close the waiting thread's CUs at a condition ``wait`` (extension;
    #: the paper predates monitor-aware SVD).  A wait deliberately breaks
    #: the enclosing region's atomicity, so units spanning it otherwise
    #: accumulate legitimate remote conflicts and report 2PL-gap false
    #: positives on monitor-style code.
    cut_at_wait: bool = False


#: FSM transitions pre-tabulated by state number: the per-event if-chain
#: in :mod:`repro.core.fsm` costs a function call on every memory access,
#: so the hot path indexes these instead (fsm.py stays the readable spec
#: and the property tests pin the tables to it).
_LOAD_STATE = tuple(on_local_load(s) for s in sorted(STATE_NAMES))
_STORE_STATE = tuple(on_local_store(s)[0] for s in sorted(STATE_NAMES))
_REMOTE_STATE = tuple(on_remote_access(s) for s in sorted(STATE_NAMES))

#: shared "no tracked dataflow" register value; never mutated (readers
#: only feed it to ``_resolved``, which builds a fresh set)
_NO_CUS: Set[Cu] = frozenset()


class _Block:
    """Per-(thread, block) tracking record; exists only while non-Idle."""

    __slots__ = ("cu", "state", "conflict", "conflict_seq", "conflict_loc",
                 "conflict_tid", "conflict_addr")

    def __init__(self, cu: Cu) -> None:
        self.cu = cu
        self.state = IDLE
        self.conflict = False
        self.conflict_seq = -1
        self.conflict_loc = -1
        self.conflict_tid = -1
        self.conflict_addr = -1


class _ThreadSvd:
    """The Figure 7 algorithm, one instance per thread/processor."""

    def __init__(self, tid: int, manager: "OnlineSVD") -> None:
        self.tid = tid
        self.manager = manager
        self.config = manager.config
        self.program = manager.program
        # config is settled before the machine runs (detectors are built
        # lazily at the first event); cache the per-access flags so the
        # hot handlers skip the attribute chains
        config = self.config
        self._log_comms = config.log_communications
        self._use_addr_deps = config.use_address_deps
        self._use_ctrl_deps = config.use_control_deps
        self._2pl_check = config.enable_2pl_check
        self._check_all = config.check_all_blocks
        self._reconv = manager._reconv
        self._alu_ops = manager._alu_ops
        self._branch_cond = manager._branch_cond
        self.blocks: Dict[int, _Block] = {}
        self.regs: Dict[int, Set[Cu]] = {}
        self.ctrl_stack: List[Tuple[Set[Cu], int]] = []
        #: last local write per block (survives CU closure; feeds the
        #: (s, rw, lw) communication-triple log)
        self.local_writes: Dict[int, Tuple[int, int]] = {}
        #: all active CUs of this thread (a CU can be referenced only by
        #: registers after a const-store takes over its block, so block
        #: entries alone cannot enumerate what thread-end must close)
        self.live_cus: Dict[int, Cu] = {}
        self.cus_created = 0
        self.cus_closed = 0
        self.cus_merged = 0
        self.peak_tracked_blocks = 0
        #: CU of the most recent local memory access (canonical); lets
        #: extensions such as the precise checker attribute accesses
        self.last_access_cu: Optional[Cu] = None

    # -- helpers -----------------------------------------------------------

    def _resolved(self, cus: Set[Cu]) -> Set[Cu]:
        if len(cus) == 1:
            # dominant case: registers almost always carry one CU
            (cu,) = cus
            cu = cu.resolve()
            return {cu} if cu.active else set()
        out: Set[Cu] = set()
        for cu in cus:
            cu = cu.resolve()
            if cu.active:
                out.add(cu)
        return out

    def _reg_cus(self, index: Optional[int]) -> Set[Cu]:
        """Tracked CUs of register ``index`` (None for an immediate
        operand, which carries no dataflow)."""
        if index is not None:
            cus = self.regs.get(index)
            if cus is not None:
                return cus
        return _NO_CUS

    def _pop_reconverged(self, pc: int) -> None:
        while self.ctrl_stack and self.ctrl_stack[-1][1] == pc:
            self.ctrl_stack.pop()

    def _new_cu(self, seq: int) -> Cu:
        self.cus_created += 1
        self.manager.cus_created += 1
        cu = Cu(self.tid, seq)
        self.live_cus[cu.uid] = cu
        return cu

    def _track(self, block: int, cu: Cu) -> _Block:
        entry = _Block(cu)
        self.blocks[block] = entry
        self.manager.register_interest(block, self.tid)
        if len(self.blocks) > self.peak_tracked_blocks:
            self.peak_tracked_blocks = len(self.blocks)
        return entry

    def deactivate(self, cu: Cu, reason: str, end_seq: int) -> None:
        """``deactivate_log_CU``: close a CU, reset its blocks to Idle and
        write its shape to the a-posteriori log."""
        cu = cu.resolve()
        if not cu.active:
            return
        cu.active = False
        self.live_cus.pop(cu.uid, None)
        self.cus_closed += 1
        self.manager.cus_closed += 1
        self.manager.log.add_cu_record(CuLogRecord(
            tid=self.tid, uid=cu.uid, birth_seq=cu.birth_seq,
            end_seq=end_seq, read_blocks=tuple(sorted(cu.rs)),
            write_blocks=tuple(sorted(cu.ws)), reason=reason))
        for block in cu.rs | cu.ws:
            entry = self.blocks.get(block)
            if entry is not None and entry.cu.resolve() is cu:
                del self.blocks[block]
                self.manager.unregister_interest(block, self.tid)
        # register and control-stack references to `cu` are filtered
        # lazily via the active flag

    # -- event handlers ------------------------------------------------------

    def on_store(self, seq: int, loc: int, block: int,
                 src_reg: Optional[int],
                 addr_reg: Optional[int]) -> None:
        data_set = self._resolved(self._reg_cus(src_reg))
        addr_set: Set[Cu] = _NO_CUS
        if self._use_addr_deps:
            addr_set = self._resolved(self._reg_cus(addr_reg))
        ctrl_set: Set[Cu] = _NO_CUS
        if self._use_ctrl_deps and self.ctrl_stack:
            ctrl_set = set()
            for cus, _reconv in self.ctrl_stack:
                ctrl_set |= self._resolved(cus)
        if self._2pl_check:
            if addr_set or ctrl_set:
                self._check_violations(data_set | addr_set | ctrl_set,
                                       seq, loc)
            elif data_set:
                self._check_violations(data_set, seq, loc)

        merged = merge_cus(data_set, self.tid, seq)
        if not data_set:
            self.cus_created += 1
            self.manager.cus_created += 1
        elif len(data_set) > 1:
            # merged-away units stop being live canonical CUs
            absorbed = len(data_set) - 1
            self.cus_merged += absorbed
            self.manager.cus_merged += absorbed
            for cu in data_set:
                if cu is not merged:
                    self.live_cus.pop(cu.uid, None)
        self.live_cus[merged.uid] = merged
        entry = self.blocks.get(block)
        if entry is None:
            entry = self._track(block, merged)
        entry.state = _STORE_STATE[entry.state]
        entry.cu = merged
        merged.add_write(block)
        self.local_writes[block] = (seq, loc)
        self.last_access_cu = merged

    def on_branch(self, pc: int) -> None:
        if not self._use_ctrl_deps:
            return
        reconv = self._reconv.get(pc)
        if reconv is None:
            return  # loop-type control flow is not inferred (Skipper)
        cus = self._resolved(self._reg_cus(self._branch_cond[pc]))
        self.ctrl_stack.append((cus, reconv))

    def on_remote(self, block: int, is_write: bool, seq: int, loc: int,
                  tid: int, addr: int) -> None:
        entry = self.blocks.get(block)
        if entry is None:
            return
        if is_write or entry.state in WRITTEN_STATES:
            entry.conflict = True
            entry.conflict_seq = seq
            entry.conflict_loc = loc
            entry.conflict_tid = tid
            entry.conflict_addr = addr
        new_state, cut = _REMOTE_STATE[entry.state]
        if cut:
            self.deactivate(entry.cu, "remote-true-dep", seq)
        else:
            entry.state = new_state

    def on_thread_end(self, seq: int) -> None:
        for cu in list(self.live_cus.values()):
            self.deactivate(cu, "thread-end", seq)
        self.ctrl_stack.clear()
        self.regs.clear()
        # deactivation empties `blocks`; sweep any stragglers so the
        # directory holds no stale interest for this thread
        for block in list(self.blocks):
            del self.blocks[block]
            self.manager.unregister_interest(block, self.tid)

    # -- checks and logging ------------------------------------------------------

    def _check_violations(self, cus: Set[Cu], seq: int, loc: int) -> None:
        """Strict-2PL check at a store (Figure 7, line 18).

        CUs are visited in creation order: iterating the raw set would
        emit same-event violations in identity-hash order, which differs
        from process to process and breaks replay determinism.
        """
        ordered = cus if len(cus) < 2 else sorted(cus, key=lambda c: c.uid)
        for cu in ordered:
            if not cu.active:
                continue
            blocks = cu.rs if not self._check_all else cu.rs | cu.ws
            self.manager.violation_checks += len(blocks)
            for block in blocks:
                if block in cu.reported_blocks:
                    continue
                entry = self.blocks.get(block)
                if entry is None or not entry.conflict:
                    continue
                cu.reported_blocks.add(block)
                self.manager.report.add(Violation(
                    detector="svd", seq=seq, tid=self.tid,
                    loc=loc, address=entry.conflict_addr,
                    kind="serializability-violation",
                    other_loc=entry.conflict_loc,
                    other_tid=entry.conflict_tid,
                    cu_birth_seq=cu.birth_seq))


class OnlineSVD(MachineObserver):
    """Manager: per-thread detectors + the remote-access directory.

    Attach to a :class:`repro.machine.Machine` as an observer, run the
    machine, then inspect :attr:`report` (violations) and :attr:`log`
    (the a-posteriori log).
    """

    def __init__(self, program: Program,
                 config: Optional[SvdConfig] = None) -> None:
        self.program = program
        self.config = config if config is not None else SvdConfig()
        if self.config.block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.report = ViolationReport("svd", program)
        self.log = PosterioriLog(program)
        #: block size cached off the config (hot-path divisor)
        self._block_size = self.config.block_size
        #: per-pc Skipper reconvergence points, precomputed for every
        #: Branch in the program (the probe is pure in pc)
        self._reconv: Dict[int, Optional[int]] = {
            pc: program.reconvergence_of_branch(pc)
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Branch)}
        #: per-pc ALU operand decode -- (src1 reg index or None, src2
        #: reg index or None, dest index).  ALU ops are ~half a typical
        #: event stream; tabulating the operand shapes once spares every
        #: event the attribute walks and isinstance checks.
        self._alu_ops: Dict[int, Tuple[Optional[int], Optional[int], int]] = {
            pc: (instr.src1.index if isinstance(instr.src1, Reg) else None,
                 instr.src2.index if isinstance(instr.src2, Reg) else None,
                 instr.dest.index)
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Alu)}
        #: per-pc operand decode for the remaining handler kinds, so the
        #: hot path (and the batch loop) never touches an
        #: instruction object: Load dest register, Store (src reg or
        #: None, addr reg or None), Branch condition register
        self._load_dest: Dict[int, int] = {
            pc: instr.dest.index
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Load)}
        self._store_ops: Dict[int, Tuple[Optional[int], Optional[int]]] = {
            pc: (instr.src.index if isinstance(instr.src, Reg) else None,
                 instr.addr.index if isinstance(instr.addr, Reg) else None)
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Store)}
        self._branch_cond: Dict[int, int] = {
            pc: instr.cond.index
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Branch)}
        self.threads: Dict[int, _ThreadSvd] = {}
        #: directory: block -> set of thread ids currently tracking it
        self.trackers: Dict[int, Set[int]] = {}
        #: block -> (tid, seq, loc) of its globally last writer
        self.last_writer: Dict[int, Tuple[int, int, int]] = {}
        self.instructions = 0
        self.cus_created = 0
        self.cus_closed = 0
        self.cus_merged = 0
        #: REMOTE_ACCESS messages delivered through the directory
        self.remote_messages = 0
        #: blocks examined by the strict-2PL check across all stores
        self.violation_checks = 0

    # -- directory ---------------------------------------------------------------

    def register_interest(self, block: int, tid: int) -> None:
        self.trackers.setdefault(block, set()).add(tid)

    def unregister_interest(self, block: int, tid: int) -> None:
        trackers = self.trackers.get(block)
        if trackers is not None:
            trackers.discard(tid)
            if not trackers:
                del self.trackers[block]

    def _thread(self, tid: int) -> _ThreadSvd:
        detector = self.threads.get(tid)
        if detector is None:
            detector = _ThreadSvd(tid, self)
            self.threads[tid] = detector
        return detector

    # -- event routing --------------------------------------------------------------

    def consume_batch(self, batch) -> None:
        """Route one window of the global stream to the per-thread
        detectors, one tight loop per window that unpacks each row
        tuple in place (events are never materialized).

        Every event first pops the thread's reconverged control-stack
        entries.  ALU, LOAD, STORE and BRANCH drive dataflow; WAIT cuts
        the thread's CUs under ``cut_at_wait``; HALT/CRASH close them.
        JUMP / ACQUIRE / RELEASE / OUTPUT carry no dataflow for SVD (it
        ignores how synchronization is done).

        Two loop-level tricks on top of the scalar handlers: each row
        is unpacked once in the ``for`` target instead of subscripted
        per field, and the per-thread detector (plus its never-
        reassigned ``ctrl_stack``/``regs`` objects) is re-fetched only
        when the tid actually changes -- scheduler quanta make runs of
        the same thread the common case.  The ALU and LOAD handlers,
        roughly two thirds of a typical stream, are additionally
        inlined."""
        count = batch.count
        if not count:
            return
        self.instructions += count
        threads_get = self.threads.get
        block_size = self._block_size
        load_dest = self._load_dest
        store_ops = self._store_ops
        last_writer = self.last_writer
        deliver = self._deliver_remote
        trackers_get = self.trackers.get
        log_add = self.log.add_entry
        load_state = _LOAD_STATE
        cut_at_wait = self.config.cut_at_wait
        alu = EV_ALU
        load = EV_LOAD
        store = EV_STORE
        branch = EV_BRANCH
        wait = EV_WAIT
        halt = EV_HALT
        crash = EV_CRASH
        last_tid = -1
        detector = stack = regs = alu_ops = None
        for (kind, seq, tid, pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if tid != last_tid:
                detector = threads_get(tid)
                if detector is None:
                    detector = self._thread(tid)
                last_tid = tid
                stack = detector.ctrl_stack
                regs = detector.regs
                alu_ops = detector._alu_ops
                blocks = detector.blocks
                local_writes = detector.local_writes
                log_comms = detector._log_comms
            if stack:
                while stack and stack[-1][1] == pc:
                    stack.pop()
            if kind == alu:
                # the hottest handler (ALU ops are ~half a typical
                # stream): the no-dataflow case -- neither source
                # register carries a tracked CU -- allocates nothing
                src1, src2, dest = alu_ops[pc]
                cus1 = regs.get(src1) if src1 is not None else None
                cus2 = regs.get(src2) if src2 is not None else None
                if not cus1 and not cus2:
                    if dest in regs:
                        del regs[dest]
                else:
                    result = detector._resolved(cus1) if cus1 else set()
                    if cus2:
                        result |= detector._resolved(cus2)
                    regs[dest] = result
            elif kind == load:
                block = addr // block_size
                # (s, rw, lw) communication-triple logging (paper
                # §2.3): a read that sees a remote write overwriting
                # an earlier local write
                if log_comms:
                    remote = last_writer.get(block)
                    if remote is not None and remote[0] != tid:
                        local = local_writes.get(block)
                        if local is not None and local[0] < remote[1]:
                            log_add(LogEntry(
                                tid=tid, reader_seq=seq,
                                reader_loc=loc, address=addr,
                                remote_tid=remote[0],
                                remote_seq=remote[1],
                                remote_loc=remote[2],
                                local_seq=local[0],
                                local_loc=local[1]))
                entry = blocks.get(block)
                state = entry.state if entry is not None else IDLE
                new_state, cut = load_state[state]
                if cut:
                    detector.deactivate(entry.cu, "stored-shared-load",
                                        seq)
                    entry = None  # the block was reset by the cut
                if entry is None:
                    entry = detector._track(block,
                                            detector._new_cu(seq))
                entry.state = new_state
                cu = entry.cu.resolve()
                cu.add_read(block)
                regs[load_dest[pc]] = {cu}
                detector.last_access_cu = cu
                # inlined _deliver_remote early-out: the accessor
                # tracks its own block, so the dominant case is a
                # single tracker -- the accessing thread itself -- and
                # must not pay the call
                trackers = trackers_get(block)
                if trackers is not None and (
                        len(trackers) != 1 or tid not in trackers):
                    deliver(block, False, seq, loc, tid, addr)
            elif kind == store:
                block = addr // block_size
                src_reg, addr_reg = store_ops[pc]
                detector.on_store(seq, loc, block, src_reg, addr_reg)
                trackers = trackers_get(block)
                if trackers is not None and (
                        len(trackers) != 1 or tid not in trackers):
                    deliver(block, True, seq, loc, tid, addr)
                last_writer[block] = (tid, seq, loc)
            elif kind == branch:
                detector.on_branch(pc)
            elif kind == wait:
                if cut_at_wait:
                    for cu in list(detector.live_cus.values()):
                        detector.deactivate(cu, "wait", seq)
            elif kind == halt or kind == crash:
                detector.on_thread_end(seq)

    def _deliver_remote(self, block: int, is_write: bool, seq: int,
                        loc: int, source_tid: int, addr: int) -> None:
        trackers = self.trackers.get(block)
        if not trackers:
            return
        threads = self.threads
        if len(trackers) == 1:
            # dominant case: one tracker.  Extract it before delivering
            # (delivery may cut the CU and mutate the directory entry),
            # skipping the per-memory-event snapshot copy entirely.
            (tid,) = trackers
            if tid != source_tid:
                self.remote_messages += 1
                threads[tid].on_remote(block, is_write, seq, loc,
                                       source_tid, addr)
            return
        # several trackers: delivery can unregister interest mid-walk,
        # so iterate a snapshot
        for tid in tuple(trackers):
            if tid != source_tid:
                self.remote_messages += 1
                threads[tid].on_remote(block, is_write, seq, loc,
                                       source_tid, addr)

    def finish(self, end_seq: int) -> None:
        """Close all still-open CUs at the end of the run."""
        for detector in self.threads.values():
            detector.on_thread_end(end_seq)

    def on_finish(self, machine) -> None:
        self.finish(machine.seq)

    # -- statistics --------------------------------------------------------------

    @property
    def open_cus(self) -> int:
        """Live canonical CUs: created minus deactivated minus absorbed."""
        return self.cus_created - self.cus_closed - self.cus_merged

    def cus_per_million(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cus_created * 1_000_000.0 / self.instructions

    def tracked_state_words(self) -> int:
        """Rough memory-overhead proxy: total tracked block entries."""
        return sum(len(d.blocks) for d in self.threads.values())
