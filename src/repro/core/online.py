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

A register or control-stack entry holds one CU *reference*, as in
Figure 7, not a set: a LOAD sets its destination to the block's CU, and
an ALU copies its one tracked source.  Only an ALU that joins two
different units holds a ``frozenset`` of the active roots they resolved
to.  A value is resolved (forwarding pointers followed, closed units
dropped) only where it is used: at a store, or at such a join.  A
store whose data, address and control values resolve to at most one
unit -- nearly every store -- checks that unit and keeps it without
calling ``merge_cus``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.cu import Cu, merge_cus
from repro.core.fsm import (
    IDLE, STATE_NAMES, WRITTEN_STATES, on_local_load, on_local_store,
    on_remote_access,
)
from repro.core.posteriori import PosterioriLog
from repro.core.report import ViolationReport
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

#: what a register or control-stack entry holds: one CU reference, or
#: the active roots an ALU joined; ``None`` for no tracked dataflow
Value = Union[Cu, FrozenSet[Cu]]

#: the register-file slot an immediate operand reads: the last one,
#: past every register index, so it always holds None
_IMM = -1

#: :func:`_unit`'s answer when a value resolves to several units
_MANY = object()


def _unit(value: Optional[Value]):
    """The one active unit ``value`` resolves to: None for none, or
    :data:`_MANY` for several."""
    if value is None:
        return None
    if value.__class__ is Cu:
        root = value.resolve()
        return root if root.active else None
    unit = None
    for cu in value:
        root = cu.resolve()
        if root.active and root is not unit:
            if unit is not None:
                return _MANY
            unit = root
    return unit


def _meet(unit, value: Value):
    """Fold ``value`` into ``unit`` (a :func:`_unit` answer)."""
    other = _unit(value)
    if other is None or other is unit:
        return unit
    return other if unit is None else _MANY


def _roots(value: Optional[Value]) -> Set[Cu]:
    """The set of active units ``value`` resolves to."""
    if value is None:
        return set()
    if value.__class__ is Cu:
        value = (value,)
    out: Set[Cu] = set()
    for cu in value:
        root = cu.resolve()
        if root.active:
            out.add(root)
    return out


def _join(a: Value, b: Value) -> Optional[Value]:
    """An ALU's value when its sources hold two different values."""
    roots = _roots(a)
    roots |= _roots(b)
    if len(roots) > 1:
        return frozenset(roots)
    return roots.pop() if roots else None


def _slot(operand) -> int:
    """The register-file slot an operand reads."""
    return operand.index if isinstance(operand, Reg) else _IMM


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
    """The Figure 7 algorithm, one instance per thread/processor.

    It holds what it writes to -- the manager's directory, log and
    report -- but not the manager, so a finished detector is freed by
    reference counting."""

    def __init__(self, tid: int, svd: "OnlineSVD") -> None:
        self.tid = tid
        # config is settled before the machine runs (detectors are built
        # lazily at the first event); cache the per-access flags so the
        # hot handlers skip the attribute chains
        config = svd.config
        self._log_comms = config.log_communications
        self._use_addr_deps = config.use_address_deps
        self._use_ctrl_deps = config.use_control_deps
        self._2pl_check = config.enable_2pl_check
        self._check_all = config.check_all_blocks
        #: the manager's directory: block -> tids tracking it
        self._trackers = svd.trackers
        #: the log's CU rows (CU_RECORD_FIELDS order)
        self._cu_rows = svd.log.cu_rows
        self._report = svd.report
        self.blocks: Dict[int, _Block] = {}
        self.regs: List[Optional[Value]] = [None] * svd._reg_slots
        self.ctrl_stack: List[Tuple[Optional[Value], int]] = []
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
        #: blocks examined by this thread's strict-2PL checks
        self.violation_checks = 0
        self.peak_tracked_blocks = 0
        #: CU of the most recent local memory access (canonical); lets
        #: extensions such as the precise checker attribute accesses
        self.last_access_cu: Optional[Cu] = None

    # -- helpers -----------------------------------------------------------

    def _new_cu(self, seq: int) -> Cu:
        self.cus_created += 1
        cu = Cu(self.tid, seq)
        self.live_cus[cu.uid] = cu
        return cu

    def _track(self, block: int, cu: Cu) -> _Block:
        entry = _Block(cu)
        self.blocks[block] = entry
        self._trackers.setdefault(block, set()).add(self.tid)
        if len(self.blocks) > self.peak_tracked_blocks:
            self.peak_tracked_blocks = len(self.blocks)
        return entry

    def _untrack(self, block: int) -> None:
        del self.blocks[block]
        trackers = self._trackers.get(block)
        if trackers is not None:
            trackers.discard(self.tid)
            if not trackers:
                del self._trackers[block]

    def deactivate(self, cu: Cu, reason: str, end_seq: int) -> None:
        """``deactivate_log_CU``: close a CU, reset its blocks to Idle and
        write its shape to the a-posteriori log."""
        cu = cu.resolve()
        if not cu.active:
            return
        cu.active = False
        self.live_cus.pop(cu.uid, None)
        self.cus_closed += 1
        self._cu_rows.append(
            (self.tid, cu.uid, cu.birth_seq, end_seq, tuple(sorted(cu.rs)),
             tuple(sorted(cu.ws)), reason))
        for block in cu.rs | cu.ws:
            entry = self.blocks.get(block)
            if entry is not None and entry.cu.resolve() is cu:
                self._untrack(block)
        # register and control-stack references to `cu` are filtered
        # lazily via the active flag

    # -- event handlers ------------------------------------------------------

    def on_store(self, seq: int, loc: int, block: int, src_reg: int,
                 addr_reg: int) -> None:
        """Figure 7's store.  Its dataflow side resolves the data,
        address and control values, merges the data units and writes
        the block (FSM, write set, ``local_writes``,
        ``last_access_cu``); its conflict side is the strict-2PL check
        of every unit the values resolve to, made before the merge.
        Remote delivery and ``last_writer`` are the manager's."""
        regs = self.regs
        value = regs[src_reg]
        data = unit = _unit(value)
        if self._use_addr_deps:
            other = regs[addr_reg]
            if other is not None and other is not value:
                unit = _meet(unit, other)
        if self._use_ctrl_deps:
            for other, _reconv in self.ctrl_stack:
                if other is not None and other is not value:
                    unit = _meet(unit, other)
        if unit is _MANY:
            merged = self._merge_store(value, addr_reg, seq, loc)
        else:
            # at most one unit: check it, and keep the data's unit (a
            # store of untracked data starts its own)
            if unit is not None and self._2pl_check:
                self._check_unit(unit, seq, loc)
            merged = data if data is not None else self._new_cu(seq)
        entry = self.blocks.get(block)
        if entry is None:
            entry = self._track(block, merged)
        entry.state = _STORE_STATE[entry.state]
        entry.cu = merged
        merged.add_write(block)
        self.local_writes[block] = (seq, loc)
        self.last_access_cu = merged

    def _merge_store(self, value: Optional[Value], addr_reg: int,
                     seq: int, loc: int) -> Cu:
        """A store where different units meet: check them all, in
        creation order, then ``merge_and_update`` the data units."""
        data_set = _roots(value)
        checked = set(data_set)
        if self._use_addr_deps:
            checked |= _roots(self.regs[addr_reg])
        if self._use_ctrl_deps:
            for other, _reconv in self.ctrl_stack:
                checked |= _roots(other)
        if self._2pl_check:
            # creation order: iterating the raw set would emit
            # same-event violations in identity-hash order, which
            # differs from process to process
            for cu in sorted(checked, key=lambda c: c.uid):
                self._check_unit(cu, seq, loc)
        merged = merge_cus(data_set, self.tid, seq)
        if not data_set:
            self.cus_created += 1
            self.live_cus[merged.uid] = merged
        elif len(data_set) > 1:
            # merged-away units stop being live canonical CUs
            self.cus_merged += len(data_set) - 1
            for cu in data_set:
                if cu is not merged:
                    self.live_cus.pop(cu.uid, None)
        return merged

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
        self.regs[:] = [None] * len(self.regs)
        # deactivation empties `blocks`; sweep any stragglers so the
        # directory holds no stale interest for this thread
        for block in list(self.blocks):
            self._untrack(block)

    # -- checks ------------------------------------------------------------------

    def _check_unit(self, cu: Cu, seq: int, loc: int) -> None:
        """Strict-2PL check of one active unit at a store (Figure 7,
        line 18): report each input block a remote access conflicted
        with, once per unit."""
        blocks = cu.rs if not self._check_all else cu.rs | cu.ws
        self.violation_checks += len(blocks)
        for block in blocks:
            if block in cu.reported_blocks:
                continue
            entry = self.blocks.get(block)
            if entry is None or not entry.conflict:
                continue
            cu.reported_blocks.add(block)
            self._report.add(
                (seq, self.tid, loc, entry.conflict_addr,
                 "serializability-violation", entry.conflict_loc,
                 entry.conflict_tid, cu.birth_seq))


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
        #: per-pc ALU operand decode -- (src1 slot, src2 slot, dest
        #: index), an immediate source reading slot :data:`_IMM`.  ALU
        #: ops are ~half a typical event stream; tabulating the operand
        #: shapes once spares every event the attribute walks and
        #: isinstance checks.
        self._alu_ops: Dict[int, Tuple[int, int, int]] = {
            pc: (_slot(instr.src1), _slot(instr.src2), instr.dest.index)
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Alu)}
        #: per-pc operand decode for the remaining handler kinds, so the
        #: hot path (and the batch loop) never touches an
        #: instruction object: Load dest register, Store (src slot,
        #: addr slot), Branch condition register
        self._load_dest: Dict[int, int] = {
            pc: instr.dest.index
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Load)}
        self._store_ops: Dict[int, Tuple[int, int]] = {
            pc: (_slot(instr.src), _slot(instr.addr))
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Store)}
        self._branch_cond: Dict[int, int] = {
            pc: instr.cond.index
            for pc, instr in enumerate(program.code)
            if isinstance(instr, Branch)}
        #: register-file length: a slot per register index the tables
        #: name, plus the immediate slot after them
        self._reg_slots = 2 + max(
            [*self._load_dest.values(), *self._branch_cond.values(),
             *(i for ops in self._alu_ops.values() for i in ops),
             *(i for ops in self._store_ops.values() for i in ops)],
            default=-1)
        self.threads: Dict[int, _ThreadSvd] = {}
        #: directory: block -> set of thread ids currently tracking it
        self.trackers: Dict[int, Set[int]] = {}
        #: block -> (tid, seq, loc) of its globally last writer
        self.last_writer: Dict[int, Tuple[int, int, int]] = {}
        self.instructions = 0
        #: REMOTE_ACCESS messages delivered through the directory
        self.remote_messages = 0

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
        the same thread the common case.  The ALU, LOAD and BRANCH
        handlers, roughly three quarters of a typical stream, are
        additionally inlined."""
        count = batch.count
        if not count:
            return
        self.instructions += count
        threads_get = self.threads.get
        block_size = self._block_size
        alu_ops = self._alu_ops
        load_dest = self._load_dest
        store_ops = self._store_ops
        reconv_get = self._reconv.get
        branch_cond = self._branch_cond
        use_ctrl_deps = self.config.use_control_deps
        last_writer = self.last_writer
        deliver = self._deliver_remote
        trackers = self.trackers
        log_add = self.log.entry_rows.append
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
        detector = stack = regs = None
        for (kind, seq, tid, pc, loc, addr, _value, _taken,
             _target) in batch.rows:
            if tid != last_tid:
                detector = threads_get(tid)
                if detector is None:
                    detector = self._thread(tid)
                last_tid = tid
                stack = detector.ctrl_stack
                regs = detector.regs
                blocks = detector.blocks
                local_writes = detector.local_writes
                log_comms = detector._log_comms
            if stack:
                while stack and stack[-1][1] == pc:
                    stack.pop()
            if kind == alu:
                # the hottest handler (ALU ops are ~half a typical
                # stream): the destination takes its tracked source's
                # value by reference; only two different values are
                # joined (and resolved)
                src1, src2, dest = alu_ops[pc]
                value = regs[src1]
                other = regs[src2]
                if other is not None and other is not value:
                    value = other if value is None else _join(value, other)
                regs[dest] = value
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
                            log_add((tid, seq, loc, addr, remote[0],
                                     remote[1], remote[2], local[0],
                                     local[1]))
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
                # Cu.resolve and Cu.add_read, inlined: a block's CU is
                # almost always canonical already
                cu = entry.cu
                if cu.merged_into is not None:
                    cu = cu.resolve()
                if block not in cu.ws:
                    cu.rs.add(block)
                regs[load_dest[pc]] = cu
                detector.last_access_cu = cu
                # inlined _deliver_remote early-out: an access leaves
                # its block tracked by the accessor, so the dominant
                # case -- a single tracker, the accessing thread itself
                # -- must not pay the call
                if len(trackers[block]) > 1:
                    deliver(block, False, seq, loc, tid, addr)
            elif kind == store:
                block = addr // block_size
                src_reg, addr_reg = store_ops[pc]
                detector.on_store(seq, loc, block, src_reg, addr_reg)
                if len(trackers[block]) > 1:
                    deliver(block, True, seq, loc, tid, addr)
                last_writer[block] = (tid, seq, loc)
            elif kind == branch:
                # Skipper: push the condition's value until the
                # reconvergence pc; loop-type control flow (no
                # reconvergence point) is not inferred
                if use_ctrl_deps:
                    reconv = reconv_get(pc)
                    if reconv is not None:
                        stack.append((regs[branch_cond[pc]], reconv))
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
    def cus_created(self) -> int:
        return sum(d.cus_created for d in self.threads.values())

    @property
    def cus_closed(self) -> int:
        return sum(d.cus_closed for d in self.threads.values())

    @property
    def cus_merged(self) -> int:
        return sum(d.cus_merged for d in self.threads.values())

    @property
    def violation_checks(self) -> int:
        """Blocks examined by the strict-2PL check across all stores."""
        return sum(d.violation_checks for d in self.threads.values())

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
