"""Pre-decoding compiler: program code -> per-pc step closures.

:func:`compile_table` is run once at :class:`~repro.machine.Machine`
construction.  For every pc it builds a closure specialized to that
instruction's class *and* operand kinds: register indices, immediate
values, branch targets, ALU callables, bounds checks and the event-kind
emission entry are all resolved at compile time, so executing one
instruction is a single ``table[pc](thread)`` call with no
``type()``/``isinstance`` dispatch and no operand decoding.  Emitting
an event means appending one flat row tuple to the machine's staging
buffer (see :meth:`repro.machine.Machine.flush_events`); no
:class:`~repro.machine.events.Event` object is ever constructed here.

Specializations compiled here:

* ``Alu`` has four shapes (reg/imm x reg/imm); the imm-imm shape folds
  the result to a constant at compile time.
* ``Load``/``Store`` with immediate addresses hoist the bounds check to
  compile time (an in-range immediate address can never fault, an
  out-of-range one always does); register addresses keep the runtime
  check against the baked memory length (machine memory never grows
  after construction).
* The hot kinds (LOAD/STORE/ALU/BRANCH/JUMP/ACQUIRE/RELEASE) inline the
  masked staging directly in the closure body -- one attribute load on
  the captured ``_KindEmit`` entry decides whether the kind is staged
  at all, with no helper frame.
* Cold instructions (Wait/Notify/Assert/Output/Halt and every crash
  path) route through the machine's helpers (``_emit``, ``_crash``,
  ``_block``, ``_sleep_on``, ...), which keep the runnable set and the
  wait queues.

Every closure returns True when the instruction retired and False when
the thread blocked without retiring (failed Acquire, failed Wait
re-acquire); the machine counts a step only for the former.

Determinism contract: for a given program, schedule, memory model and
observer set, the event stream, recorded schedule, output, crash
records and final memory are pinned by golden digests
(``tests/golden/delivery_fingerprints.json``, checked by
``tests/integration/test_differential_batching.py``).
"""

from __future__ import annotations

from typing import Callable, List

from repro.isa.instructions import (
    ALU_FUNCS, Acquire, Alu, Assert, Branch, Halt, Imm, Jump, Load,
    Notify, NotifyAll, Output, Release, Store, Wait,
)
from repro.machine.events import (
    EV_ACQUIRE, EV_ALU, EV_BRANCH, EV_HALT, EV_JUMP, EV_LOAD, EV_NOTIFY,
    EV_OUTPUT, EV_RELEASE, EV_STORE, EV_WAIT,
)

#: a compiled step function: takes the executing ThreadState, returns
#: True when the instruction retired
StepFn = Callable[[object], bool]


def compile_table(m) -> List[StepFn]:
    """Compile ``m.program.code`` into the per-pc step-closure table.

    The maker set is chosen per memory model: under a model with
    ``inline_strict`` (strict coherence) the memory-touching closures
    inline direct ``memory[addr]`` accesses -- the original, floor-gated
    fast path.  Any other model swaps in the ``_MODEL_MAKERS`` variants
    for Load/Store/Acquire/Release/Wait, which route visibility through
    the model and fence/buffer via the machine's drain helpers.
    """
    makers = _MAKERS
    if not m.memmodel.inline_strict:
        makers = dict(_MAKERS)
        makers.update(_MODEL_MAKERS)
    table: List[StepFn] = []
    for pc, instr in enumerate(m.program.code):
        cls = type(instr)
        maker = makers.get(cls)
        if maker is None:
            raise TypeError(f"unknown instruction {instr!r}")
        table.append(maker(m, instr, pc))
    return table


def _fault_msg(addr: int) -> str:
    return f"memory fault: address {addr} out of range"


# -- ALU ---------------------------------------------------------------------


def _make_alu(m, instr: Alu, pc: int) -> StepFn:
    entry = m._emit_state[EV_ALU]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    fn = ALU_FUNCS[instr.op]
    dest = instr.dest.index
    next_pc = pc + 1
    imm1 = isinstance(instr.src1, Imm)
    imm2 = isinstance(instr.src2, Imm)

    if imm1 and imm2:
        # constant folding: both operands known at compile time
        result = fn(instr.src1.value, instr.src2.value)

        def step(thread):
            thread.regs[dest] = result
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_ALU, seq, thread.tid, pc, loc, -1,
                             result, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True
    elif imm1:
        a = instr.src1.value
        r2 = instr.src2.index

        def step(thread):
            regs = thread.regs
            result = fn(a, regs[r2])
            regs[dest] = result
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_ALU, seq, thread.tid, pc, loc, -1,
                             result, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True
    elif imm2:
        r1 = instr.src1.index
        b = instr.src2.value

        def step(thread):
            regs = thread.regs
            result = fn(regs[r1], b)
            regs[dest] = result
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_ALU, seq, thread.tid, pc, loc, -1,
                             result, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True
    else:
        r1 = instr.src1.index
        r2 = instr.src2.index

        def step(thread):
            regs = thread.regs
            result = fn(regs[r1], regs[r2])
            regs[dest] = result
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_ALU, seq, thread.tid, pc, loc, -1,
                             result, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True

    return step


# -- memory ------------------------------------------------------------------


def _make_load(m, instr: Load, pc: int) -> StepFn:
    entry = m._emit_state[EV_LOAD]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    memory = m.memory
    dest = instr.dest.index
    next_pc = pc + 1

    if isinstance(instr.addr, Imm):
        addr = instr.addr.value
        if not 0 <= addr < len(memory):
            # compile-time bounds check: this pc always faults
            return _make_always_fault(m, instr, addr)

        def step(thread):
            value = memory[addr]
            thread.regs[dest] = value
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_LOAD, seq, thread.tid, pc, loc, addr,
                             value, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True
    else:
        addr_reg = instr.addr.index
        memlen = len(memory)

        def step(thread):
            regs = thread.regs
            addr = regs[addr_reg]
            if not 0 <= addr < memlen:
                m._crash(thread, instr, _fault_msg(addr))
                return True
            value = memory[addr]
            regs[dest] = value
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_LOAD, seq, thread.tid, pc, loc, addr,
                             value, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True

    return step


def _make_store(m, instr: Store, pc: int) -> StepFn:
    entry = m._emit_state[EV_STORE]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    memory = m.memory
    next_pc = pc + 1
    imm_src = isinstance(instr.src, Imm)

    if isinstance(instr.addr, Imm):
        addr = instr.addr.value
        if not 0 <= addr < len(memory):
            return _make_always_fault(m, instr, addr)
        if imm_src:
            value = instr.src.value

            def step(thread):
                memory[addr] = value
                seq = m.seq
                m.seq = seq + 1
                rows = entry.batch
                if rows is not None:
                    rows.append((EV_STORE, seq, thread.tid, pc, loc,
                                 addr, value, False, -1))
                    if len(rows) >= cap:
                        flush()
                thread.pc = next_pc
                return True
        else:
            src = instr.src.index

            def step(thread):
                value = thread.regs[src]
                memory[addr] = value
                seq = m.seq
                m.seq = seq + 1
                rows = entry.batch
                if rows is not None:
                    rows.append((EV_STORE, seq, thread.tid, pc, loc,
                                 addr, value, False, -1))
                    if len(rows) >= cap:
                        flush()
                thread.pc = next_pc
                return True
    else:
        addr_reg = instr.addr.index
        memlen = len(memory)
        if imm_src:
            imm_value = instr.src.value

            def step(thread):
                addr = thread.regs[addr_reg]
                if not 0 <= addr < memlen:
                    m._crash(thread, instr, _fault_msg(addr))
                    return True
                memory[addr] = imm_value
                seq = m.seq
                m.seq = seq + 1
                rows = entry.batch
                if rows is not None:
                    rows.append((EV_STORE, seq, thread.tid, pc, loc,
                                 addr, imm_value, False, -1))
                    if len(rows) >= cap:
                        flush()
                thread.pc = next_pc
                return True
        else:
            src = instr.src.index

            def step(thread):
                regs = thread.regs
                addr = regs[addr_reg]
                if not 0 <= addr < memlen:
                    m._crash(thread, instr, _fault_msg(addr))
                    return True
                value = regs[src]
                memory[addr] = value
                seq = m.seq
                m.seq = seq + 1
                rows = entry.batch
                if rows is not None:
                    rows.append((EV_STORE, seq, thread.tid, pc, loc,
                                 addr, value, False, -1))
                    if len(rows) >= cap:
                        flush()
                thread.pc = next_pc
                return True

    return step


def _make_always_fault(m, instr, addr: int) -> StepFn:
    """A memory access whose immediate address is statically out of
    range: the closure is just the crash."""
    msg = _fault_msg(addr)

    def step(thread):
        m._crash(thread, instr, msg)
        return True

    return step


# -- control flow ------------------------------------------------------------


def _make_branch(m, instr: Branch, pc: int) -> StepFn:
    entry = m._emit_state[EV_BRANCH]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    cond = instr.cond.index
    target = instr.target
    next_pc = pc + 1

    def step(thread):
        value = thread.regs[cond]
        taken = value == 0  # branch-if-false
        seq = m.seq
        m.seq = seq + 1
        rows = entry.batch
        if rows is not None:
            rows.append((EV_BRANCH, seq, thread.tid, pc, loc, -1,
                         value, taken, target))
            if len(rows) >= cap:
                flush()
        thread.pc = target if taken else next_pc
        return True

    return step


def _make_jump(m, instr: Jump, pc: int) -> StepFn:
    entry = m._emit_state[EV_JUMP]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    target = instr.target

    def step(thread):
        seq = m.seq
        m.seq = seq + 1
        rows = entry.batch
        if rows is not None:
            rows.append((EV_JUMP, seq, thread.tid, pc, loc, -1, 0,
                         True, target))
            if len(rows) >= cap:
                flush()
        thread.pc = target
        return True

    return step


# -- synchronization ---------------------------------------------------------


def _make_acquire(m, instr: Acquire, pc: int) -> StepFn:
    entry = m._emit_state[EV_ACQUIRE]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    memory = m.memory
    addr = instr.addr.value
    next_pc = pc + 1

    def step(thread):
        if memory[addr] == 0:
            memory[addr] = thread.tid + 1
            seq = m.seq
            m.seq = seq + 1
            rows = entry.batch
            if rows is not None:
                rows.append((EV_ACQUIRE, seq, thread.tid, pc, loc,
                             addr, 0, False, -1))
                if len(rows) >= cap:
                    flush()
            thread.pc = next_pc
            return True
        m._block(thread, addr)
        return False

    return step


def _make_release(m, instr: Release, pc: int) -> StepFn:
    entry = m._emit_state[EV_RELEASE]
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    memory = m.memory
    addr = instr.addr.value
    next_pc = pc + 1

    def step(thread):
        memory[addr] = 0
        seq = m.seq
        m.seq = seq + 1
        rows = entry.batch
        if rows is not None:
            rows.append((EV_RELEASE, seq, thread.tid, pc, loc, addr, 0,
                         False, -1))
            if len(rows) >= cap:
                flush()
        thread.pc = next_pc
        m._wake_blocked(addr)
        return True

    return step


def _make_wait(m, instr: Wait, pc: int) -> StepFn:
    entry = m._emit_state[EV_ACQUIRE]  # the re-acquire emission
    loc = instr.loc
    cap = m._batch_capacity
    flush = m.flush_events
    memory = m.memory
    addr = instr.addr.value
    next_pc = pc + 1

    def step(thread):
        tid = thread.tid
        if thread.reacquiring:
            # woken: re-acquire the lock before continuing
            if memory[addr] == 0:
                memory[addr] = tid + 1
                thread.reacquiring = False
                seq = m.seq
                m.seq = seq + 1
                rows = entry.batch
                if rows is not None:
                    rows.append((EV_ACQUIRE, seq, tid, pc, loc, addr,
                                 0, False, -1))
                    if len(rows) >= cap:
                        flush()
                thread.pc = next_pc
                return True
            m._block(thread, addr)
            return False
        if memory[addr] != tid + 1:
            m._crash(thread, instr, "wait on a lock the thread does not hold")
            return True
        # atomically release and sleep
        memory[addr] = 0
        m._emit(EV_WAIT, thread, instr, addr=addr)
        m._sleep_on(thread, addr)
        return True

    return step


def _make_notify(m, instr, pc: int) -> StepFn:
    addr = instr.addr.value
    notify_all = type(instr) is NotifyAll
    next_pc = pc + 1

    def step(thread):
        m._emit(EV_NOTIFY, thread, instr, addr=addr)
        queue = m.wait_queues.get(addr)
        if queue:
            wake = len(queue) if notify_all else 1
            for _ in range(wake):
                m._wake_one_waiter(queue)
        thread.pc = next_pc
        return True

    return step


# -- traps, output, halt ------------------------------------------------------


def _make_assert(m, instr: Assert, pc: int) -> StepFn:
    loc = m.program.loc_of(instr)
    text = f" ({loc})" if loc else ""
    msg = f"assertion failed{text}"
    next_pc = pc + 1

    if isinstance(instr.cond, Imm):
        if instr.cond.value == 0:
            # statically false assertion: the closure is the crash
            def step(thread):
                m._crash(thread, instr, msg)
                return True
        else:
            # statically true assertion: a silent no-op (no event)
            def step(thread):
                thread.pc = next_pc
                return True
    else:
        cond = instr.cond.index

        def step(thread):
            if thread.regs[cond] == 0:
                m._crash(thread, instr, msg)
            else:
                thread.pc = next_pc
            return True

    return step


def _make_output(m, instr: Output, pc: int) -> StepFn:
    output = m.output
    next_pc = pc + 1

    if isinstance(instr.src, Imm):
        value = instr.src.value

        def step(thread):
            output.append((thread.tid, value))
            m._emit(EV_OUTPUT, thread, instr, value=value)
            thread.pc = next_pc
            return True
    else:
        src = instr.src.index

        def step(thread):
            value = thread.regs[src]
            output.append((thread.tid, value))
            m._emit(EV_OUTPUT, thread, instr, value=value)
            thread.pc = next_pc
            return True

    return step


def _make_halt(m, instr: Halt, pc: int) -> StepFn:
    def step(thread):
        m._emit(EV_HALT, thread, instr)
        m._halt(thread)
        return True

    return step


_MAKERS = {
    Alu: _make_alu,
    Load: _make_load,
    Store: _make_store,
    Branch: _make_branch,
    Jump: _make_jump,
    Acquire: _make_acquire,
    Release: _make_release,
    Wait: _make_wait,
    Notify: _make_notify,
    NotifyAll: _make_notify,
    Assert: _make_assert,
    Output: _make_output,
    Halt: _make_halt,
}


# -- model-routed variants (non-inline_strict memory models) -------------------
#
# Visibility goes through the machine's memory model, stores may buffer
# instead of publishing, and lock operations fence first.  Emission
# routes through ``m._emit`` rather than inlined staging.  Relaxed
# modes have no perf floor; only the strict makers above are
# BENCH_interp-gated.


def _make_load_model(m, instr: Load, pc: int) -> StepFn:
    load = m.memmodel.load
    dest = instr.dest.index
    next_pc = pc + 1

    if isinstance(instr.addr, Imm):
        addr = instr.addr.value
        if not 0 <= addr < len(m.memory):
            return _make_always_fault(m, instr, addr)

        def step(thread):
            value = load(thread.tid, addr)
            thread.regs[dest] = value
            m._emit(EV_LOAD, thread, instr, addr=addr, value=value)
            thread.pc = next_pc
            return True
    else:
        addr_reg = instr.addr.index
        memlen = len(m.memory)

        def step(thread):
            addr = thread.regs[addr_reg]
            if not 0 <= addr < memlen:
                m._crash(thread, instr, _fault_msg(addr))
                return True
            value = load(thread.tid, addr)
            thread.regs[dest] = value
            m._emit(EV_LOAD, thread, instr, addr=addr, value=value)
            thread.pc = next_pc
            return True

    return step


def _make_store_model(m, instr: Store, pc: int) -> StepFn:
    store = m.memmodel.store
    memlen = len(m.memory)
    next_pc = pc + 1
    imm_addr = isinstance(instr.addr, Imm)
    if imm_addr and not 0 <= instr.addr.value < memlen:
        return _make_always_fault(m, instr, instr.addr.value)
    addr_reg = None if imm_addr else instr.addr.index
    fixed_addr = instr.addr.value if imm_addr else -1
    imm_src = isinstance(instr.src, Imm)
    src_reg = None if imm_src else instr.src.index
    fixed_value = instr.src.value if imm_src else 0

    def step(thread):
        tid = thread.tid
        if addr_reg is None:
            addr = fixed_addr
        else:
            addr = thread.regs[addr_reg]
            if not 0 <= addr < memlen:
                m._crash(thread, instr, _fault_msg(addr))
                return True
        value = fixed_value if src_reg is None else thread.regs[src_reg]
        if store(tid, addr, value, thread.pc, instr):
            m._emit(EV_STORE, thread, instr, addr=addr, value=value)
        else:
            m._store_buffered(tid)
        thread.pc = next_pc
        return True

    return step


def _make_acquire_model(m, instr: Acquire, pc: int) -> StepFn:
    model = m.memmodel
    addr = instr.addr.value
    next_pc = pc + 1

    def step(thread):
        m._fence(thread)  # lock ops are fencing RMWs
        if model.try_acquire(thread.tid, addr):
            m._emit(EV_ACQUIRE, thread, instr, addr=addr)
            thread.pc = next_pc
            return True
        m._block(thread, addr)
        return False

    return step


def _make_release_model(m, instr: Release, pc: int) -> StepFn:
    model = m.memmodel
    addr = instr.addr.value
    next_pc = pc + 1

    def step(thread):
        m._fence(thread)
        model.release(thread.tid, addr)
        m._emit(EV_RELEASE, thread, instr, addr=addr)
        thread.pc = next_pc
        m._wake_blocked(addr)
        return True

    return step


def _make_wait_model(m, instr: Wait, pc: int) -> StepFn:
    model = m.memmodel
    addr = instr.addr.value
    next_pc = pc + 1

    def step(thread):
        tid = thread.tid
        m._fence(thread)
        if thread.reacquiring:
            # woken: re-acquire the lock before continuing
            if model.try_acquire(tid, addr):
                thread.reacquiring = False
                m._emit(EV_ACQUIRE, thread, instr, addr=addr)
                thread.pc = next_pc
                return True
            m._block(thread, addr)
            return False
        if model.peek(addr) != tid + 1:
            m._crash(thread, instr, "wait on a lock the thread does not hold")
            return True
        # atomically release and sleep
        model.release(tid, addr)
        m._emit(EV_WAIT, thread, instr, addr=addr)
        m._sleep_on(thread, addr)
        return True

    return step


_MODEL_MAKERS = {
    Load: _make_load_model,
    Store: _make_store_model,
    Acquire: _make_acquire_model,
    Release: _make_release_model,
    Wait: _make_wait_model,
}
