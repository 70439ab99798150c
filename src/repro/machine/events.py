"""The machine's event stream.

Every retired instruction produces exactly one event, delivered to all
registered observers in global execution order (as rows of an
:class:`repro.machine.batch.EventBatch`; :class:`Event` is the
materialized per-event form recorded traces and per-event analyses
use).  The event order
*is* the paper's program trace (the total order "≺" of §3.1); per-thread
subsequences are the thread traces.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

EV_LOAD = 0
EV_STORE = 1
EV_ALU = 2
EV_BRANCH = 3
EV_JUMP = 4
EV_ACQUIRE = 5
EV_RELEASE = 6
EV_HALT = 7
EV_CRASH = 8
EV_OUTPUT = 9
EV_WAIT = 10
EV_NOTIFY = 11

#: number of distinct event kinds (dense, 0-based -- usable as a
#: dispatch-table size)
N_KINDS = 12

#: every event kind (what an analysis with ``interests = None`` sees)
ALL_KINDS = frozenset(range(N_KINDS))

#: the kinds shared-memory analyses care about
MEMORY_KINDS = frozenset({EV_LOAD, EV_STORE})

#: lock traffic: acquire, release, and wait (which atomically releases)
SYNC_KINDS = frozenset({EV_ACQUIRE, EV_RELEASE, EV_WAIT})

KIND_NAMES = {
    EV_LOAD: "LOAD",
    EV_STORE: "STORE",
    EV_ALU: "ALU",
    EV_BRANCH: "BRANCH",
    EV_JUMP: "JUMP",
    EV_ACQUIRE: "ACQUIRE",
    EV_RELEASE: "RELEASE",
    EV_HALT: "HALT",
    EV_CRASH: "CRASH",
    EV_OUTPUT: "OUTPUT",
    EV_WAIT: "WAIT",
    EV_NOTIFY: "NOTIFY",
}


class Event:
    """One retired dynamic instruction.

    Attributes:
        kind: one of the ``EV_*`` constants.
        seq: global sequence number (position in the program trace).
        tid: executing thread/processor id.
        pc: program counter of the instruction.
        instr: the static :class:`repro.isa.Instruction` (operand registers
            are read from here by observers such as the online SVD).
        loc: static source-location index (``instr.loc``), replicated for
            convenience.
        addr: word address for LOAD/STORE/ACQUIRE/RELEASE; otherwise -1.
        value: value loaded or stored; branch condition value; output value.
        taken: for BRANCH, whether the branch was taken.
        target: for BRANCH/JUMP, the (static) branch target pc.
    """

    __slots__ = ("kind", "seq", "tid", "pc", "instr", "loc", "addr",
                 "value", "taken", "target")

    def __init__(self, kind: int, seq: int, tid: int, pc: int, instr,
                 addr: int = -1, value: int = 0, taken: bool = False,
                 target: int = -1) -> None:
        self.kind = kind
        self.seq = seq
        self.tid = tid
        self.pc = pc
        self.instr = instr
        self.loc = instr.loc if instr is not None else -1
        self.addr = addr
        self.value = value
        self.taken = taken
        self.target = target

    @property
    def is_memory_access(self) -> bool:
        return self.kind in (EV_LOAD, EV_STORE)

    @property
    def is_write(self) -> bool:
        return self.kind == EV_STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = KIND_NAMES.get(self.kind, "?")
        extra = f" addr={self.addr}" if self.addr >= 0 else ""
        return f"<{name} seq={self.seq} t{self.tid} pc={self.pc}{extra}>"


class MachineObserver:
    """Base class for passive machine observers (detectors, recorders).

    Observers must not mutate machine state.  They receive the global
    event stream through :meth:`consume_batch` -- one
    :class:`repro.machine.batch.EventBatch` per flush, rows in global
    order -- and a completion callback via :meth:`on_finish`.

    :attr:`interests` is the observer's *kind mask*: the set of event
    kinds it wants, or None for the full stream.  The machine folds the
    masks of all attached observers into its emission tables, so an
    event kind nobody subscribed to is never even staged (the global
    sequence number still advances, keeping traces, replay and
    checkpoints identical to a fully observed run).  The mask is read
    when the observer is attached -- it must not change afterwards.
    Batches are shared between observers and are *mixed-kind*: a
    consumer dispatches on each row's ``kind`` (``batch.rows``) and
    ignores kinds outside its interests.
    """

    #: event kinds (``EV_*``) to receive, or None for the full stream
    interests: Optional[FrozenSet[int]] = None

    def consume_batch(self, batch) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_finish(self, machine) -> None:
        """Called once when the machine stops; default is a no-op."""
