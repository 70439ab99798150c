"""Instruction and operand definitions.

The machine is a load/store register machine, deliberately SPARC-flavoured
to match the paper's evaluation platform:

* ``Load``    -- read one memory word into a register.
* ``Store``   -- write a register (or immediate) to one memory word.
* ``Alu``     -- arithmetic/logic on two operands into a register.
* ``Branch``  -- conditional branch (taken when the condition is *zero*,
  i.e. "branch-if-false"; the :mod:`repro.lang` code generator always
  branches around the then-block).
* ``Jump``    -- unconditional branch ("BA" in the paper's pseudocode).
* ``Acquire``/``Release`` -- lock primitives.  The machine gives them
  blocking mutual-exclusion semantics and reports them as *synchronization*
  events.  SVD ignores them entirely (the paper: "SVD essentially ignores
  how synchronization is done in programs"), while the FRD happens-before
  detector derives its causal edges from them.
* ``Assert``  -- traps the executing thread when its operand is zero; used
  by workloads to model crashes (e.g. the MySQL segmentation fault of the
  paper's Figure 3).
* ``Output``  -- appends a value to the machine's output channel; used by
  workloads to externalise results (e.g. the Apache access log).
* ``Halt``    -- terminates the executing thread.

Addresses and data operands are either a :class:`Reg` (register index) or
an :class:`Imm` (compile-time constant).  Immediates carry no CU
references in the online detector, exactly as constants carry no
dependences in the paper's dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Reg:
    """A virtual register index, private to the executing thread."""

    index: int

    def __repr__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True)
class Imm:
    """A compile-time integer constant."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]

#: Binary operators understood by :class:`Alu`.  Comparison and logical
#: operators produce 0/1, mirroring condition codes.
ALU_OPS = {
    "+", "-", "*", "/", "%",
    "==", "!=", "<", "<=", ">", ">=",
    "&&", "||", "&", "|", "^",
}


class Instruction:
    """Base class for all instructions.

    Every instruction records the index of the source location that
    produced it (``loc``), which the detectors use for *static*
    deduplication of reports -- two dynamic violations at the same source
    statement count as one static report.
    """

    __slots__ = ("loc",)

    def __init__(self, loc: int = -1) -> None:
        self.loc = loc

    @property
    def mnemonic(self) -> str:
        return type(self).__name__.upper()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__
            if not name.startswith("_")
        )
        return f"{self.mnemonic}({fields})"


class Load(Instruction):
    """``dest <- mem[addr]``."""

    __slots__ = ("dest", "addr")

    def __init__(self, dest: Reg, addr: Operand, loc: int = -1) -> None:
        super().__init__(loc)
        self.dest = dest
        self.addr = addr


class Store(Instruction):
    """``mem[addr] <- src``."""

    __slots__ = ("src", "addr")

    def __init__(self, src: Operand, addr: Operand, loc: int = -1) -> None:
        super().__init__(loc)
        self.src = src
        self.addr = addr


class Alu(Instruction):
    """``dest <- src1 op src2``."""

    __slots__ = ("op", "src1", "src2", "dest")

    def __init__(self, op: str, src1: Operand, src2: Operand, dest: Reg,
                 loc: int = -1) -> None:
        if op not in ALU_OPS:
            raise ValueError(f"unknown ALU op: {op!r}")
        super().__init__(loc)
        self.op = op
        self.src1 = src1
        self.src2 = src2
        self.dest = dest


class Branch(Instruction):
    """Branch to ``target`` when the condition register holds zero."""

    __slots__ = ("cond", "target")

    def __init__(self, cond: Reg, target: int, loc: int = -1) -> None:
        super().__init__(loc)
        self.cond = cond
        self.target = target


class Jump(Instruction):
    """Unconditional branch ("branch-always" / BA)."""

    __slots__ = ("target",)

    def __init__(self, target: int, loc: int = -1) -> None:
        super().__init__(loc)
        self.target = target


class Acquire(Instruction):
    """Blocking acquire of the lock word at an immediate address."""

    __slots__ = ("addr",)

    def __init__(self, addr: Imm, loc: int = -1) -> None:
        super().__init__(loc)
        self.addr = addr


class Release(Instruction):
    """Release of the lock word at an immediate address."""

    __slots__ = ("addr",)

    def __init__(self, addr: Imm, loc: int = -1) -> None:
        super().__init__(loc)
        self.addr = addr


class Wait(Instruction):
    """Condition wait on the lock at an immediate address.

    Atomically releases the lock and sleeps; a ``Notify``/``NotifyAll``
    on the same lock wakes the thread, which then re-acquires the lock
    before continuing.  Executing ``Wait`` without holding the lock
    crashes the thread (as with POSIX condition variables, the paper's
    "monitor" style synchronization).
    """

    __slots__ = ("addr",)

    def __init__(self, addr: Imm, loc: int = -1) -> None:
        super().__init__(loc)
        self.addr = addr


class Notify(Instruction):
    """Wake the longest-waiting thread on the lock's condition (if any)."""

    __slots__ = ("addr",)

    def __init__(self, addr: Imm, loc: int = -1) -> None:
        super().__init__(loc)
        self.addr = addr


class NotifyAll(Instruction):
    """Wake every thread waiting on the lock's condition."""

    __slots__ = ("addr",)

    def __init__(self, addr: Imm, loc: int = -1) -> None:
        super().__init__(loc)
        self.addr = addr


class Assert(Instruction):
    """Trap (crash the thread) when the operand evaluates to zero."""

    __slots__ = ("cond",)

    def __init__(self, cond: Operand, loc: int = -1) -> None:
        super().__init__(loc)
        self.cond = cond


class Output(Instruction):
    """Append the operand's value to the machine output channel."""

    __slots__ = ("src",)

    def __init__(self, src: Operand, loc: int = -1) -> None:
        super().__init__(loc)
        self.src = src


class Halt(Instruction):
    """Terminate the executing thread."""

    __slots__ = ()


#: Machine integers are 64-bit two's complement, like the C server
#: programs the paper targets.  Every value-producing ALU op wraps its
#: result, so register/memory contents and trace serializations stay
#: bounded no matter what a (possibly fuzzer-generated) program does —
#: without the wrap, a self-multiplying loop grows a register by
#: thousands of digits per iteration and a single execution becomes
#: intractable.
INT_BITS = 64
_UWRAP = 1 << INT_BITS
INT_MIN = -(1 << (INT_BITS - 1))
INT_MAX = (1 << (INT_BITS - 1)) - 1


def _rewrap(v: int) -> int:
    """Slow path: reduce an out-of-range result into two's complement."""
    v &= _UWRAP - 1
    return v - _UWRAP if v > INT_MAX else v


def _add(a: int, b: int) -> int:
    v = a + b
    return v if INT_MIN <= v <= INT_MAX else _rewrap(v)


def _sub(a: int, b: int) -> int:
    v = a - b
    return v if INT_MIN <= v <= INT_MAX else _rewrap(v)


def _mul(a: int, b: int) -> int:
    v = a * b
    return v if INT_MIN <= v <= INT_MAX else _rewrap(v)


def _div(a: int, b: int) -> int:
    """Truncating division; by-zero produces 0 rather than trapping, so
    workloads can model defensive code without machine exceptions.
    Pure integer arithmetic: routing the mixed-sign case through float
    division silently rounds once operands outgrow 2**53.  The one
    overflowing case, INT_MIN / -1, wraps like the other ops."""
    if b == 0:
        return 0
    q, r = divmod(a, b)
    if r and (a < 0) != (b < 0):
        q += 1
    return q if INT_MIN <= q <= INT_MAX else _rewrap(q)


def _mod(a: int, b: int) -> int:
    if b == 0:
        return 0
    r = a % b
    return r - b if r and (a < 0) != (b < 0) else r


#: op -> binary callable, each returning a plain int (comparisons and
#: logicals produce 0/1, never bool, so register contents and trace
#: serializations stay type-stable).  The pre-decoded interpreter bakes
#: the resolved callable into each ALU step closure; the compiler's
#: constant folding reaches the same functions through
#: :func:`evaluate_alu`.
ALU_FUNCS = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "%": _mod,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}

assert set(ALU_FUNCS) == ALU_OPS


def evaluate_alu(op: str, a: int, b: int) -> int:
    """Evaluate an ALU operation on two integer operands.

    Division and modulo by zero produce 0 rather than trapping, so
    workloads can model defensive code without machine support for
    exceptions.
    """
    fn = ALU_FUNCS.get(op)
    if fn is None:
        raise ValueError(f"unknown ALU op: {op!r}")
    return fn(a, b)
