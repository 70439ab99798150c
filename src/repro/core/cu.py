"""Online CU representation (paper §4.3).

A CU is represented by two sets of memory blocks -- a read (input) set
and a write set -- rather than by its dynamic instructions ("Represent CU
with memory blocks, not dynamic instructions").  ``merge_and_update``
unions CUs; we implement the "update old CU references" part with
forwarding pointers resolved lazily, so merging is O(smaller set) and
the one CU reference a register, block or control-stack entry holds
stays valid: it is resolved (:meth:`Cu.resolve`) only where it is used.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Optional, Set

_ids = itertools.count(1)


class Cu:
    """One computational unit of one thread."""

    __slots__ = ("uid", "tid", "rs", "ws", "active", "merged_into",
                 "birth_seq", "reported_blocks")

    def __init__(self, tid: int, birth_seq: int) -> None:
        self.uid = next(_ids)
        self.tid = tid
        self.rs: Set[int] = set()       # input blocks (read before written)
        self.ws: Set[int] = set()       # written blocks
        self.active = True
        self.merged_into: Optional["Cu"] = None
        self.birth_seq = birth_seq
        self.reported_blocks: Set[int] = set()  # violation dedup per block

    def resolve(self) -> "Cu":
        """Follow forwarding pointers to the canonical CU (path-halving)."""
        cu = self
        while cu.merged_into is not None:
            if cu.merged_into.merged_into is not None:
                cu.merged_into = cu.merged_into.merged_into
            cu = cu.merged_into
        return cu

    def add_read(self, block: int) -> None:
        """Record an input block: a read not preceded by a CU write."""
        if block not in self.ws:
            self.rs.add(block)

    def add_write(self, block: int) -> None:
        self.ws.add(block)

    @property
    def blocks(self) -> Set[int]:
        return self.rs | self.ws

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "active" if self.active else "closed"
        return (f"<CU{self.uid} t{self.tid} {status} "
                f"rs={sorted(self.rs)} ws={sorted(self.ws)}>")


def merge_cus(cus: Iterable[Cu], tid: int, seq: int) -> Cu:
    """``merge_and_update``: union the given (active) CUs into one.

    Returns the canonical merged CU; with no inputs, a fresh CU is
    created (a store with constant data starts its own unit).
    """
    canonical: list = []
    seen = set()
    for cu in cus:
        root = cu.resolve()
        if root.uid not in seen and root.active:
            seen.add(root.uid)
            canonical.append(root)
    if not canonical:
        return Cu(tid, seq)
    # absorb smaller sets into the largest to bound total work; ties
    # break on creation order (uid) so the canonical choice -- and with
    # it the reported cu_birth_seq -- never depends on set iteration
    # order, which varies across processes with identity-hashed CUs
    canonical.sort(key=lambda c: (-(len(c.rs) + len(c.ws)), c.uid))
    target = canonical[0]
    for other in canonical[1:]:
        target.rs |= other.rs
        target.ws |= other.ws
        target.reported_blocks |= other.reported_blocks
        other.merged_into = target
        other.active = False
    return target
