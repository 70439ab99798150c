"""Static control-flow and control-dependence analysis.

The d-PDG's control-dependence arcs (paper §3.1) require knowing, for
each instruction, which conditional branches control its execution.  We
compute the classical relation: instruction ``a`` is control dependent on
branch ``b`` iff ``a`` postdominates some successor of ``b`` but does not
strictly postdominate ``b`` (Ferrante-Ottenstein-Warren).  Postdominators
are computed with the standard iterative dataflow algorithm on the
reversed CFG.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Branch, Halt, Jump
from repro.isa.program import Program

#: Virtual exit node id (every Halt flows here, as does falling off the end).
EXIT = -1


def build_cfg(program: Program) -> Dict[int, List[int]]:
    """Successor map over pcs, with a virtual ``EXIT`` sink."""
    succ: Dict[int, List[int]] = {EXIT: []}
    n = len(program.code)
    for pc, instr in enumerate(program.code):
        if isinstance(instr, Halt):
            succ[pc] = [EXIT]
        elif isinstance(instr, Jump):
            succ[pc] = [instr.target]
        elif isinstance(instr, Branch):
            fall = pc + 1 if pc + 1 < n else EXIT
            succ[pc] = sorted({instr.target, fall})
        else:
            succ[pc] = [pc + 1 if pc + 1 < n else EXIT]
    return succ


def postdominators(succ: Dict[int, List[int]]) -> Dict[int, Set[int]]:
    """Full postdominator sets per node (iterative dataflow).

    ``pdom[n]`` contains ``n`` itself.  Nodes that cannot reach EXIT
    (possible only with pathological unstructured code) keep overly large
    sets, which errs toward *fewer* control dependences -- the
    conservative direction for CU inference.
    """
    nodes = list(succ)
    all_nodes = set(nodes)
    pdom: Dict[int, Set[int]] = {n: set(all_nodes) for n in nodes}
    pdom[EXIT] = {EXIT}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == EXIT:
                continue
            succs = succ[n]
            if succs:
                new = set.intersection(*(pdom[s] for s in succs))
            else:
                new = set()
            new = new | {n}
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    return pdom


class ControlDependence:
    """The static control-dependence relation of a program.

    ``controllers(pc)`` returns the set of branch pcs that ``pc`` is
    control dependent on.  For the structured code MiniSMP generates this
    is the stack of enclosing ``if``/``while``/``for`` conditions.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        succ = build_cfg(program)
        pdom = postdominators(succ)
        self._controllers: Dict[int, Set[int]] = {}
        for b, instr in enumerate(program.code):
            if not isinstance(instr, Branch):
                continue
            for s in succ[b]:
                # every node on the pdom path of s that does not strictly
                # postdominate b is control dependent on b
                for a in pdom.get(s, ()):  # a postdominates s
                    if a == EXIT:
                        continue
                    if a != b and a in pdom[b]:
                        continue  # strictly postdominates b -> not dependent
                    self._controllers.setdefault(a, set()).add(b)

    def controllers(self, pc: int) -> Set[int]:
        return self._controllers.get(pc, set())

    def is_control_dependent(self, pc: int, branch_pc: int) -> bool:
        return branch_pc in self.controllers(pc)
