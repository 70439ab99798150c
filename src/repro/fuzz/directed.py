"""Conflict-directed schedule search (CLOTHO-style, see PAPERS.md).

Random schedule fuzzing wastes most of its budget interleaving threads
at program points that cannot conflict.  This module spends the budget
where violations can actually happen:

1. **Profile**: a handful of cheap runs with a :class:`ConflictProfiler`
   observer build the program's *conflict map* -- the addresses touched
   by two or more threads with at least one write, and the set of pcs
   that access them (frame-local traffic falls out automatically, since
   only one thread ever touches a frame).
2. **Direct**: a :class:`DirectedScheduler` biases its picks toward
   threads whose *next* instruction sits on a conflict pc, so racy
   windows overlap far more often than uniformly random picks manage.
   Under TSO it additionally deprioritises the virtual drain processors,
   holding buffered stores back to widen the store-buffer windows in
   which stale reads occur.
3. **Hunt**: :func:`run_violation_hunt` probes a workload with derived
   (schedule seed, model seed) pairs -- directed or uniformly random --
   and counts validator-manifested violations per probe budget.  Every
   hit carries its recorded schedule, so any finding replays exactly
   with a :class:`~repro.machine.scheduler.ReplayScheduler` and the same
   model seed.

Everything is deterministic: the profiler runs fixed seeds, the directed
scheduler is a pure function of its seed plus the machine state it
inspects, and probe seeds are derived with the campaign's
:func:`~repro.harness.campaign.derive_seed`.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.machine.events import EV_LOAD, EV_STORE, MachineObserver
from repro.machine.memmodel import resolve_model
from repro.machine.scheduler import (RandomScheduler, Scheduler,
                                     check_switch_prob)
from repro.workloads.base import Workload

#: profiling runs used to build the conflict map (seeds 0..N-1)
PROFILE_RUNS = 3
PROFILE_MAX_STEPS = 20_000


class ConflictProfiler(MachineObserver):
    """Collects which addresses see cross-thread conflicting access and
    which pcs touch them."""

    interests = frozenset({EV_LOAD, EV_STORE})

    def __init__(self) -> None:
        self._readers: Dict[int, Set[int]] = defaultdict(set)
        self._writers: Dict[int, Set[int]] = defaultdict(set)
        self._pcs: Dict[int, Set[int]] = defaultdict(set)

    def consume_batch(self, batch) -> None:
        readers, writers, pcs = self._readers, self._writers, self._pcs
        for (kind, _seq, tid, pc, _loc, addr, _value, _taken,
             _target) in batch.rows:
            if kind == EV_STORE:
                writers[addr].add(tid)
            elif kind != EV_LOAD:
                continue
            else:
                readers[addr].add(tid)
            pcs[addr].add(pc)

    def conflict_addrs(self) -> Set[int]:
        """Addresses accessed by >= 2 threads with >= 1 write."""
        addrs: Set[int] = set()
        for addr, writers in self._writers.items():
            touching = writers | self._readers.get(addr, set())
            if len(touching) >= 2:
                addrs.add(addr)
        return addrs

    def conflict_pcs(self) -> FrozenSet[int]:
        """Pcs that access any conflicting address."""
        pcs: Set[int] = set()
        for addr in self.conflict_addrs():
            pcs.update(self._pcs[addr])
        return frozenset(pcs)


def build_conflict_map(workload: Workload, consistency: str = "strict",
                       runs: int = PROFILE_RUNS,
                       max_steps: int = PROFILE_MAX_STEPS) -> FrozenSet[int]:
    """Union the conflict pcs observed over ``runs`` profiling seeds.

    Profiling under strict is fine even when the hunt runs TSO: the
    conflict *sites* are a property of the program's sharing pattern,
    not of the visibility order.
    """
    profiler = ConflictProfiler()
    for seed in range(runs):
        machine = workload.make_machine(
            RandomScheduler(seed=seed, switch_prob=0.4),
            observers=[profiler],
            memmodel=resolve_model(consistency, seed))
        machine.run(max_steps=max_steps)
    return profiler.conflict_pcs()


class DirectedScheduler(Scheduler):
    """Seeded scheduler biased toward conflicting-access interleavings.

    Keeps :class:`RandomScheduler`'s geometric quanta (stickiness
    ``1 - switch_prob``), but on a switch:

    * with probability ``bias``, pick among the runnable threads whose
      next instruction is a conflict pc (when any exist);
    * otherwise, with probability ``hold_drains``, pick among real
      threads only, starving the virtual drain processors so store
      buffers stay full longer (TSO windows widen);
    * else fall back to a uniform pick over everything runnable.

    The machine binds itself via :meth:`bind` at construction (the
    generic scheduler hook); picks inspect only thread pcs and the drain
    base, so the scheduler stays a deterministic function of (seed,
    machine state) and snapshots like any other scheduler.
    """

    def __init__(self, seed: int = 0, conflict_pcs: FrozenSet[int] = frozenset(),
                 switch_prob: float = 0.4, bias: float = 0.7,
                 hold_drains: float = 0.6) -> None:
        check_switch_prob(switch_prob)
        self.seed = seed
        self.conflict_pcs = conflict_pcs
        self.switch_prob = switch_prob
        self.bias = bias
        self.hold_drains = hold_drains
        self._rng = random.Random(seed)
        self._random = self._rng.random
        self._randrange = self._rng.randrange
        self._machine = None

    def bind(self, machine) -> None:
        self._machine = machine

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if (current is not None and current in runnable
                and self._random() >= self.switch_prob):
            return current
        machine = self._machine
        if machine is not None:
            threads = machine.threads
            base = machine._drain_base
            conflict = self.conflict_pcs
            hot = [tid for tid in runnable
                   if tid < base and threads[tid].pc in conflict]
            if hot and self._random() < self.bias:
                return hot[self._randrange(len(hot))]
            if self._random() < self.hold_drains:
                real = [tid for tid in runnable if tid < base]
                if real:
                    return real[self._randrange(len(real))]
        return runnable[self._randrange(len(runnable))]

    def snapshot(self):
        return self._rng.getstate()

    def restore(self, state) -> None:
        self._rng.setstate(state)


@dataclass
class HuntHit:
    """One manifested violation, with everything needed to replay it."""

    probe_index: int
    schedule_seed: int
    model_seed: int
    errors: int
    detail: str
    schedule: List[int] = field(default_factory=list)


@dataclass
class HuntResult:
    """One arm (directed or random) of a violation hunt."""

    workload: str
    mode: str  # "directed" | "random"
    consistency: str
    probes: int
    violations: int = 0
    first_hit: Optional[int] = None
    elapsed: float = 0.0
    hits: List[HuntHit] = field(default_factory=list)
    conflict_pcs: int = 0

    @property
    def rate(self) -> float:
        """Violations found per probe -- the per-budget score."""
        return self.violations / self.probes if self.probes else 0.0


def run_violation_hunt(workload: Workload, probes: int,
                       master_seed: int = 0,
                       consistency: str = "tso",
                       directed: bool = True,
                       switch_prob: float = 0.4,
                       max_steps: int = 20_000,
                       max_hits: int = 25,
                       budget: Optional[float] = None) -> HuntResult:
    """Probe ``workload`` with derived seeds; count manifested violations.

    Each probe runs one seeded schedule against one seeded memory model
    (model seed = schedule seed, so a hit is reproducible from a single
    number).  Directed probes share one conflict map built up front --
    the map is charged to the same budget an equal-probe random arm does
    not pay, which is why the experiment compares equal *probe* counts.
    ``budget`` additionally caps wall-clock seconds; ``result.probes``
    always reflects the probes actually run.
    """
    from repro.harness.campaign import derive_seed

    mode = "directed" if directed else "random"
    result = HuntResult(workload=workload.name, mode=mode,
                        consistency=consistency, probes=0)
    conflict_pcs: FrozenSet[int] = frozenset()
    started = time.perf_counter()
    if directed:
        conflict_pcs = build_conflict_map(workload, consistency="strict")
        result.conflict_pcs = len(conflict_pcs)
    for index in range(probes):
        if (budget is not None
                and time.perf_counter() - started > budget):
            break
        result.probes = index + 1
        schedule_seed = derive_seed(master_seed, workload.name,
                                    f"hunt-{mode}", index)
        if directed:
            scheduler: Scheduler = DirectedScheduler(
                seed=schedule_seed, conflict_pcs=conflict_pcs,
                switch_prob=switch_prob)
        else:
            scheduler = RandomScheduler(seed=schedule_seed,
                                        switch_prob=switch_prob)
        machine = workload.make_machine(
            scheduler, record_schedule=True,
            memmodel=resolve_model(consistency, schedule_seed))
        machine.run(max_steps=max_steps)
        outcome = workload.validate(machine)
        if outcome.manifested:
            result.violations += 1
            if result.first_hit is None:
                result.first_hit = index
            if len(result.hits) < max_hits:
                result.hits.append(HuntHit(
                    probe_index=index,
                    schedule_seed=schedule_seed,
                    model_seed=schedule_seed,
                    errors=outcome.errors,
                    detail=outcome.detail,
                    schedule=list(machine.recorded_schedule)))
    result.elapsed = time.perf_counter() - started
    return result


def compare_hunts(workloads: Sequence[Workload], probes: int,
                  master_seed: int = 0, consistency: str = "tso",
                  switch_prob: float = 0.4,
                  max_steps: int = 20_000,
                  budget: Optional[float] = None) -> List[Tuple[HuntResult,
                                                                HuntResult]]:
    """Run the directed and random arms over each workload with equal
    probe budgets; returns (directed, random) pairs.

    ``budget`` caps the whole comparison's wall-clock seconds, shared
    across arms in order; arms entered after exhaustion run 0 probes.
    """
    pairs = []
    started = time.perf_counter()

    def remaining() -> Optional[float]:
        if budget is None:
            return None
        return max(0.0, budget - (time.perf_counter() - started))

    for workload in workloads:
        directed = run_violation_hunt(
            workload, probes, master_seed=master_seed,
            consistency=consistency, directed=True,
            switch_prob=switch_prob, max_steps=max_steps,
            budget=remaining())
        rand = run_violation_hunt(
            workload, probes, master_seed=master_seed,
            consistency=consistency, directed=False,
            switch_prob=switch_prob, max_steps=max_steps,
            budget=remaining())
        pairs.append((directed, rand))
    return pairs


def describe_comparison(pairs: Sequence[Tuple[HuntResult, HuntResult]]) -> str:
    """Render the directed-vs-random table the CLI and EXPERIMENTS use."""
    lines = [
        f"{'workload':<14} {'mode':<9} {'probes':>6} {'violations':>10} "
        f"{'rate':>7} {'first hit':>9}",
    ]
    for directed, rand in pairs:
        for arm in (directed, rand):
            first = "-" if arm.first_hit is None else str(arm.first_hit)
            lines.append(
                f"{arm.workload:<14} {arm.mode:<9} {arm.probes:>6} "
                f"{arm.violations:>10} {arm.rate:>7.3f} {first:>9}")
    return "\n".join(lines)
