"""Checkpoint/rollback controller around a machine + online SVD."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.faults.runtime as faults
import repro.obs as obs
from repro.core.online import OnlineSVD, SvdConfig
from repro.isa.program import Program
from repro.machine.machine import Machine, MachineStatus
from repro.machine.scheduler import Scheduler, SerialScheduler


class SwitchableScheduler(Scheduler):
    """Delegates to a normal scheduler, or to serial mode during recovery."""

    def __init__(self, normal: Scheduler) -> None:
        self.normal = normal
        self._serial = SerialScheduler()
        self.serial_mode = False

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if self.serial_mode:
            return self._serial.pick(runnable, current)
        return self.normal.pick(runnable, current)

    def snapshot(self):
        return (self.serial_mode, self.normal.snapshot())

    def restore(self, state) -> None:
        self.serial_mode, inner = state
        self.normal.restore(inner)


@dataclass
class BerOutcome:
    """Result of a BER-protected run."""

    status: str
    rollbacks: int
    violations_seen: int
    wasted_steps: int
    total_steps: int
    crashed: bool
    #: a region burned through its rollback budget and the run degraded
    #: to serial execution from the last checkpoint onwards
    budget_exhausted: bool = False

    @property
    def overhead_fraction(self) -> float:
        """Fraction of executed steps thrown away by rollbacks."""
        if self.total_steps == 0:
            return 0.0
        return self.wasted_steps / self.total_steps


class BerController:
    """Run a program under SVD-triggered backward error recovery.

    Args:
        program: the compiled program.
        threads: thread instances, as for :class:`Machine`.
        scheduler: the normal (concurrent) scheduler.
        svd_config: detector configuration.
        checkpoint_interval: steps between checkpoints.
        recovery_window: steps executed serially after a rollback before
            resuming the concurrent schedule.
        max_rollbacks: safety valve against livelock on a persistently
            reported (false-positive) site.
        region_rollback_budget: how many rollbacks any single region
            (identified by its first reporting statement) may trigger
            before the controller stops re-trying concurrency there and
            degrades to serial execution for the rest of the run --
            forward progress guaranteed at the cost of parallelism.
    """

    def __init__(self, program: Program,
                 threads: Sequence[Tuple[str, Sequence[int]]],
                 scheduler: Scheduler,
                 svd_config: Optional[SvdConfig] = None,
                 checkpoint_interval: int = 2000,
                 recovery_window: int = 4000,
                 max_rollbacks: int = 50,
                 region_rollback_budget: int = 8) -> None:
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.program = program
        self.svd_config = svd_config if svd_config is not None else SvdConfig()
        self.scheduler = SwitchableScheduler(scheduler)
        # batch_size=1: the controller polls the SVD report after every
        # single step to decide rollbacks, so every emission must reach
        # the detector at once -- a larger window would defer
        # violations to the next flush boundary
        self.machine = Machine(program, threads, scheduler=self.scheduler,
                               batch_size=1)
        self.checkpoint_interval = checkpoint_interval
        self.recovery_window = recovery_window
        self.max_rollbacks = max_rollbacks
        self.region_rollback_budget = region_rollback_budget
        self.rollbacks = 0
        self.violations_seen = 0
        self.wasted_steps = 0
        self.budget_exhausted = False
        #: rollbacks charged per region (first reporting statement; -1
        #: for injected storm rollbacks, which have no statement)
        self._region_rollbacks: Dict[int, int] = {}
        #: permanently serial after a budget exhaustion
        self._serial_forever = False
        # fault injection: pending forced-rollback steps, cheapest-first
        plan = faults.active()
        self._storm_steps: List[int] = (plan.ber_storm_steps()
                                        if plan is not None else [])
        self._svd = self._fresh_svd()

    def _fresh_svd(self) -> OnlineSVD:
        svd = OnlineSVD(self.program, self.svd_config)
        self.machine.observers = [svd]
        return svd

    #: how many periodic checkpoints are retained; the rollback target is
    #: the newest one that predates the violated CU's first access, so the
    #: ring must span at least one full CU (regions are short relative to
    #: checkpoint_interval * CHECKPOINT_RING).
    CHECKPOINT_RING = 16

    def _rollback_target(self, snapshots, report) -> Dict:
        """Newest retained checkpoint at or before the violated CU's birth."""
        births = [row[7] for row in report.rows if row[7] >= 0]
        limit = min(births) if births else -1
        for snapshot in reversed(snapshots):
            if limit < 0 or snapshot["seq"] <= limit:
                return snapshot
        return snapshots[0]

    def run(self, max_steps: Optional[int] = None) -> BerOutcome:
        with obs.span("ber.run"):
            outcome = self._run(max_steps)
        if obs.metrics_enabled():
            registry = obs.metrics()
            registry.add("ber.runs")
            registry.add("ber.rollbacks", outcome.rollbacks)
            registry.add("ber.violations_seen", outcome.violations_seen)
            registry.add("ber.wasted_steps", outcome.wasted_steps)
        return outcome

    def _charge_region(self, region: int) -> None:
        """Charge one rollback against ``region``'s budget; exhaustion
        flips the run to serial-forever (degrade, don't livelock)."""
        count = self._region_rollbacks.get(region, 0) + 1
        self._region_rollbacks[region] = count
        if count >= self.region_rollback_budget and not self._serial_forever:
            self._serial_forever = True
            self.budget_exhausted = True
            obs.add("ber.budget_exhausted")

    def _run(self, max_steps: Optional[int] = None) -> BerOutcome:
        machine = self.machine
        snapshots: List[Dict] = [machine.checkpoint()]
        last_checkpoint_step = machine.steps
        serial_until = -1

        def rollback(snapshot: Dict) -> None:
            nonlocal snapshots, serial_until, last_checkpoint_step
            self.rollbacks += 1
            self.wasted_steps += machine.steps - snapshot["steps"]
            machine.restore(snapshot)
            snapshots = [snapshot]
            self._svd = self._fresh_svd()
            self.scheduler.serial_mode = True
            serial_until = machine.steps + self.recovery_window
            last_checkpoint_step = machine.steps

        while machine.status == MachineStatus.RUNNING:
            if max_steps is not None and machine.steps >= max_steps:
                # stamps STEP_LIMIT and finishes the run: observers get
                # on_finish and the machine drops its step table
                machine.run(max_steps)
                break
            if not machine.step():
                break

            if (machine.steps >= serial_until and self.scheduler.serial_mode
                    and not self._serial_forever):
                self.scheduler.serial_mode = False

            # injected rollback storm: each pending entry at or below the
            # current step forces one rollback (the rewind re-arms the
            # next entry at the same step, so a count-k storm is k
            # consecutive rollbacks of the same region)
            if (self._storm_steps and machine.steps >= self._storm_steps[0]
                    and self.rollbacks < self.max_rollbacks):
                self._storm_steps.pop(0)
                self._charge_region(-1)
                rollback(snapshots[-1])
                continue

            if self._svd.report.dynamic_count > 0:
                report = self._svd.report
                self.violations_seen += report.dynamic_count
                if self.rollbacks >= self.max_rollbacks:
                    # give up on recovery; run on undetected (as a real
                    # deployment would after exhausting its rollback budget)
                    self._svd = self._fresh_svd()
                    continue
                # the first report's statement (VIOLATION_FIELDS loc)
                self._charge_region(report.rows[0][2])
                rollback(self._rollback_target(snapshots, report))
                continue

            if (machine.steps - last_checkpoint_step >= self.checkpoint_interval
                    and not self.scheduler.serial_mode):
                snapshots.append(machine.checkpoint())
                if len(snapshots) > self.CHECKPOINT_RING:
                    snapshots.pop(0)
                last_checkpoint_step = machine.steps

        return BerOutcome(
            status=machine.status,
            rollbacks=self.rollbacks,
            violations_seen=self.violations_seen,
            wasted_steps=self.wasted_steps,
            total_steps=machine.steps + self.wasted_steps,
            crashed=machine.crashed,
            budget_exhausted=self.budget_exhausted,
        )
