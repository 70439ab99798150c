"""BER controller unit tests."""

import gc
import weakref

import pytest

from repro.ber import BerController, BerOutcome, SwitchableScheduler
from repro.lang import compile_source
from repro.machine import MachineStatus, RandomScheduler, SerialScheduler
from repro.workloads import apache_log
from tests.conftest import COUNTER_LOCKED, COUNTER_RACE


def make_controller(source, threads, seed=1, switch=0.5, **kwargs):
    prog = compile_source(source)
    return BerController(prog, threads,
                         RandomScheduler(seed=seed, switch_prob=switch),
                         **kwargs)


class TestSwitchableScheduler:
    def test_delegates_to_normal(self):
        sched = SwitchableScheduler(SerialScheduler())
        assert sched.pick([0, 1], None) == 0

    def test_serial_mode_sticks_to_current(self):
        sched = SwitchableScheduler(RandomScheduler(seed=0, switch_prob=1.0))
        sched.serial_mode = True
        assert sched.pick([0, 1], 1) == 1

    def test_snapshot_roundtrip(self):
        sched = SwitchableScheduler(RandomScheduler(seed=0))
        state = sched.snapshot()
        sched.serial_mode = True
        sched.pick([0, 1], None)
        sched.restore(state)
        assert not sched.serial_mode

    def test_restore_replays_the_inner_pick_stream(self):
        """A rollback must rewind the delegate's randomness too: after
        restore, the scheduler re-makes exactly the picks it made the
        first time."""
        sched = SwitchableScheduler(RandomScheduler(seed=7,
                                                    switch_prob=0.9))
        for _ in range(4):
            sched.pick([0, 1, 2], 0)
        state = sched.snapshot()
        first = [sched.pick([0, 1, 2], 0) for _ in range(12)]
        sched.restore(state)
        assert [sched.pick([0, 1, 2], 0) for _ in range(12)] == first

    def test_restore_reinstates_serial_mode(self):
        sched = SwitchableScheduler(RandomScheduler(seed=1,
                                                    switch_prob=1.0))
        sched.serial_mode = True
        state = sched.snapshot()
        sched.serial_mode = False
        sched.pick([0, 1], 0)
        sched.restore(state)
        assert sched.serial_mode
        # serial mode sticks with the current thread
        assert sched.pick([0, 1], 1) == 1

    def test_snapshot_is_isolated_from_later_picks(self):
        """The snapshot is a value, not a reference: picking after
        snapshotting must not mutate the captured state."""
        sched = SwitchableScheduler(RandomScheduler(seed=3,
                                                    switch_prob=0.8))
        state = sched.snapshot()
        burned = [sched.pick([0, 1, 2], 0) for _ in range(20)]
        sched.restore(state)
        replay = [sched.pick([0, 1, 2], 0) for _ in range(20)]
        assert replay == burned


class TestBerOutcomeOverhead:
    @staticmethod
    def outcome(wasted, total):
        return BerOutcome(status=MachineStatus.FINISHED, rollbacks=1,
                          violations_seen=1, wasted_steps=wasted,
                          total_steps=total, crashed=False)

    def test_zero_steps_is_zero_overhead(self):
        # a run that never stepped (e.g. immediate deadlock) must not
        # divide by zero
        assert self.outcome(0, 0).overhead_fraction == 0.0

    def test_all_wasted(self):
        # everything executed was rolled back: the whole run was waste
        assert self.outcome(500, 500).overhead_fraction == 1.0

    def test_no_rollbacks_no_overhead(self):
        assert self.outcome(0, 1234).overhead_fraction == 0.0

    def test_fraction_in_between(self):
        assert self.outcome(250, 1000).overhead_fraction == 0.25


class TestBerController:
    def test_clean_program_no_rollbacks(self):
        controller = make_controller(
            COUNTER_LOCKED, [("worker", (15,)), ("worker", (15,))])
        outcome = controller.run()
        assert outcome.rollbacks == 0
        assert outcome.status == MachineStatus.FINISHED
        assert controller.machine.read_global("counter") == 30

    def test_racy_program_triggers_rollbacks(self):
        rolled = False
        for seed in range(5):
            controller = make_controller(
                COUNTER_RACE, [("worker", (25,)), ("worker", (25,))],
                seed=seed)
            outcome = controller.run()
            rolled = rolled or outcome.rollbacks > 0
            assert outcome.status in (MachineStatus.FINISHED,
                                      MachineStatus.STEP_LIMIT)
        assert rolled

    def test_rollback_accounting(self):
        for seed in range(5):
            controller = make_controller(
                COUNTER_RACE, [("worker", (25,)), ("worker", (25,))],
                seed=seed, checkpoint_interval=200, recovery_window=500)
            outcome = controller.run()
            if outcome.rollbacks:
                assert outcome.wasted_steps > 0
                assert outcome.total_steps > controller.machine.steps
                assert 0 < outcome.overhead_fraction < 1
                return
        pytest.fail("no rollback observed")

    def test_max_rollbacks_terminates(self):
        controller = make_controller(
            COUNTER_RACE, [("worker", (40,)), ("worker", (40,))],
            seed=1, max_rollbacks=2, checkpoint_interval=100,
            recovery_window=50)
        outcome = controller.run(max_steps=500_000)
        assert outcome.rollbacks <= 2
        assert outcome.status in (MachineStatus.FINISHED,
                                  MachineStatus.STEP_LIMIT)

    def test_invalid_checkpoint_interval(self):
        prog = compile_source(COUNTER_LOCKED)
        with pytest.raises(ValueError):
            BerController(prog, [("worker", (5,)), ("worker", (5,))],
                          SerialScheduler(), checkpoint_interval=0)

    def test_step_limit_respected(self):
        controller = make_controller(
            COUNTER_LOCKED, [("worker", (500,)), ("worker", (500,))])
        outcome = controller.run(max_steps=1000)
        assert outcome.status == MachineStatus.STEP_LIMIT

    def test_step_limited_run_finishes_through_the_machine(self):
        """A run stopped at ``max_steps`` after a rollback ends like any
        step-limited machine run: observers see ``on_finish``, and the
        machine drops its step table, so once the controller is dropped
        reference counting alone frees the machine."""
        workload = apache_log()
        enabled = gc.isenabled()
        gc.disable()
        try:
            controller = BerController(
                workload.program, workload.threads,
                RandomScheduler(seed=9, switch_prob=0.5))
            outcome = controller.run(max_steps=3000)
            assert outcome.status == MachineStatus.STEP_LIMIT
            assert (outcome.rollbacks, outcome.violations_seen) == (1, 1)
            machine = controller.machine
            assert machine._finished_notified
            assert machine._table is None
            ref = weakref.ref(machine)
            del machine, controller
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
