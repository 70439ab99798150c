"""Deterministic record/replay tests (the scenario II recorder)."""

import pytest

from repro.core import OnlineSVD
from repro.lang import compile_source
from repro.machine import (MachineStatus, RandomScheduler, Recording,
                           program_fingerprint, record_execution,
                           replay_execution)
from repro.workloads import apache_log
from tests.conftest import COUNTER_RACE


@pytest.fixture
def recorded():
    program = compile_source(COUNTER_RACE)
    machine, recording = record_execution(
        program, [("worker", (20,)), ("worker", (20,))],
        RandomScheduler(seed=7, switch_prob=0.5))
    return program, machine, recording


class TestRecording:
    def test_replay_reproduces_final_state(self, recorded):
        program, machine, recording = recorded
        replayed = replay_execution(program, recording)
        assert replayed.read_global("counter") == \
            machine.read_global("counter")
        assert replayed.steps == machine.steps
        assert replayed.output == machine.output

    def test_replay_with_detector_attached(self, recorded):
        program, _machine, recording = recorded
        svd = OnlineSVD(program)
        replay_execution(program, recording, observers=[svd])
        assert svd.instructions > 0

    def test_two_replays_identical(self, recorded):
        program, _machine, recording = recorded
        a = replay_execution(program, recording)
        b = replay_execution(program, recording)
        assert a.memory == b.memory
        assert a.output == b.output

    def test_save_load_roundtrip(self, recorded, tmp_path):
        program, _machine, recording = recorded
        path = str(tmp_path / "run.rec")
        recording.save(path)
        loaded = Recording.load(path)
        assert loaded.schedule == recording.schedule
        assert loaded.threads == recording.threads
        assert loaded.fingerprint == recording.fingerprint
        replayed = replay_execution(program, loaded)
        assert replayed.steps == recording.steps

    @pytest.mark.parametrize("max_steps", [10, 3000])
    def test_step_limited_recording_replays_to_its_limit(self, max_steps):
        """A run its step limit stopped replays exactly that many steps
        and stops the same way, not past the limit."""
        workload = apache_log(writers=3, requests=40)
        machine, recording = record_execution(
            workload.program, workload.threads,
            RandomScheduler(seed=3, switch_prob=0.3), max_steps=max_steps)
        assert recording.status == MachineStatus.STEP_LIMIT
        assert recording.steps == max_steps
        replayed = replay_execution(workload.program, recording)
        assert replayed.status == MachineStatus.STEP_LIMIT
        assert replayed.steps == max_steps
        assert replayed.memory == machine.memory

    def test_fingerprint_mismatch_rejected(self, recorded):
        _program, _machine, recording = recorded
        other = compile_source(
            "shared int x; thread worker(int n) { x = n; }")
        with pytest.raises(ValueError, match="fingerprint"):
            replay_execution(other, recording)

    def test_non_strict_allows_mismatch(self, recorded):
        """strict=False replays best-effort against a compatible program."""
        program, _machine, recording = recorded
        # recompiling the same source gives the same fingerprint...
        same = compile_source(COUNTER_RACE)
        assert program_fingerprint(same) == recording.fingerprint
        # ...and non-strict mode doesn't even check
        replay_execution(same, recording, strict=False)

    def test_fingerprint_stable_across_compiles(self):
        a = compile_source(COUNTER_RACE)
        b = compile_source(COUNTER_RACE)
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_fingerprint_differs_for_different_code(self):
        a = compile_source(COUNTER_RACE)
        b = compile_source(COUNTER_RACE.replace("c + 1", "c + 2"))
        assert program_fingerprint(a) != program_fingerprint(b)
