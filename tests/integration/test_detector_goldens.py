"""Golden digests of the stale-value, lock-order and hybrid reports.

``tests/golden/detector_fingerprints.json`` holds, for every case
below, the sha256 of each detector's violation list (every field of
every violation, in report order).  The digests were captured while
stale and lockorder still received their events one at a time through
the engine's synthesized ``on_event`` calls, so they are a reference
independent of the window-walking code that replaced those calls.
``test_engine_corpus_detectors`` compares the engine against the
detectors' own ``run()`` helpers, and both sides walk the same code
now, so that suite cannot see an error in either.

Cases:

* every fuzz-corpus entry, with its recorded schedule seed and step cap;
* every workload model (seed 7, switch probability 0.3, 30,000 steps);
* the two-lock ``DEADLOCK_PRONE`` program under four seeds -- the only
  inputs here on which lockorder reports a cycle.

Each case must reproduce its digests live at window sizes 1, 7 and
1024, on a replay of its recording through ``run_trace``, and through
the standalone ``run()`` helpers.
"""

import dataclasses
import hashlib
import json
import os
from typing import Callable, NamedTuple, Optional

import pytest

from repro.detectors import (HybridRaceDetector, LockOrderDetector,
                             StaleValueDetector)
from repro.engine import DetectorEngine
from repro.fuzz.corpus import entry_source, load_corpus
from repro.lang import compile_source
from repro.machine import Machine, RandomScheduler
from repro.machine.batch import DEFAULT_BATCH_SIZE
from repro.trace import TraceRecorder
from repro.workloads import WORKLOADS
from tests.unit.test_related_detectors import DEADLOCK_PRONE

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, os.pardir, "corpus")
GOLDEN_PATH = os.path.join(HERE, os.pardir, "golden",
                           "detector_fingerprints.json")

DETECTORS = ("stale", "lockorder", "hybrid")
WINDOW_SIZES = (1, 7, DEFAULT_BATCH_SIZE)
WORKLOAD_MAX_STEPS = 30_000
DEADLOCK_SEEDS = (0, 1, 2, 3)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["digests"]


class Case(NamedTuple):
    key: str
    #: returns (program, thread instances)
    build: Callable
    seed: int
    switch_prob: float
    max_steps: Optional[int]

    def machine(self, batch_size=DEFAULT_BATCH_SIZE):
        program, threads = self.build()
        return program, Machine(
            program, threads,
            scheduler=RandomScheduler(seed=self.seed,
                                      switch_prob=self.switch_prob),
            batch_size=batch_size)


def _corpus_case(entry):
    def build():
        return (compile_source(entry_source(CORPUS_DIR, entry)),
                [("t0", ()), ("t1", ())])
    return Case(f"corpus/{entry.file}", build, entry.schedule_seed,
                entry.switch_prob, entry.max_steps)


def _workload_case(name):
    def build():
        workload = WORKLOADS[name]()
        return workload.program, workload.threads
    return Case(f"workload/{name}", build, 7, 0.3, WORKLOAD_MAX_STEPS)


def _deadlock_case(seed):
    def build():
        return (compile_source(DEADLOCK_PRONE),
                [("t1", (5,)), ("t2", (5,))])
    return Case(f"deadlock-prone/{seed}", build, seed, 0.3, None)


CASES = ([_corpus_case(entry) for entry in load_corpus(CORPUS_DIR)]
         + [_workload_case(name) for name in sorted(WORKLOADS)]
         + [_deadlock_case(seed) for seed in DEADLOCK_SEEDS])


def _digest(violations):
    text = json.dumps([dataclasses.asdict(v) for v in violations],
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(reports):
    return {name: _digest(reports[name].violations) for name in DETECTORS}


def _recording(case):
    program, machine = case.machine()
    recorder = TraceRecorder(program, len(machine.threads))
    machine.add_observer(recorder)
    machine.run(max_steps=case.max_steps)
    return program, recorder.trace()


def test_every_case_has_a_golden():
    assert set(GOLDEN) == {case.key for case in CASES}


def test_goldens_are_not_vacuous():
    """Each detector reports on some case, and lockorder reports a
    cycle on every deadlock-prone seed."""
    empty = _digest([])
    for name in DETECTORS:
        assert any(digests[name] != empty for digests in GOLDEN.values())
    for seed in DEADLOCK_SEEDS:
        assert GOLDEN[f"deadlock-prone/{seed}"]["lockorder"] != empty


@pytest.mark.parametrize("window", WINDOW_SIZES)
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_live_run_matches_golden(case, window):
    program, machine = case.machine(batch_size=window)
    result = DetectorEngine(program, DETECTORS,
                            batch_size=window).run_machine(
        machine, max_steps=case.max_steps)
    assert _digests(result.reports) == GOLDEN[case.key]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_replay_and_standalone_match_golden(case):
    program, trace = _recording(case)
    replay = DetectorEngine(program, DETECTORS).run_trace(trace)
    assert _digests(replay.reports) == GOLDEN[case.key]
    standalone = {
        "stale": StaleValueDetector(program).run(trace),
        "lockorder": LockOrderDetector(program).run(trace),
        "hybrid": HybridRaceDetector(program).run(trace),
    }
    assert _digests(standalone) == GOLDEN[case.key]
