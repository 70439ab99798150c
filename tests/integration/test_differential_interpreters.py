"""Differential test: pre-decoded vs legacy interpreter.

The pre-decoded engine (``Machine(..., predecoded=True)``, the default)
must be observationally indistinguishable from the legacy if/elif
interpreter: byte-identical event streams, recorded schedules, machine
output, crash records, final memory, and detector reports -- including
under stream-fault injection plans and across a BER-style
checkpoint/restore cycle.  Every program in the fuzz corpus and every
workload model is run under both engines and the full observable
fingerprint is compared as serialized JSON.
"""

import dataclasses
import json
import os

import pytest

from repro.engine import DetectorEngine
from repro.faults import Fault, FaultPlan
from repro.faults import runtime as fault_runtime
from repro.fuzz.corpus import entry_source, load_corpus
from repro.lang import compile_source
from repro.machine import (Machine, MachineObserver, RandomScheduler,
                           resolve_model)
from repro.workloads import WORKLOADS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

WORKLOAD_MAX_STEPS = 30_000


class _CaptureObserver(MachineObserver):
    """Records every event field that observers can see."""

    def __init__(self):
        self.events = []
        self.finishes = 0

    def consume_batch(self, batch):
        self.events.extend(
            (kind, seq, tid, pc, loc, addr, value, bool(taken), target)
            for kind, seq, tid, pc, loc, addr, value, taken, target
            in batch.rows)

    def on_finish(self, machine):
        self.finishes += 1


def _report_fingerprint(report):
    return [dataclasses.asdict(v) for v in report.violations]


def _fingerprint(program, threads, scheduler, predecoded, max_steps,
                 plan=None, consistency=None, model_seed=0):
    """Run one execution with SVD+FRD attached and serialize everything
    the run observably produced."""
    capture = _CaptureObserver()
    machine_kwargs = dict(scheduler=scheduler, observers=[capture],
                          record_schedule=True, predecoded=predecoded)
    if consistency is not None:
        machine_kwargs["memmodel"] = resolve_model(consistency, model_seed)
    if plan is not None:
        with fault_runtime.install(plan):
            # the machine must be built while the plan is active for the
            # stream injector to arm
            machine = Machine(program, threads, **machine_kwargs)
            engine = DetectorEngine(program, ["svd", "frd"])
            result = engine.run_machine(machine, max_steps=max_steps)
    else:
        machine = Machine(program, threads, **machine_kwargs)
        engine = DetectorEngine(program, ["svd", "frd"])
        result = engine.run_machine(machine, max_steps=max_steps)
    return json.dumps({
        "status": machine.status,
        "seq": machine.seq,
        "steps": machine.steps,
        "memory": machine.memory,
        "output": machine.output,
        "crashes": [dataclasses.asdict(c) for c in machine.crashes],
        "schedule": machine.recorded_schedule,
        "events": capture.events,
        "end_seq": result.end_seq,
        "reports": {name: _report_fingerprint(result.report(name))
                    for name in ("svd", "frd")},
    }, sort_keys=True)


def _assert_identical(program, threads, seed, switch_prob, max_steps,
                      plan=None, consistency=None, model_seed=0):
    legacy = _fingerprint(
        program, threads, RandomScheduler(seed=seed,
                                          switch_prob=switch_prob),
        predecoded=False, max_steps=max_steps, plan=plan,
        consistency=consistency, model_seed=model_seed)
    predecoded = _fingerprint(
        program, threads, RandomScheduler(seed=seed,
                                          switch_prob=switch_prob),
        predecoded=True, max_steps=max_steps, plan=plan,
        consistency=consistency, model_seed=model_seed)
    assert legacy == predecoded


def _corpus_entries():
    return load_corpus(CORPUS_DIR)


class TestCorpusDifferential:
    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry_identical(self, entry):
        program = compile_source(entry_source(CORPUS_DIR, entry))
        threads = [("t0", ()), ("t1", ())]
        _assert_identical(program, threads, entry.schedule_seed,
                          entry.switch_prob, entry.max_steps)

    def test_corpus_entry_identical_under_fault_plan(self):
        """Stream faults must hit the same emission ordinals in both
        engines -- kind masking may not skip Event construction while an
        injector is armed."""
        entry = _corpus_entries()[0]
        program = compile_source(entry_source(CORPUS_DIR, entry))
        threads = [("t0", ()), ("t1", ())]
        plan = FaultPlan([Fault("stream.drop", at=40),
                          Fault("stream.dup", at=90, count=2),
                          Fault("stream.corrupt", at=150)], seed=7)
        _assert_identical(program, threads, entry.schedule_seed,
                          entry.switch_prob, entry.max_steps, plan=plan)


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_identical(self, name):
        workload = WORKLOADS[name]()
        _assert_identical(workload.program, workload.threads, seed=1234,
                          switch_prob=0.3, max_steps=WORKLOAD_MAX_STEPS)


class TestConsistencyDifferential:
    """The memory-model layer preserves both identities: an explicit
    ``--consistency strict`` machine is byte-identical to the default,
    and legacy vs pre-decoded stay byte-identical under TSO (the
    model-routed closures mirror the legacy arms emission-for-emission,
    including drain-time stores)."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_explicit_strict_matches_default(self, name):
        workload = WORKLOADS[name]()
        scheduler_args = dict(seed=1234, switch_prob=0.3)
        default = _fingerprint(
            workload.program, workload.threads,
            RandomScheduler(**scheduler_args), predecoded=True,
            max_steps=WORKLOAD_MAX_STEPS)
        explicit = _fingerprint(
            workload.program, workload.threads,
            RandomScheduler(**scheduler_args), predecoded=True,
            max_steps=WORKLOAD_MAX_STEPS, consistency="strict")
        assert default == explicit

    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_identical_strict_explicit(self, name):
        workload = WORKLOADS[name]()
        _assert_identical(workload.program, workload.threads, seed=1234,
                          switch_prob=0.3, max_steps=WORKLOAD_MAX_STEPS,
                          consistency="strict")

    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_identical_tso(self, name):
        workload = WORKLOADS[name]()
        for seed in (7, 1234):
            _assert_identical(workload.program, workload.threads,
                              seed=seed, switch_prob=0.3,
                              max_steps=WORKLOAD_MAX_STEPS,
                              consistency="tso", model_seed=seed)

    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry_identical_tso(self, entry):
        program = compile_source(entry_source(CORPUS_DIR, entry))
        threads = [("t0", ()), ("t1", ())]
        _assert_identical(program, threads, entry.schedule_seed,
                          entry.switch_prob, entry.max_steps,
                          consistency="tso",
                          model_seed=entry.schedule_seed)


class TestCheckpointRestoreDifferential:
    def _run_with_rollback(self, predecoded):
        workload = WORKLOADS["apache"]()
        capture = _CaptureObserver()
        machine = Machine(workload.program, workload.threads,
                          scheduler=RandomScheduler(seed=5,
                                                    switch_prob=0.4),
                          observers=[capture], record_schedule=True,
                          predecoded=predecoded)
        # advance() leaves the run open: run() would stamp step_limit,
        # and a stamped machine does not run again
        machine.advance(400)
        snapshot = machine.checkpoint()
        machine.advance(800)  # overshoot, then roll back
        assert machine.steps == 800
        machine.restore(snapshot)
        assert machine.steps == 400
        machine.run(max_steps=WORKLOAD_MAX_STEPS)
        return json.dumps({
            "status": machine.status,
            "memory": machine.memory,
            "output": machine.output,
            "schedule": machine.recorded_schedule,
            "events": capture.events,
        }, sort_keys=True)

    def test_rollback_cycle_identical(self):
        assert (self._run_with_rollback(False)
                == self._run_with_rollback(True))

    def test_ber_controller_identical(self):
        from repro.ber import BerController

        def outcome(predecoded):
            workload = WORKLOADS["apache"]()
            controller = BerController(
                workload.program, workload.threads,
                scheduler=RandomScheduler(seed=9, switch_prob=0.4),
                checkpoint_interval=500, predecoded=predecoded)
            result = controller.run(max_steps=WORKLOAD_MAX_STEPS)
            machine = controller.machine
            return json.dumps({
                "outcome": dataclasses.asdict(result),
                "memory": machine.memory,
                "output": machine.output,
                "seq": machine.seq,
            }, sort_keys=True)

        assert outcome(False) == outcome(True)
