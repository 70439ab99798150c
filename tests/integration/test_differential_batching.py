"""Differential test: the delivery window is an implementation detail.

Events leave the machine only as ``EventBatch`` windows, so the
window size must never show.  The references are:

* the golden digests in ``tests/golden/delivery_fingerprints.json`` --
  sha256 of the full observable fingerprint of every case below
  (event stream, recorded schedule, machine output, crash records,
  final memory, detector reports and engine failure records), captured
  on the per-event delivery path before that path was removed; the
  TSO cases at seed 1234, the corpus under TSO and the BER controller
  run were captured later, while a second (if/elif) interpreter still
  ran every one of them byte-identically;
* batch size 1, where every emission flushes at once -- exactly the
  timing per-event delivery had.

Every program in the fuzz corpus (default and TSO) and every workload
model (default, explicit strict, and TSO at two seeds) must reproduce
its golden digest at batch size 1 and at the default window, and a
representative subset sweeps every size in :data:`BATCH_SIZES` --
including armed stream-fault plans (the injector rewrites staged rows
at flush, counting the same emission ordinals), ``analysis.raise``
plans (a targeted batch analysis is fed one-row windows, so its failure
index and seq count single events), a multi-phase replay, and a
checkpoint/restore rollback cycle (checkpoint and restore are flush
boundaries).  Forced flushes at arbitrary points are swept by
``tests/property/test_batch_boundaries``.

The machine has two run loops over one step table: the
:meth:`Machine.advance` hot loop and the one-instruction
:meth:`Machine.step` the BER controller drives.  The corpus (default
and TSO), the workloads (default and TSO), the stream-fault plan and
the rollback cycle are also driven by ``step()`` alone and must
reproduce the same digests.

``advance`` runs a scheduling quantum per pass and, for a scheduler
that is exactly a :class:`RandomScheduler`, draws the schedule inline
instead of calling ``pick()``; ``step()`` always calls ``pick()``.  Two
more arms pin that: the corpus and the workloads (default and TSO)
driven through ``MachineDrive.advance`` in chunks of
:data:`CHUNKS` steps, which stop the loop in the middle of a quantum
and resume it, and a few workloads under a subclass of
:class:`RandomScheduler`, which takes the generic ``pick()`` path of
``advance``.  Both must reproduce the same digests.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.engine import DetectorEngine
from repro.faults import Fault, FaultPlan
from repro.faults import runtime as fault_runtime
from repro.fuzz.corpus import entry_source, load_corpus
from repro.harness import SegmentSampler, evenly_spaced_windows
from repro.lang import compile_source
from repro.machine import (Machine, MachineObserver, RandomScheduler,
                           resolve_model)
from repro.machine.batch import DEFAULT_BATCH_SIZE
from repro.workloads import WORKLOADS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "golden",
                           "delivery_fingerprints.json")

WORKLOAD_MAX_STEPS = 30_000

#: degenerate, tiny, odd, round, and the default capacity straddled by
#: one on each side
BATCH_SIZES = [1, 2, 7, 64, 1023, 1024, 1025]

#: the reference window and the default one
REFERENCE_SIZES = [1, DEFAULT_BATCH_SIZE]

#: ``MachineDrive.advance`` chunks: one step, a few, and many quanta
CHUNKS = [1, 7, 1000]

STREAM_PLAN = FaultPlan([Fault("stream.drop", at=40),
                         Fault("stream.dup", at=90, count=2),
                         Fault("stream.corrupt", at=150)], seed=7)
TRUNCATE_PLAN = FaultPlan([Fault("stream.corrupt", at=700),
                           Fault("stream.truncate", at=5000)], seed=3)


with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["digests"]


class _Capture(MachineObserver):
    """Records every observable event field of every window."""

    def __init__(self):
        self.events = []
        self.batch_calls = 0

    def consume_batch(self, batch):
        self.batch_calls += 1
        self.events.extend(
            (kind, seq, tid, pc, loc, addr, value, bool(taken), target)
            for kind, seq, tid, pc, loc, addr, value, taken, target
            in batch.rows)


def _report_fingerprint(report):
    return [dataclasses.asdict(v) for v in report.violations]


def _failure_fingerprint(failure):
    # everything except traceback_text: the frames name the dispatch
    # function that raised, which is not part of the contract
    return {
        "analysis": failure.analysis,
        "phase": failure.phase,
        "stage": failure.stage,
        "event_index": failure.event_index,
        "seq": failure.seq,
        "error": failure.error,
    }


def _step_to(machine, stop):
    """Drive ``machine`` one :meth:`Machine.step` call at a time until
    ``stop`` steps have retired or it stops -- how the BER controller
    drives its machine."""
    while machine.steps < stop and machine.step():
        pass


def _fingerprint(program, threads, scheduler, max_steps, batch_size,
                 plan=None, detectors=("svd", "frd"), consistency=None,
                 model_seed=0, by_step=False, chunk=None):
    """One execution with detectors attached, serialized end to end.

    ``by_step`` drives the machine through :meth:`Machine.step` instead
    of the :meth:`Machine.advance` run loop; ``finish()`` then stamps
    the step limit exactly as ``run_machine`` does.  ``chunk`` first
    drives the run loop ``chunk`` steps per ``MachineDrive.advance``
    call, as serve does."""
    capture = _Capture()
    machine_kwargs = dict(scheduler=scheduler, observers=[capture],
                          record_schedule=True, batch_size=batch_size)
    if consistency is not None:
        machine_kwargs["memmodel"] = resolve_model(consistency, model_seed)
    # the machine must be built while the plan is active for the
    # stream injector to arm
    with fault_runtime.install(plan):
        machine = Machine(program, threads, **machine_kwargs)
        engine = DetectorEngine(program, list(detectors),
                                batch_size=batch_size)
        drive = engine.drive_machine(machine, max_steps=max_steps)
        if by_step:
            _step_to(machine, max_steps)
        elif chunk is not None:
            while drive.advance(chunk):
                pass
        result = drive.finish()
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
        "degraded": result.degraded,
        "failures": {name: _failure_fingerprint(f)
                     for name, f in result.failures.items()},
        "reports": {name: _report_fingerprint(result.report(name))
                    for name in detectors if name in result.reports},
    }, sort_keys=True)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_golden(key, program, threads, seed, switch_prob, max_steps,
                   batch_size, scheduler=RandomScheduler, **kwargs):
    fingerprint = _fingerprint(
        program, threads, scheduler(seed=seed, switch_prob=switch_prob),
        max_steps, batch_size, **kwargs)
    assert _digest(fingerprint) == GOLDEN[key], (key, batch_size)


def _corpus_entries():
    return load_corpus(CORPUS_DIR)


def _corpus_program(entry):
    return compile_source(entry_source(CORPUS_DIR, entry))


CORPUS_THREADS = [("t0", ()), ("t1", ())]


class TestGoldenCoverage:
    def test_every_golden_case_is_exercised(self):
        """The goldens and this suite's cases stay in one-to-one step."""
        expected = set()
        for entry in _corpus_entries():
            expected |= {f"corpus/{entry.file}", f"corpus/{entry.file}/tso"}
        for name in WORKLOADS:
            for model in ("default", "strict", "tso", "tso-1234"):
                expected.add(f"workload/{name}/{model}")
        expected |= {"stream-faults", "stream-faults/apache",
                     "stream-truncate/apache", "four-detector-replay",
                     "analysis-raise/0", "analysis-raise/10",
                     "analysis-raise/500", "checkpoint-restore",
                     "ber-controller"}
        assert set(GOLDEN) == expected


class TestCorpusDifferential:
    @pytest.mark.parametrize("batch_size", REFERENCE_SIZES)
    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry_matches_golden(self, entry, batch_size):
        _assert_golden(f"corpus/{entry.file}", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, batch_size)

    @pytest.mark.parametrize("batch_size", REFERENCE_SIZES)
    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry_tso(self, entry, batch_size):
        """Under TSO the model seed is the entry's schedule seed."""
        _assert_golden(f"corpus/{entry.file}/tso", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, batch_size,
                       consistency="tso", model_seed=entry.schedule_seed)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_corpus_entry_across_batch_sizes(self, batch_size):
        """Any window capacity produces the golden fingerprint."""
        entry = _corpus_entries()[-1]
        _assert_golden(f"corpus/{entry.file}", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, batch_size)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_corpus_entry_under_stream_faults(self, batch_size):
        entry = _corpus_entries()[0]
        _assert_golden("stream-faults", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, batch_size,
                       plan=STREAM_PLAN)


class TestStreamFaultDifferential:
    """Armed plans rewrite staged rows at flush; drop/dup/corrupt and
    truncation ordinals count emissions, whatever the window size."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_drop_dup_corrupt(self, batch_size):
        workload = WORKLOADS["apache"]()
        _assert_golden("stream-faults/apache", workload.program,
                       workload.threads, 3, 0.4, WORKLOAD_MAX_STEPS,
                       batch_size, plan=STREAM_PLAN)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_corrupt_then_truncate(self, batch_size):
        workload = WORKLOADS["apache"]()
        _assert_golden("stream-truncate/apache", workload.program,
                       workload.threads, 3, 0.4, WORKLOAD_MAX_STEPS,
                       batch_size, plan=TRUNCATE_PLAN)


class TestBatchingEngages:
    """Guard against a vacuous differential: the default window really
    carries many events per ``consume_batch`` call."""

    def _capture_run(self, plan=None):
        workload = WORKLOADS["apache"]()
        capture = _Capture()
        with fault_runtime.install(plan):
            machine = Machine(workload.program, workload.threads,
                              scheduler=RandomScheduler(seed=1,
                                                        switch_prob=0.3),
                              observers=[capture])
            machine.run(max_steps=WORKLOAD_MAX_STEPS)
        return capture

    def test_default_run_batches(self):
        capture = self._capture_run()
        assert capture.batch_calls >= 1
        assert len(capture.events) > capture.batch_calls

    def test_armed_stream_fault_run_batches(self):
        """A fault plan no longer switches delivery to another path."""
        capture = self._capture_run(STREAM_PLAN)
        assert len(capture.events) > 10 * capture.batch_calls

    def test_segment_sampler_batches(self):
        """The serve "sampled" mode slices windows at segment
        boundaries; its per-segment reports match one-row windows."""
        workload = WORKLOADS["apache"]()

        def sample(batch_size):
            sampler = SegmentSampler(
                workload.program,
                evenly_spaced_windows(WORKLOAD_MAX_STEPS, 4, 2000))
            counts = []
            consume = sampler.consume_batch

            def counting(batch):
                counts.append(batch.count)
                consume(batch)

            sampler.consume_batch = counting
            machine = Machine(workload.program, workload.threads,
                              scheduler=RandomScheduler(seed=1,
                                                        switch_prob=0.3),
                              observers=[sampler], batch_size=batch_size)
            machine.run(max_steps=WORKLOAD_MAX_STEPS)
            segments = [(s.start_seq, s.end_seq, s.instructions,
                         _report_fingerprint(s.detector.report))
                        for s in sampler.segments]
            return counts, segments

        counts, segments = sample(DEFAULT_BATCH_SIZE)
        assert max(counts) > 1
        assert len(segments) == 4
        assert all(instructions == 2000
                   for _start, _end, instructions, _r in segments)
        assert segments == sample(1)[1]


class TestWorkloadDifferential:
    @pytest.mark.parametrize("batch_size", REFERENCE_SIZES)
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_matches_golden(self, name, batch_size):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/default", workload.program,
                       workload.threads, 1234, 0.3, WORKLOAD_MAX_STEPS,
                       batch_size)

    @pytest.mark.parametrize("batch_size", REFERENCE_SIZES)
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_strict_explicit(self, name, batch_size):
        """Explicit ``--consistency strict`` reproduces its golden."""
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/strict", workload.program,
                       workload.threads, 1234, 0.3, WORKLOAD_MAX_STEPS,
                       batch_size, consistency="strict")

    def test_explicit_strict_is_the_default(self):
        """The default model is strict: both goldens of a workload are
        one digest."""
        for name in WORKLOADS:
            assert (GOLDEN[f"workload/{name}/strict"]
                    == GOLDEN[f"workload/{name}/default"]), name

    @pytest.mark.parametrize("batch_size", REFERENCE_SIZES)
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_tso(self, name, batch_size):
        """Drain-time stores are staged like every other event."""
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/tso", workload.program,
                       workload.threads, 7, 0.3, WORKLOAD_MAX_STEPS,
                       batch_size, consistency="tso", model_seed=7)

    @pytest.mark.parametrize("batch_size", REFERENCE_SIZES)
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_tso_second_seed(self, name, batch_size):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/tso-1234", workload.program,
                       workload.threads, 1234, 0.3, WORKLOAD_MAX_STEPS,
                       batch_size, consistency="tso", model_seed=1234)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_four_detector_phase_replay(self, batch_size):
        """A multi-phase run (atomizer replays the recording in phase 1)
        is window-invariant in the replay too."""
        workload = WORKLOADS["apache"]()
        _assert_golden("four-detector-replay", workload.program,
                       workload.threads, 77, 0.4, WORKLOAD_MAX_STEPS,
                       batch_size,
                       detectors=("svd", "frd", "lockset", "atomizer"))


class TestFailureDifferential:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("at", [0, 10, 500])
    def test_analysis_raise_failure_matches_golden(self, at, batch_size):
        """An ``analysis.raise`` quarantine produces the golden failure
        record -- stage, event index, seq, error -- at every window
        size."""
        workload = WORKLOADS["apache"]()
        plan = FaultPlan([Fault("analysis.raise", at=at, target="frd")])
        _assert_golden(f"analysis-raise/{at}", workload.program,
                       workload.threads, 3, 0.4, WORKLOAD_MAX_STEPS,
                       batch_size, plan=plan)


def _run_with_rollback(batch_size, by_step=False):
    """The checkpoint/restore cycle behind the ``checkpoint-restore``
    golden, driven by :meth:`Machine.advance` or one
    :meth:`Machine.step` call at a time."""
    workload = WORKLOADS["apache"]()
    capture = _Capture()
    machine = Machine(workload.program, workload.threads,
                      scheduler=RandomScheduler(seed=5, switch_prob=0.4),
                      observers=[capture], record_schedule=True,
                      batch_size=batch_size)
    # advance() and step() leave the run open: run() would stamp
    # step_limit, and a stamped machine does not run again
    drive = _step_to if by_step else Machine.advance
    drive(machine, 400)
    snapshot = machine.checkpoint()
    drive(machine, 800)  # overshoot, then roll back
    assert machine.steps == 800
    machine.restore(snapshot)
    assert machine.steps == 400
    drive(machine, WORKLOAD_MAX_STEPS)
    machine.run(max_steps=WORKLOAD_MAX_STEPS)
    return json.dumps({
        "status": machine.status,
        "memory": machine.memory,
        "output": machine.output,
        "schedule": machine.recorded_schedule,
        "events": capture.events,
    }, sort_keys=True)


class TestCheckpointRestoreDifferential:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_rollback_cycle_matches_golden(self, batch_size):
        """checkpoint() and restore() are flush boundaries: observers
        see the overshot (rolled-back) events at every window size."""
        assert (_digest(_run_with_rollback(batch_size))
                == GOLDEN["checkpoint-restore"])

    def test_ber_controller_matches_golden(self):
        """SVD-triggered rollbacks: the controller steps a batch-size-1
        machine, polls its detector and restores checkpoints."""
        from repro.ber import BerController

        workload = WORKLOADS["apache"]()
        controller = BerController(
            workload.program, workload.threads,
            scheduler=RandomScheduler(seed=9, switch_prob=0.4),
            checkpoint_interval=500)
        result = controller.run(max_steps=WORKLOAD_MAX_STEPS)
        machine = controller.machine
        assert result.rollbacks > 0
        assert _digest(json.dumps({
            "outcome": dataclasses.asdict(result),
            "memory": machine.memory,
            "output": machine.output,
            "seq": machine.seq,
        }, sort_keys=True)) == GOLDEN["ber-controller"]


class TestStepDriven:
    """:meth:`Machine.step` is the run loop's pick/dispatch/record body
    written out a second time, for a host that reads observer state
    after every instruction (the BER controller).  Driven one ``step()``
    call at a time at batch size 1, as that controller drives it, a run
    must reproduce the golden digest its :meth:`Machine.advance` run
    pins -- drain processors under TSO, armed stream faults and a
    rollback cycle included."""

    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry(self, entry):
        _assert_golden(f"corpus/{entry.file}", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, 1, by_step=True)

    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry_tso(self, entry):
        _assert_golden(f"corpus/{entry.file}/tso", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, 1,
                       consistency="tso", model_seed=entry.schedule_seed,
                       by_step=True)

    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload(self, name):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/default", workload.program,
                       workload.threads, 1234, 0.3, WORKLOAD_MAX_STEPS, 1,
                       by_step=True)

    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_tso(self, name):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/tso", workload.program,
                       workload.threads, 7, 0.3, WORKLOAD_MAX_STEPS, 1,
                       consistency="tso", model_seed=7, by_step=True)

    def test_corpus_entry_under_stream_faults(self):
        entry = _corpus_entries()[0]
        _assert_golden("stream-faults", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps, 1,
                       plan=STREAM_PLAN, by_step=True)

    def test_rollback_cycle(self):
        assert (_digest(_run_with_rollback(1, by_step=True))
                == GOLDEN["checkpoint-restore"])


class TestChunkedDrive:
    """A host that drives one run in chunks (serve's executions do)
    stops :meth:`Machine.advance` at ``stop`` in the middle of a
    scheduling quantum and resumes it with the next call.  At every
    chunk size the run must reproduce the golden digest that one
    ``advance`` call pins: the stop falls between a step and the next
    decision, and the resumed call makes that decision with the same
    draws."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry(self, entry, chunk):
        _assert_golden(f"corpus/{entry.file}", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps,
                       DEFAULT_BATCH_SIZE, chunk=chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "entry", _corpus_entries(), ids=lambda e: e.file)
    def test_corpus_entry_tso(self, entry, chunk):
        _assert_golden(f"corpus/{entry.file}/tso", _corpus_program(entry),
                       CORPUS_THREADS, entry.schedule_seed,
                       entry.switch_prob, entry.max_steps,
                       DEFAULT_BATCH_SIZE, consistency="tso",
                       model_seed=entry.schedule_seed, chunk=chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload(self, name, chunk):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/default", workload.program,
                       workload.threads, 1234, 0.3, WORKLOAD_MAX_STEPS,
                       DEFAULT_BATCH_SIZE, chunk=chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS), ids=str)
    def test_workload_tso(self, name, chunk):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/tso", workload.program,
                       workload.threads, 7, 0.3, WORKLOAD_MAX_STEPS,
                       DEFAULT_BATCH_SIZE, consistency="tso", model_seed=7,
                       chunk=chunk)


class _Generic(RandomScheduler):
    """Draws exactly what its base class draws, but is not exactly a
    :class:`RandomScheduler`, so ``advance`` calls its ``pick()``."""


#: the monitor workloads of the end-to-end benchmark (4 and 3
#: threads), a wait/notify buffer, and a lock-free two-thread ring
GENERIC_WORKLOADS = ["apache", "bounded-buffer", "mysql-prepared",
                     "spsc-ring"]


class TestGenericPick:
    """``advance`` makes :meth:`RandomScheduler.pick`'s decision inline
    for that class only; a subclass takes the generic path, one
    ``pick()`` call per step.  Both must give the same digests, whole
    and chunked."""

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("name", GENERIC_WORKLOADS, ids=str)
    def test_workload(self, name, chunk):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/default", workload.program,
                       workload.threads, 1234, 0.3, WORKLOAD_MAX_STEPS,
                       DEFAULT_BATCH_SIZE, scheduler=_Generic, chunk=chunk)

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("name", GENERIC_WORKLOADS, ids=str)
    def test_workload_tso(self, name, chunk):
        workload = WORKLOADS[name]()
        _assert_golden(f"workload/{name}/tso", workload.program,
                       workload.threads, 7, 0.3, WORKLOAD_MAX_STEPS,
                       DEFAULT_BATCH_SIZE, scheduler=_Generic,
                       consistency="tso", model_seed=7, chunk=chunk)

    def test_generic_path_calls_pick_once_per_step(self):
        """One ``pick()`` per decision: a run of N recorded steps made
        N decisions."""
        calls = []

        class Counting(RandomScheduler):
            def pick(self, runnable, current):
                calls.append(current)
                return super().pick(runnable, current)

        workload = WORKLOADS["apache"]()
        machine = Machine(workload.program, workload.threads,
                          scheduler=Counting(seed=1234, switch_prob=0.3),
                          record_schedule=True)
        machine.run(max_steps=5000)
        assert len(calls) == len(machine.recorded_schedule)
        assert calls[1:] == machine.recorded_schedule[:-1]
