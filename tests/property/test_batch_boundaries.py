"""Batch-boundary property tests.

Event delivery must be invariant to where the window boundaries fall.
The reference is batch size 1 -- every emission flushed at once, the
timing per-event delivery had (pinned against the per-event goldens in
``tests/integration/test_differential_batching.py``).  Two families of
boundaries are swept here:

* **capacity boundaries** -- every batch size (2, 7, 64, and the
  default capacity plus/minus one) must leave every observer in exactly
  the reference state, for generated programs and for the engine's
  replay windows alike;
* **forced flush points** -- :meth:`repro.machine.Machine.flush_events`
  may be called at *any* moment (mid critical section, at a lock
  release, at thread exit, or at arbitrary generated seqs) without
  changing a single observable: detector reports, captured event
  streams, memory, and output.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OnlineSVD
from repro.engine import DetectorEngine
from repro.lang import compile_source
from repro.machine import Machine, MachineObserver, RandomScheduler
from repro.machine.events import EV_ACQUIRE, EV_HALT, EV_RELEASE

from tests.conftest import COUNTER_LOCKED
from tests.property.genprog import programs

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: the capacity sweep: degenerate, tiny, odd, round, and the default
#: capacity straddled by one on each side
BATCH_SIZES = [1, 2, 7, 64, 1023, 1024, 1025]

MAX_STEPS = 4000


class _Capture(MachineObserver):
    """Records every event field of every window."""

    def __init__(self):
        self.events = []

    def consume_batch(self, batch):
        self.events.extend(batch.rows)


def _svd_keys(report):
    return [(v.kind, v.seq, v.tid, v.loc, v.address, v.other_loc,
             v.other_tid) for v in report]


GENERATED_THREADS = (("t0", ()), ("t1", ()))
LOCKED_THREADS = (("worker", (10,)), ("worker", (10,)))


def _run(source, seed, batch_size, flush_seqs=(),
         threads=GENERATED_THREADS):
    """One observed machine run; returns every observable we compare."""
    program = compile_source(source)
    svd = OnlineSVD(program)
    capture = _Capture()
    machine = Machine(program, list(threads),
                      scheduler=RandomScheduler(seed=seed,
                                                switch_prob=0.5),
                      observers=[svd, capture], batch_size=batch_size)
    if flush_seqs:
        pending = sorted(set(flush_seqs))
        steps = 0
        while steps < MAX_STEPS and machine.step():
            steps += 1
            while pending and machine.seq >= pending[0]:
                machine.flush_events()
                pending.pop(0)
        machine.flush_events()  # drain anything staged at the step cap
    else:
        machine.run(max_steps=MAX_STEPS)
        machine.flush_events()
    return (_svd_keys(svd.report), capture.events, list(machine.memory),
            list(machine.output))


@settings(**SETTINGS)
@given(programs(), st.integers(0, 50),
       st.sampled_from(BATCH_SIZES))
def test_batch_size_invariant(source, seed, batch_size):
    """Any capacity reproduces the one-row reference exactly."""
    reference = _run(source, seed, batch_size=1)
    batched = _run(source, seed, batch_size=batch_size)
    assert batched == reference


@settings(**SETTINGS)
@given(programs(), st.integers(0, 50),
       st.lists(st.integers(0, 600), max_size=5))
def test_forced_flush_points_invariant(source, seed, flush_seqs):
    """Flushing at arbitrary seqs mid-run changes nothing observable."""
    reference = _run(source, seed, batch_size=1)
    batched = _run(source, seed, batch_size=1024, flush_seqs=flush_seqs)
    assert batched == reference


class TestSemanticFlushBoundaries:
    """Deterministic forced flushes at the ISSUE-named program points:
    mid critical section, at a lock release, at thread exit."""

    SEED = 11

    @pytest.fixture(scope="class")
    def reference(self):
        return _run(COUNTER_LOCKED, self.SEED, batch_size=1,
                    threads=LOCKED_THREADS)

    def _boundary_seqs(self, reference):
        events = reference[1]
        first = {}
        for kind, seq, *_rest in events:
            if kind not in first:
                first[kind] = seq
        acquire = first.get(EV_ACQUIRE)
        release = first.get(EV_RELEASE)
        halt = first.get(EV_HALT)
        assert acquire is not None and release is not None
        assert halt is not None
        return acquire, release, halt

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_flush_mid_critical_section(self, reference, batch_size):
        acquire, release, _halt = self._boundary_seqs(reference)
        mid = (acquire + release) // 2 + 1
        assert acquire < mid <= release  # genuinely inside the region
        batched = _run(COUNTER_LOCKED, self.SEED, batch_size=batch_size,
                       flush_seqs=[mid], threads=LOCKED_THREADS)
        assert batched == reference

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_flush_at_lock_release(self, reference, batch_size):
        _acquire, release, _halt = self._boundary_seqs(reference)
        batched = _run(COUNTER_LOCKED, self.SEED, batch_size=batch_size,
                       flush_seqs=[release + 1], threads=LOCKED_THREADS)
        assert batched == reference

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_flush_at_thread_exit(self, reference, batch_size):
        _acquire, _release, halt = self._boundary_seqs(reference)
        batched = _run(COUNTER_LOCKED, self.SEED, batch_size=batch_size,
                       flush_seqs=[halt + 1], threads=LOCKED_THREADS)
        assert batched == reference


class TestEngineWindowBoundaries:
    """The engine's replay windows are boundary-invariant too: every
    capacity reproduces the one-row reports."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_replay_reports_invariant(self, batch_size):
        program = compile_source(COUNTER_LOCKED)

        def reports(size):
            machine = Machine(program, list(LOCKED_THREADS),
                              scheduler=RandomScheduler(seed=3,
                                                        switch_prob=0.5),
                              batch_size=size)
            result = DetectorEngine(
                program, ["svd", "frd", "lockset", "atomizer"],
                batch_size=size).run_machine(
                    machine, max_steps=MAX_STEPS)
            return {name: _svd_keys(result.report(name))
                    for name in ("svd", "frd", "lockset", "atomizer")}

        assert reports(batch_size) == reports(1)
