"""Trace recording, queries and serialization."""

import pytest

from repro.lang import compile_source
from repro.machine import EV_LOAD, EV_STORE, Machine, RandomScheduler
from repro.trace import Trace, TraceRecorder, conflicting
from tests.conftest import COUNTER_RACE, run_program


@pytest.fixture
def race_trace():
    machine, trace = run_program(COUNTER_RACE,
                                 [("worker", (10,)), ("worker", (10,))],
                                 seed=2, record=True)
    return machine, trace


class TestRecording:
    def test_events_in_seq_order(self, race_trace):
        _m, trace = race_trace
        seqs = [e.seq for e in trace]
        assert seqs == sorted(seqs)

    def test_thread_trace_is_subsequence(self, race_trace):
        _m, trace = race_trace
        t0 = trace.thread_trace(0)
        assert all(e.tid == 0 for e in t0)
        assert [e.seq for e in t0] == sorted(e.seq for e in t0)
        assert len(t0) + len(trace.thread_trace(1)) == len(trace)

    def test_memory_events_only_loads_stores(self, race_trace):
        _m, trace = race_trace
        for e in trace.memory_events():
            assert e.kind in (EV_LOAD, EV_STORE)
            assert e.addr >= 0

    def test_window_recording(self):
        prog = compile_source(COUNTER_RACE)
        recorder = TraceRecorder(prog, 2, start_seq=10, end_seq=50)
        m = Machine(prog, [("worker", (10,)), ("worker", (10,))],
                    scheduler=RandomScheduler(seed=2, switch_prob=0.4),
                    observers=[recorder])
        m.run()
        trace = recorder.trace()
        assert len(trace) == 40
        assert trace.events[0].seq == 10
        assert trace.events[-1].seq == 49

    def test_trace_hands_the_recording_over(self):
        """trace() keeps no copy: a second call returns what was
        recorded after the first, and the two together are the run."""
        prog = compile_source(COUNTER_RACE)
        recorder = TraceRecorder(prog, 2)
        m = Machine(prog, [("worker", (10,)), ("worker", (10,))],
                    scheduler=RandomScheduler(seed=2, switch_prob=0.4),
                    observers=[recorder])
        m.run(max_steps=30)
        first = recorder.trace()
        m.run()
        second = recorder.trace()
        assert len(first) == 30
        assert [e.seq for e in first] + [e.seq for e in second] == \
            list(range(m.seq))
        assert len(recorder.trace()) == 0

    def test_accesses_by_address_grouping(self, race_trace):
        _m, trace = race_trace
        by_addr = trace.accesses_by_address()
        counter_addr = trace.program.address_of("counter")
        # each of 20 iterations loads and stores the counter
        assert len(by_addr[counter_addr]) == 40


class TestConflicts:
    def test_conflicting_requires_different_threads(self, race_trace):
        _m, trace = race_trace
        mem = trace.memory_events()
        same_thread = [e for e in mem if e.tid == 0][:2]
        assert not conflicting(same_thread[0], same_thread[1])

    def test_read_read_not_conflicting(self):
        src = ("shared int x = 1; shared int r0; shared int r1;"
               "thread t(int tid) {"
               " if (tid == 0) { r0 = x; } else { r1 = x; } }")
        _m, trace = run_program(src, [("t", (0,)), ("t", (1,))], record=True)
        x_addr = trace.program.address_of("x")
        reads = [e for e in trace.memory_events()
                 if e.addr == x_addr and e.kind == EV_LOAD]
        assert len(reads) == 2
        assert not conflicting(reads[0], reads[1])

    def test_conflict_pairs_on_race(self, race_trace):
        _m, trace = race_trace
        pairs = list(trace.conflict_pairs())
        assert pairs  # racing counter accesses must conflict
        for early, late in pairs:
            assert early.seq < late.seq
            assert early.tid != late.tid
            assert early.is_write or late.is_write


class TestSerialization:
    def test_save_load_roundtrip(self, race_trace, tmp_path):
        _m, trace = race_trace
        path = str(tmp_path / "trace.jsonl")
        trace.save(path)
        loaded = Trace.load(path, trace.program)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.kind, a.seq, a.tid, a.pc, a.addr, a.value) == \
                (b.kind, b.seq, b.tid, b.pc, b.addr, b.value)
        assert loaded.n_threads == trace.n_threads

    def test_loaded_events_relink_instructions(self, race_trace, tmp_path):
        _m, trace = race_trace
        path = str(tmp_path / "trace.jsonl")
        trace.save(path)
        loaded = Trace.load(path, trace.program)
        for event in loaded:
            if event.pc >= 0:
                assert event.instr is trace.program.code[event.pc]
