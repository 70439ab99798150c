"""White-box tests of the online detector's internal machinery."""

import gc
import weakref

import pytest

from repro.core import OnlineSVD, SvdConfig
from repro.harness.runner import run_workload
from repro.lang import compile_source
from repro.machine import Machine, RandomScheduler, SerialScheduler
from repro.workloads import apache_log
from tests.conftest import run_with_svd


def run_serial_with_svd(source, threads):
    program = compile_source(source)
    svd = OnlineSVD(program)
    machine = Machine(program, threads, scheduler=SerialScheduler(),
                      observers=[svd])
    machine.run()
    return machine, svd


class TestControlStack:
    def test_stack_empty_after_structured_code(self):
        src = ("shared int x = 1; shared int y;"
               "thread t() { if (x) { y = 1; } else { y = 2; }"
               " if (y) { if (x) { y = 3; } } }")
        _m, svd = run_serial_with_svd(src, [("t", ())])
        for detector in svd.threads.values():
            assert detector.ctrl_stack == []

    def test_loop_branches_never_pushed(self):
        src = ("shared int x;"
               "thread t() { int i = 0; while (i < 50) {"
               " x = x + 1; i = i + 1; } }")
        program = compile_source(src)
        svd = OnlineSVD(program)
        # one-row windows, or the peak probe below is vacuous
        machine = Machine(program, [("t", ())], scheduler=SerialScheduler(),
                          batch_size=1)
        machine.add_observer(svd)
        # track peak control-stack depth during the run
        peak = 0
        while machine.step():
            for detector in svd.threads.values():
                peak = max(peak, len(detector.ctrl_stack))
        assert peak == 0  # loop-type control flow is not inferred

    def test_nested_ifs_push_and_pop(self):
        src = ("shared int x = 1; shared int y = 1; shared int z;"
               "thread t() { if (x) { if (y) { z = 1; } } }")
        program = compile_source(src)
        svd = OnlineSVD(program)
        # this test polls detector state after every single step, so
        # every emission must flush at once
        machine = Machine(program, [("t", ())], scheduler=SerialScheduler(),
                          batch_size=1)
        machine.add_observer(svd)
        peak = 0
        while machine.step():
            for detector in svd.threads.values():
                peak = max(peak, len(detector.ctrl_stack))
        assert peak == 2  # both if-entries were live at once
        assert all(not d.ctrl_stack for d in svd.threads.values())


class TestRegisterPropagation:
    def test_load_sets_singleton_cuset(self):
        src = "shared int x = 1; thread t() { int y = x; output(y); }"
        program = compile_source(src)
        svd = OnlineSVD(program)
        machine = Machine(program, [("t", ())], scheduler=SerialScheduler())
        machine.add_observer(svd)
        machine.run()
        # at thread end registers were cleared
        assert all(not any(d.regs) for d in svd.threads.values())

    def test_alu_unions_cusets(self):
        """Two independent shared reads feed one ALU: the consuming
        store's check covers both CUs (detected via merge count)."""
        src = ("shared int a = 1; shared int b = 2; shared int r;"
               "thread t() { r = a + b; }"
               "thread other() { int x = a; int y = b; output(x + y); }")
        _m, svd = run_serial_with_svd(src, [("t", ()), ("other", ())])
        # storing r merged the CUs of the two loads
        assert svd.cus_merged >= 1


class TestDirectory:
    def test_interest_follows_tracked_blocks(self):
        src = ("shared int x;"
               "thread t(int n) { int i = 0; while (i < n) {"
               " x = x + 1; i = i + 1; } }")
        program = compile_source(src)
        svd = OnlineSVD(program)
        # per-step polling of the directory needs one-row windows
        machine = Machine(program, [("t", (5,)), ("t", (5,))],
                          scheduler=RandomScheduler(seed=1, switch_prob=0.5),
                          observers=[svd], batch_size=1)
        # mid-run, some thread must register interest in x's block
        saw_interest = False
        x_addr = program.address_of("x")
        while machine.step():
            if svd.trackers.get(x_addr):
                saw_interest = True
        assert saw_interest
        assert not svd.trackers  # all interest dropped at the end

    def test_remote_messages_counted_only_for_trackers(self):
        # two threads on disjoint data: no remote messages at all
        src = ("shared int a; shared int b;"
               "thread ta() { a = 1; a = a + 1; }"
               "thread tb() { b = 1; b = b + 1; }")
        program = compile_source(src)
        svd = OnlineSVD(program)
        machine = Machine(program, [("ta", ()), ("tb", ())],
                          scheduler=RandomScheduler(seed=1, switch_prob=0.9),
                          observers=[svd])
        machine.run()
        assert svd.remote_messages == 0


class TestCommunicationLog:
    def test_triple_requires_prior_local_write(self):
        """A read of a remotely-written variable with no preceding local
        write is ordinary communication, not an overwrite -- no triple."""
        src = ("shared int flag;"
               "thread w() { flag = 1; }"
               "thread r() { int v = flag; output(v); }")
        program = compile_source(src)
        svd = OnlineSVD(program)
        machine = Machine(program, [("w", ()), ("r", ())],
                          scheduler=SerialScheduler(), observers=[svd])
        machine.run()
        assert len(svd.log.entries) == 0

    def test_triple_on_overwritten_local_communication(self):
        """w writes, r overwrites remotely, w reads back: that is the
        (s, rw, lw) pattern."""
        src = ("shared int v;"
               "thread w() { v = 1; int back = v; output(back); }"
               "thread r() { v = 2; }")
        program = compile_source(src)
        # quantum=1 interleaves exactly: w stores, r overwrites, w reads
        from repro.machine import RoundRobinScheduler
        svd = OnlineSVD(program)
        machine = Machine(program, [("w", ()), ("r", ())],
                          scheduler=RoundRobinScheduler(quantum=1),
                          observers=[svd])
        machine.run()
        matching = [e for e in svd.log.entries
                    if program.name_of_address(e.address) == "v"]
        assert matching
        entry = matching[0]
        assert entry.remote_tid != entry.tid
        assert entry.local_seq < entry.remote_seq < entry.reader_seq


class TestLifetime:
    @pytest.fixture
    def no_cyclic_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_finished_svd_freed_without_the_cyclic_collector(
            self, no_cyclic_collector):
        """Per-thread detectors hold the directory, log and report they
        write to, not their manager, so dropping a finished run's
        result frees its SVD -- CU log and communication log with it --
        by reference counting alone."""
        result = run_workload(apache_log(writers=3, requests=12), seed=5)
        svd = result.engine.detector("svd")
        assert svd.log.cu_records and svd.threads
        ref = weakref.ref(svd)
        del svd, result
        assert ref() is None
