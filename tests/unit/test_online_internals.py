"""White-box tests of the online detector's internal machinery."""

import gc
import weakref

import pytest

from repro.core import OnlineSVD, SvdConfig
from repro.core.fsm import LOADED, LOADED_SHARED, TRUE_DEP
from repro.harness.runner import run_workload
from repro.lang import compile_source
from repro.machine import Machine, RandomScheduler, SerialScheduler
from repro.machine.batch import EventBatch
from repro.machine.events import EV_STORE
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


#: ``buf[i] = v + 1``: a store whose data and address are registers
STORE_SRC = ("shared int buf[4];"
             "thread t(int i) { int v = buf[0]; buf[i] = v + 1; }")


def svd_with_units(n):
    """Thread 0 of a fresh SVD holding ``n`` open units: unit ``k`` is
    born at seq ``k`` and reads block ``10 + k``, which a remote write
    by thread 1 conflicted with."""
    svd = OnlineSVD(compile_source(STORE_SRC))
    detector = svd._thread(0)
    units = []
    for k in range(n):
        cu = detector._new_cu(k)
        entry = detector._track(10 + k, cu)
        cu.rs.add(10 + k)
        entry.state = LOADED_SHARED
        entry.conflict = True
        entry.conflict_seq = entry.conflict_loc = 100 + k
        entry.conflict_tid = 1
        entry.conflict_addr = 10 + k
        units.append(cu)
    return svd, detector, units


def store(svd, tid, block, seq=50):
    """Feed one ``buf[i] = v + 1`` store by ``tid`` to ``block``."""
    pc = max(svd._store_ops)
    svd.consume_batch(EventBatch([(EV_STORE, seq, tid, pc, 0, block, 0,
                                   False, -1)]))


def data_and_address(svd):
    """The register slots the store's data and address are read from."""
    return svd._store_ops[max(svd._store_ops)]


class TestStorePath:
    def test_one_data_unit_checks_every_unit_in_uid_order(self):
        svd, detector, (a, b, c) = svd_with_units(3)
        data, address = data_and_address(svd)
        # the newest unit is the data, the oldest sits on the control
        # stack (its reconvergence pc is never reached)
        detector.regs[data] = c
        detector.regs[address] = b
        detector.ctrl_stack.append((a, -1))
        store(svd, 0, 3)
        assert [row[7] for row in svd.report.rows] == [0, 1, 2]
        assert [row[3] for row in svd.report.rows] == [10, 11, 12]
        assert detector.cus_merged == 0
        assert detector.blocks[3].cu is c
        assert a.active and b.active and 3 in c.ws

    def test_two_data_units_merge(self):
        svd, detector, (a, b) = svd_with_units(2)
        data, _address = data_and_address(svd)
        detector.regs[data] = frozenset((b, a))
        store(svd, 0, 3)
        assert [row[7] for row in svd.report.rows] == [0, 1]
        assert detector.cus_merged == 1
        merged = detector.blocks[3].cu
        assert a.resolve() is merged and b.resolve() is merged
        assert merged.rs == {10, 11} and 3 in merged.ws

    def test_untracked_store_under_a_tracked_branch(self):
        svd, detector, (a,) = svd_with_units(1)
        detector.ctrl_stack.append((a, -1))
        created = detector.cus_created
        store(svd, 0, 3)
        # the branch's unit is checked, and the store starts its own
        assert [row[7] for row in svd.report.rows] == [0]
        assert detector.cus_created == created + 1
        assert detector.cus_merged == 0
        fresh = detector.blocks[3].cu
        assert fresh is not a and fresh.active and a.active
        assert fresh.ws == {3} and 3 not in a.ws


class TestRemoteDelivery:
    def test_delivery_outlives_a_receiver_cut(self):
        """Thread 1 wrote and read the block back, so the remote store
        cuts its unit, which drops its interest mid-walk; thread 2,
        walked after it, still hears of the store."""
        svd = OnlineSVD(compile_source(STORE_SRC))
        for tid, state, blocks in ((1, TRUE_DEP, "ws"), (2, LOADED, "rs")):
            detector = svd._thread(tid)
            cu = detector._new_cu(tid)
            getattr(cu, blocks).add(3)
            detector._track(3, cu).state = state
        store(svd, 0, 3, seq=50)
        assert svd.remote_messages == 2
        assert 3 not in svd.threads[1].blocks
        assert svd.trackers[3] == {0, 2}
        assert [row[6] for row in svd.log.cu_rows] == ["remote-true-dep"]
        entry = svd.threads[2].blocks[3]
        assert (entry.state, entry.conflict, entry.conflict_seq,
                entry.conflict_tid) == (LOADED_SHARED, True, 50, 0)


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
