"""Campaign engine tests: deterministic seed derivation, serial/parallel
result equality, worker-crash isolation, and each process building a
workload once per campaign."""

import multiprocessing
import os
import time

import pytest

import repro.workloads.base as workload_base
from repro.harness import pool
from repro.harness.campaign import (CampaignSpec, ConfigSpec, WorkloadSpec,
                                    derive_seed, execute_task, run_campaign)

FAST = ConfigSpec(max_steps=30_000)

COUNTING = "tests.unit.test_campaign:counting_workload"


def failing_workload():
    """Injected broken factory: raises before a machine ever runs."""
    raise RuntimeError("injected workload failure")


def hanging_workload():
    """Injected hang: sleeps far past any per-task timeout."""
    time.sleep(600)


def counting_workload(path, workload="stringbuffer", fail=False):
    """Injected factory that logs each build: appends this process's
    pid to ``path``, then builds registry workload ``workload`` (or
    raises, with ``fail``)."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    if fail:
        raise RuntimeError("injected workload failure")
    from repro.workloads import WORKLOADS
    return WORKLOADS[workload]()


def builds(path):
    """The pid of every build :func:`counting_workload` logged."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [int(pid) for pid in fh.read().split()]


def counting_spec(tmp_path, seeds=3, **kwargs):
    return CampaignSpec(
        workloads=[WorkloadSpec(name=name, factory=COUNTING,
                                kwargs={"path": str(tmp_path / name),
                                        "workload": name})
                   for name in ("stringbuffer", "queue-region")],
        configs=[FAST], seeds=seeds, **kwargs)


def small_spec(seeds=3, **kwargs):
    return CampaignSpec(
        workloads=[WorkloadSpec(name="stringbuffer"),
                   WorkloadSpec(name="queue-region")],
        configs=[FAST], seeds=seeds, **kwargs)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, "apache", "default", 3) == \
            derive_seed(0, "apache", "default", 3)

    def test_coordinates_matter(self):
        base = derive_seed(0, "apache", "default", 0)
        assert derive_seed(1, "apache", "default", 0) != base
        assert derive_seed(0, "mysql", "default", 0) != base
        assert derive_seed(0, "apache", "block4", 0) != base
        assert derive_seed(0, "apache", "default", 1) != base

    def test_stable_across_releases(self):
        """Pinned values: changing the derivation silently re-randomises
        every recorded campaign, so it must be an explicit decision."""
        assert derive_seed(0, "apache", "default", 0) == 1760085674
        assert derive_seed(7, "pgsql", "block4", 3) == 1977583274

    def test_task_expansion_is_deterministic(self):
        tasks_a = small_spec().tasks()
        tasks_b = small_spec().tasks()
        assert [(t.index, t.workload.name, t.seed_index, t.seed)
                for t in tasks_a] == \
            [(t.index, t.workload.name, t.seed_index, t.seed)
             for t in tasks_b]


class TestSerialCampaign:
    def test_runs_and_aggregates(self):
        report = run_campaign(small_spec(), workers=1)
        assert len(report.results) == 6
        assert all(r.ok for r in report.results)
        rows = report.table2_rows()
        assert {row.program for row in rows} == \
            {"stringbuffer", "queue-region"}
        assert all(row.segments == 3 for row in rows)

    def test_identical_across_repeats(self):
        first = run_campaign(small_spec(), workers=1)
        second = run_campaign(small_spec(), workers=1)
        assert first.render_metrics() == second.render_metrics()

    def test_streaming_callback_sees_every_result(self):
        seen = []
        run_campaign(small_spec(seeds=2), workers=1,
                     on_result=lambda r: seen.append(r.index))
        assert sorted(seen) == list(range(4))

    def test_negative_task_retries_is_an_error(self):
        """It would run no attempt: the spec itself is refused."""
        with pytest.raises(ValueError, match="retries must be >= 0"):
            run_campaign(small_spec(seeds=2, task_retries=-1), workers=1)

    def test_negative_task_retries_is_refused_before_the_journal(
            self, tmp_path):
        """The spec is refused when it is built: no journal is written,
        so a corrected rerun into the same directory starts cleanly."""
        journal = tmp_path / "journal"
        with pytest.raises(ValueError, match="retries must be >= 0"):
            run_campaign(CampaignSpec([WorkloadSpec("stringbuffer")],
                                      configs=[FAST], seeds=2,
                                      task_retries=-1),
                         journal_dir=str(journal))
        assert not journal.exists() or not os.listdir(journal)
        report = run_campaign(CampaignSpec([WorkloadSpec("stringbuffer")],
                                           configs=[FAST], seeds=2),
                              journal_dir=str(journal))
        assert report.completed == 2


class TestConfigSpec:
    @pytest.mark.parametrize("switch_prob", [0.0, -0.5, 1.5])
    def test_rejects_switch_prob_outside_the_unit_interval(self,
                                                          switch_prob):
        """Checked when the spec is built: each task's scheduler raised
        it instead, and every task became an ``error`` result."""
        with pytest.raises(ValueError,
                           match=r"switch_prob must be in \(0, 1\]"):
            ConfigSpec(switch_prob=switch_prob)

    def test_accepts_one(self):
        assert ConfigSpec(switch_prob=1.0).switch_prob == 1.0


class TestParallelCampaign:
    def test_matches_serial_byte_for_byte(self):
        serial = run_campaign(small_spec(), workers=1)
        parallel = run_campaign(small_spec(), workers=2)
        assert parallel.render_metrics() == serial.render_metrics()
        assert parallel.render_table2() == serial.render_table2()

    def test_per_run_results_match_serial(self):
        serial = run_campaign(small_spec(seeds=2), workers=1)
        parallel = run_campaign(small_spec(seeds=2), workers=3)
        for a, b in zip(serial.results, parallel.results):
            assert (a.index, a.workload, a.seed, a.status,
                    a.instructions, a.svd.dynamic_total) == \
                (b.index, b.workload, b.seed, b.status,
                 b.instructions, b.svd.dynamic_total)


class TestCrashIsolation:
    def spec_with_failure(self):
        return CampaignSpec(
            workloads=[
                WorkloadSpec(name="stringbuffer"),
                WorkloadSpec(
                    name="broken",
                    factory="tests.unit.test_campaign:failing_workload"),
            ],
            configs=[FAST], seeds=2)

    def test_serial_failure_is_one_error_result(self):
        report = run_campaign(self.spec_with_failure(), workers=1)
        errors = [r for r in report.results if not r.ok]
        assert len(errors) == 2  # one per seed of the broken workload
        assert all(r.workload == "broken" for r in errors)
        assert all("injected workload failure" in r.error for r in errors)
        # the healthy workload still completed every seed
        ok = [r for r in report.results if r.workload == "stringbuffer"]
        assert len(ok) == 2 and all(r.ok for r in ok)

    def test_parallel_failure_does_not_kill_campaign(self):
        report = run_campaign(self.spec_with_failure(), workers=2)
        assert len(report.results) == 4
        errors = [r for r in report.results if not r.ok]
        assert [r.workload for r in errors] == ["broken", "broken"]

    def test_hung_worker_is_timed_out_and_isolated(self):
        spec = CampaignSpec(
            workloads=[
                WorkloadSpec(name="stringbuffer"),
                WorkloadSpec(
                    name="hang",
                    factory="tests.unit.test_campaign:hanging_workload"),
            ],
            configs=[FAST], seeds=1, task_timeout=1.5)
        report = run_campaign(spec, workers=2)
        assert len(report.results) == 2
        hung = [r for r in report.results if r.workload == "hang"]
        assert len(hung) == 1 and hung[0].status == "timeout"
        healthy = [r for r in report.results
                   if r.workload == "stringbuffer"]
        assert len(healthy) == 1 and healthy[0].ok

    def test_failed_build_is_not_cached(self, tmp_path):
        path = str(tmp_path / "builds")
        spec = CampaignSpec(
            workloads=[WorkloadSpec(name="broken", factory=COUNTING,
                                    kwargs={"path": path, "fail": True})],
            configs=[FAST], seeds=3)
        report = run_campaign(spec, workers=1)
        assert [r.status for r in report.results] == ["error"] * 3
        assert all("injected workload failure" in r.error
                   for r in report.results)
        # every task tried its own build: a failure leaves nothing to reuse
        assert builds(path) == [os.getpid()] * 3

    def test_execute_task_never_raises(self):
        spec = self.spec_with_failure()
        for task in spec.tasks():
            result = execute_task(task, {})
            assert result.status != ""  # always a result, never a raise


class TestCampaignObs:
    def test_tasks_carry_obs_flag(self):
        assert all(not t.obs for t in small_spec().tasks())
        assert all(t.obs for t in small_spec(obs=True).tasks())

    def test_serial_collects_snapshots(self):
        report = run_campaign(small_spec(seeds=2, obs=True), workers=1)
        assert all(r.obs is not None for r in report.results)
        merged = report.merged_obs()
        assert merged["counters"]["runner.runs"] == 4

    def test_obs_json_byte_identical_across_worker_counts(self):
        serial = run_campaign(small_spec(obs=True), workers=1)
        parallel = run_campaign(small_spec(obs=True), workers=2)
        assert serial.obs_json() is not None
        assert serial.obs_json() == parallel.obs_json()

    def test_no_obs_means_no_snapshots(self):
        report = run_campaign(small_spec(seeds=1), workers=1)
        assert all(r.obs is None for r in report.results)
        assert report.merged_obs() is None
        assert report.obs_json() is None

    def test_worker_scope_does_not_leak_into_parent(self):
        import repro.obs as obs
        run_campaign(small_spec(seeds=1, obs=True), workers=1)
        assert not obs.metrics_enabled()


class TestBudget:
    def test_budget_skips_rather_than_hangs(self):
        spec = small_spec(seeds=40)
        report = run_campaign(spec, workers=1, budget=0.0)
        skipped = [r for r in report.results if r.status == "skipped"]
        assert len(report.results) == 80
        assert len(skipped) >= 78  # the first task may sneak in


class TestWorkloadReuse:
    """Each process builds (and so compiles) a workload once per
    campaign, keyed by the spec's canonical JSON."""

    def test_serial_builds_each_spec_once(self, tmp_path):
        report = run_campaign(counting_spec(tmp_path), workers=1)
        # counted before rendering: the report's buggy map builds again
        counts = {name: builds(str(tmp_path / name))
                  for name in ("stringbuffer", "queue-region")}
        assert counts == {"stringbuffer": [os.getpid()],
                          "queue-region": [os.getpid()]}
        assert len(report.results) == 6
        assert all(r.ok for r in report.results)
        assert report.render_metrics() == \
            run_campaign(small_spec(), workers=1).render_metrics()

    def test_serial_compiles_each_program_once(self, monkeypatch):
        compiles = []
        compile_source = workload_base.compile_source

        def counting_compile(source):
            compiles.append(source)
            return compile_source(source)

        monkeypatch.setattr(workload_base, "compile_source",
                            counting_compile)
        report = run_campaign(small_spec(), workers=1)
        assert len(report.results) == 6
        assert len(compiles) == 2

    def test_parallel_builds_each_spec_at_most_once_per_pid(self, tmp_path):
        report = run_campaign(counting_spec(tmp_path), workers=2)
        assert all(r.ok for r in report.results)
        for name in ("stringbuffer", "queue-region"):
            pids = builds(str(tmp_path / name))
            assert 1 <= len(pids) <= 2
            assert len(set(pids)) == len(pids), (name, pids)
            assert os.getpid() not in pids

    def test_same_name_different_kwargs_build_separately(self, tmp_path):
        spec = CampaignSpec(
            workloads=[WorkloadSpec(name="same", factory=COUNTING,
                                    kwargs={"path": str(tmp_path / name),
                                            "workload": name})
                       for name in ("stringbuffer", "queue-region")],
            configs=[FAST], seeds=2)
        report = run_campaign(spec, workers=1)
        assert builds(str(tmp_path / "stringbuffer")) == [os.getpid()]
        assert builds(str(tmp_path / "queue-region")) == [os.getpid()]
        # one name, so the same seeds; two programs, so other runs
        first, second = report.results[:2], report.results[2:]
        assert [r.seed for r in first] == [r.seed for r in second]
        assert [r.instructions for r in first] != \
            [r.instructions for r in second]


class TestSpawnStartMethod:
    def test_spawned_workers_render_like_serial(self, monkeypatch):
        serial = run_campaign(small_spec(seeds=2), workers=1)
        monkeypatch.setattr(pool, "_pick_context",
                            lambda: multiprocessing.get_context("spawn"))
        spawned = run_campaign(small_spec(seeds=2), workers=2)
        assert all(r.ok for r in spawned.results)
        assert spawned.render_metrics() == serial.render_metrics()
        assert spawned.render_table2() == serial.render_table2()
