"""Campaign checkpoint/resume: the journal, fingerprinting, and the
byte-identity guarantee -- an interrupted campaign resumed at any worker
count produces exactly the report an uninterrupted run would have.
"""

import json
import os

import pytest

import repro.faults as faults
from repro.faults import Fault, FaultPlan
from repro.harness.campaign import (CampaignResult, CampaignSpec,
                                    ConfigSpec, WorkloadSpec, run_campaign)
from repro.harness.journal import (COMMIT_NAME, CampaignJournal,
                                   JournalError, spec_fingerprint)

FAST = ConfigSpec(max_steps=30_000)


def small_spec(seeds=2, **kwargs):
    return CampaignSpec(
        workloads=[WorkloadSpec(name="stringbuffer"),
                   WorkloadSpec(name="queue-region")],
        configs=[FAST], seeds=seeds, **kwargs)


def journal_lines(directory):
    with open(os.path.join(directory, "journal.jsonl")) as fh:
        return fh.read().splitlines()


class TestFingerprint:
    def test_stable_for_same_matrix(self):
        assert spec_fingerprint(small_spec()) == \
            spec_fingerprint(small_spec())

    def test_sensitive_to_matrix_identity(self):
        base = spec_fingerprint(small_spec())
        assert spec_fingerprint(small_spec(seeds=3)) != base
        assert spec_fingerprint(small_spec(master_seed=1)) != base

    def test_pinned_digests(self):
        """Journals written by earlier releases must still resume, so
        the digest of a fixed spec is pinned, factory and kwargs
        included."""
        assert spec_fingerprint(small_spec()) == (
            "8826419861c776bb294e1a1b8cb0607c06ef26da072267cebf93c456fc54ed9c")
        spec = CampaignSpec(
            workloads=[WorkloadSpec(name="stringbuffer"),
                       WorkloadSpec(
                           name="broken",
                           factory="tests.unit.test_campaign:"
                           "failing_workload",
                           kwargs={"n": 3, "path": "x"})],
            configs=[FAST], seeds=2)
        assert spec_fingerprint(spec) == (
            "e60054b001f030a06cdc8feeae6a4e05e13e971ea7a0342fca50fb5bcf885589")

    def test_insensitive_to_execution_policy(self):
        """Timeout/retry/worker knobs must not invalidate a journal --
        resuming with a longer timeout is the whole point."""
        base = spec_fingerprint(small_spec())
        assert spec_fingerprint(small_spec(task_timeout=99.0)) == base
        assert spec_fingerprint(small_spec(task_retries=5,
                                           retry_backoff=1.0)) == base


class TestJournalFile:
    def test_campaign_writes_one_record_per_task(self, tmp_path):
        jdir = str(tmp_path / "j")
        report = run_campaign(small_spec(), workers=1, journal_dir=jdir)
        lines = journal_lines(jdir)
        header = json.loads(lines[0])
        assert header["format"] == "repro-campaign-journal"
        assert header["fingerprint"] == spec_fingerprint(small_spec())
        assert len(lines) - 1 == len(report.results) == 4

    def test_results_round_trip_exactly(self, tmp_path):
        jdir = str(tmp_path / "j")
        report = run_campaign(small_spec(), workers=1, journal_dir=jdir)
        by_index = {r.index: r for r in report.results}
        for line in journal_lines(jdir)[1:]:
            loaded = CampaignResult.from_json(json.loads(line))
            assert loaded == by_index[loaded.index]

    def test_existing_journal_requires_resume(self, tmp_path):
        jdir = str(tmp_path / "j")
        run_campaign(small_spec(), workers=1, journal_dir=jdir)
        with pytest.raises(JournalError, match="already exists"):
            run_campaign(small_spec(), workers=1, journal_dir=jdir)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        jdir = str(tmp_path / "j")
        run_campaign(small_spec(), workers=1, journal_dir=jdir)
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(small_spec(seeds=3), workers=1,
                         journal_dir=jdir, resume=True)

    def test_non_journal_file_rejected(self, tmp_path):
        jdir = tmp_path / "j"
        jdir.mkdir()
        (jdir / "journal.jsonl").write_text('{"format": "something"}\n')
        with pytest.raises(JournalError, match="not a campaign journal"):
            run_campaign(small_spec(), workers=1, journal_dir=str(jdir),
                         resume=True)


class TestCommitMarker:
    """The v2 append-fsync-commit protocol: the marker is the durable
    truth, anything beyond it is discardable in-flight state."""

    def _marker(self, jdir):
        with open(os.path.join(jdir, COMMIT_NAME)) as fh:
            return json.loads(fh.read())

    def test_marker_tracks_every_committed_record(self, tmp_path):
        jdir = str(tmp_path / "j")
        report = run_campaign(small_spec(), workers=1, journal_dir=jdir)
        marker = self._marker(jdir)
        assert marker["format"] == "repro-campaign-journal-commit"
        assert marker["records"] == len(report.results) == 4
        path = os.path.join(jdir, "journal.jsonl")
        assert marker["length"] == os.path.getsize(path)
        # the committed prefix is whole lines, every one of them JSON
        with open(path, "rb") as fh:
            blob = fh.read(marker["length"])
        assert blob.endswith(b"\n")
        for line in blob.splitlines():
            json.loads(line)

    def test_torn_tail_beyond_marker_is_dropped(self, tmp_path):
        """A SIGKILL mid-append leaves a torn final line past the
        marker; resume must ignore it entirely."""
        reference = run_campaign(small_spec(), workers=1)
        jdir = str(tmp_path / "j")
        run_campaign(small_spec(), workers=1, journal_dir=jdir)
        with open(os.path.join(jdir, "journal.jsonl"), "ab") as fh:
            fh.write(b'{"index": 99, "status": "ok", "truncat')
        ran = []
        resumed = run_campaign(small_spec(), workers=1, journal_dir=jdir,
                               resume=True,
                               on_result=lambda r: ran.append(r.index))
        assert ran == []
        assert resumed.render_metrics() == reference.render_metrics()

    def test_uncommitted_records_rerun_and_tail_truncated(self, tmp_path):
        """Rolling the marker back makes the later records in-flight
        state: resume re-runs those tasks, and the first new append
        truncates the stale tail away before writing."""
        reference = run_campaign(small_spec(), workers=1)
        jdir = str(tmp_path / "j")
        run_campaign(small_spec(), workers=1, journal_dir=jdir)
        lines = journal_lines(jdir)
        committed = sum(len(line) + 1 for line in lines[:3])  # header + 2
        from repro.obs.io import atomic_write_text
        atomic_write_text(
            os.path.join(jdir, COMMIT_NAME),
            json.dumps({"format": "repro-campaign-journal-commit",
                        "length": committed, "records": 2}) + "\n")
        ran = []
        resumed = run_campaign(small_spec(), workers=1, journal_dir=jdir,
                               resume=True,
                               on_result=lambda r: ran.append(r.index))
        assert sorted(ran) == [2, 3]
        assert resumed.render_metrics() == reference.render_metrics()
        # the journal is whole again and the marker covers all of it
        assert len(journal_lines(jdir)) - 1 == 4
        marker = self._marker(jdir)
        assert marker["records"] == 4
        assert marker["length"] == os.path.getsize(
            os.path.join(jdir, "journal.jsonl"))

    def test_v1_journal_without_marker_still_resumes(self, tmp_path):
        """Pre-marker journals load whole-file (tolerating a torn final
        line), so existing journals survive the protocol upgrade."""
        reference = run_campaign(small_spec(), workers=1)
        jdir = str(tmp_path / "j")
        run_campaign(small_spec(), workers=1, journal_dir=jdir)
        os.unlink(os.path.join(jdir, COMMIT_NAME))
        ran = []
        resumed = run_campaign(small_spec(), workers=1, journal_dir=jdir,
                               resume=True,
                               on_result=lambda r: ran.append(r.index))
        assert ran == []
        assert resumed.render_metrics() == reference.render_metrics()


class TestResumeIdentity:
    def _truncate_journal(self, jdir, keep_records):
        path = os.path.join(jdir, "journal.jsonl")
        lines = journal_lines(jdir)
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:1 + keep_records]) + "\n")

    @pytest.mark.parametrize("keep,resume_workers", [(1, 1), (2, 2),
                                                     (3, 1)])
    def test_interrupted_resume_is_byte_identical(self, tmp_path, keep,
                                                  resume_workers):
        reference = run_campaign(small_spec(), workers=1)
        jdir = str(tmp_path / "j")
        run_campaign(small_spec(), workers=1, journal_dir=jdir)
        # simulate a kill after ``keep`` journaled results
        self._truncate_journal(jdir, keep)
        resumed = run_campaign(small_spec(), workers=resume_workers,
                               journal_dir=jdir, resume=True)
        assert len(resumed.results) == len(reference.results)
        assert resumed.render_metrics() == reference.render_metrics()
        by_index = {r.index: r for r in resumed.results}
        for ref in reference.results:
            assert by_index[ref.index] == ref
        # the journal is whole again after the resume
        assert len(journal_lines(jdir)) - 1 == len(reference.results)

    def test_fully_journaled_campaign_runs_nothing(self, tmp_path):
        jdir = str(tmp_path / "j")
        first = run_campaign(small_spec(), workers=1, journal_dir=jdir)
        ran = []
        resumed = run_campaign(small_spec(), workers=1, journal_dir=jdir,
                               resume=True,
                               on_result=lambda r: ran.append(r.index))
        assert ran == []
        assert resumed.render_metrics() == first.render_metrics()


class TestRetryIntegration:
    def test_worker_crash_fault_recovered_by_retry(self, tmp_path):
        """A campaign task whose worker crashes is retried (the fault
        fires only on the first attempt) and the merged report matches a
        fault-free run."""
        reference = run_campaign(small_spec(), workers=1)
        plan = FaultPlan([Fault("worker.crash", at=1)])
        with faults.install(plan):
            report = run_campaign(small_spec(task_retries=1), workers=2)
        assert all(r.ok for r in report.results)
        assert report.render_metrics() == reference.render_metrics()

    def test_without_retries_the_crash_is_an_error(self, tmp_path):
        plan = FaultPlan([Fault("worker.crash", at=1)])
        with faults.install(plan):
            report = run_campaign(small_spec(), workers=2)
        errors = report.errors
        assert len(errors) == 1
        assert errors[0].index == 1
        assert "exitcode 23" in errors[0].error
