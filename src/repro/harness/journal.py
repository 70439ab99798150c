"""Campaign checkpoint/resume journal.

A campaign given ``--journal DIR`` records every *final* task outcome
(``ok``/``error``/``timeout`` -- never budget ``skipped``, which must
re-run on resume) in ``DIR/journal.jsonl``: a header line naming the
spec fingerprint (and shard, for sharded campaigns), then one
:class:`CampaignResult` JSON object per line.

Appends are O(1) and durable: each record is appended to the journal
file, flushed, and fsynced, and then a tiny *commit marker*
(``DIR/journal.commit``) naming the committed byte length is atomically
rewritten (temp sibling + fsync + ``os.replace``).  Loaders read at
most the committed length, so a SIGKILL at any instant -- including
mid-append, when the journal file itself may end in a torn line --
loses at most the in-flight tasks: the torn tail lies beyond the
marker and is truncated away on resume before the next append.
(Journals from the v1 whole-file-rewrite protocol have no marker; they
are loaded whole, tolerating a torn final line.)

Resume (``--resume DIR``) replays the journal as a stream (O(1) memory
in journal length), verifies the fingerprint (the journal of a
*different* matrix must not be silently merged) and shard assignment,
and the campaign runs only the tasks not yet journaled.  Because every
task's seed is position-derived and aggregation is commutative, the
merged report and metrics of an interrupted+resumed campaign are
byte-identical to an uninterrupted run at any worker count.

The fingerprint covers the task matrix identity (workloads, configs,
seed count, master seed, obs flag) and deliberately not execution
policy (timeouts, retries, worker count) -- rerunning with a longer
timeout must be able to resume the same journal.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.obs.io import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.campaign import CampaignResult, CampaignSpec

JOURNAL_NAME = "journal.jsonl"
COMMIT_NAME = "journal.commit"
_FORMAT = "repro-campaign-journal"
_COMMIT_FORMAT = "repro-campaign-journal-commit"
_VERSION = 2


class JournalError(ValueError):
    """Journal misuse: exists without --resume, or fingerprint/shard
    mismatch."""


def spec_fingerprint(spec: "CampaignSpec") -> str:
    """SHA-256 over the canonical JSON of the spec's matrix identity."""
    identity = {
        "workloads": [w.to_json() for w in spec.workloads],
        "configs": [asdict(c) for c in spec.configs],
        "seeds": spec.seeds,
        "master_seed": spec.master_seed,
        "obs": spec.obs,
    }
    blob = json.dumps(identity, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _read_marker(path: str) -> Optional[int]:
    """The committed byte length from a commit marker, or ``None`` when
    the marker is absent or unreadable (v1 journal, or a marker torn by
    a crash mid-``os.replace`` -- impossible on POSIX, but be
    tolerant)."""
    try:
        with open(path, "r") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("format") != _COMMIT_FORMAT:
        return None
    length = doc.get("length")
    if isinstance(length, bool) or not isinstance(length, int) or length < 0:
        return None
    return length


class CampaignJournal:
    """The on-disk record of a (possibly interrupted) campaign."""

    def __init__(self, directory: str, fingerprint: str,
                 shard: Optional[Tuple[int, int]] = None) -> None:
        self.directory = directory
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.commit_path = os.path.join(directory, COMMIT_NAME)
        self.fingerprint = fingerprint
        self.shard = shard
        #: byte offset of the last committed record's end; ``None``
        #: until the existing journal has been replayed
        self.committed: Optional[int] = None
        #: committed record count (mirrors the marker)
        self.records = 0
        self._header_end = 0
        self._limit = 0
        self._fh = None

    @classmethod
    def open(cls, directory: str, spec: "CampaignSpec",
             resume: bool = False,
             shard: Optional[Tuple[int, int]] = None) -> "CampaignJournal":
        """Create (or, with ``resume``, reload) the journal for ``spec``
        in ``directory``."""
        fingerprint = spec_fingerprint(spec)
        path = os.path.join(directory, JOURNAL_NAME)
        shard_doc = (None if shard is None
                     else {"index": shard[0], "count": shard[1]})
        if os.path.exists(path):
            if not resume:
                raise JournalError(
                    f"{path}: journal already exists; resume it "
                    f"(--resume) or pick a fresh directory")
            with open(path, "rb") as fh:
                header_line = fh.readline()
            if not header_line.strip():
                raise JournalError(f"{path}: empty journal")
            try:
                header = json.loads(header_line.decode("utf-8"))
            except ValueError:
                raise JournalError(f"{path}: not a campaign journal")
            if (not isinstance(header, dict)
                    or header.get("format") != _FORMAT):
                raise JournalError(f"{path}: not a campaign journal")
            if header.get("fingerprint") != fingerprint:
                raise JournalError(
                    f"{path}: journal belongs to a different campaign "
                    f"spec (fingerprint {header.get('fingerprint')!r} != "
                    f"{fingerprint!r}); matrix, seeds, and master seed "
                    f"must match to resume")
            if header.get("shard") != shard_doc:
                raise JournalError(
                    f"{path}: journal shard {header.get('shard')!r} does "
                    f"not match requested shard {shard_doc!r}")
            journal = cls(directory, fingerprint, shard)
            journal._header_end = len(header_line)
            size = os.path.getsize(path)
            marker = _read_marker(journal.commit_path)
            # never trust the marker past the actual file (the journal
            # may have been truncated out from under it), and never
            # below the header
            limit = size if marker is None else min(marker, size)
            journal._limit = max(limit, journal._header_end)
            return journal
        os.makedirs(directory, exist_ok=True)
        journal = cls(directory, fingerprint, shard)
        header = {"format": _FORMAT, "version": _VERSION,
                  "fingerprint": fingerprint}
        if shard_doc is not None:
            header["shard"] = shard_doc
        blob = (json.dumps(header) + "\n").encode("utf-8")
        with open(journal.path, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        journal._header_end = len(blob)
        journal._limit = len(blob)
        journal.committed = len(blob)
        journal._commit()
        return journal

    def replay(self) -> Iterator["CampaignResult"]:
        """Stream the committed results, one complete line at a time
        (O(1) memory in journal length).

        Exhausting the stream fixes :attr:`committed`/:attr:`records`
        to the end of the last parseable committed record; any torn or
        uncommitted tail beyond that is silently dropped (and truncated
        away by the first subsequent :meth:`record`)."""
        if self.committed is not None:
            return
        from repro.harness.campaign import CampaignResult

        offset = self._header_end
        records = 0
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            while offset < self._limit:
                line = fh.readline()
                if not line:
                    break
                end = offset + len(line)
                if end > self._limit or not line.endswith(b"\n"):
                    # a record beyond the commit marker (append that
                    # never committed) or a torn tail: not part of the
                    # campaign's durable state
                    break
                try:
                    result = CampaignResult.from_json(
                        json.loads(line.decode("utf-8")))
                except (ValueError, KeyError):
                    break
                offset = end
                records += 1
                yield result
        self.committed = offset
        self.records = records

    def record(self, result: "CampaignResult") -> None:
        """Journal one final task outcome: O(1) fsynced append, then an
        atomic commit-marker update."""
        if result.status == "skipped":
            # a budget skip is not an outcome; it must re-run on resume
            return
        if self.committed is None:
            for _ in self.replay():
                pass
        if self._fh is None:
            self._fh = open(self.path, "r+b")
            # drop any torn/uncommitted tail before the first append
            self._fh.truncate(self.committed)
            self._fh.seek(self.committed)
        line = (json.dumps(result.to_json(), sort_keys=True)
                + "\n").encode("utf-8")
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.committed += len(line)
        self.records += 1
        self._commit()

    def _commit(self) -> None:
        atomic_write_text(
            self.commit_path,
            json.dumps({"format": _COMMIT_FORMAT,
                        "length": self.committed,
                        "records": self.records}) + "\n",
            fsync=True)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
