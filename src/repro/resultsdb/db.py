"""The persistent results database: every run, remembered.

Before this module existed, evidence evaporated: obs snapshots lived
only in stdout, ``BENCH_*.json`` artefacts were overwritten in place,
and the cross-PR benchmark trajectory was empty -- which is exactly how
a 0.974x engine regression once survived several PRs undetected.  The
results database is the fix: a single-file SQLite store (stdlib
``sqlite3``, no dependencies) that records every ``run``, ``campaign``,
``fuzz`` hunt, and ``bench`` artefact through one entry point,
:func:`write_run`, keyed by a *config fingerprint* so later queries can
compare like with like.

Design rules:

* **One table, wide rows.**  A run record carries its identity columns
  (kind, label, fingerprint, seeds, detectors, consistency mode, git
  commit) for indexing, and its evidence as canonical-JSON text columns
  (config, payload, obs snapshot, violation fingerprints, heartbeat
  summary).  Queries filter on columns; everything else round-trips as
  JSON.
* **Canonical JSON everywhere.**  Text columns are
  ``json.dumps(..., sort_keys=True)`` so the same logical record always
  stores the same bytes -- what makes the JSONL export deterministic
  and lets tests assert byte identity against ``--metrics-out`` files.
* **Append-only.**  Nothing updates or deletes rows; trend queries read
  "the last N runs" by insertion order.  A results database is a lab
  notebook, not a cache.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import sqlite3
import subprocess
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.obs.io import atomic_write_text

SCHEMA_VERSION = 1

#: run kinds accepted by :func:`write_run`; one vocabulary for every
#: producer so queries never guess at spellings
RUN_KINDS = ("run", "campaign", "fuzz", "bench", "serve")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at  TEXT NOT NULL,
    kind         TEXT NOT NULL,
    label        TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    git_commit   TEXT NOT NULL DEFAULT '',
    schedule_seed INTEGER,
    model_seed   INTEGER,
    master_seed  INTEGER,
    detectors    TEXT NOT NULL DEFAULT '',
    consistency  TEXT NOT NULL DEFAULT '',
    status       TEXT NOT NULL DEFAULT '',
    violations   INTEGER NOT NULL DEFAULT 0,
    events       INTEGER NOT NULL DEFAULT 0,
    elapsed      REAL,
    config       TEXT NOT NULL,
    payload      TEXT,
    obs          TEXT,
    violation_fingerprints TEXT,
    heartbeat    TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_identity
    ON runs (kind, label, fingerprint, run_id);
"""


class ResultsDBError(ValueError):
    """An unreadable, corrupt, or misused results database."""


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``config``.

    The fingerprint groups *comparable* runs: two runs with the same
    fingerprint explored the same configuration (workload, detector
    set, consistency mode, matrix shape ...) and may differ only in
    what happened.  Seeds that vary per run belong in the record's seed
    columns, not in the fingerprinted config.
    """
    blob = json.dumps(config, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def detect_git_commit(cwd: Optional[str] = None) -> str:
    """Best-effort current commit id: CI environment first
    (``GITHUB_SHA``/``REPRO_GIT_COMMIT``), then ``git rev-parse``;
    empty string when neither is available."""
    for var in ("REPRO_GIT_COMMIT", "GITHUB_SHA"):
        value = os.environ.get(var, "").strip()
        if value:
            return value[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _canonical(value: Any) -> Optional[str]:
    if value is None:
        return None
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _loads(text: Optional[str]) -> Any:
    return None if text is None else json.loads(text)


@dataclass
class RunRecord:
    """One decoded row of the ``runs`` table."""

    run_id: int
    recorded_at: str
    kind: str
    label: str
    fingerprint: str
    git_commit: str
    schedule_seed: Optional[int]
    model_seed: Optional[int]
    master_seed: Optional[int]
    detectors: Tuple[str, ...]
    consistency: str
    status: str
    violations: int
    events: int
    elapsed: Optional[float]
    config: Dict[str, Any]
    payload: Optional[Dict[str, Any]] = None
    obs: Optional[Dict[str, Any]] = None
    violation_fingerprints: List[str] = field(default_factory=list)
    heartbeat: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe dict, key-sorted on dump; the export line format."""
        return {
            "run_id": self.run_id,
            "recorded_at": self.recorded_at,
            "kind": self.kind,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "git_commit": self.git_commit,
            "schedule_seed": self.schedule_seed,
            "model_seed": self.model_seed,
            "master_seed": self.master_seed,
            "detectors": list(self.detectors),
            "consistency": self.consistency,
            "status": self.status,
            "violations": self.violations,
            "events": self.events,
            "elapsed": self.elapsed,
            "config": self.config,
            "payload": self.payload,
            "obs": self.obs,
            "violation_fingerprints": list(self.violation_fingerprints),
            "heartbeat": self.heartbeat,
        }


def violation_report_fingerprints(reports: Mapping[str, Any]) -> List[str]:
    """Stable static-level fingerprints of every violation in a run's
    report map (``{detector_name: ViolationReport}``): sorted, unique
    ``detector:kind:loc=N,other=M`` strings.  Static-level (deduplicated
    by source statement) so a noisy run stays bounded."""
    keys = set()
    for name in reports:
        sites = {(row[4], row[2], row[5])
                 for row in getattr(reports[name], "rows", ())}
        keys.update(f"{name}:{kind}:loc={loc},other={other}"
                    for kind, loc, other in sites)
    return sorted(keys)


class ResultsDB:
    """A handle on one results database file.

    Usable as a context manager; every write commits immediately, so a
    crash between runs never loses a committed record.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        try:
            self._conn = sqlite3.connect(path)
            self._conn.executescript(_SCHEMA)
            self._ensure_version()
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise ResultsDBError(
                f"{path}: not a results database ({exc})") from None

    def _ensure_version(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
        elif int(row[0]) > SCHEMA_VERSION:
            raise sqlite3.DatabaseError(
                f"schema version {row[0]} is newer than supported "
                f"{SCHEMA_VERSION}")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- writes ------------------------------------------------------------

    def write_run(self, kind: str, label: str,
                  config: Mapping[str, Any], *,
                  status: str = "ok",
                  violations: int = 0,
                  events: int = 0,
                  elapsed: Optional[float] = None,
                  schedule_seed: Optional[int] = None,
                  model_seed: Optional[int] = None,
                  master_seed: Optional[int] = None,
                  detectors: Sequence[str] = (),
                  consistency: str = "",
                  payload: Optional[Mapping[str, Any]] = None,
                  obs: Optional[Mapping[str, Any]] = None,
                  violation_fingerprints: Sequence[str] = (),
                  heartbeat: Optional[Mapping[str, Any]] = None,
                  git_commit: Optional[str] = None,
                  recorded_at: Optional[str] = None) -> int:
        """Append one run record; returns its ``run_id``.

        This is *the* entry point -- ``repro run|campaign|fuzz|bench``
        all funnel through it, so every producer records the same
        columns and every query sees one vocabulary.
        """
        if kind not in RUN_KINDS:
            raise ResultsDBError(
                f"unknown run kind {kind!r} (one of {', '.join(RUN_KINDS)})")
        if recorded_at is None:
            recorded_at = datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds")
        if git_commit is None:
            git_commit = detect_git_commit()
        config = dict(config)
        cursor = self._conn.execute(
            "INSERT INTO runs (recorded_at, kind, label, fingerprint, "
            "git_commit, schedule_seed, model_seed, master_seed, "
            "detectors, consistency, status, violations, events, elapsed, "
            "config, payload, obs, violation_fingerprints, heartbeat) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
            "?, ?)",
            (recorded_at, kind, label, config_fingerprint(config),
             git_commit, schedule_seed, model_seed, master_seed,
             ",".join(detectors), consistency, status, int(violations),
             int(events), elapsed, _canonical(config), _canonical(payload),
             _canonical(obs),
             _canonical(list(violation_fingerprints) or None),
             _canonical(heartbeat)))
        self._conn.commit()
        return int(cursor.lastrowid)

    # -- reads -------------------------------------------------------------

    def _decode(self, row: sqlite3.Row) -> RunRecord:
        (run_id, recorded_at, kind, label, fingerprint, git_commit,
         schedule_seed, model_seed, master_seed, detectors, consistency,
         status, violations, events, elapsed, config, payload, obs_text,
         fingerprints, heartbeat) = row
        return RunRecord(
            run_id=run_id, recorded_at=recorded_at, kind=kind, label=label,
            fingerprint=fingerprint, git_commit=git_commit,
            schedule_seed=schedule_seed, model_seed=model_seed,
            master_seed=master_seed,
            detectors=tuple(d for d in detectors.split(",") if d),
            consistency=consistency, status=status, violations=violations,
            events=events, elapsed=elapsed,
            config=_loads(config) or {},
            payload=_loads(payload),
            obs=_loads(obs_text),
            violation_fingerprints=_loads(fingerprints) or [],
            heartbeat=_loads(heartbeat))

    _COLUMNS = ("run_id, recorded_at, kind, label, fingerprint, "
                "git_commit, schedule_seed, model_seed, master_seed, "
                "detectors, consistency, status, violations, events, "
                "elapsed, config, payload, obs, violation_fingerprints, "
                "heartbeat")

    def get(self, run_id: int) -> RunRecord:
        row = self._conn.execute(
            f"SELECT {self._COLUMNS} FROM runs WHERE run_id = ?",
            (run_id,)).fetchone()
        if row is None:
            raise ResultsDBError(f"no run {run_id} in {self.path}")
        return self._decode(row)

    def latest(self, kind: Optional[str] = None,
               label: Optional[str] = None) -> RunRecord:
        records = self.list_runs(kind=kind, label=label)
        if not records:
            raise ResultsDBError(f"no matching runs in {self.path}")
        return records[-1]

    def list_runs(self, kind: Optional[str] = None,
                  label: Optional[str] = None,
                  fingerprint: Optional[str] = None,
                  limit: Optional[int] = None) -> List[RunRecord]:
        """Matching records in insertion order (oldest first).  With
        ``limit``, the *newest* ``limit`` records, still oldest-first --
        the shape trend queries want."""
        clauses, params = [], []
        for column, value in (("kind", kind), ("label", label),
                              ("fingerprint", fingerprint)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        sql = f"SELECT {self._COLUMNS} FROM runs{where} ORDER BY run_id"
        if limit is not None:
            sql += " DESC LIMIT ?"
            params.append(int(limit))
        rows = self._conn.execute(sql, params).fetchall()
        if limit is not None:
            rows.reverse()
        return [self._decode(row) for row in rows]

    def count(self) -> int:
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM runs").fetchone()[0])

    def trend_values(self, label: str, key: str,
                     kind: Optional[str] = None,
                     fingerprint: Optional[str] = None,
                     limit: Optional[int] = None,
                     ) -> List[Tuple[RunRecord, float]]:
        """``(record, value)`` pairs for every matching run whose payload
        resolves dotted ``key`` to a number, oldest first.  Records
        without the key are skipped, not errors: an artefact schema may
        grow keys over time.  ``limit`` keeps the newest N *resolved*
        points."""
        from repro.harness.bench_gate import FloorSpecError, lookup
        points: List[Tuple[RunRecord, float]] = []
        for record in self.list_runs(kind=kind, label=label,
                                     fingerprint=fingerprint):
            if record.payload is None:
                continue
            try:
                points.append((record, lookup(record.payload, key)))
            except FloorSpecError:
                continue
        if limit is not None:
            points = points[-limit:]
        return points

    # -- export ------------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write every record as one canonical-JSON line, ordered by
        ``run_id``; deterministic given the database contents and
        atomic on disk.  Returns the record count."""
        lines = [json.dumps(record.to_json(), sort_keys=True)
                 for record in self.list_runs()]
        atomic_write_text(path, "".join(line + "\n" for line in lines))
        return len(lines)


def merge_key(record: RunRecord) -> Tuple[Any, ...]:
    """The identity a merge dedups on: what the run *was* (kind, label,
    config fingerprint, every seed) plus when it was recorded.  Two
    ingests of the same row collapse; two genuine runs of the same
    configuration (different seeds or different times, e.g. a bench
    trend history) both survive."""
    return (record.kind, record.label, record.fingerprint,
            record.master_seed, record.schedule_seed, record.model_seed,
            record.recorded_at)


def merge_databases(sources: Sequence[str], dest: str) -> int:
    """Merge ``sources`` into the database at ``dest`` (created if
    missing); returns the number of rows added.

    The merge is commutative and idempotent: rows are deduplicated by
    :func:`merge_key` (against both ``dest`` and each other) and
    inserted in sorted identity order, so merging any permutation of
    the same sources -- or merging the same source twice -- yields a
    destination with identical content and insertion order.  Shard
    campaigns rely on this to consolidate per-shard databases; CI uses
    it to consolidate cached result stores.
    """
    for src in sources:
        if not os.path.exists(src):
            raise ResultsDBError(f"{src}: no such results database")
    incoming: List[RunRecord] = []
    for src in sources:
        with ResultsDB(src) as db:
            incoming.extend(db.list_runs())
    incoming.sort(key=merge_key)
    added = 0
    with ResultsDB(dest) as out:
        seen = {merge_key(record) for record in out.list_runs()}
        for record in incoming:
            key = merge_key(record)
            if key in seen:
                continue
            seen.add(key)
            out.write_run(
                record.kind, record.label, record.config,
                status=record.status, violations=record.violations,
                events=record.events, elapsed=record.elapsed,
                schedule_seed=record.schedule_seed,
                model_seed=record.model_seed,
                master_seed=record.master_seed,
                detectors=record.detectors,
                consistency=record.consistency,
                payload=record.payload, obs=record.obs,
                violation_fingerprints=record.violation_fingerprints,
                heartbeat=record.heartbeat,
                git_commit=record.git_commit,
                recorded_at=record.recorded_at)
            added += 1
    return added


def open_db(path: str) -> ResultsDB:
    """Open (creating if missing) the results database at ``path``."""
    return ResultsDB(path)


def write_run(path: str, kind: str, label: str,
              config: Mapping[str, Any], **kwargs: Any) -> int:
    """One-shot convenience: open ``path``, append a run, close.  The
    keyword surface is exactly :meth:`ResultsDB.write_run`."""
    with ResultsDB(path) as db:
        return db.write_run(kind, label, config, **kwargs)


def iter_jsonl(path: str) -> Iterable[Dict[str, Any]]:
    """Decode an exported JSONL file, one record dict per line."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
