"""Benchmark floor gate: assert recorded bench artefacts stay fast.

The benchmark suite writes machine-readable records under
``benchmarks/out/`` (``BENCH_engine.json`` and friends).  This module
is the one place that knows which numbers in those artefacts are
*floors* -- values that must not regress below a pinned threshold --
so the same table drives the in-bench assertion and the
``repro bench --check`` CI gate.

A floor key addresses into the JSON record with dots
(``single_pass.events_per_sec``); the gated value must be a number
``>=`` the floor.  Callers can override or extend the built-in table
with ``KEY=VALUE`` specs parsed by :func:`parse_floor`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

#: pinned floors per artefact basename.
#:
#: Every floor is an absolute throughput, set at about half the
#: lowest of three runs on the reference box (2 vCPUs), so it absorbs
#: CI machine variance while still catching a 2x regression.  No floor
#: is a ratio against a reference implementation: such ratios measured
#: the reference as much as the code under test, and flaked.
#:
#: ``BENCH_engine.json``: ``single_pass.events_per_sec`` is one
#: single-pass engine replay with the full 4-detector set.  Since the
#: detectors write their reports as row tuples, three runs alternating
#: with three of the object-building reports read 1.65M, 1.59M and
#: 1.64M ev/s (1.02M, 1.15M and 1.18M before); the floor was raised
#: from 380k to half the slowest, rounded down.
#: ``campaign.events_per_sec`` pins end-to-end ``repro campaign``
#: throughput (recorded ~200k ev/s).
#: ``trace_io.load_events_per_sec`` is a strict load of the bench's
#: saved recording (v3 format; recorded 2.17M-2.57M ev/s).
#:
#: ``BENCH_interp.json``: pre-decoded interpreter steps/sec with no
#: observers and with full online SVD attached (recorded
#: 1.44M-1.61M and 362k-412k steps/s).  With one CU reference per
#: register, full SVD on apache read 457k, 478k and 491k, and 345k in
#: a slow episode of the shared box, against 266k-411k before; half of
#: the slowest is below 180k, so that floor stays.
#: ``full-svd-mysql`` is full SVD on ``mysql_prepared(queries=2,
#: fixed=True)``, where SVD's register and store path dominates: it
#: read 593k, 611k, 841k and 902k steps/s (516k-671k before), and its
#: floor sits at half the slowest.
#: Since the run loop steps a whole scheduling quantum per pass and
#: draws the random schedule inline, six alternating runs against the
#: loop before it read, calm, 2.33M-2.64M bare steps/s (1.64M-1.76M
#: before) and 1.12M-1.27M on full-svd-mysql (880k-1.00M before); in
#: slow episodes of the shared box, 1.22M and 1.32M bare (854k and
#: 909k before) and 623k-843k on full-svd-mysql (508k-963k before).
#: The bare floor was raised from 700k to half the slowest calm run,
#: rounded down; the full-svd-mysql floor stays.
#: Since a store calls ``merge_cus`` only when its data holds several
#: units and remote delivery runs inline, four alternating runs against
#: the code before read 931k, 953k and 899k full-svd steps/s (833k and
#: 805k before), and 582k in a slow episode of the shared box (491k and
#: 511k before).  The full-svd floor was raised from 180k to half the
#: slowest of the four, slow episode included, rounded down.
#:
#: ``BENCH_serve.json``: sustained ``repro serve`` fleet throughput --
#: a supervised fleet of short executions must complete at least this
#: many executions per second end to end (recorded ~240 exec/s on the
#: reference box; the floor is a quarter of that).
#:
#: ``BENCH_campaign.json``: the sharded-campaign distribution layer.
#: ``sharded.events_per_sec`` pins end-to-end throughput of the
#: multi-shard driver (plan + N shard subprocesses + merge; recorded
#: ~312k ev/s single-pool on the reference box, so 250k leaves
#: headroom for the subprocess fan-out while still catching a real
#: regression).  ``rss.flatness`` is the O(1)-aggregation memory gate:
#: the coordinator's peak RSS on a small campaign divided by its peak
#: RSS on a 10x-task campaign -- streaming aggregation keeps the ratio
#: near 1.0, a result-retaining parent drags it well below the 0.90
#: floor.  (Floors-only gating expresses the "RSS stays flat" ceiling
#: as a ratio >= 0.90.)  ``pool.events_per_sec`` is the worker pool
#: on short tasks: a 180-task campaign at ``workers=2`` (recorded
#: 794k, 808k and 816k ev/s, and 376k-384k during a slow episode of
#: the shared box).  Half the calm runs would fail the slow ones, so
#: the floor sits below those at 300k; that is still 1.5x what a
#: parent napping 50 ms between drains can reach (at most 4 tasks of
#: ~2.4k events per nap, ~194k; it read 174k-191k).
FLOORS: Dict[str, Dict[str, float]] = {
    "BENCH_engine.json": {
        "single_pass.events_per_sec": 790_000,
        "campaign.events_per_sec": 100_000,
        "trace_io.load_events_per_sec": 1_000_000,
    },
    "BENCH_interp.json": {
        "modes.predecoded/0-observers.steps_per_sec": 1_150_000,
        "modes.predecoded/full-svd.steps_per_sec": 290_000,
        "modes.predecoded/full-svd-mysql.steps_per_sec": 300_000,
    },
    "BENCH_serve.json": {
        "executions_per_sec": 60,
    },
    "BENCH_campaign.json": {
        "sharded.events_per_sec": 250_000,
        "pool.events_per_sec": 300_000,
        "rss.flatness": 0.90,
    },
}


class FloorSpecError(ValueError):
    """A malformed ``KEY=VALUE`` floor spec or unreadable artefact."""


@dataclass(frozen=True)
class FloorCheck:
    """Outcome of gating one key of one artefact."""

    key: str
    floor: float
    value: float
    ok: bool

    def render(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (f"{verdict}: {self.key} = {self.value:g} "
                f"(floor {self.floor:g})")


def parse_floor(spec: str) -> Tuple[str, float]:
    """Parse one ``KEY=VALUE`` floor spec (``speedup=1.5``)."""
    key, sep, raw = spec.partition("=")
    key = key.strip()
    if not sep or not key:
        raise FloorSpecError(f"floor spec must be KEY=VALUE: {spec!r}")
    try:
        value = float(raw)
    except ValueError:
        raise FloorSpecError(
            f"floor value must be a number: {spec!r}") from None
    return key, value


def lookup(record: Mapping, key: str) -> float:
    """Resolve a dotted ``key`` inside a decoded JSON ``record``."""
    node = record
    for part in key.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise FloorSpecError(f"record has no key {key!r}")
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise FloorSpecError(f"key {key!r} is not a number: {node!r}")
    return float(node)


def check_record(record: Mapping,
                 floors: Mapping[str, float]) -> List[FloorCheck]:
    """Gate ``record`` against ``floors``; one result per key."""
    checks = []
    for key in sorted(floors):
        floor = floors[key]
        value = lookup(record, key)
        checks.append(FloorCheck(key=key, floor=floor, value=value,
                                 ok=value >= floor))
    return checks


def load_artefact(path: str) -> Mapping:
    """Load a benchmark artefact as a JSON object; anything else --
    unreadable, non-JSON, or a non-object root -- is a
    :class:`FloorSpecError`."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except OSError as exc:
        raise FloorSpecError(f"cannot read artefact: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FloorSpecError(f"artefact is not JSON: {exc}") from None
    if not isinstance(record, Mapping):
        raise FloorSpecError("artefact root must be a JSON object")
    return record


def floors_for(basename: str,
               extra_floors: Mapping[str, float] = (),
               use_builtin: bool = True) -> Dict[str, float]:
    """The floor table that applies to one artefact basename: the
    built-in entry (when ``use_builtin``) overlaid with
    ``extra_floors``.  Empty is a spec error -- a gate that checks
    nothing must not pass silently."""
    floors: Dict[str, float] = {}
    if use_builtin:
        floors.update(FLOORS.get(basename, {}))
    floors.update(extra_floors)
    if not floors:
        raise FloorSpecError(
            f"no floors apply to {basename!r}; pass --floor KEY=VALUE")
    return floors


def write_artefact(path: str, record: Mapping) -> Dict:
    """Write one ``BENCH_*.json`` artefact: canonical JSON, written
    atomically, stamped with the writing process's ``peak_rss_bytes``
    so every benchmark artefact carries a gateable memory reading
    alongside its throughput numbers.  Returns the stamped record."""
    from repro.obs.io import atomic_write_text
    from repro.obs.rss import peak_rss_bytes
    stamped = dict(record)
    stamped.setdefault("peak_rss_bytes", peak_rss_bytes())
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write_text(path, json.dumps(stamped, indent=2,
                                       sort_keys=True) + "\n")
    return stamped


def check_file(path: str,
               extra_floors: Mapping[str, float] = (),
               use_builtin: bool = True) -> List[FloorCheck]:
    """Gate the artefact at ``path`` against :func:`floors_for` its
    basename."""
    record = load_artefact(path)
    floors = floors_for(os.path.basename(path), extra_floors, use_builtin)
    return check_record(record, floors)
