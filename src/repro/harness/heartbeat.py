"""Live campaign telemetry: the heartbeat progress stream.

A long sharded campaign used to be a black box between its launch line
and its final table.  The heartbeat makes it observable while it runs
and queryable forever after:

* the campaign wires :meth:`CampaignHeartbeat.task_done` to the result
  stream and :meth:`CampaignHeartbeat.pool_update` to the worker pool's
  ``monitor`` hook (:class:`repro.harness.pool.PoolStatus`);
* every ``interval`` seconds a **heartbeat record** is appended to the
  JSONL stream: tasks completed/total, cumulative events, a rolling
  events/sec over the last few seconds, violations so far, failed
  tasks, the parent's peak RSS, worker crashes/retries, and per-worker
  liveness (alive, task in flight, busy seconds);
* ``repro campaign --progress`` renders the same records as a live
  status line on stderr;
* at completion, :meth:`summary` returns the final record for
  ingestion into the results database, so "how did that campaign go"
  outlives the terminal scrollback.

Heartbeat records are *telemetry*, not evidence: they carry wall-clock
rates and liveness, so they are deliberately kept out of the
deterministic obs snapshot and the byte-identity contracts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import (Any, Deque, Dict, List, Optional, Sequence, TextIO,
                    Tuple)

from repro.harness.pool import PoolStatus
from repro.obs.rss import peak_rss_bytes

#: seconds between emitted heartbeat records (and rendered updates)
DEFAULT_INTERVAL = 1.0

#: sliding window (seconds) for the rolling events/sec estimate
RATE_WINDOW = 5.0


class CampaignHeartbeat:
    """Aggregates campaign progress and emits the heartbeat stream.

    ``path`` appends JSONL records to a file (line-buffered, flushed
    per beat, so ``tail -f`` follows a live campaign); ``render=True``
    draws a one-line status to ``stream`` (stderr by default) --
    carriage-return style on a TTY, one line per beat otherwise, so CI
    logs stay readable.  All emitted records are also kept on
    :attr:`records` for in-process consumers and tests.
    """

    def __init__(self, total: int, path: Optional[str] = None,
                 interval: float = DEFAULT_INTERVAL,
                 render: bool = False,
                 stream: Optional[TextIO] = None) -> None:
        self.total = total
        self.interval = interval
        self.render = render
        self.stream = stream if stream is not None else sys.stderr
        self.records: List[Dict[str, Any]] = []
        self.completed = 0
        self.events = 0
        self.violations = 0
        self.failures = 0
        #: set by the owner when the run was cut short by a signal; the
        #: final record then says so instead of looking merely slow
        self.interrupted = False
        self._pool: Optional[PoolStatus] = None
        self._started = time.perf_counter()
        self._last_emit: Optional[float] = None
        self._samples: Deque[Tuple[float, int]] = deque()
        self._fh: Optional[TextIO] = None
        self._rendered = False
        self._finished = False
        if path is not None:
            self._fh = open(path, "a")

    # -- feeds -------------------------------------------------------------

    def task_done(self, result) -> None:
        """Fold one finished :class:`CampaignResult` into the totals."""
        self.completed += 1
        if result.ok:
            self.events += result.instructions
            self.violations += result.svd.dynamic_total
            for metrics in result.extra_metrics.values():
                self.violations += metrics.dynamic_total
            if result.frd is not None:
                self.violations += result.frd.dynamic_total
        else:
            self.failures += 1
        self.beat()

    def pool_update(self, status: PoolStatus) -> None:
        """The pool's ``monitor`` hook: remember the latest worker
        snapshot and let the rate limiter decide whether to emit."""
        self._pool = status
        self.beat()

    # -- emission ----------------------------------------------------------

    def _rolling_rate(self, now: float) -> float:
        self._samples.append((now, self.events))
        while (len(self._samples) > 1
               and now - self._samples[0][0] > RATE_WINDOW):
            self._samples.popleft()
        t0, e0 = self._samples[0]
        if now <= t0:
            return 0.0
        return (self.events - e0) / (now - t0)

    def _record(self, now: float, final: bool) -> Dict[str, Any]:
        # the final record summarizes the whole campaign (it is what
        # the results database ingests), so it reports the cumulative
        # rate; live beats report the rolling window
        elapsed = now - self._started
        rate = (self.events / elapsed if final and elapsed > 0
                else self._rolling_rate(now))
        record: Dict[str, Any] = {
            "ts": round(now - self._started, 3),
            "completed": self.completed,
            "total": self.total,
            "events": self.events,
            "events_per_sec": round(rate, 1),
            "violations": self.violations,
            "failures": self.failures,
            "rss_peak_bytes": peak_rss_bytes(),
            "worker_crashes": (self._pool.worker_crashes
                               if self._pool else 0),
            "task_retries": (self._pool.task_retries
                             if self._pool else 0),
            "workers": [
                {"id": w.worker_id, "alive": w.alive,
                 "task": w.task_index,
                 "busy_s": round(w.busy_seconds, 3)}
                for w in (self._pool.workers if self._pool else ())],
        }
        if final:
            record["final"] = True
            record["elapsed"] = round(now - self._started, 3)
            if self.interrupted:
                record["interrupted"] = True
        return record

    def beat(self, force: bool = False) -> Optional[Dict[str, Any]]:
        """Emit one heartbeat record if the interval elapsed (always,
        with ``force``).  Returns the emitted record, or None."""
        now = time.perf_counter()
        if (not force and self._last_emit is not None
                and now - self._last_emit < self.interval):
            return None
        self._last_emit = now
        record = self._record(now, final=force)
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        if self.render:
            self._render_line(record)
        return record

    def _render_line(self, record: Dict[str, Any]) -> None:
        alive = sum(1 for w in record["workers"] if w["alive"])
        line = (f"[heartbeat] {record['completed']}/{record['total']} "
                f"tasks, {record['events']} events "
                f"({record['events_per_sec']:g} ev/s), "
                f"{record['violations']} violations, "
                f"{record['failures']} failed, "
                f"{alive} worker(s) alive, "
                f"{record['worker_crashes']} crash(es), "
                f"{record['task_retries']} retry(ies)")
        if self.stream.isatty() and not record.get("final"):
            self.stream.write("\r" + line.ljust(78))
        else:
            if self._rendered and self.stream.isatty():
                self.stream.write("\r")
            self.stream.write(line + "\n")
        self.stream.flush()
        self._rendered = True

    # -- completion --------------------------------------------------------

    def finish(self) -> Dict[str, Any]:
        """Force the final heartbeat, close the stream, and return the
        final record (what the results database ingests).  Idempotent:
        a second call returns the same final record."""
        if self._finished:
            return self.records[-1]
        record = self.beat(force=True)
        assert record is not None  # force=True always emits
        self._finished = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return record

    def summary(self) -> Optional[Dict[str, Any]]:
        """The last emitted record (the final one after :meth:`finish`)."""
        return self.records[-1] if self.records else None


class ServeHeartbeat(CampaignHeartbeat):
    """The serve supervisor's telemetry stream.

    Same record shape, JSONL contract and rate limiting as the campaign
    heartbeat (one consumer-side toolchain for both), plus the fleet
    fields: active executions, degradation-ladder level, restarts,
    watchdog kills, and open circuit breakers.  The supervisor refreshes
    the fleet fields via :meth:`set_state` and reports each finished
    execution via :meth:`exec_done`."""

    def __init__(self, total: int, path: Optional[str] = None,
                 interval: float = DEFAULT_INTERVAL,
                 render: bool = False,
                 stream: Optional[TextIO] = None) -> None:
        super().__init__(total, path=path, interval=interval,
                         render=render, stream=stream)
        self.active = 0
        self.level = "full"
        self.restarts = 0
        self.watchdog_kills = 0
        self.breaker_open: List[str] = []

    def set_state(self, *, active: int, level: str, restarts: int,
                  watchdog_kills: int,
                  breaker_open: Sequence[str]) -> None:
        self.active = active
        self.level = level
        self.restarts = restarts
        self.watchdog_kills = watchdog_kills
        self.breaker_open = list(breaker_open)

    def exec_done(self, ok: bool, events: int, violations: int) -> None:
        """Fold one finished execution into the totals."""
        self.completed += 1
        if ok:
            self.events += events
            self.violations += violations
        else:
            self.failures += 1
        self.beat()

    def _record(self, now: float, final: bool) -> Dict[str, Any]:
        record = super()._record(now, final)
        record["active"] = self.active
        record["level"] = self.level
        record["restarts"] = self.restarts
        record["watchdog_kills"] = self.watchdog_kills
        record["breaker_open"] = list(self.breaker_open)
        return record
