"""The serve supervisor: a long-lived fleet of detector executions.

``repro serve`` runs many concurrent machine executions from the
workload generators, streams each through a per-execution
:class:`~repro.engine.DetectorEngine`, and **stays up no matter what**:

* executions are asyncio tasks that run the machine's run loop in
  chunks, yielding to the loop between chunks -- the supervisor, the
  watchdog and the status endpoint stay responsive while GIL-bound
  detection work proceeds;
* a watchdog task enforces per-execution wall-clock and no-progress
  deadlines by setting the execution's kill flag (checked between
  chunks); a killed attempt aborts truthfully (``aborted:<reason>``)
  and restarts with capped exponential backoff;
* an :class:`~repro.serve.ladder.AnalysisBreaker` quarantines an
  analysis fleet-wide after repeated cross-execution failures;
* a :class:`~repro.serve.ladder.DegradationLadder` trades detection
  depth for liveness under an event-rate budget (full -> sampled ->
  paused -- never process death);
* SIGTERM/SIGINT trigger a drain: no new launches, a grace window for
  running executions, kill flags for stragglers, then a final
  heartbeat record and a truthful results-DB row.

Fault sites ``exec.stall``, ``exec.crash`` and ``serve.slow_consumer``
(:mod:`repro.faults`) address executions by index and fire on attempt
0 only, mirroring the worker-fault shapes so restart recovers.
"""

from __future__ import annotations

import asyncio
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.faults.runtime as fault_runtime
import repro.obs as obs
from repro.engine import DetectorEngine
from repro.faults.plan import Fault, InjectedFault
from repro.harness.campaign import derive_seed
from repro.harness.heartbeat import ServeHeartbeat
from repro.harness.sampling import SegmentSampler, evenly_spaced_windows
from repro.machine.memmodel import resolve_model
from repro.machine.scheduler import RandomScheduler
from repro.serve.httpd import StatusServer
from repro.serve.ladder import AnalysisBreaker, DegradationLadder
from repro.serve.state import (ExecInfo, ServeTotals, ViolationFeed,
                               ViolationRecord)
from repro.workloads import WORKLOADS

#: seconds of injected backpressure per chunk per slow_consumer count
SLOW_CONSUMER_CHUNK_SECONDS = 0.01

#: supervisor outcome vocabulary (maps to CLI exit codes / DB status)
OUTCOMES = ("ok", "violations", "degraded", "interrupted")

#: the signals that drain the fleet
_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@dataclass
class ServeConfig:
    """Everything one supervisor run is parameterized by."""

    workloads: Sequence[str] = ("apache",)
    executions: int = 100
    concurrency: int = 4
    max_steps: int = 20_000
    chunk: int = 2_000
    detectors: Sequence[str] = ("svd",)
    switch_prob: float = 0.3
    master_seed: int = 0
    consistency: Optional[str] = None
    # robustness policy
    wall_deadline: float = 30.0
    stall_timeout: float = 5.0
    max_restarts: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    breaker_threshold: int = 3
    budget_events_per_sec: Optional[float] = None
    ladder_dwell: float = 1.0
    ladder_window: float = 2.0
    sample_segments: int = 4
    sample_length: int = 2_000
    # shutdown / watchdog cadence
    drain_grace: float = 5.0
    watchdog_poll: float = 0.05
    # surfaces
    http_port: Optional[int] = None   # None disables the endpoint
    port_file: Optional[str] = None   # written once the port is bound
    heartbeat: Optional[ServeHeartbeat] = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("serve needs at least one workload")
        for name in self.workloads:
            if name not in WORKLOADS:
                raise ValueError(f"unknown workload {name!r}")
        if self.executions < 0:
            raise ValueError("executions must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")


class Supervisor:
    """Runs a :class:`ServeConfig` fleet to completion (or to a
    signal).  One instance drives one ``run()``."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.ladder = DegradationLadder(
            config.budget_events_per_sec, dwell=config.ladder_dwell,
            window=config.ladder_window)
        self.breaker = AnalysisBreaker(config.breaker_threshold)
        self.totals = ServeTotals()
        self.feed = ViolationFeed()
        self.execs: Dict[int, ExecInfo] = {}
        self._active: Dict[int, ExecInfo] = {}
        self.http: Optional[StatusServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._shutdown_reason: Optional[str] = None
        self._started = time.perf_counter()
        self.elapsed: float = 0.0
        # workloads build (and compile) lazily on first use and are
        # then shared -- machines are fresh per attempt, and startup
        # stays fast enough that the signal handlers are installed
        # before any heavy work begins
        self._workloads: Dict[str, object] = {}
        self._fault_map: Dict[int, Fault] = {}

    # -- public ------------------------------------------------------------

    def run(self) -> str:
        """Run the fleet; returns the outcome (one of :data:`OUTCOMES`).

        The supervisor itself never raises out of here for execution
        failures -- that is the serve contract.  Only a broken
        configuration (e.g. an unbindable HTTP port) escapes.
        """
        plan = fault_runtime.active()
        self._fault_map = (plan.serve_fault_map()
                           if plan is not None else {})
        # SIGINT/SIGTERM are held until the loop's own handlers are in
        # (see _main): a KeyboardInterrupt raised while the loop is
        # being built would leave it half-constructed
        held = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
        try:
            asyncio.run(self._main(held))
        except KeyboardInterrupt as exc:
            # a signal outside the loop's own handlers (loop startup or
            # teardown) is the same drain request; the loop is gone, so
            # there is no stop event left to set
            self._stop = None
            self.request_shutdown(exc.args[0] if exc.args else "SIGINT")
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            self.elapsed = time.perf_counter() - self._started
            if self.http is not None:
                self.http.stop()
                self.http = None
            hb = self.config.heartbeat
            if hb is not None:
                self._sync_heartbeat(hb)
                if self._shutdown_reason is not None:
                    hb.interrupted = True
                hb.finish()
        return self.outcome()

    def request_shutdown(self, reason: str = "request") -> None:
        """Begin the drain (idempotent; first reason wins)."""
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
            obs.add("serve.shutdown_requested")
        if self._stop is not None:
            self._stop.set()

    @property
    def draining(self) -> bool:
        return self._shutdown_reason is not None

    def outcome(self) -> str:
        if self._shutdown_reason is not None:
            return "interrupted"
        if self.totals.failed or self.breaker.open:
            return "degraded"
        if self.totals.violations:
            return "violations"
        return "ok"

    # -- snapshots (status endpoint + results DB) --------------------------

    def status_snapshot(self) -> Dict[str, object]:
        return {
            "uptime": round(time.perf_counter() - self._started, 3),
            "outcome": self.outcome(),
            "draining": self.draining,
            "shutdown_reason": self._shutdown_reason,
            "executions": {"total": self.config.executions,
                           "launched": self.totals.launched,
                           "active": len(self._active)},
            "totals": self.totals.to_json(),
            "ladder": self.ladder.snapshot(),
            "breaker": self.breaker.snapshot(),
            "active": [self.execs[i].to_json()
                       for i in sorted(self._active)],
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        if obs.metrics_enabled():
            return {"enabled": True, "counters": obs.metrics().snapshot()}
        return {"enabled": False, "counters": {}}

    def final_payload(self) -> Dict[str, object]:
        """What the results-DB row records about this run."""
        return {
            "outcome": self.outcome(),
            "shutdown_reason": self._shutdown_reason,
            "elapsed": round(self.elapsed, 3),
            "totals": self.totals.to_json(),
            "ladder": self.ladder.snapshot(),
            "breaker": self.breaker.snapshot(),
            "violation_feed": self.feed.to_json(),
        }

    # -- main loop ---------------------------------------------------------

    async def _main(self, held) -> None:
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._shutdown_reason is not None:  # pre-run request
            self._stop.set()
        # the loop's handlers replace whatever the caller installed for
        # the loop's lifetime; removing them resets to the defaults, so
        # the caller's handlers are put back explicitly afterwards
        installed = {}
        for sig in _SIGNALS:
            previous = signal.getsignal(sig)
            try:
                loop.add_signal_handler(
                    sig, self.request_shutdown, signal.Signals(sig).name)
                installed[sig] = previous
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platform without handlers
        # the handlers are in: deliver any signal held back since run()
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        if self.config.http_port is not None:
            self.http = StatusServer(port=self.config.http_port)
            self.http.route("/status", self.status_snapshot)
            self.http.route("/metrics", self.metrics_snapshot)
            self.http.route("/violations", self.feed.to_json)
            self.http.start()
            if self.config.port_file:
                from repro.obs.io import atomic_write_text
                atomic_write_text(self.config.port_file,
                                  f"{self.http.port}\n")
        watchdog = asyncio.ensure_future(self._watchdog())
        sem = asyncio.Semaphore(self.config.concurrency)
        tasks = [asyncio.ensure_future(self._execution(index, sem))
                 for index in range(self.config.executions)]
        try:
            if tasks:
                gather = asyncio.gather(*tasks)
                stop_wait = asyncio.ensure_future(self._stop.wait())
                await asyncio.wait({gather, stop_wait},
                                   return_when=asyncio.FIRST_COMPLETED)
                if not gather.done():
                    # drain: pending tasks bail on launch, running ones
                    # get a grace window, stragglers get kill flags
                    try:
                        await asyncio.wait_for(asyncio.shield(gather),
                                               self.config.drain_grace)
                    except asyncio.TimeoutError:
                        for info in list(self._active.values()):
                            info.kill("drain")
                            obs.add("serve.drain.killed")
                        await gather
                stop_wait.cancel()
        finally:
            watchdog.cancel()
            for sig, previous in installed.items():
                loop.remove_signal_handler(sig)
                if previous is not None:  # None: not set from Python
                    signal.signal(sig, previous)

    async def _watchdog(self) -> None:
        cfg = self.config
        try:
            while True:
                await asyncio.sleep(cfg.watchdog_poll)
                now = time.perf_counter()
                for info in list(self._active.values()):
                    if info.killed:
                        continue
                    if now - info.started_at > cfg.wall_deadline:
                        info.kill("deadline")
                    elif now - info.last_progress > cfg.stall_timeout:
                        info.kill("stall")
                # recovery transitions must not wait for the next busy
                # chunk -- evaluate the ladder on the idle path too
                self.ladder.maybe_transition()
                hb = cfg.heartbeat
                if hb is not None:
                    self._sync_heartbeat(hb)
                    hb.beat()
        except asyncio.CancelledError:
            pass

    # -- executions --------------------------------------------------------

    async def _execution(self, index: int, sem: asyncio.Semaphore) -> None:
        cfg = self.config
        async with sem:
            if self._stop is not None and self._stop.is_set():
                return  # drained before launch; stays out of totals
            workload_name = cfg.workloads[index % len(cfg.workloads)]
            seed = derive_seed(cfg.master_seed, workload_name, "serve", index)
            info = ExecInfo(index=index, workload=workload_name, seed=seed)
            self.execs[index] = info
            self.totals.launched += 1
            obs.add("serve.exec.launched")
            for attempt in range(cfg.max_restarts + 1):
                if attempt:
                    if self._stop is not None and self._stop.is_set():
                        break  # no restarts during drain
                    info.state = "restarting"
                    info.restarts += 1
                    self.totals.restarts += 1
                    obs.add("serve.exec.restarted")
                    await asyncio.sleep(min(
                        cfg.backoff_cap,
                        cfg.backoff_base * (2 ** (attempt - 1))))
                info.attempt = attempt
                info.state = "running"
                info.kill_reason = None
                info.started_at = info.last_progress = time.perf_counter()
                self._active[index] = info
                try:
                    ok = await self._attempt(info, attempt)
                except Exception as exc:
                    ok = False
                    info.error = "".join(traceback.format_exception_only(
                        type(exc), exc)).strip()
                    obs.add("serve.exec.crashed")
                finally:
                    self._active.pop(index, None)
                if ok:
                    info.state = "done"
                    self.totals.completed += 1
                    obs.add("serve.exec.completed")
                    self._exec_done(info, ok=True)
                    return
                obs.add("serve.exec.attempt_failed")
            info.state = "failed"
            self.totals.failed += 1
            obs.add("serve.exec.failed")
            self._exec_done(info, ok=False)

    async def _attempt(self, info: ExecInfo, attempt: int) -> bool:
        cfg = self.config
        fault = self._fault_map.get(info.index) if attempt == 0 else None
        slow = 0.0
        if fault is not None:
            if fault.site == "exec.crash":
                obs.add("serve.fault.exec_crash")
                raise InjectedFault(
                    f"injected exec.crash in execution {info.index}")
            if fault.site == "exec.stall":
                obs.add("serve.fault.exec_stall")
                # a wedged execution: no progress until the watchdog
                # (or the drain) kills the attempt
                while not info.killed:
                    await asyncio.sleep(cfg.watchdog_poll)
                self._note_kill(info)
                info.status = f"aborted:{info.kill_reason}"
                info.error = f"stalled; killed ({info.kill_reason})"
                return False
            if fault.site == "serve.slow_consumer":
                obs.add("serve.fault.slow_consumer")
                slow = SLOW_CONSUMER_CHUNK_SECONDS * max(1, fault.count)

        mode = self.ladder.level
        detectors = self.breaker.filter(cfg.detectors)
        if mode == "full" and not detectors:
            mode = "paused"  # every analysis is quarantined fleet-wide
        info.mode = mode
        self.totals.count_mode(mode)
        obs.add(f"serve.exec.mode.{mode}")

        workload = self._workloads.get(info.workload)
        if workload is None:
            workload = self._workloads[info.workload] = (
                WORKLOADS[info.workload]())
        observers = []
        sampler = None
        if mode == "sampled":
            sampler = SegmentSampler(
                workload.program,
                evenly_spaced_windows(cfg.max_steps, cfg.sample_segments,
                                      min(cfg.sample_length,
                                          cfg.max_steps
                                          // cfg.sample_segments)))
            observers.append(sampler)
        machine = workload.make_machine(
            RandomScheduler(seed=info.seed, switch_prob=cfg.switch_prob),
            observers=observers,
            memmodel=resolve_model(cfg.consistency, info.seed))
        drive = None
        if mode == "full":
            engine = DetectorEngine(workload.program, detectors)
            drive = engine.drive_machine(machine, max_steps=cfg.max_steps)

        last_events = 0
        try:
            while not info.killed:
                if drive is not None:
                    more = drive.advance(cfg.chunk)
                else:
                    stop = min(machine.steps + cfg.chunk, cfg.max_steps)
                    more = machine.advance(stop) and stop < cfg.max_steps
                info.progress(machine.steps, machine.seq)
                self.ladder.note_events(machine.seq - last_events)
                last_events = machine.seq
                self.ladder.maybe_transition()
                if not more:
                    break
                # yield so the watchdog, the drain and sibling
                # executions interleave with this GIL-bound work; a
                # slow consumer injects real backpressure here
                await asyncio.sleep(slow)
        finally:
            self.totals.events += machine.seq
            self.totals.steps += machine.steps

        if info.killed:
            self._note_kill(info)
            if drive is not None:
                # finalize truthfully on whatever was processed; the
                # partial report still feeds the breaker and the feed
                result = drive.abort(info.kill_reason or "killed")
                self._absorb_result(info, result)
            info.status = f"aborted:{info.kill_reason}"
            info.error = f"killed ({info.kill_reason})"
            return False

        # natural completion
        if drive is not None:
            result = drive.finish()
            info.status = result.status or "finished"
            self._absorb_result(info, result)
        else:
            info.status = machine.run(max_steps=cfg.max_steps)
            if sampler is not None:
                count = sampler.total_dynamic_reports()
                if count:
                    self._record_violations(info, "svd-sampled", count)
        info.progress(machine.steps, machine.seq)
        return True

    # -- accounting --------------------------------------------------------

    def _absorb_result(self, info: ExecInfo, result) -> None:
        for name in result.requested:
            report = result.reports.get(name)
            if report is None:
                continue
            count = len(report.violations)
            if count:
                self._record_violations(info, name, count)
        for name in result.failures:
            obs.add("serve.exec.engine_degraded")
            if self.breaker.record_failure(name):
                obs.add(f"serve.breaker.opened.{name}")

    def _record_violations(self, info: ExecInfo, detector: str,
                           count: int) -> None:
        info.violations += count
        self.totals.violations += count
        obs.add("serve.violations", count)
        self.feed.add(ViolationRecord(
            index=info.index, workload=info.workload, seed=info.seed,
            detector=detector, dynamic_count=count))

    def _note_kill(self, info: ExecInfo) -> None:
        reason = info.kill_reason or "killed"
        if reason in ("deadline", "stall"):
            self.totals.watchdog_kills += 1
            obs.add(f"serve.watchdog.{reason}")
        else:
            obs.add(f"serve.kill.{reason}")

    def _sync_heartbeat(self, hb: ServeHeartbeat) -> None:
        hb.set_state(active=len(self._active), level=self.ladder.level,
                     restarts=self.totals.restarts,
                     watchdog_kills=self.totals.watchdog_kills,
                     breaker_open=self.breaker.open)

    def _exec_done(self, info: ExecInfo, ok: bool) -> None:
        hb = self.config.heartbeat
        if hb is None:
            return
        self._sync_heartbeat(hb)
        hb.exec_done(ok=ok, events=info.events,
                     violations=info.violations)
