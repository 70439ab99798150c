"""A crash-isolating process pool for CPU-bound pure-Python runs.

Every run in a campaign or fuzzing session is an independent, CPU-bound
interpretation of a MiniSMP program, so the GIL makes in-process threads
useless; this pool fans work across ``multiprocessing`` workers instead.
It differs from ``multiprocessing.Pool`` where the harness needs it to:

* **crash isolation** -- a worker that raises, dies, or hangs past a
  per-task timeout yields an ``error``/``timeout`` outcome for *that
  task only*; the pool replaces the worker and the run continues (a
  timed-out worker is killed with SIGTERM, whose default action every
  worker restores, whatever handler it was forked with).  Each
  worker's stderr is redirected to a scratch file, so when a worker dies
  outright (segfault, ``os._exit``, OOM kill) its last words -- exit
  code plus captured stderr tail -- land in the task's error outcome
  instead of vanishing with the process, and a ``pool.worker_crash``
  counter is recorded when :mod:`repro.obs` metrics are on;
* **incremental streaming** -- outcomes are delivered to an
  ``on_outcome`` callback the moment they arrive, in completion order:
  the parent blocks in ``multiprocessing.connection.wait`` on the result
  pipe and every worker's process sentinel, so it wakes as soon as a
  result lands or a worker exits, and dispatches the next task at once;
* **budget cutoff** -- an optional wall-clock budget stops dispatching
  new tasks; undispatched tasks come back as ``skipped``;
* **bounded retry** -- with ``retries=N``, a task whose attempt ends in
  ``error`` or ``timeout`` is re-dispatched up to N more times after a
  deterministic backoff (``retry_backoff * attempt`` seconds); only the
  final attempt's outcome is recorded, and each re-dispatch bumps the
  ``pool.task_retried`` counter;
* **fault injection** -- when a :mod:`repro.faults` plan with
  ``worker.*`` faults is armed, the task-index->fault map is shipped to
  the worker children, which apply the fault (crash/hang/slow) on the
  addressed task's *first* attempt -- so a retry demonstrably recovers.
  Worker faults need real worker processes; the serial path ignores
  them rather than crashing the caller.

Outcomes are ``(status, value)`` pairs, indexed like the input payloads:
``("ok", result)``, ``("error", message)``, ``("timeout", message)`` or
``("skipped", message)``.  With ``workers <= 1`` everything runs inline
in this process (no timeout enforcement, identical outcome shape), which
is also the reference behaviour parallel runs must reproduce.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.faults.runtime as faults
import repro.obs as obs
from repro.faults.inject import apply_worker_fault

Outcome = Tuple[str, Any]


@dataclass(frozen=True)
class WorkerStatus:
    """Liveness of one worker at a sampling instant."""

    worker_id: int
    alive: bool
    #: index of the task the worker is executing, or None when idle
    task_index: Optional[int] = None
    #: seconds the worker has spent on that task so far
    busy_seconds: float = 0.0


@dataclass(frozen=True)
class PoolStatus:
    """A point-in-time snapshot of pool progress, handed to the
    ``monitor`` callback of :func:`parallel_map`.  Everything here is
    observational -- the snapshot is built from the parent's own
    bookkeeping, so sampling it costs no worker communication."""

    dispatched: int
    completed: int
    total: int
    worker_crashes: int
    task_retries: int
    workers: Tuple[WorkerStatus, ...] = field(default_factory=tuple)

#: how much of a dead worker's captured stderr rides in the outcome
_STDERR_TAIL_BYTES = 4096

#: the longest the parent blocks waiting for a result or a worker exit;
#: it bounds how late task deadlines, retry releases and ``monitor``
#: beats are noticed when nothing arrives
_POLL_SECONDS = 0.05


def _worker_loop(runner: Callable[[Any], Any], worker_id: int, task_queue,
                 result_queue,
                 stderr_path: Optional[str] = None,
                 fault_map: Optional[Dict[int, Any]] = None,
                 ) -> None:  # pragma: no cover - child process
    # the pool stops a timed-out worker with SIGTERM, which must kill
    # it: a forked worker inherits the parent's handler, and one that
    # raises (the CLI's raises KeyboardInterrupt) would end only the
    # task, leaving the worker running while the parent replaces it
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if stderr_path is not None:
        # fd-level redirect so even hard crashes (abort, C extensions)
        # leave their last words where the parent can recover them
        fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                     0o600)
        os.dup2(fd, 2)
        os.close(fd)
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, attempt, payload = item
        result_queue.put(("start", index, worker_id, None))
        if fault_map and attempt == 0:
            fault = fault_map.get(index)
            if fault is not None:
                apply_worker_fault(fault)
        try:
            result = runner(payload)
        except BaseException:
            result_queue.put(("error", index, worker_id,
                              traceback.format_exc()))
        else:
            result_queue.put(("done", index, worker_id, result))


def _read_tail(path: Optional[str],
               limit: int = _STDERR_TAIL_BYTES) -> str:
    """The last ``limit`` bytes of a worker's captured stderr, if any."""
    if path is None:
        return ""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - limit))
            return fh.read().decode("utf-8", "replace").strip()
    except OSError:
        return ""


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def check_retries(retries: int) -> None:
    """Raise ValueError if ``retries`` is negative: it would run no
    attempt at all.  Every holder of a retry count checks it when it is
    built, not when its first task runs."""
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


def parallel_map(runner: Callable[[Any], Any], payloads: Sequence[Any],
                 workers: int = 1,
                 timeout: Optional[float] = None,
                 budget: Optional[float] = None,
                 on_outcome: Optional[Callable[[int, Outcome], None]] = None,
                 retries: int = 0,
                 retry_backoff: float = 0.0,
                 monitor: Optional[Callable[[PoolStatus], None]] = None,
                 ) -> List[Outcome]:
    """Apply ``runner`` to every payload, one task per worker at a time.

    ``runner`` is handed to every worker process as it is: a forked
    worker inherits a copy and a spawned one unpickles one, so under
    spawn it must pickle (a module-level function, or an instance of a
    module-level class such as the campaign's
    :class:`~repro.harness.campaign.TaskRunner`).  State the runner
    keeps is therefore per process: each worker's copy lives as long
    as the worker, and the serial path calls the caller's own.

    See the module docstring for outcome semantics.  ``monitor``, when
    given, is called with a :class:`PoolStatus` snapshot on every
    scheduling beat (each wake of the parent loop in parallel mode, at
    least every ``_POLL_SECONDS``; around every task in serial mode);
    rate limiting is the consumer's job.  A negative ``retries``
    raises ValueError: it would run no attempt at all.
    """
    check_retries(retries)
    total = len(payloads)
    outcomes: List[Optional[Outcome]] = [None] * total
    started = time.perf_counter()
    crash_count = 0
    retry_count = 0

    def record(index: int, outcome: Outcome) -> None:
        outcomes[index] = outcome
        obs.add(f"pool.tasks.{outcome[0]}")
        if on_outcome is not None:
            on_outcome(index, outcome)

    if workers <= 1 or total <= 1:
        for index, payload in enumerate(payloads):
            if budget is not None and time.perf_counter() - started > budget:
                record(index, ("skipped", "budget exhausted"))
                continue
            task_started = time.perf_counter()
            if monitor is not None:
                monitor(PoolStatus(
                    dispatched=index + 1, completed=index, total=total,
                    worker_crashes=0, task_retries=retry_count,
                    workers=(WorkerStatus(0, True, index, 0.0),)))
            for attempt in range(retries + 1):
                if attempt:
                    retry_count += 1
                    obs.add("pool.task_retried")
                    if retry_backoff > 0.0:
                        time.sleep(retry_backoff * attempt)
                try:
                    result = runner(payload)
                except (KeyboardInterrupt, SystemExit):
                    # interruption is the caller's to handle (graceful
                    # drain), never a recordable task failure
                    raise
                except BaseException:
                    if attempt >= retries:
                        record(index, ("error", traceback.format_exc()))
                else:
                    record(index, ("ok", result))
                    break
            if monitor is not None:
                monitor(PoolStatus(
                    dispatched=index + 1, completed=index + 1, total=total,
                    worker_crashes=0, task_retries=retry_count,
                    workers=(WorkerStatus(
                        0, True, None,
                        time.perf_counter() - task_started),)))
        return [o for o in outcomes if o is not None]

    ctx = _pick_context()
    task_queue = ctx.Queue()
    # SimpleQueue writes synchronously in the calling thread (no feeder
    # thread), so a worker that dies right after ``put`` -- e.g. via
    # ``os._exit`` mid-task -- cannot lose its "start" message.  Losing
    # it would leave the consumed task unattributable and hang the pool.
    result_queue = ctx.SimpleQueue()
    plan = faults.active()
    fault_map = plan.worker_fault_map() if plan is not None else {}
    next_worker_id = 0
    procs: Dict[int, Any] = {}
    running: Dict[int, Tuple[int, float]] = {}  # worker_id -> (task, t0)
    stderr_paths: Dict[int, str] = {}

    def spawn_worker() -> None:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        fd, stderr_path = tempfile.mkstemp(prefix="repro-pool-stderr-",
                                           suffix=f".{worker_id}.log")
        os.close(fd)
        stderr_paths[worker_id] = stderr_path
        proc = ctx.Process(target=_worker_loop,
                           args=(runner, worker_id, task_queue,
                                 result_queue, stderr_path,
                                 fault_map or None),
                           daemon=True)
        proc.start()
        procs[worker_id] = proc

    def crash_message(worker_id: int, proc) -> str:
        exitcode = getattr(proc, "exitcode", None)
        message = f"worker process died (exitcode {exitcode})"
        tail = _read_tail(stderr_paths.get(worker_id))
        if tail:
            message += "\n--- captured worker stderr ---\n" + tail
        return message

    # lazy feeding keeps at most ~2 tasks queued per worker so a budget
    # cutoff leaves undispatched work cleanly skippable
    next_task = 0
    dispatched = 0
    completed = 0
    stop_dispatch = False
    #: current attempt number per task index (parent-side; a task is in
    #: flight at most once at a time, so this is unambiguous)
    attempt_of: Dict[int, int] = {}
    #: failed tasks awaiting re-dispatch: (ready_time, index, attempt,
    #: last_outcome); they leave ``dispatched`` while they wait so the
    #: completed==dispatched quiescence test and the in-flight cap stay
    #: truthful
    pending_retries: List[Tuple[float, int, int, Outcome]] = []

    def sample_status() -> None:
        if monitor is None:
            return
        now = time.perf_counter()
        statuses = []
        for worker_id, proc in sorted(procs.items()):
            busy = running.get(worker_id)
            statuses.append(WorkerStatus(
                worker_id=worker_id, alive=proc.is_alive(),
                task_index=busy[0] if busy else None,
                busy_seconds=(now - busy[1]) if busy else 0.0))
        monitor(PoolStatus(dispatched=dispatched, completed=completed,
                           total=total, worker_crashes=crash_count,
                           task_retries=retry_count,
                           workers=tuple(statuses)))

    def feed() -> None:
        nonlocal next_task, dispatched, stop_dispatch, retry_count
        if budget is not None and time.perf_counter() - started > budget:
            stop_dispatch = True
        if stop_dispatch:
            return
        now = time.perf_counter()
        while (pending_retries and pending_retries[0][0] <= now
               and dispatched - completed < 2 * len(procs)):
            _ready, index, attempt, _last = pending_retries.pop(0)
            attempt_of[index] = attempt
            retry_count += 1
            obs.add("pool.task_retried")
            task_queue.put((index, attempt, payloads[index]))
            dispatched += 1
        while (next_task < total
               and dispatched - completed < 2 * len(procs)):
            attempt_of[next_task] = 0
            task_queue.put((next_task, 0, payloads[next_task]))
            next_task += 1
            dispatched += 1

    def settle(index: int, outcome: Outcome) -> None:
        """Record a finished attempt's outcome -- or, when the task has
        retry budget left and failed, schedule a re-dispatch instead."""
        nonlocal completed, dispatched
        attempt = attempt_of.get(index, 0)
        if outcome[0] in ("error", "timeout") and attempt < retries:
            dispatched -= 1
            ready = time.perf_counter() + retry_backoff * (attempt + 1)
            pending_retries.append((ready, index, attempt + 1, outcome))
            pending_retries.sort()
            return
        completed += 1
        record(index, outcome)

    for _ in range(min(workers, total)):
        spawn_worker()
    feed()

    try:
        while completed < total:
            sample_status()
            if stop_dispatch and completed == dispatched:
                # flush retry-pending tasks with their last real outcome
                # (journaling a budget skip would wrongly persist it)
                for _ready, index, _attempt, last in pending_retries:
                    completed += 1
                    record(index, last)
                pending_retries.clear()
                for index in range(total):
                    if outcomes[index] is None:
                        completed += 1
                        record(index, ("skipped", "budget exhausted"))
                break
            # drain every delivered message before looking at worker
            # health: puts are synchronous (SimpleQueue), so a worker
            # observed dead has already delivered everything it sent,
            # and draining first attributes its death to the right task
            drained = False
            while not result_queue.empty():
                drained = True
                kind, index, worker_id, payload = result_queue.get()
                if kind == "start":
                    running[worker_id] = (index, time.perf_counter())
                elif kind in ("done", "error") and outcomes[index] is None:
                    running.pop(worker_id, None)
                    settle(index, ("ok", payload) if kind == "done"
                           else ("error", payload))
            if drained:
                feed()
                continue  # re-drain until quiescent before health checks
            # block until a result arrives or a worker exits
            # (``_reader`` is SimpleQueue's read end, which
            # concurrent.futures.process waits on the same way); a dead
            # worker's sentinel stays readable only until the health
            # pass below drops it from ``procs`` in this same turn, so
            # the loop cannot spin on it
            ready = wait([result_queue._reader]
                         + [proc.sentinel for proc in procs.values()],
                         timeout=_POLL_SECONDS)
            if result_queue._reader in ready:
                continue  # messages arrived while waiting: those first

            now = time.perf_counter()
            for worker_id, (index, t0) in list(running.items()):
                proc = procs.get(worker_id)
                timed_out = timeout is not None and now - t0 > timeout
                died = proc is None or not proc.is_alive()
                if not timed_out and not died:
                    continue
                if died:
                    crash_count += 1
                    obs.add("pool.worker_crash")
                if proc is not None:
                    proc.terminate()
                    proc.join(timeout=5)
                procs.pop(worker_id, None)
                running.pop(worker_id, None)
                if outcomes[index] is None:
                    settle(index, ("timeout",
                                   f"task exceeded {timeout}s") if timed_out
                           else ("error", crash_message(worker_id, proc)))
                spawn_worker()
                feed()
            # a worker that died while idle (e.g. OOM-killed between
            # tasks) loses no task; it is counted and replaced
            for worker_id, proc in list(procs.items()):
                if worker_id not in running and not proc.is_alive():
                    crash_count += 1
                    obs.add("pool.worker_crash")
                    procs.pop(worker_id)
                    spawn_worker()
            feed()
        # one closing snapshot so consumers see the final counts even
        # when the last task finished between sampling beats
        sample_status()
    finally:
        # one stop sentinel per worker, counted before the first is
        # sent: an idle worker takes a sentinel and exits at once, so
        # checking liveness between puts would starve the others (a
        # surplus sentinel for a dead worker dies with the queue)
        for _ in range(len(procs)):
            task_queue.put(None)
        deadline = time.perf_counter() + 5
        for proc in procs.values():
            proc.join(timeout=max(0.1, deadline - time.perf_counter()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        task_queue.close()
        if hasattr(result_queue, "close"):  # SimpleQueue, 3.9+
            result_queue.close()
        for stderr_path in stderr_paths.values():
            try:
                os.unlink(stderr_path)
            except OSError:
                pass

    return [o if o is not None else ("error", "lost task")
            for o in outcomes]
