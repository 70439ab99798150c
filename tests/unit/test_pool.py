"""Pool wake-up, shutdown and timeout kills: the parent of a parallel
map wakes on results and worker exits rather than on a timer, stops
every worker with its own sentinel instead of terminating one at the
join deadline, and kills a timed-out worker whatever SIGTERM handler it
was forked with."""

import multiprocessing.process
import signal
import time

import pytest

from repro.harness.pool import parallel_map


def sleep_task(payload):
    """A task far shorter than the parent's wait bound."""
    time.sleep(0.001)
    return payload


def spin_task(payload):
    """A ~1-2 ms CPU-bound task: the shape whose idle worker exits on
    the first stop sentinel before the parent looks at it."""
    acc = payload
    for step in range(20_000):
        acc = (acc * 31 + step) & 0xFFFF
    return acc


def hang_task(payload):
    """Hangs far past the test's task timeout on ``"hang"``."""
    if payload == "hang":
        time.sleep(60)
    return payload


class TestWakeOnResults:
    def test_short_tasks_do_not_wait_on_a_timer(self):
        """60 one-millisecond tasks on two workers: a parent that naps
        between drains keeps each worker idle until it wakes (0.76 s
        with a 50 ms sleep-poll); one woken by each result finishes in
        tens of milliseconds."""
        started = time.perf_counter()
        outcomes = parallel_map(sleep_task, list(range(60)), workers=2)
        elapsed = time.perf_counter() - started
        assert outcomes == [("ok", index) for index in range(60)]
        assert elapsed < 0.35, f"60 short tasks took {elapsed:.3f}s"


class TestShutdown:
    def test_every_worker_gets_its_stop_sentinel(self, monkeypatch):
        """No worker is left blocked on the task queue for the join
        deadline to terminate: across repeated maps the pool never
        calls ``terminate``."""
        terminated = []
        terminate = multiprocessing.process.BaseProcess.terminate

        def counting_terminate(proc):
            terminated.append(proc.pid)
            terminate(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "terminate", counting_terminate)
        expected = [("ok", spin_task(index)) for index in range(12)]
        for _ in range(10):
            assert parallel_map(spin_task, list(range(12)),
                                workers=2) == expected
        assert terminated == []


class TestTimeoutKill:
    def test_timeout_kills_the_worker_under_a_raising_sigterm_handler(self):
        """A parent that turns SIGTERM into an exception, as the CLI
        does, must not hand that handler to its workers: the timed-out
        worker is killed, not left to swallow the exception in its task
        and run on while the parent waits out its 5 s join and replaces
        it."""
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, interrupt)
        try:
            started = time.perf_counter()
            outcomes = parallel_map(hang_task, ["hang", "a", "b", "c"],
                                    workers=2, timeout=0.5)
            elapsed = time.perf_counter() - started
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcomes[0][0] == "timeout"
        assert outcomes[1:] == [("ok", "a"), ("ok", "b"), ("ok", "c")]
        assert elapsed < 4, f"one timed-out task took {elapsed:.2f}s"


class TestNegativeRetries:
    """``retries=N`` allows N extra attempts, so a negative value would
    allow no attempt at all: the serial path returned ``[]`` for three
    payloads, every task lost without an error."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejected_on_both_paths(self, workers):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            parallel_map(sleep_task, [1, 2, 3], workers=workers,
                         retries=-1)
