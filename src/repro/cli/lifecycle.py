"""The invocation lifecycle every ``repro`` command runs through, plus
the flags and input loaders the commands share.

:meth:`Invocation.run` wires the cross-cutting pieces once, in a fixed
order, so no command can get them out of step:

1. the handlers that turn SIGINT/SIGTERM into :class:`KeyboardInterrupt`
   go in (so even a signal during the flag checks exits 3);
2. the command checks its flags and inputs; a :class:`UsageError` exits
   2, and nothing has been opened yet;
3. :meth:`Invocation.start` opens the command's heartbeat,
4. then the obs session, when the obs flags or the ``--db`` row ask
   for it;
5. the command body runs; a :class:`KeyboardInterrupt` flushes the
   heartbeat as interrupted;
6. the merged obs artefacts are emitted;
7. the one ``--db`` row is written;
8. the signal handlers are restored;
9. the outcome's status maps to the exit code (:data:`EXIT_CODES`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro.obs as obs

#: status vocabulary -> exit code.  ``violations`` covers a fuzz oracle
#: failure too; degraded (analyses quarantined, trace records salvaged,
#: campaign runs failed) beats violations -- a partial report is suspect
#: first -- and an interrupted run is degraded by definition
EXIT_CODES = {"ok": 0, "violations": 1, "degraded": 3, "interrupted": 3}
#: bad flags, unreadable or malformed input
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flags or unreadable input: the message goes to stderr, the
    exit code is 2, and no ``--db`` row is written."""


def status_of(violations: bool, degraded: bool) -> str:
    if degraded:
        return "degraded"
    return "violations" if violations else "ok"


@dataclass
class Row:
    """The identity of a command's ``--db`` row, known once its flags
    are checked; the measured half comes from the :class:`Outcome`."""

    kind: str
    label: str
    config: Dict[str, Any]
    #: ``schedule_seed``/``model_seed``/``master_seed`` keywords
    seeds: Dict[str, Optional[int]] = field(default_factory=dict)
    detectors: Sequence[str] = ()
    consistency: str = ""


@dataclass
class Outcome:
    """What a command body hands back to its invocation."""

    status: str = "ok"
    violations: int = 0
    events: int = 0
    #: seconds the row records (default: the body's wall time)
    elapsed: Optional[float] = None
    payload: Optional[Dict[str, Any]] = None
    fingerprints: Sequence[str] = ()
    #: an obs snapshot folded together with the session's own
    snapshot: Optional[Dict[str, Any]] = None
    #: the row's heartbeat when the invocation opened none
    heartbeat: Optional[Dict[str, Any]] = None


def obs_requested(args) -> bool:
    """Did the ``--obs``/``--trace-out``/``--metrics-out`` group ask
    for a session?  (``shard merge`` has a bare ``--metrics-out``: it
    writes the shards' snapshot and never opens a session.)"""
    return hasattr(args, "obs") and bool(args.obs or args.trace_out
                                         or args.metrics_out)


_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signal.Signals(signum).name)


class Invocation:
    """One command invocation: ``Invocation(args).run()`` calls
    ``args.func(invocation)`` between the lifecycle steps."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.heartbeat = None
        self.metrics_out: Optional[str] = None
        self._row: Optional[Row] = None
        self._session = None
        self._stack = contextlib.ExitStack()
        self._started = time.perf_counter()

    def start(self, row: Optional[Row] = None, *, heartbeat=None,
              total: int = 0, heartbeat_out: Optional[str] = None,
              metrics_out: Optional[str] = None, obs_on: bool = False):
        """The flags are checked: open what the command writes.

        ``row`` is what ``--db`` records.  ``heartbeat`` (a heartbeat
        class) streams to ``heartbeat_out`` (default ``--heartbeat-out``)
        and is opened when that path, ``--progress`` or ``--db`` asks
        for it.  The obs session opens for the obs flags or ``obs_on``;
        its merged snapshot goes to ``metrics_out`` (default
        ``--metrics-out``).  Returns the heartbeat, or None."""
        args = self.args
        self._row = row
        heartbeat_out = heartbeat_out or getattr(args, "heartbeat_out", None)
        render = getattr(args, "progress", False)
        if heartbeat is not None and (heartbeat_out or render or args.db):
            # signals are held across the construction: one landing
            # after the stream's file exists but before the assignment
            # would leave a file no one can flush
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
            try:
                self.heartbeat = heartbeat(
                    total, path=heartbeat_out,
                    interval=args.heartbeat_interval, render=render,
                    stream=sys.stderr)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        if obs_on or obs_requested(args):
            self._session = self._stack.enter_context(obs.session())
        self.metrics_out = metrics_out or getattr(args, "metrics_out", None)
        return self.heartbeat

    def run(self) -> int:
        previous = {}
        for signum in _SIGNALS:
            try:
                previous[signum] = signal.signal(signum, _interrupt)
            except (ValueError, OSError):
                pass  # not the main thread; keep whatever is installed
        try:
            outcome = self._body()
            snapshot = self._emit(outcome)
            self._record(outcome, snapshot)
            return EXIT_CODES[outcome.status]
        except UsageError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        except KeyboardInterrupt:
            return EXIT_CODES["interrupted"]  # landed while flushing
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            # A KeyboardInterrupt that leaves exec()/eval() of source
            # text (a frozen dataclass builds its methods that way, so
            # a signal during a lazy import raises it there) marks the
            # interpreter as interrupted even when it is caught, and
            # `python -m` then exits by SIGINT instead of with our code.
            # Evaluating any source text clears that mark.
            eval("0")

    def _body(self) -> Outcome:
        try:
            with self._stack:
                outcome = self.args.func(self)
        except KeyboardInterrupt as exc:
            args = self.args
            command = " ".join(filter(None, (
                args.command, getattr(args, f"{args.command}_command",
                                      None))))
            reason = exc.args[0] if exc.args else "SIGINT"
            print(f"{command} interrupted by {reason}; what finished is "
                  f"flushed", file=sys.stderr)
            if self.heartbeat is not None:
                self.heartbeat.interrupted = True
            outcome = Outcome("interrupted")
        finally:
            if self.heartbeat is not None:
                self.heartbeat.finish()
        if outcome.elapsed is None:
            outcome.elapsed = time.perf_counter() - self._started
        return outcome

    def _emit(self, outcome: Outcome) -> Optional[Dict[str, Any]]:
        snapshots = ([outcome.snapshot] if outcome.snapshot is not None
                     else [])
        if self._session is not None:
            snapshots.append(self._session.registry.snapshot())
        snapshot = (obs.merge_snapshots(snapshots) if len(snapshots) > 1
                    else snapshots[0] if snapshots else None)
        if self.metrics_out:
            if snapshot is None:
                print("no metrics snapshot to write (shards planned with "
                      "--no-obs?)", file=sys.stderr)
            else:
                # atomic: a crash mid-write must not leave a truncated
                # snapshot
                obs.atomic_write_text(
                    self.metrics_out,
                    json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
                print(f"metrics written to {self.metrics_out}",
                      file=sys.stderr)
        if self._session is not None and obs_requested(self.args):
            tracer = self._session.tracer
            trace_out = self.args.trace_out
            if trace_out:
                if trace_out.endswith(".jsonl"):
                    tracer.write_jsonl(trace_out)
                else:
                    tracer.write_chrome_trace(trace_out)
                print(f"trace written to {trace_out} "
                      f"({len(tracer.spans)} spans)", file=sys.stderr)
            print()
            print(obs.render_summary(snapshot, tracer))
        return snapshot

    def _record(self, outcome: Outcome,
                snapshot: Optional[Dict[str, Any]]) -> None:
        row, path = self._row, getattr(self.args, "db", None)
        if row is None or not path:
            return
        from repro import resultsdb
        heartbeat = outcome.heartbeat
        if heartbeat is None and self.heartbeat is not None:
            heartbeat = self.heartbeat.summary()
        run_id = resultsdb.write_run(
            path, row.kind, row.label, row.config,
            status=outcome.status, violations=outcome.violations,
            events=outcome.events, elapsed=outcome.elapsed,
            detectors=row.detectors, consistency=row.consistency,
            payload=outcome.payload, obs=snapshot,
            violation_fingerprints=outcome.fingerprints,
            heartbeat=heartbeat, **row.seeds)
        print(f"recorded {row.kind} {run_id} in {path}", file=sys.stderr)


# -- shared argument types ---------------------------------------------------
# A value out of range is argparse's usage error (exit 2) at parse time,
# before any command opens a heartbeat, journal or results-DB row.

def _checked(kind: Callable[[str], Any], text: str,
             accept: Callable[[Any], bool], wanted: str) -> Any:
    try:
        value = kind(text)
        if accept(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")


def probability(text: str) -> float:
    """``--switch-prob``: the scheduler's per-step switch chance."""
    return _checked(float, text, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def positive_int(text: str) -> int:
    return _checked(int, text, lambda v: v >= 1, "a positive integer")


def non_negative_int(text: str) -> int:
    return _checked(int, text, lambda v: v >= 0, "a non-negative integer")


def positive_float(text: str) -> float:
    return _checked(float, text, lambda v: v > 0.0, "a positive number")


def non_negative_float(text: str) -> float:
    return _checked(float, text, lambda v: v >= 0.0,
                    "a non-negative number")


# -- shared flags ------------------------------------------------------------

def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--obs", action="store_true",
                       help="collect metrics + spans and print a summary")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write spans (implies --obs); .jsonl gets "
                       "one span per line, anything else gets Chrome "
                       "trace-event JSON (opens in Perfetto)")
    group.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics snapshot as canonical "
                       "JSON (implies --obs)")


def add_consistency_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("memory model")
    group.add_argument("--consistency", default="strict",
                       choices=["strict", "tso"],
                       help="memory model the live machines execute "
                       "under (default: strict; see docs/consistency.md)")
    group.add_argument("--model-seed", type=int, default=None,
                       metavar="N",
                       help="TSO store-buffer seed (default: the "
                       "schedule seed, so one number reproduces a run)")


def add_db_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="append this run to the persistent results "
                        "database at PATH (SQLite; created if missing -- "
                        "see docs/observability.md)")


# -- shared input loaders (each raises UsageError) ---------------------------

def parse_workloads(text: str) -> List[str]:
    """``all`` or a comma-separated list of registered workload names."""
    from repro.workloads import WORKLOADS
    if text == "all":
        return sorted(WORKLOADS)
    names = [n.strip() for n in text.split(",") if n.strip()]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise UsageError(f"unknown workloads: {', '.join(unknown)}")
    return names


def parse_detectors(text: str) -> List[str]:
    from repro.engine import parse_detector_list
    try:
        return parse_detector_list(text)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def load_program(path: str):
    """Read and compile a MiniSMP source file."""
    from repro.lang import LangError, compile_source
    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return compile_source(source)
    except LangError as exc:
        raise UsageError(f"compile error: {exc}") from None


def load_fault_plan(path: Optional[str]):
    """The ``--inject`` plan (None without one), described on stderr."""
    if path is None:
        return None
    from repro.faults import FaultPlan
    try:
        plan = FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load fault plan: {exc}") from None
    print(plan.describe(), file=sys.stderr)
    return plan
