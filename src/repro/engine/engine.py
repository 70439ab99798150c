"""The unified detector engine: one event stream, N analyses.

The paper's methodology (§6) requires every detector to observe the
*identical* execution.  :class:`DetectorEngine` is the one place that
guarantees it: it takes a single execution -- a live
:class:`repro.machine.Machine` or a recorded
:class:`repro.trace.Trace` -- and multiplexes its normalized event
stream to any set of registered analyses, streaming the execution
exactly once per scheduled *phase* rather than once per detector.

Scheduling.  Analyses declare dependencies by name
(:attr:`Analysis.requires`); the engine instantiates missing
dependencies from the registry and topologically groups analyses into
phases, so an analysis always streams strictly after everything it
reads.  Phase 0 runs online when the source is a live machine; if later
phases exist (or a batch analysis wants the whole trace) the engine
attaches one internal recorder during phase 0 and replays the recording
for the remaining phases -- record once, analyze many.  A phase whose
analyses subscribe to no events at all (pure composition, e.g. the
hybrid detector) is *skipped* entirely: its analyses are finished
without another pass over the stream.

Dispatch.  Events arrive as :class:`~repro.machine.batch.EventBatch`
windows -- the machine's flushes, or slices of a recorded trace -- and
each analysis receives each window in one ``consume_batch`` call,
skipped when the window holds none of its :attr:`interests`.  That is
the only way an analysis receives events; one that subscribes to events
without a ``consume_batch`` is refused before the run starts.

:class:`EngineStats` records, per phase, how many events were read from
the source and how many callbacks were dispatched -- the event-count
probe tests and the throughput benchmark assert the single-pass
guarantee through it.  The finished stats also ride on every produced
:class:`ViolationReport` (``report.engine_stats``), so pass counts are
visible wherever a report travels.

Observability.  When :mod:`repro.obs` is active the engine wraps the
machine run and every phase in spans and publishes ``engine.*`` metrics
(events read/dispatched, per-event-kind counts, per-analysis dispatch
counts).  The per-kind counting lives in a dispatcher subclass that is
only selected while metrics are on; with observability off the hot loop
is byte-for-byte the uninstrumented dispatch.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro.faults.runtime as faults
import repro.obs as obs
from repro.core.report import AnalysisFailure, ViolationReport
from repro.engine.analysis import Analysis
from repro.faults.inject import RaisingConsumer
from repro.faults.plan import InjectedFault
from repro.machine.batch import DEFAULT_BATCH_SIZE, EventBatch
from repro.machine.events import KIND_NAMES, MachineObserver, N_KINDS
from repro.trace.trace import Trace, TraceRecorder


class EngineError(Exception):
    """Misconfigured engine: unknown detector, dependency cycle, reuse."""


def _failure(analysis_name: str, phase: int, stage: str, event_index: int,
             seq: int, exc: BaseException) -> AnalysisFailure:
    return AnalysisFailure(
        analysis=analysis_name, phase=phase, stage=stage,
        event_index=event_index, seq=seq,
        error=f"{type(exc).__name__}: {exc}",
        traceback_text=traceback.format_exc())


class _PhaseDispatcher(MachineObserver):
    """Routes one phase's event windows to its analyses.

    Each analysis receives every shared window in one ``consume_batch``
    call, skipped when the window holds none of its :attr:`interests`.
    An analysis targeted by an ``analysis.raise`` fault receives its
    windows through a :class:`~repro.faults.inject.RaisingConsumer`,
    which cuts the window at the faulting event.

    An analysis that raises is *quarantined*: it is unhooked, an
    :class:`AnalysisFailure` is recorded in :attr:`failures`, and
    delivery continues to the remaining analyses.  The hot loop pays
    nothing for this until an exception actually occurs (one ``try``
    around each dispatch; CPython 3.11 zero-cost exceptions).
    """

    def __init__(self, analyses: Sequence[Analysis],
                 phase_index: int = 0) -> None:
        handlers: List[Tuple] = []
        plan = faults.active()
        raise_faults = ({f.target: f for f in plan.analysis_faults()}
                        if plan is not None else {})
        for analysis in analyses:
            consume = analysis.consume_batch
            if consume is None:
                continue  # reads no events
            kinds = (None if analysis.interests is None
                     else tuple(analysis.interests))
            fault = raise_faults.get(analysis.name)
            if fault is not None:
                consume = RaisingConsumer(fault, consume, kinds)
            handlers.append((analysis, consume, kinds))
        self._handlers = handlers
        self.batches_consumed = 0
        #: kind mask folded from the phase's analyses: the machine does
        #: not stage kinds outside it.  Fixed at attach time --
        #: quarantining an analysis later never shrinks it.
        self.interests = (None if any(a.interests is None for a in analyses)
                          else frozenset().union(
                              *(a.interests for a in analyses)))
        #: does any analysis of the phase read events at all?
        self.any_subscribers = self.interests is None or bool(self.interests)
        self.phase_index = phase_index
        self.events_read = 0
        self.events_dispatched = 0
        #: analysis name -> AnalysisFailure, in quarantine order
        self.failures: Dict[str, AnalysisFailure] = {}

    def consume_batch(self, batch: EventBatch) -> None:
        """Deliver one window: one call per analysis with the shared
        mixed-kind window."""
        self.batches_consumed += 1
        count = batch.count
        base = self.events_read
        self.events_read = base + count
        kind_counts = None
        for analysis, consume, kinds in self._handlers:
            if kinds is None:
                fed = count
            else:
                if kind_counts is None:
                    kind_counts = batch.kind_counts()
                fed = 0
                for kind in kinds:
                    fed += kind_counts[kind]
                if not fed:
                    # no event of the window is of a kind it reads
                    continue
            self.events_dispatched += fed
            try:
                consume(batch)
            except Exception as exc:
                self._quarantine(analysis, base, batch, exc)

    def _quarantine(self, analysis: Analysis, base: int,
                    batch: EventBatch, exc: Exception) -> None:
        """Unhook a raising analysis.  An injected fault is anchored at
        the event it fired at; any other failure at the first event of
        the window the analysis was consuming (somewhere past that
        point is where it actually raised)."""
        row = exc.row if isinstance(exc, InjectedFault) else None
        if row is not None:
            failure = _failure(analysis.name, self.phase_index, "event",
                               base + row, batch.rows[row][1], exc)
        else:
            failure = _failure(analysis.name, self.phase_index, "batch",
                               base, batch.rows[0][1] if batch.count else -1,
                               exc)
        self.failures[analysis.name] = failure
        obs.add("engine.analysis_quarantined")
        self._handlers = [entry for entry in self._handlers
                          if entry[0] is not analysis]


class _CountingPhaseDispatcher(_PhaseDispatcher):
    """Per-event-kind accounting, selected only while metrics are on."""

    def __init__(self, analyses: Sequence[Analysis],
                 phase_index: int = 0) -> None:
        super().__init__(analyses, phase_index)
        self.kind_counts = [0] * N_KINDS

    def consume_batch(self, batch: EventBatch) -> None:
        kc = self.kind_counts
        for kind, count in enumerate(batch.kind_counts()):
            if count:
                kc[kind] += count
        _PhaseDispatcher.consume_batch(self, batch)


def _make_dispatcher(analyses: Sequence[Analysis],
                     phase_index: int = 0) -> _PhaseDispatcher:
    if obs.metrics_enabled():
        return _CountingPhaseDispatcher(analyses, phase_index)
    return _PhaseDispatcher(analyses, phase_index)


@dataclass
class PhaseStats:
    """Per-phase accounting for the single-pass guarantee."""

    index: int
    analyses: Tuple[str, ...]
    events_read: int = 0
    events_dispatched: int = 0
    #: True when the phase needed no events (pure composition)
    skipped: bool = False


@dataclass
class EngineStats:
    phases: List[PhaseStats] = field(default_factory=list)

    @property
    def stream_passes(self) -> int:
        """How many times the event stream was actually read."""
        return sum(1 for p in self.phases if not p.skipped)

    @property
    def total_events_read(self) -> int:
        return sum(p.events_read for p in self.phases)

    @property
    def total_events_dispatched(self) -> int:
        return sum(p.events_dispatched for p in self.phases)


@dataclass
class EngineResult:
    """Everything one engine run produced."""

    #: every analysis that ran, auxiliary dependencies included
    analyses: Dict[str, Analysis]
    #: the names the caller asked for, in request order
    requested: Tuple[str, ...]
    #: violation reports of the requested analyses that produce one
    reports: Dict[str, ViolationReport]
    stats: EngineStats
    end_seq: int
    #: the shared recording, when one was made or supplied
    trace: Optional[Trace] = None
    #: machine status for live runs, None for trace replays
    status: Optional[str] = None
    #: analyses quarantined during the run (name -> failure record);
    #: empty for a clean run
    failures: Dict[str, AnalysisFailure] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Did any analysis get quarantined?"""
        return bool(self.failures)

    def analysis(self, name: str) -> Analysis:
        return self.analyses[name]

    def detector(self, name: str):
        """The underlying checker (unwraps observer adapters)."""
        return self.analyses[name].unwrap()

    def report(self, name: str) -> ViolationReport:
        report = self.analyses[name].result()
        if report is None:
            raise KeyError(f"analysis {name!r} produces no report")
        return report


class DetectorEngine:
    """Multiplexes one execution to N analyses in single-pass phases.

    Args:
        program: the compiled program all analyses check.
        detectors: registry names (or :class:`Analysis` instances) to
            run; more can be added with :meth:`add` before the run.
        svd_config: configuration handed to registry factories that
            build SVD-family detectors.
        batch_size: window size when replaying a recorded trace.

    An engine instance drives exactly one execution; build a fresh one
    per run.
    """

    def __init__(self, program, detectors: Sequence[Union[str, Analysis]] = (),
                 svd_config=None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.program = program
        self.svd_config = svd_config
        #: window size of trace replays (live runs use the machine's)
        self._batch_size = batch_size
        self._analyses: Dict[str, Analysis] = {}
        self._requested: List[str] = []
        self._used = False
        #: quarantined analyses, accumulated across phases
        self._failures: Dict[str, AnalysisFailure] = {}
        for detector in detectors:
            self.add(detector)

    # -- registration -----------------------------------------------------------

    def add(self, detector: Union[str, Analysis]) -> Analysis:
        """Register a detector by registry name or as an instance; its
        declared requirements are instantiated (once) automatically."""
        analysis = self._ensure(detector)
        if analysis.name not in self._requested:
            self._requested.append(analysis.name)
        return analysis

    def _ensure(self, detector: Union[str, Analysis]) -> Analysis:
        from repro.engine import registry
        if isinstance(detector, str):
            name = registry.canonical_name(detector)
            existing = self._analyses.get(name)
            if existing is not None:
                return existing
            analysis = registry.create(name, self.program,
                                       svd_config=self.svd_config)
        else:
            analysis = detector
            existing = self._analyses.get(analysis.name)
            if existing is analysis:
                return analysis
            if existing is not None:
                raise EngineError(
                    f"two different analyses named {analysis.name!r}")
        self._analyses[analysis.name] = analysis
        for requirement in analysis.requires:
            dependency = self._ensure(requirement)
            analysis.resolve(dependency.name, dependency)
        return analysis

    @property
    def names(self) -> List[str]:
        return list(self._requested)

    # -- scheduling -------------------------------------------------------------

    def _phases(self) -> List[List[Analysis]]:
        """Topological phase grouping: phase(a) = 1 + max(phase(deps))."""
        order: Dict[str, int] = {}
        for analysis in self._analyses.values():
            self._phase_of(analysis, (), order)
        phases: List[List[Analysis]] = [[] for _ in
                                        range(max(order.values(),
                                                  default=-1) + 1)]
        for analysis in self._analyses.values():
            phases[order[analysis.name]].append(analysis)
        return phases

    def _phase_of(self, analysis: Analysis, visiting: Tuple[str, ...],
                  order: Dict[str, int]) -> int:
        """``analysis``'s phase, memoized in ``order``.  A method, not
        a nested function: a recursive closure references itself, and
        that cycle would keep the engine and its analyses alive until
        the cyclic collector ran."""
        cached = order.get(analysis.name)
        if cached is not None:
            return cached
        if analysis.name in visiting:
            cycle = " -> ".join(visiting + (analysis.name,))
            raise EngineError(f"dependency cycle: {cycle}")
        if not analysis.requires:
            depth = 0
        else:
            depth = 1 + max(
                self._phase_of(self._analyses[dep],
                               visiting + (analysis.name,), order)
                for dep in analysis.requires)
        order[analysis.name] = depth
        return depth

    # -- execution --------------------------------------------------------------

    def run_machine(self, machine, max_steps: Optional[int] = None,
                    keep_trace: bool = False) -> EngineResult:
        """Drive a live machine with phase 0 attached online:
        :meth:`drive_machine` finished in one call.

        The machine must not have started yet.  A recording is made only
        when needed: later phases exist, some analysis wants the whole
        trace, or the caller asks to ``keep_trace``.
        """
        return self.drive_machine(machine, max_steps=max_steps,
                                  keep_trace=keep_trace).finish()

    def drive_machine(self, machine, max_steps: Optional[int] = None,
                      keep_trace: bool = False) -> "MachineDrive":
        """Attach phase 0 and return a :class:`MachineDrive` the caller
        advances in chunks, then finishes.

        Cooperative long-lived hosts (:mod:`repro.serve`) use this to
        interleave many executions in one event loop and to kill a
        stuck one between chunks; :meth:`run_machine` is the same drive
        finished at once."""
        return MachineDrive(self, machine, max_steps=max_steps,
                            keep_trace=keep_trace)

    def run_trace(self, trace: Trace) -> EngineResult:
        """Replay a recorded trace as the shared event stream."""
        phases = self._begin()
        stats = EngineStats()
        plan = faults.active()
        if plan is not None and plan.stream_faults():
            # transform once, so every phase replays the same faulted
            # stream (a per-phase injector would re-roll per pass)
            from repro.faults.inject import apply_to_trace
            trace = apply_to_trace(trace, plan)
        end_seq = trace.end_seq
        for index, analyses in enumerate(phases):
            self._run_phase(analyses, trace, stats, index, end_seq,
                            trace.n_threads)
        return self._result(stats, end_seq, trace, None)

    # -- internals --------------------------------------------------------------

    def _begin(self) -> List[List[Analysis]]:
        if self._used:
            raise EngineError("a DetectorEngine drives one execution; "
                              "build a fresh engine per run")
        self._used = True
        if not self._analyses:
            raise EngineError("no analyses registered")
        for analysis in self._analyses.values():
            if analysis.consume_batch is None and (
                    analysis.interests is None or analysis.interests):
                raise EngineError(
                    f"analysis {analysis.name!r} subscribes to events "
                    f"but has no consume_batch")
        return self._phases()

    def _start_phase(self, analyses: List[Analysis], index: int,
                     n_threads: int) -> List[Analysis]:
        """Start a phase's analyses; one that raises in ``start`` is
        quarantined before it ever joins the dispatch table.  Returns
        the survivors."""
        started: List[Analysis] = []
        for analysis in analyses:
            try:
                analysis.start(n_threads)
            except Exception as exc:
                self._failures[analysis.name] = _failure(
                    analysis.name, index, "start", -1, -1, exc)
                obs.add("engine.analysis_quarantined")
            else:
                started.append(analysis)
        return started

    def _run_phase(self, analyses: List[Analysis], trace: Trace,
                   stats: EngineStats, index: int, end_seq: int,
                   n_threads: int) -> None:
        with obs.span("engine.phase", phase=index,
                      analyses="+".join(a.name for a in analyses)):
            started = self._start_phase(analyses, index, n_threads)
            dispatcher = _make_dispatcher(started, index)
            if dispatcher.any_subscribers:
                consume = dispatcher.consume_batch
                for batch in trace.batches(self._batch_size):
                    consume(batch)
            self._finish_phase(started, dispatcher, stats, index, end_seq,
                               trace)

    def _finish_phase(self, analyses: List[Analysis],
                      dispatcher: _PhaseDispatcher, stats: EngineStats,
                      index: int, end_seq: int,
                      trace: Optional[Trace]) -> None:
        # analyses quarantined mid-dispatch are in an unknown internal
        # state: record their failures and skip their finish()
        self._failures.update(dispatcher.failures)
        for analysis in analyses:
            if analysis.name in self._failures:
                continue
            try:
                if analysis.wants_trace:
                    if trace is None:
                        raise EngineError(
                            f"{analysis.name} needs the full trace but no "
                            f"recording was made")
                    analysis.set_trace(trace)
                with obs.span("analysis.finish", analysis=analysis.name):
                    analysis.finish(end_seq)
            except EngineError:
                raise  # engine misconfiguration, not an analysis fault
            except Exception as exc:
                self._failures[analysis.name] = _failure(
                    analysis.name, index, "finish", -1, -1, exc)
                obs.add("engine.analysis_quarantined")
        stats.phases.append(PhaseStats(
            index=index,
            analyses=tuple(a.name for a in analyses),
            events_read=dispatcher.events_read,
            events_dispatched=dispatcher.events_dispatched,
            skipped=(not dispatcher.any_subscribers
                     and dispatcher.events_read == 0)))
        if isinstance(dispatcher, _CountingPhaseDispatcher):
            self._record_phase_metrics(analyses, dispatcher)

    @staticmethod
    def _record_phase_metrics(analyses: List[Analysis],
                              dispatcher: "_CountingPhaseDispatcher") -> None:
        registry = obs.metrics()
        registry.counter("engine.events.read").inc(dispatcher.events_read)
        registry.counter("engine.events.dispatched").inc(
            dispatcher.events_dispatched)
        kind_counts = dispatcher.kind_counts
        for kind, count in enumerate(kind_counts):
            if count:
                registry.counter(
                    f"engine.events.kind.{KIND_NAMES[kind]}").inc(count)
        if dispatcher.batches_consumed:
            registry.counter("engine.batch_flushed").inc(
                dispatcher.batches_consumed)
        for analysis in analyses:
            kinds = (range(N_KINDS) if analysis.interests is None
                     else analysis.interests)
            fed = sum(kind_counts[kind] for kind in kinds)
            if fed:
                registry.counter(
                    f"engine.analysis.{analysis.name}.events").inc(fed)

    def _result(self, stats: EngineStats, end_seq: int,
                trace: Optional[Trace],
                status: Optional[str]) -> EngineResult:
        reports: Dict[str, ViolationReport] = {}
        for name in self._requested:
            try:
                report = self._analyses[name].result()
            except Exception as exc:
                if name not in self._failures:
                    self._failures[name] = _failure(
                        name, -1, "result", -1, -1, exc)
                continue
            if report is not None:
                report.engine_stats = stats
                reports[name] = report
        failure_list = list(self._failures.values())
        for report in reports.values():
            report.failures = failure_list
        if obs.metrics_enabled():
            registry = obs.metrics()
            registry.add("engine.runs")
            registry.add("engine.stream_passes", stats.stream_passes)
        return EngineResult(
            analyses=dict(self._analyses),
            requested=tuple(self._requested),
            reports=reports,
            stats=stats,
            end_seq=end_seq,
            trace=trace,
            status=status,
            failures=dict(self._failures))


class MachineDrive:
    """One engine execution advanced in caller-controlled chunks.

    Built by :meth:`DetectorEngine.drive_machine`; the constructor
    attaches phase 0 (analysis start, recorder, dispatcher),
    :meth:`advance` retires up to ``chunk`` machine steps on the
    machine's run loop, and :meth:`finish` runs whatever is left,
    finalizes the phases and produces the :class:`EngineResult`.
    :meth:`abort` finalizes a half-run execution truthfully (status
    ``"aborted:<reason>"``, later phases skipped) -- what a watchdog
    kill reports instead of pretending the run completed.

    ``run_machine`` is ``drive_machine(...).finish()``, so any sequence
    of ``advance`` calls followed by ``finish()`` gives the result of
    one ``run_machine(machine, max_steps=...)`` call -- same reports,
    same stats, same status, same spans.
    """

    def __init__(self, engine: DetectorEngine, machine,
                 max_steps: Optional[int] = None,
                 keep_trace: bool = False) -> None:
        self._engine = engine
        self.machine = machine
        self._max_steps = max_steps
        self._phases = engine._begin()
        self._stats = EngineStats()
        self._n_threads = len(machine.threads)
        needs_trace = (keep_trace or len(self._phases) > 1
                       or any(a.wants_trace
                              for a in engine._analyses.values()))
        self._recorder = None
        if needs_trace:
            self._recorder = TraceRecorder(engine.program, self._n_threads)
            machine.add_observer(self._recorder)
        self._started = engine._start_phase(self._phases[0], 0,
                                            self._n_threads)
        self._dispatcher = _make_dispatcher(self._started, 0)
        if self._dispatcher.any_subscribers:
            machine.add_observer(self._dispatcher)
        self._done = False

    def advance(self, chunk: int = 1024) -> bool:
        """Retire up to ``chunk`` steps; returns True while the machine
        still has work (False once stopped or at the step limit).  A
        ``chunk`` below 1 raises ValueError: it would retire nothing and
        still report work left."""
        if chunk < 1:
            raise ValueError(f"chunk must be at least 1, got {chunk}")
        machine = self.machine
        stop = machine.steps + chunk
        limit = self._max_steps
        if limit is not None and stop >= limit:
            machine.advance(limit)
            return False
        return machine.advance(stop)

    def finish(self) -> EngineResult:
        """Run the machine to its end and finalize.  ``machine.run``
        stamps ``step_limit`` on a machine still runnable at the limit
        and fires the finish notifications."""
        return self._finalize()

    def abort(self, reason: str = "killed") -> EngineResult:
        """Finalize a half-run execution: flush staged events, finish
        phase-0 analyses over what they actually saw, skip later
        phases, and report status ``aborted:<reason>``."""
        return self._finalize(reason)

    def _finalize(self, abort_reason: Optional[str] = None) -> EngineResult:
        if self._done:
            raise EngineError("a MachineDrive finalizes once")
        self._done = True
        engine = self._engine
        machine = self.machine
        with obs.span("engine.phase", phase=0,
                      analyses="+".join(a.name for a in self._phases[0])):
            if abort_reason is None:
                with obs.span("machine.run"):
                    status = machine.run(max_steps=self._max_steps)
            else:
                machine.flush_events()
                status = f"aborted:{abort_reason}"
            end_seq = machine.seq
            trace = (self._recorder.trace() if self._recorder is not None
                     else None)
            engine._finish_phase(self._started, self._dispatcher,
                                 self._stats, 0, end_seq, trace)
        if abort_reason is None:
            for index, analyses in enumerate(self._phases[1:], start=1):
                assert trace is not None
                engine._run_phase(analyses, trace, self._stats, index,
                                  end_seq, self._n_threads)
        return engine._result(self._stats, end_seq, trace, status)
