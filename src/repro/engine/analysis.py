"""The common analysis protocol of the detector engine.

Every checker in this library -- online observers like
:class:`repro.core.online.OnlineSVD`, streaming trace detectors like the
frontier race detector, and batch algorithms like the offline three-pass
SVD -- adapts to one contract so the :class:`repro.engine.DetectorEngine`
can multiplex a single normalized event stream to all of them at once:

* :attr:`Analysis.interests` names the event kinds the analysis wants;
  the engine builds a per-kind dispatch table from these, so the
  "is this event for me?" filtering every detector used to repeat in its
  hot loop happens exactly once per event, engine-side.
* :attr:`Analysis.requires` names other analyses whose *finished* state
  this one reads.  This is how two-pass detectors declare their extra
  passes: the engine schedules each requirement in a strictly earlier
  phase and streams the execution once per phase ("record once, analyze
  many"), instead of each detector privately re-reading the trace.
* :attr:`Analysis.wants_trace` marks batch algorithms that need the
  whole trace at once; the engine hands them the recorded trace at
  finish time rather than buffering a private copy per analysis.

Delivery: an analysis implements ``consume_batch(batch)`` and receives
the phase's stream as mixed-kind
:class:`~repro.machine.batch.EventBatch` windows in global order -- the
only way events reach an analysis.  One that reads no events (pure
composition, batch algorithms) leaves ``consume_batch`` None and
declares empty ``interests``; the engine refuses an analysis that
subscribes to events without a ``consume_batch``.

Lifecycle, driven by the engine: ``resolve()`` (dependency injection,
before any streaming) -> ``start()`` -> windows of the analysis's
scheduled phase -> ``finish()``.  Dependencies are
only *read* in ``start``/``finish``, never in ``resolve`` -- at resolve
time the dependency has not run yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

if TYPE_CHECKING:  # import-cycle guard: core re-exports engine adapters
    from repro.core.report import ViolationReport


class Analysis:
    """Base class for engine-driven analyses (see module docstring)."""

    #: registry name; also the key in :class:`EngineResult` mappings
    name: str = "analysis"
    #: event kinds (``EV_*``) to receive, or None for the full stream
    interests: Optional[FrozenSet[int]] = None
    #: names of analyses scheduled in earlier phases whose finished
    #: state this analysis reads
    requires: Tuple[str, ...] = ()
    #: True for batch algorithms that consume a whole recorded trace;
    #: the engine calls :meth:`set_trace` before :meth:`finish`
    wants_trace: bool = False
    #: a callable taking one :class:`repro.machine.batch.EventBatch`
    #: (mixed-kind, global order -- the consumer dispatches on each
    #: row's kind and ignores alien kinds).  None means the
    #: analysis reads no events (its ``interests`` must be empty).
    #: Declaring it is a contract that the result does not depend on
    #: where window boundaries fall.
    consume_batch = None

    def resolve(self, name: str, dependency: "Analysis") -> None:
        """Receive a required analysis instance (state still unread)."""

    def start(self, n_threads: int) -> None:
        """Reset per-run state; called before this analysis's pass."""

    def set_trace(self, trace) -> None:
        """Receive the full trace (only when :attr:`wants_trace`)."""

    def finish(self, end_seq: int) -> None:
        """End of this analysis's pass; ``end_seq`` is one past the last
        sequence number of the underlying execution."""

    def result(self) -> Optional[ViolationReport]:
        """The analysis's violation report, or None for pure
        precomputation passes (e.g. the shared address index)."""
        return getattr(self, "report", None)

    def unwrap(self):
        """The underlying checker object (adapters override)."""
        return self


class ObserverAnalysis(Analysis):
    """Adapter: any :class:`repro.machine.events.MachineObserver` --
    e.g. the online SVD family -- run under the engine unchanged.

    Online observers consume the raw stream (they count instructions and
    track control-flow reconvergence on every event), so the adapter
    subscribes to all kinds and is always scheduled in phase 0: over a
    live machine that *is* the online run, over a recorded trace it is
    the exact replay.
    """

    def __init__(self, name: str, observer) -> None:
        self.name = name
        self.observer = observer
        self.consume_batch = observer.consume_batch  # direct, no hop

    def finish(self, end_seq: int) -> None:
        finish = getattr(self.observer, "finish", None)
        if finish is not None:
            finish(end_seq)
        else:
            self.observer.on_finish(_EndOfStream(end_seq))

    def result(self) -> Optional[ViolationReport]:
        return getattr(self.observer, "report", None)

    def unwrap(self):
        return self.observer


class _EndOfStream:
    """Stand-in for the machine in ``on_finish``: observers may only
    read ``seq`` from it (the position one past the last event)."""

    def __init__(self, seq: int) -> None:
        self.seq = seq


class TraceAnalysis(Analysis):
    """Adapter base for batch algorithms that need the whole trace.

    Subclasses implement :meth:`analyze`.  Under the engine the shared
    recorded trace is injected (no private buffering and no events are
    dispatched here -- ``interests`` is empty); standalone use can call
    :meth:`run` on a trace directly.
    """

    interests: Optional[FrozenSet[int]] = frozenset()
    wants_trace = True

    def __init__(self) -> None:
        self._trace = None

    def set_trace(self, trace) -> None:
        self._trace = trace

    def finish(self, end_seq: int) -> None:
        if self._trace is None:
            raise RuntimeError(f"{self.name}: no trace was provided")
        self.analyze(self._trace)

    def analyze(self, trace) -> None:
        raise NotImplementedError

    def run(self, trace):
        """Standalone convenience: analyze ``trace`` and return the report."""
        self.start(trace.n_threads)
        self.set_trace(trace)
        self.finish(trace.end_seq)
        return self.result()
