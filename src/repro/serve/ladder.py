"""Fleet-level self-protection: the degradation ladder and the
analysis circuit breaker.

Both mechanisms trade *depth* of detection for *liveness* of the
supervisor -- the serve contract is that the process never dies, it
degrades structurally and says so.

The **degradation ladder** watches the fleet's rolling events/sec
against a CPU/event budget and moves detection through three explicit
levels::

    full     every execution runs its complete detector set
    sampled  new executions run §6.1 segment sampling (windows of the
             run observed by fresh detectors; fast-forward between)
    paused   new executions run bare machines -- detection suspended,
             the traffic still flows

Transitions only happen between executions (a launched execution keeps
the mode it started with), require a minimum dwell time at the current
level (no flapping), and every one is counted in :mod:`repro.obs`
(``serve.ladder.<from>_to_<to>``) and kept on :attr:`transitions` for
the status endpoint and the results-DB row.

The **circuit breaker** quarantines an analysis *fleet-wide*: the
engine already isolates an :class:`AnalysisFailure` within one
execution, but an analysis that keeps failing execution after execution
is burning budget for nothing.  After ``threshold`` failures the
breaker opens and the analysis is removed from every subsequent
execution's detector set (``serve.breaker.opened``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs

#: ladder levels, best to worst
LEVELS = ("full", "sampled", "paused")


class DegradationLadder:
    """Budget-driven detection-depth controller.

    Args:
        budget_events_per_sec: the fleet-wide event-rate budget; a
            rolling rate above it degrades one level.  ``None`` pins
            the ladder at ``full`` (no budget -- nothing to protect).
        recover_fraction: recover one level once the rolling rate falls
            below ``recover_fraction * budget``.  The hysteresis band
            between it and 1.0 is what keeps a borderline fleet from
            oscillating.
        dwell: minimum seconds at a level before the next transition.
        window: rolling-rate window in seconds.
    """

    def __init__(self, budget_events_per_sec: Optional[float] = None,
                 recover_fraction: float = 0.5, dwell: float = 1.0,
                 window: float = 2.0) -> None:
        if budget_events_per_sec is not None and budget_events_per_sec <= 0:
            raise ValueError("budget must be positive (or None)")
        if not 0.0 < recover_fraction < 1.0:
            raise ValueError("recover_fraction must be in (0, 1)")
        self.budget = budget_events_per_sec
        self.recover_fraction = recover_fraction
        self.dwell = dwell
        self.window = window
        self.level = LEVELS[0]
        #: (elapsed-seconds, from-level, to-level) per transition
        self.transitions: List[Tuple[float, str, str]] = []
        self._events = 0
        self._samples: Deque[Tuple[float, int]] = deque()
        # time anchors adopt the caller's clock on first observation
        # (tests drive synthetic timestamps; production passes none and
        # gets perf_counter), so dwell math never mixes time bases
        self._started: Optional[float] = None
        self._level_since: Optional[float] = None

    def _clock(self, now: Optional[float]) -> float:
        now = time.perf_counter() if now is None else now
        if self._started is None:
            self._started = self._level_since = now
        return now

    # -- feeds -------------------------------------------------------------

    def note_events(self, count: int, now: Optional[float] = None) -> None:
        """Fold ``count`` freshly processed events into the rolling
        window."""
        self._events += count
        now = self._clock(now)
        self._samples.append((now, self._events))
        while (len(self._samples) > 1
               and now - self._samples[0][0] > self.window):
            self._samples.popleft()

    def rate(self, now: Optional[float] = None) -> float:
        """The rolling events/sec over the window."""
        if len(self._samples) < 2:
            return 0.0
        now = self._clock(now)
        t0, e0 = self._samples[0]
        t1, e1 = self._samples[-1]
        span = max(t1, now if now > t1 else t1) - t0
        if span <= 0:
            return 0.0
        return (e1 - e0) / span

    # -- transitions -------------------------------------------------------

    def _move(self, direction: int, now: float) -> Tuple[str, str]:
        old = self.level
        new = LEVELS[LEVELS.index(old) + direction]
        self.level = new
        self._level_since = now
        self.transitions.append((round(now - self._started, 3), old, new))
        obs.add(f"serve.ladder.{old}_to_{new}")
        return old, new

    def maybe_transition(
            self, now: Optional[float] = None
    ) -> Optional[Tuple[str, str]]:
        """Evaluate the budget and move at most one level; returns the
        ``(from, to)`` pair when a transition happened."""
        if self.budget is None:
            return None
        now = self._clock(now)
        if now - self._level_since < self.dwell:
            return None
        rate = self.rate(now)
        index = LEVELS.index(self.level)
        if rate > self.budget and index < len(LEVELS) - 1:
            return self._move(+1, now)
        if rate < self.budget * self.recover_fraction and index > 0:
            return self._move(-1, now)
        return None

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        return {
            "level": self.level,
            "budget_events_per_sec": self.budget,
            "rate_events_per_sec": round(self.rate(now), 1),
            "transitions": [{"ts": ts, "from": old, "to": new}
                            for ts, old, new in self.transitions],
        }


class AnalysisBreaker:
    """Opens after ``threshold`` cross-execution failures of one
    analysis, removing it from every subsequent execution."""

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.failures: Dict[str, int] = {}
        self.open: List[str] = []  # in opening order

    def record_failure(self, analysis: str) -> bool:
        """Count one failure; returns True when this one opened the
        breaker for ``analysis``."""
        obs.add("serve.breaker.failure")
        count = self.failures.get(analysis, 0) + 1
        self.failures[analysis] = count
        if count >= self.threshold and analysis not in self.open:
            self.open.append(analysis)
            obs.add("serve.breaker.opened")
            return True
        return False

    def filter(self, detectors: Sequence[str]) -> List[str]:
        """``detectors`` minus every open-breaker analysis."""
        return [name for name in detectors if name not in self.open]

    def snapshot(self) -> Dict[str, object]:
        return {"threshold": self.threshold,
                "failures": dict(sorted(self.failures.items())),
                "open": list(self.open)}
