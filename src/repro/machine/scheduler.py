"""Interleaving schedulers.

A scheduler picks, at every step, which runnable processor retires its
next instruction.  All schedulers are deterministic functions of their
construction parameters (seed, quantum, or an explicit replay trace), so
a run can be reproduced exactly -- the substitute for the paper's
"starting from the same simulation checkpoint ... the interleaving is
solely determined by an initial random seed" (§6.1).

:meth:`Scheduler.pick` is the reference for every decision.  The
machine's run loop (:meth:`repro.machine.Machine.advance`) calls it
once per step, except for a scheduler that is exactly a
:class:`RandomScheduler`: there the loop makes :meth:`RandomScheduler.pick`'s
decision inline from the public ``random``, ``getrandbits`` and
``switch_prob`` attributes, with the same draws in the same order.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence


def check_switch_prob(switch_prob: float) -> None:
    """Raise ValueError unless ``switch_prob`` is in (0, 1] -- the
    check every holder of a :class:`RandomScheduler` setting makes when
    it is built, not when its first execution starts."""
    if not 0.0 < switch_prob <= 1.0:
        raise ValueError("switch_prob must be in (0, 1]")


class Scheduler:
    """Scheduler interface."""

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        """Return the id of the processor to step next.

        Args:
            runnable: non-empty, sorted list of runnable processor ids.
                This may be the machine's *live* runnable set (the
                pre-decoded engine passes it without copying): a
                scheduler must neither mutate it nor retain a reference
                across calls.
            current: the processor stepped previously, or ``None`` at the
                start of the run (it may no longer be runnable).
        """
        raise NotImplementedError

    def snapshot(self):
        """Opaque state for checkpoint/rollback; default: stateless."""
        return None

    def restore(self, state) -> None:
        """Restore state captured by :meth:`snapshot`."""


class RandomScheduler(Scheduler):
    """Seeded random scheduler with geometric scheduling quanta.

    With probability ``1 - switch_prob`` the current processor keeps
    running; otherwise a uniformly random runnable processor is chosen.
    Small ``switch_prob`` yields realistic burst interleavings (long quanta
    with occasional preemption), large values yield fine-grain shuffles
    that expose more racy windows.

    :meth:`pick` is the reference implementation of the decision.
    :meth:`Machine.advance <repro.machine.Machine.advance>` makes the
    same decision inline, with the same draws in the same order, when
    its scheduler is exactly this class (not a subclass), so it reads
    three public attributes once per call:

    * ``switch_prob`` -- the per-decision switch chance;
    * ``random`` -- the seeded generator's bound ``random()``, one draw
      per stay test;
    * ``getrandbits`` -- its bound ``getrandbits(k)``, which a switch
      draws with ``k = n.bit_length()`` until the value is below ``n``
      (``n`` runnable processors): exactly the draws of
      ``random.Random.randrange(n)``.

    ``restore`` sets the generator's state in place, so the bound
    methods stay valid across checkpoint/rollback.
    """

    def __init__(self, seed: int = 0, switch_prob: float = 0.05) -> None:
        check_switch_prob(switch_prob)
        self.seed = seed
        self.switch_prob = switch_prob
        self._rng = random.Random(seed)
        self.random = self._rng.random
        self.getrandbits = self._rng.getrandbits

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if current in runnable and self.random() >= self.switch_prob:
            return current
        n = len(runnable)
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return runnable[r]

    def snapshot(self):
        return self._rng.getstate()

    def restore(self, state) -> None:
        self._rng.setstate(state)


class RoundRobinScheduler(Scheduler):
    """Fixed-quantum round-robin."""

    def __init__(self, quantum: int = 16) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._remaining = quantum

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if current is not None and current in runnable and self._remaining > 0:
            self._remaining -= 1
            return current
        self._remaining = self.quantum - 1
        if current is None or current not in runnable:
            return runnable[0]
        # next runnable processor after `current`, cyclically
        for tid in runnable:
            if tid > current:
                return tid
        return runnable[0]

    def snapshot(self):
        return self._remaining

    def restore(self, state) -> None:
        self._remaining = state


class SerialScheduler(Scheduler):
    """Run one processor to completion (or until it blocks) at a time.

    This is the conservative schedule a BER re-execution uses: with at
    most one thread making progress, every computational unit trivially
    serialises, so a rolled-back erroneous execution cannot recur during
    the serial window (§1.1 of the paper).
    """

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if current is not None and current in runnable:
            return current
        return runnable[0]


class ReplayScheduler(Scheduler):
    """Replay an explicit processor-id sequence recorded from a prior run.

    Used for deterministic post-mortem debugging: the machine records the
    schedule it executed, and a second run with a ``ReplayScheduler``
    reproduces the identical program trace for the offline detectors.
    Falls back to the first runnable processor if the recorded choice is
    not runnable (which cannot happen when replaying a faithful recording
    against the same program and inputs).
    """

    def __init__(self, schedule: Sequence[int]) -> None:
        self._schedule = list(schedule)
        self._pos = 0

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        while self._pos < len(self._schedule):
            tid = self._schedule[self._pos]
            self._pos += 1
            if tid in runnable:
                return tid
        return runnable[0]

    def snapshot(self):
        return self._pos

    def restore(self, state) -> None:
        self._pos = state
