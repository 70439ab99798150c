"""Execution-segment sampling (paper §6.1).

"Fast-forwarding turns off the detailed timing simulation and helps us
simulate only the part of the program execution that contains the actual
bug manifestation.  Sampling helps us study how long-running programs
may impact SVD."

The :class:`SegmentSampler` attaches a *fresh* online detector to each
sampled window of one long execution: outside the windows the machine
runs undetected (fast-forward), inside them the detector sees the event
stream exactly as if it had been attached from boot.  Per-segment
reports support the paper's §7.3 finding that static false positives
track exercised code size, not execution length.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from repro.core.online import OnlineSVD, SvdConfig
from repro.isa.program import Program
from repro.machine.events import MachineObserver


@dataclass
class Segment:
    """One sampled window and the detector that observed it."""

    start_seq: int
    end_seq: int
    detector: OnlineSVD

    @property
    def instructions(self) -> int:
        return self.detector.instructions

    @property
    def dynamic_reports(self) -> int:
        return self.detector.report.dynamic_count

    @property
    def static_reports(self) -> int:
        return self.detector.report.static_count


class SegmentSampler(MachineObserver):
    """Samples a run with per-window online detectors.

    Args:
        program: the compiled program.
        windows: ``(start_seq, end_seq)`` pairs, non-overlapping and
            sorted by start.
        config: detector configuration for every segment.
    """

    def __init__(self, program: Program,
                 windows: Sequence[Tuple[int, int]],
                 config: Optional[SvdConfig] = None) -> None:
        previous_end = 0
        for start, end in windows:
            if start < previous_end or end <= start:
                raise ValueError(
                    "windows must be sorted, non-overlapping, non-empty")
            previous_end = end
        self.program = program
        self.config = config
        self.windows = list(windows)
        self.segments: List[Segment] = []
        self._index = 0
        self._active: Optional[Segment] = None

    def consume_batch(self, batch) -> None:
        """Slice the window at segment boundaries and feed each slice to
        its segment's detector; rows outside every segment are skipped
        (fast-forward)."""
        seqs = [row[1] for row in batch.rows]
        windows = self.windows
        i, n = 0, batch.count
        while i < n:
            seq = seqs[i]
            active = self._active
            if active is not None and seq >= active.end_seq:
                self._close_active(seq)
                active = None
            if active is None:
                while (self._index < len(windows)
                       and seq >= windows[self._index][1]):
                    self._index += 1  # window skipped entirely
                if self._index == len(windows):
                    return
                start, end = windows[self._index]
                if seq < start:
                    i = bisect_left(seqs, start, i, n)
                    continue
                self._index += 1
                active = self._active = Segment(
                    start_seq=start, end_seq=end,
                    detector=OnlineSVD(self.program, self.config))
            stop = bisect_left(seqs, active.end_seq, i, n)
            active.detector.consume_batch(batch.slice(i, stop))
            i = stop

    def _close_active(self, at_seq: int) -> None:
        assert self._active is not None
        self._active.detector.on_finish(SimpleNamespace(seq=at_seq))
        self.segments.append(self._active)
        self._active = None

    def on_finish(self, machine) -> None:
        if self._active is not None:
            self._close_active(machine.seq)

    # -- aggregate views ----------------------------------------------------

    def union_static_reports(self) -> int:
        keys = set()
        for segment in self.segments:
            keys |= segment.detector.report.static_keys
        return len(keys)

    def total_dynamic_reports(self) -> int:
        return sum(s.dynamic_reports for s in self.segments)

    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.segments)


def evenly_spaced_windows(total_steps: int, segments: int,
                          segment_length: int) -> List[Tuple[int, int]]:
    """Windows of ``segment_length`` events spread over ``total_steps``."""
    if segments <= 0 or segment_length <= 0:
        raise ValueError("segments and segment_length must be positive")
    if segments * segment_length > total_steps:
        raise ValueError("windows do not fit in the execution")
    stride = total_steps // segments
    return [(i * stride, i * stride + segment_length)
            for i in range(segments)]
