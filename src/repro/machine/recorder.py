"""Deterministic execution recording (paper §1.1 scenario II, ref [38]).

"Imagine we have captured a failing multithreaded execution with a
deterministic recorder [4, 29, 38]; how do we now find the bug in the
execution?"  Reference [38] is the authors' own Flight Data Recorder;
this module is its substitute: a recording captures everything needed to
reproduce a run bit-for-bit -- the thread line-up, their arguments and
the interleaving -- in a small JSON artefact that replays later, in
another process, with any detectors attached.

Unlike a full :class:`repro.trace.Trace` (every event), a recording
stores only the *schedule*: replay regenerates all events by re-running
the program, which is exactly how FDR-style recorders achieve their low
log rates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.isa.program import Program
from repro.machine.machine import Machine, MachineStatus
from repro.machine.memmodel import resolve_model
from repro.machine.scheduler import ReplayScheduler, Scheduler


def _rle_encode(schedule: Sequence[int]) -> List[List[int]]:
    """[(tid, run_length), ...] -- schedules are bursty, runs are long."""
    runs: List[List[int]] = []
    for tid in schedule:
        if runs and runs[-1][0] == tid:
            runs[-1][1] += 1
        else:
            runs.append([tid, 1])
    return runs


def _rle_decode(runs: Sequence[Sequence[int]]) -> List[int]:
    schedule: List[int] = []
    for tid, length in runs:
        schedule.extend([tid] * length)
    return schedule


def program_fingerprint(program: Program) -> str:
    """Stable fingerprint of the compiled code, to catch replay against
    the wrong (or recompiled-differently) program."""
    hasher = hashlib.sha256()
    for instr in program.code:
        hasher.update(repr(instr).encode())
    hasher.update(str(program.shared_words).encode())
    return hasher.hexdigest()[:16]


@dataclass
class Recording:
    """A replayable execution: program identity + threads + schedule.

    ``consistency``/``model_seed`` pin the memory model the run executed
    under: a TSO schedule contains virtual drain-processor picks that
    only make sense against the same model (and the same seed-derived
    buffer capacities), so replay rebuilds the model from these fields.
    Pre-existing artefacts without the fields load as strict.
    """

    fingerprint: str
    threads: List[Tuple[str, Tuple[int, ...]]]
    schedule: List[int]
    status: str
    steps: int
    consistency: str = "strict"
    model_seed: int = 0

    def save(self, path: str) -> None:
        """Persist with the schedule run-length encoded: schedulers give
        threads bursts of consecutive steps, so runs compress well (the
        FDR-style low log rate)."""
        with open(path, "w") as fh:
            json.dump({
                "fingerprint": self.fingerprint,
                "threads": [[name, list(args)] for name, args in self.threads],
                "schedule_rle": _rle_encode(self.schedule),
                "status": self.status,
                "steps": self.steps,
                "consistency": self.consistency,
                "model_seed": self.model_seed,
            }, fh)

    @classmethod
    def load(cls, path: str) -> "Recording":
        with open(path) as fh:
            data = json.load(fh)
        if "schedule_rle" in data:
            schedule = _rle_decode(data["schedule_rle"])
        else:
            schedule = list(data["schedule"])
        return cls(
            fingerprint=data["fingerprint"],
            threads=[(name, tuple(args)) for name, args in data["threads"]],
            schedule=schedule,
            status=data["status"],
            steps=data["steps"],
            consistency=data.get("consistency", "strict"),
            model_seed=data.get("model_seed", 0),
        )


def record_execution(program: Program,
                     threads: Sequence[Tuple[str, Sequence[int]]],
                     scheduler: Scheduler,
                     max_steps: Optional[int] = None,
                     observers: Sequence = (),
                     consistency: str = "strict",
                     model_seed: int = 0) -> Tuple[Machine, Recording]:
    """Run once with schedule recording on; return the machine and the
    replayable recording."""
    machine = Machine(program, threads, scheduler=scheduler,
                      observers=list(observers), record_schedule=True,
                      memmodel=resolve_model(consistency, model_seed))
    status = machine.run(max_steps=max_steps)
    recording = Recording(
        fingerprint=program_fingerprint(program),
        threads=[(name, tuple(args)) for name, args in threads],
        schedule=list(machine.recorded_schedule),
        status=status,
        steps=machine.steps,
        consistency=consistency,
        model_seed=model_seed,
    )
    return machine, recording


def replay_execution(program: Program, recording: Recording,
                     observers: Sequence = (),
                     strict: bool = True) -> Machine:
    """Re-execute a recording with fresh observers attached.

    Raises ``ValueError`` when the program fingerprint does not match
    (``strict=False`` downgrades that to a best-effort replay), and when
    the replayed step count diverges from the recorded one -- the signal
    that determinism was broken somewhere.
    """
    if strict and program_fingerprint(program) != recording.fingerprint:
        raise ValueError(
            "program fingerprint mismatch: this recording was captured "
            "from a different build of the program")
    machine = Machine(program, recording.threads,
                      scheduler=ReplayScheduler(recording.schedule),
                      observers=list(observers),
                      memmodel=resolve_model(recording.consistency,
                                             recording.model_seed))
    # a run its step limit stopped replays to that limit; any other run
    # gets slack past its recorded length, so a divergence shows as a
    # step-count mismatch rather than a silent cut
    if recording.status == MachineStatus.STEP_LIMIT:
        limit = recording.steps
    else:
        limit = recording.steps + len(recording.schedule) + 1
    machine.run(max_steps=limit)
    if strict and machine.steps != recording.steps:
        raise ValueError(
            f"replay divergence: recorded {recording.steps} steps, "
            f"replayed {machine.steps}")
    return machine
