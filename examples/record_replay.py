"""Scenario II end-to-end: record in production, diagnose in the lab.

The paper's post-mortem story assumes a deterministic recorder (their
Flight Data Recorder, reference [38]): production captures a tiny
schedule recording of the failing run; later, the lab replays it --
bit-for-bit -- with the heavyweight detector attached.

This example records a crashing MySQL prepared-query run to a file
(~a few KB: just the interleaving), "ships" it, replays it under SVD and
walks the a-posteriori log to the root cause.

Run:  python examples/record_replay.py
"""

import os
import tempfile

from repro.core import OnlineSVD
from repro.machine import (RandomScheduler, Recording, record_execution,
                           replay_execution)
from repro.workloads import mysql_prepared


def main() -> None:
    workload = mysql_prepared(queries=5, think=200)

    # --- production: run with only the lightweight recorder ----------------
    for seed in range(12):
        machine, recording = record_execution(
            workload.program, workload.threads,
            RandomScheduler(seed=seed, switch_prob=0.4))
        if machine.crashed:
            break
    assert machine.crashed, "no crash captured; try more seeds"
    path = os.path.join(tempfile.gettempdir(), "mysql-crash.rec")
    recording.save(path)
    size = os.path.getsize(path)
    print(f"production captured a crash (seed {seed}) in "
          f"{recording.steps} steps")
    print(f"recording shipped: {path} ({size} bytes -- the schedule only, "
          f"no memory contents)\n")

    # --- lab: replay the identical execution under the detector ------------
    loaded = Recording.load(path)
    detector = OnlineSVD(workload.program)
    replay = replay_execution(workload.program, loaded,
                              observers=[detector])
    assert [c.pc for c in replay.crashes] == [c.pc for c in machine.crashes]
    print(f"lab replayed {replay.steps} steps; the crash reproduced at the "
          f"same instruction.")
    print(f"online reports: {detector.report.dynamic_count}; "
          f"a-posteriori log: {len(detector.log.entry_rows)} triples\n")

    print(detector.log.describe(limit=6))
    names = [workload.program.name_of_address(a)
             for a in detector.log.suspicious_addresses()]
    culprits = [n for n in names if "field" in n or "used" in n]
    print(f"\nroot cause candidates: {culprits[:3]}")


if __name__ == "__main__":
    main()
