"""Golden digests of SVD's full state after a run.

The delivery and detector goldens digest violation lists only, so a
change to SVD that moves a CU log record, a communication triple or a
counter, but no report, passes them.  ``tests/golden/svd_state_fingerprints.json``
holds, for every case below, the sha256 of:

* SVD's violations (every field, in report order);
* the a-posteriori log: its ``(s, rw, lw)`` entries and its CU records,
  with CU uids renumbered by first appearance (``Cu.uid`` comes from a
  process-wide counter, so raw uids depend on what ran before);
* ``cus_created``, ``cus_closed``, ``cus_merged``, ``remote_messages``
  and ``violation_checks``;
* each thread's ``peak_tracked_blocks``;
* PreciseSVD's violations.

Cases: every fuzz-corpus entry with its recorded schedule seed and step
cap, and every workload model under strict and TSO (seed 7, switch
probability 0.3, 30,000 steps).  Each must reproduce its digest at
window sizes 1, 7 and 1024.
"""

import dataclasses
import hashlib
import json
import os
from typing import Callable, NamedTuple, Optional

import pytest

from repro.engine import DetectorEngine
from repro.fuzz.corpus import entry_source, load_corpus
from repro.lang import compile_source
from repro.machine import Machine, RandomScheduler, resolve_model
from repro.machine.batch import DEFAULT_BATCH_SIZE
from repro.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, os.pardir, "corpus")
GOLDEN_PATH = os.path.join(HERE, os.pardir, "golden",
                           "svd_state_fingerprints.json")

WINDOW_SIZES = (1, 7, DEFAULT_BATCH_SIZE)
WORKLOAD_SEED = 7
WORKLOAD_SWITCH = 0.3
WORKLOAD_MAX_STEPS = 30_000
MODELS = ("strict", "tso")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["digests"]


class Case(NamedTuple):
    key: str
    #: returns (program, thread instances)
    build: Callable
    seed: int
    switch_prob: float
    max_steps: Optional[int]
    consistency: Optional[str]


def _corpus_case(entry):
    def build():
        return (compile_source(entry_source(CORPUS_DIR, entry)),
                [("t0", ()), ("t1", ())])
    return Case(f"corpus/{entry.file}", build, entry.schedule_seed,
                entry.switch_prob, entry.max_steps, None)


def _workload_case(name, model):
    def build():
        workload = WORKLOADS[name]()
        return workload.program, workload.threads
    return Case(f"workload/{name}/{model}", build, WORKLOAD_SEED,
                WORKLOAD_SWITCH, WORKLOAD_MAX_STEPS, model)


CASES = ([_corpus_case(entry) for entry in load_corpus(CORPUS_DIR)]
         + [_workload_case(name, model) for name in sorted(WORKLOADS)
            for model in MODELS])


def _violations(report):
    return [dataclasses.asdict(v) for v in report.violations]


def _cu_records(records):
    """CU records with uids renumbered by first appearance."""
    renumber = {}
    out = []
    for record in records:
        row = dataclasses.asdict(record)
        row["uid"] = renumber.setdefault(record.uid, len(renumber))
        out.append(row)
    return out


def svd_state(svd, precise):
    """Everything the digest covers, as one JSON-ready dict."""
    return {
        "violations": _violations(svd.report),
        "log_entries": [dataclasses.asdict(e) for e in svd.log.entries],
        "cu_records": _cu_records(svd.log.cu_records),
        "cus_created": svd.cus_created,
        "cus_closed": svd.cus_closed,
        "cus_merged": svd.cus_merged,
        "remote_messages": svd.remote_messages,
        "violation_checks": svd.violation_checks,
        "peak_tracked_blocks": {
            str(tid): detector.peak_tracked_blocks
            for tid, detector in sorted(svd.threads.items())},
        "precise": _violations(precise.report),
    }


def run_case(case, window):
    program, threads = case.build()
    kwargs = {}
    if case.consistency is not None:
        kwargs["memmodel"] = resolve_model(case.consistency, WORKLOAD_SEED)
    machine = Machine(program, threads,
                      scheduler=RandomScheduler(seed=case.seed,
                                                switch_prob=case.switch_prob),
                      batch_size=window, **kwargs)
    result = DetectorEngine(program, ["svd", "precise"],
                            batch_size=window).run_machine(
        machine, max_steps=case.max_steps)
    return svd_state(result.detector("svd"), result.detector("precise"))


def digest(state):
    text = json.dumps(state, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_has_a_golden():
    assert set(GOLDEN) == {case.key for case in CASES}
    assert len(set(GOLDEN.values())) == len(GOLDEN)


def test_goldens_are_not_vacuous():
    """The cases between them exercise every part of the digest."""
    states = [run_case(case, DEFAULT_BATCH_SIZE) for case in CASES]
    assert any(state["violations"] for state in states)
    assert any(state["precise"] for state in states)
    assert any(state["log_entries"] for state in states)
    assert any(state["cus_merged"] for state in states)
    assert any(state["remote_messages"] for state in states)


@pytest.mark.parametrize("window", WINDOW_SIZES)
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_svd_state_matches_golden(case, window):
    assert digest(run_case(case, window)) == GOLDEN[case.key]

