"""Self-tests of the benchmark: ``python -m pytest benchmarks/e2e``."""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import units  # noqa: E402


def test_tail_percentile_has_ten_samples_beyond_it():
    assert run.highest_percentile(19) is None
    assert run.highest_percentile(20) == 50.0
    assert run.highest_percentile(99) == 50.0
    assert run.highest_percentile(100) == 90.0
    assert run.highest_percentile(999) == 90.0
    assert run.highest_percentile(1000) == 99.0
    assert run.highest_percentile(10_000) == 99.9


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(range(1, 12), 90) == 10.0
    assert run.percentile([7.0], 90) == 7.0


def test_rounds_rotate_the_workload_order():
    order = run.schedule(["a", "b", "c"], 3)
    assert order == [("a", 0), ("b", 0), ("c", 0), ("b", 1), ("c", 1),
                     ("a", 1), ("c", 2), ("a", 2), ("b", 2)]


def test_same_seed_same_units_other_seed_other_units(tmp_path):
    def seeds(seed):
        apache = units.MonitorApache(seed, str(tmp_path))
        return [apache.schedule_seed(j) for j in range(2 * apache.pool)]

    first, again, other = seeds(0), seeds(0), seeds(1)
    assert first == again
    pool = units.MonitorApache.pool
    assert first[:pool] == first[pool:]
    assert len(set(first)) == pool
    assert not set(first) & set(other)


def test_timing_wrappers_leave_verdicts_byte_identical(tmp_path):
    """golden.json holds the digests of unwrapped runs."""
    from repro.engine import registry
    create = registry.create
    golden = run.load_golden()
    for cls, kwargs in ((units.MonitorApache, {}), (units.ReplayApache, {}),
                        (units.CampaignSmall, {"workers": 1})):
        log = ledger.SpanLog()
        with ledger.Instrumentation(log):
            workload = cls(0, str(tmp_path), **kwargs)
            raw = log.wrap(ledger.UNIT_SPAN, workload.run)(0)
        assert workload.outcome(0, raw).digest == golden[cls.name]["0"]
        assert log.coverage() > 0.9, cls.name
    assert registry.create is create


def test_verdict_checks_name_the_failing_unit():
    def unit(j, digest, ok=True):
        return {"j": j, "key": j % 10, "digest": digest, "ok": ok}

    results = [
        {"round": 0, "warmup": [0, "a"],
         "units": [unit(0, "a"), unit(3, "d")], "checks": []},
        {"round": 1, "warmup": [0, "b"], "units": [unit(1, "x", ok=False)],
         "checks": [{"j": 1, "problem": "traced digest y != untraced x"}]},
    ]
    golden = {"0": "a", "1": "x", "3": "e"}
    assert run.unit_problems("w", 0, results, golden) == (3, [
        "w unit 3 (untraced): digest d != golden e",
        "w warm-up (round 1): digest b != golden a",
        "w unit 1 (untraced): bad verdict",
        "w unit 1: traced digest y != untraced x",
        "w input 0 of seed 0: digests differ: ['a', 'b']",
    ])
    # on another seed only the seed-0 warm-up meets golden, and two
    # runs of one input must still agree
    results[0]["units"].append(unit(13, "z"))
    assert run.unit_problems("w", 5, results, golden)[1] == [
        "w warm-up (round 1): digest b != golden a",
        "w unit 1 (untraced): bad verdict",
        "w unit 1: traced digest y != untraced x",
        "w input 0 of seed 0: digests differ: ['a', 'b']",
        "w input 3 of seed 5: digests differ: ['d', 'z']",
    ]


def test_golden_covers_every_input_key():
    golden = run.load_golden()
    assert set(golden) == set(run.WORKLOADS) == set(units.WORKLOADS)
    for name, cls in units.WORKLOADS.items():
        assert set(golden[name]) == {str(key) for key in range(cls.pool)}


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(f"{w}.{name}", unit, better)
            for w, metrics in ledger.LAYER_METRICS.items()
            for name, unit, better in metrics]


def test_compare_applies_the_bounds():
    def doc(value, rounds, fail_frac=0.0):
        metrics = {name: {"value": value, "rounds": rounds}
                   for name in ("events_per_s", "setup_s")}
        return {"workloads": {"w": {"metrics": metrics,
                                    "fail_frac": fail_frac}}}

    limits = {"events_per_s": {"better": "higher", "bound": 0.1},
              "setup_s": {"better": "lower", "bound": 0.1}}
    base = doc(100.0, [99.0, 100.0, 101.0])

    def verdicts(other):
        return [row[-1] for row in compare.rows(base, other, limits)]

    assert verdicts(doc(105.0, [104.0, 105.0, 106.0])) \
        == ["same", "same", "same"]
    assert verdicts(doc(120.0, [119.0, 120.0, 121.0])) \
        == ["better", "worse", "same"]
    assert verdicts(doc(120.0, [100.0, 120.0, 140.0])) \
        == ["unresolved", "unresolved", "same"]
    assert verdicts(doc(100.0, [99.0, 100.0, 101.0], fail_frac=0.01))[-1] \
        == "worse"


def test_quick_smoke_of_all_four_workloads():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--quick"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert (line["attempted"], line["failed"]) == (4, 0)
    assert set(line["metrics"]) == {f"{w}.{m}" for w in run.WORKLOADS
                                    for m in run.END_TO_END_UNITS}
    assert all(m["value"] > 0 for m in line["metrics"].values())
