"""Compare two result documents under the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json#0 \\
        benchmarks/e2e/baseline.json#1

A file is a document written by ``run.py --out``, or a file holding a
list of them under ``"sets"`` (``baseline.json``); ``#N`` selects set
``N``.  One row per (workload, metric) says how B stands against A:

* ``unresolved`` -- either side's spread over its rounds exceeds the
  metric's bound, so the two cannot be told apart at that bound;
* ``worse`` / ``better`` -- B is worse / better than A by more than
  the bound;
* ``same`` -- otherwise.

``fail_frac`` has bound 0: any increase is worse.  Exits 1 if any row
is worse, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import ROOT, spread


def load(spec: str) -> Dict[str, Any]:
    path, _sep, index = spec.partition("#")
    with open(path) as fh:
        doc = json.load(fh)
    if "sets" in doc:
        return doc["sets"][int(index or 0)]
    return doc


def bounds() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {metric["name"]: metric for metric in bench["end_to_end"]}


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change of B against A, positive = better)."""
    change = (b["value"] - a["value"]) / a["value"]
    if better == "lower":
        change = -change
    if max(spread(a["rounds"]), spread(b["rounds"])) > bound:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def rows(a_doc: Dict[str, Any], b_doc: Dict[str, Any],
         limits: Dict[str, Dict[str, Any]]) -> List[List[str]]:
    out: List[List[str]] = []
    for workload, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"].get(workload)
        if b_entry is None or "metrics" not in a_entry:
            continue
        for name, limit in limits.items():
            a, b = a_entry["metrics"][name], b_entry["metrics"][name]
            result, change = verdict(a, b, limit["better"], limit["bound"])
            out.append([workload, name, f"{a['value']:.6g}",
                        f"{b['value']:.6g}", f"{change:+.1%}",
                        f"{spread(a['rounds']):.1%}",
                        f"{spread(b['rounds']):.1%}",
                        f"{limit['bound']:.0%}", result])
        a_fail, b_fail = a_entry["fail_frac"], b_entry["fail_frac"]
        out.append([workload, "fail_frac", f"{a_fail:.6g}", f"{b_fail:.6g}",
                    "", "", "", "0%",
                    "worse" if b_fail > a_fail else
                    "better" if b_fail < a_fail else "same"])
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    table = rows(load(args[0]), load(args[1]), bounds())
    header = ["workload", "metric", "A", "B", "B vs A", "spread A",
              "spread B", "bound", "verdict"]
    widths = [max(len(row[i]) for row in table + [header])
              for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
