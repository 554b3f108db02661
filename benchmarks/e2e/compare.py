"""Compare two suite reports written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json [--layers]

One row per (workload, end-to-end metric): both values, the ratio B/A
with its base A, and a verdict under the bound BENCHMARK.json fixes for
the metric:

* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better than A by more than the bound;
* ``unchanged``  — within the bound either way;
* ``unresolved`` — ``noise`` (how far a run's own rounds say its median
  may move: their interquartile range ÷ median ÷ √rounds, the larger of
  the two sides) is wider than the bound, so one run a side cannot tell.

``--layers`` adds the per-layer metrics that moved, without verdicts
(they have no bounds): they say *where* a change shows, not whether it
is one.  Exit status 1 on any regression or any rise in the share of
failed operations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: float, b: float, better: str, bound: float,
            noise: float) -> str:
    if a == b:
        return "unchanged"
    if noise > bound:
        return "unresolved"
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def failed_ratio(entry: dict) -> float:
    runs = entry.values()
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def compare(a: dict, b: dict, declared: dict, layers: bool = False):
    """Returns ``(rows, regressions)``; a row is a tuple of printable
    fields, a regression a ``(workload, metric)`` pair."""
    rows, regressions = [], []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        run_a, run_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for spec in declared["end_to_end"]:
            name = spec["name"]
            va = run_a["metrics"][name]["value"]
            vb = run_b["metrics"][name]["value"]
            noise = max(run_a["noise"].get(name, 0.0),
                        run_b["noise"].get(name, 0.0))
            word = verdict(va, vb, spec["better"], spec["bound"], noise)
            if word == "regressed":
                regressions.append((workload, name))
            rows.append((workload, name, spec["unit"], va, vb,
                         vb / va if va else float("nan"), noise, word))
        fa, fb = failed_ratio(entry_a), failed_ratio(entry_b)
        word = "regressed" if fb > fa else "unchanged"
        if fb > fa:
            regressions.append((workload, "failed_ops_ratio"))
        rows.append((workload, "failed_ops_ratio", "ratio", fa, fb,
                     fb / fa if fa else float("nan"), 0.0, word))
        if layers:
            layer_a = entry_a["per_layer"]["metrics"]
            layer_b = entry_b["per_layer"]["metrics"]
            for spec in declared["per_layer"]:
                name = spec["name"]
                va, vb = layer_a[name]["value"], layer_b[name]["value"]
                if va != vb:
                    rows.append((workload, name, spec["unit"], va, vb,
                                 vb / va if va else float("nan"), 0.0, ""))
    return rows, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="the base report")
    parser.add_argument("b", help="the report compared against it")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics that moved")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressions = compare(a, b, declared, args.layers)
    print(f"{'workload':<16}{'metric':<40}{'unit':<8}{'A (base)':>14}"
          f"{'B':>14}{'B/A':>9}{'noise':>8}  verdict")
    for workload, name, unit, va, vb, ratio, noise, word in rows:
        print(f"{workload:<16}{name:<40}{unit:<8}{va:>14.6g}{vb:>14.6g}"
              f"{ratio:>9.3f}{noise:>8.3f}  {word}")
    for key in ("seed", "seconds", "scale", "commit"):
        if a["config"].get(key) != b["config"].get(key):
            print(f"note: {key} differs: {a['config'].get(key)} vs "
                  f"{b['config'].get(key)}")
    if regressions:
        print(f"{len(regressions)} regression(s): "
              + ", ".join(f"{w}/{m}" for w, m in regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
