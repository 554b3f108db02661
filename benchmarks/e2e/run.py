"""Command line of the end-to-end benchmark.

One workload, as the driver in BENCHMARK.json runs it::

    python3 benchmarks/e2e/run.py --workload oltp_point --seed 1 \\
        --seconds 10 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).

The whole suite — every workload untraced, then every workload traced —
with the full report (noise, tails, shares, config) written to a file::

    python3 benchmarks/e2e/run.py --seed 1 --out result.json

Exit status is non-zero when any operation failed or any answer was
wrong, and when the program under ``src/`` is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bootstrap() -> None:
    """Make ``benchmarks.e2e`` and the checkout's own ``src/`` importable.

    Run as a script, ``sys.path[0]`` is this directory, where ``trace.py``
    would shadow the standard library's ``trace``: replace it with the
    repository root and import the package by its full name.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure")
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        sys.path.pop(0)
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _config(args, harness) -> dict:
    import repro
    from repro import Database
    from repro.services.scatter import shared_pool
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "commit": commit, "repro": repro.__version__,
        "python": platform.python_version(), "numpy": numpy_version,
        "kernel_backend": type(Database().kernel_backend).__name__,
        "nproc": os.cpu_count(),
        "scatter_pool_width": shared_pool().max_workers,
        "import_s": harness.IMPORT_S,
        "count_rounds": harness.COUNT_ROUNDS,
    }


def _print_table(report: dict, declared: dict) -> None:
    """Every metric by name with its unit, direction and bound."""
    for section in ("end_to_end", "per_layer"):
        print(f"\n== {section} ==")
        for spec in declared[section]:
            bound = spec.get("bound")
            head = (f"{spec['name']} [{spec['unit']}, {spec['better']} is "
                    "better" + (f", bound {bound}" if bound is not None
                                else "") + "]")
            print(head)
            for name, entry in report["workloads"].items():
                metric = entry[section]["metrics"][spec["name"]]
                noise = entry[section]["noise"].get(spec["name"])
                tail = f"  noise {noise:.3f}" if noise is not None else ""
                print(f"    {name:<16}{metric['value']:>16.6g}{tail}")
    print()
    for name, entry in report["workloads"].items():
        failed = entry["end_to_end"]["failed"] + entry["per_layer"]["failed"]
        tried = (entry["end_to_end"]["attempted"]
                 + entry["per_layer"]["attempted"])
        print(f"{name:<16}failed_ops_ratio {failed / tried:.6f} "
              f"({failed} of {tried})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload "
                        "(default: the whole suite, traced and untraced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every per-round op count, "
                        "never a data size")
    parser.add_argument("--out", help="write the suite report here")
    args = parser.parse_args(argv)

    _bootstrap()
    from benchmarks.e2e import harness

    if args.seconds is None:
        args.seconds = float(_declared()["run_seconds"])
    if args.workload is not None:
        if args.workload not in harness.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.scale)
        for message in result["errors"]:
            print(message, file=sys.stderr)
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    report = {"config": _config(args, harness), "workloads": {}}
    for name in harness.WORKLOADS:
        entry = report["workloads"][name] = {}
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            print(f"{name}: {section} ...", file=sys.stderr)
            entry[section] = harness.run_workload(
                name, args.seed, args.seconds, trace, args.scale)
    _print_table(report, _declared())
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(run["correct"] for entry in report["workloads"].values()
                    for run in entry.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
