"""E18 — columnar batch execution: dispatches per batch, not per row.

The engine builds one :class:`ColumnBatch` per scan batch and runs
column-at-a-time kernels over it: each filter, projection, and aggregate
costs O(1) Python-level dispatches per *batch*.  The experiment runs the
single-table query shapes and guards the deterministic counters:

* ``predicate.vector_selects`` + ``executor.columnar.kernel_calls`` stay
  a small constant per batch (``kernel_calls <= 4 * batches + 1``);
* ``predicate.row_evals`` + ``executor.row_ops`` — Python-level work per
  *row* — stay at zero.

The comparison this experiment was first run for — the same shapes down
a row-at-a-time pipeline, >= 5x fewer Python-level operations — ended
with that pipeline (EXPERIMENTS.md E18 keeps the last table).
The cost-model half of the story is still measured here: the planner
demonstrably abandoning a low-cardinality index once a statistics
attachment reveals its true selectivity.

Runnable directly for the CI smoke profile::

    python benchmarks/bench_columnar.py --rows 2000 --json bench-columnar.json
"""

import argparse
import json
import sys

import pytest

from repro import Database
from repro.workloads import employee_records

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_...
    from _helpers import bench_payload

N = 10_000

#: The single-table shapes measured.
QUERIES = {
    "filter": "SELECT id, salary FROM employee WHERE salary > 150000.0",
    "filter_and": ("SELECT id FROM employee WHERE salary "
                   "BETWEEN 50000.0 AND 150000.0 AND active = TRUE"),
    "aggregate": ("SELECT dept, COUNT(*), SUM(salary), AVG(salary) "
                  "FROM employee GROUP BY dept"),
    "topk": "SELECT id, salary FROM employee ORDER BY salary DESC LIMIT 10",
}

#: Python-level operations per row (none expected) and per batch.
ROW_OPS = ("predicate.row_evals", "executor.row_ops")
COLUMNAR_OPS = ("predicate.vector_selects", "executor.columnar.kernel_calls")
RECORDED = ROW_OPS + COLUMNAR_OPS + (
    "executor.columnar.batches", "executor.columnar.rows",
    "executor.scan_batches")


def build_db(rows: int = N) -> Database:
    db = Database(page_size=4096, buffer_capacity=512)
    db.create_table("employee", [
        ("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
        ("salary", "FLOAT"), ("active", "BOOL")])
    db.table("employee").insert_many(employee_records(rows))
    return db


def _measure(db, statement):
    stats = db.services.stats
    before = stats.snapshot()
    result = db.execute(statement)
    return result, stats.delta(before)


def _dispatch_guard(shape: dict) -> bool:
    """Kernel dispatches bounded by a small constant per batch (one per
    filter conjunct / aggregate column), nothing per row."""
    return (shape["executor.columnar.kernel_calls"]
            <= 4 * shape["executor.columnar.batches"] + 1
            and not any(shape[name] for name in ROW_OPS))


def planner_flip_profile(rows: int = 2_000) -> dict:
    """The statistics attachment changes an access-path decision.

    A two-valued indexed column looks selective under the System R
    default (1/10th of the relation); real statistics reveal the point
    lookup returns half of it, and the planner falls back to the
    sequential scan."""
    db = Database(page_size=4096, buffer_capacity=512)
    table = db.create_table("t", [("id", "INT", False), ("flag", "STRING")])
    table.insert_many([(i, "on" if i % 2 else "off") for i in range(rows)])
    db.create_attachment("t", "btree_index", "t_flag", {"columns": ["flag"]})
    statement = "SELECT id FROM t WHERE flag = 'on'"

    before = db.explain(statement)["access"]
    result_before = db.execute(statement)
    db.create_attachment("t", "statistics", "t_stats")
    after = db.explain(statement)["access"]
    result_after = db.execute(statement)

    return {
        "rows": rows,
        "route_before": before["route"],
        "route_after": after["route"],
        "estimated_rows_before": before["estimated_rows"],
        "estimated_rows_after": after["estimated_rows"],
        "consultations": db.services.stats.get("statistics.consultations"),
        "results_identical": result_before == result_after,
        "flipped": before["route"] != after["route"],
    }


def columnar_profile(rows: int = N) -> dict:
    """Warm counter deltas of every shape, and the guards over them."""
    db = build_db(rows)
    counters = {}
    for name, statement in QUERIES.items():
        db.execute(statement)  # warm the plan cache
        __, delta = _measure(db, statement)
        counters[name] = {key: delta.get(key, 0) for key in RECORDED}
    derived = {"per_batch_dispatch": all(
        _dispatch_guard(shape) for shape in counters.values())}

    flip = planner_flip_profile()
    counters["planner_flip"] = {
        "consultations": flip["consultations"],
        "estimated_rows_before": flip["estimated_rows_before"],
        "estimated_rows_after": flip["estimated_rows_after"],
    }
    derived["planner_flip"] = {
        "route_before": flip["route_before"],
        "route_after": flip["route_after"],
        "flipped": flip["flipped"],
        "results_identical": flip["results_identical"],
    }
    return bench_payload(
        "E18-columnar",
        {"rows": rows, "queries": dict(QUERIES),
         "flip_rows": flip["rows"]},
        counters, derived)


@pytest.fixture(scope="module")
def profile():
    return columnar_profile(N)


# ---------------------------------------------------------------------------
# Acceptance: counter assertions
# ---------------------------------------------------------------------------

def test_columnar_dispatches_per_batch_not_per_row(profile):
    for name in QUERIES:
        shape = profile["counters"][name]
        rows = shape["executor.columnar.rows"]
        if name in ("aggregate", "topk"):  # no WHERE: every row flows up
            assert rows >= N * 0.9
        assert 0 < shape["executor.columnar.batches"] < rows / 50
        assert _dispatch_guard(shape), (name, shape)


def test_statistics_flip_the_access_path(profile):
    flip = profile["derived"]["planner_flip"]
    assert flip["flipped"]
    assert "btree_index" in flip["route_before"]
    assert "storage scan" in flip["route_after"]
    assert flip["results_identical"]
    assert profile["counters"]["planner_flip"]["consultations"] >= 1
    assert (profile["counters"]["planner_flip"]["estimated_rows_after"]
            > profile["counters"]["planner_flip"]["estimated_rows_before"])


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def test_filter_query_columnar(benchmark):
    db = build_db()
    db.execute(QUERIES["filter"])
    benchmark.pedantic(lambda: db.execute(QUERIES["filter"]),
                       rounds=5, iterations=3)
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["strategy"] = "columnar"


def test_aggregate_query_columnar(benchmark):
    db = build_db()
    db.execute(QUERIES["aggregate"])
    benchmark.pedantic(lambda: db.execute(QUERIES["aggregate"]),
                       rounds=5, iterations=3)
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["strategy"] = "columnar"


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = columnar_profile(args.rows)
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    ok = (result["derived"]["per_batch_dispatch"]
          and result["derived"]["planner_flip"]["flipped"]
          and result["derived"]["planner_flip"]["results_identical"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
