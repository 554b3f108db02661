"""E20 — columnar operator IR: joins, group-by, and compiled expressions.

The operator IR runs whole plans batch-at-a-time — equi-joins (hash /
sort-merge over selection-vector pairs), grouped aggregates via one
dict pass, and arbitrary compiled scalar expressions — on the
pure-Python kernel backend.

The experiment runs join, group-by, and expression workloads and guards
the deterministic counters:

* one hash or merge pairing per join, and a dispatch count
  (``executor.columnar.kernel_calls`` +
  ``executor.columnar.ir.kernel_calls``; the scans add one
  ``predicate.vector_selects`` per page) that is a small constant per
  operator and batch, never per row or per join pair;
* ``predicate.row_evals`` + ``executor.row_ops`` (Python-level work per
  row) at zero.

The comparison this experiment was first run for — the same shapes down
a row-at-a-time pipeline, >= 5x fewer Python-level operations — ended
with that pipeline (EXPERIMENTS.md E20 keeps the last table), and so did
the one between the Python and NumPy kernel backends.

Runnable directly for the CI smoke profile::

    python benchmarks/bench_ir.py --rows 2000 --json bench-ir.json
"""

import argparse
import json
import sys

import pytest

from repro import Database

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_ir.py
    from _helpers import bench_payload

N = 6_000
DEPTS = 16

#: The IR workloads measured.
QUERIES = {
    "join": ("SELECT emp.id, dept.budget FROM emp JOIN dept "
             "ON emp.dept_no = dept.dno"),
    "join_filter": ("SELECT emp.id, dept.dname FROM emp JOIN dept "
                    "ON emp.dept_no = dept.dno "
                    "WHERE emp.salary + dept.budget > 160000.0"),
    "join_group": ("SELECT dept.dname, COUNT(*), SUM(emp.salary) "
                   "FROM emp JOIN dept ON emp.dept_no = dept.dno "
                   "GROUP BY dname"),
    "group_expr": ("SELECT dept_no, SUM(salary / 2), AVG(salary + 100.0), "
                   "COUNT(*) FROM emp GROUP BY dept_no"),
    "expr_project": ("SELECT salary * 1.1 + 500.0, abs(id - 3000) "
                     "FROM emp WHERE salary / 1000.0 > 110.0"),
}

JOINS = ("join", "join_filter", "join_group")

ROW_OPS = ("predicate.row_evals", "executor.row_ops")
COLUMNAR_OPS = ("executor.columnar.kernel_calls",
                "executor.columnar.ir.kernel_calls")
IR_COUNTERS = ("predicate.vector_selects",
               "executor.columnar.batches", "executor.columnar.rows",
               "executor.columnar.ir.join.hash",
               "executor.columnar.ir.join.merge",
               "executor.columnar.ir.join.pairs",
               "executor.columnar.ir.group.groups",
               "executor.scan_batches")


def build_db(rows: int = N) -> Database:
    db = Database(page_size=4096, buffer_capacity=512)
    db.create_table("dept", [("dno", "INT", False), ("dname", "STRING"),
                             ("budget", "FLOAT")])
    db.create_table("emp", [("id", "INT", False), ("dept_no", "INT"),
                            ("salary", "FLOAT"), ("active", "BOOL")])
    db.table("dept").insert_many(
        [(i, f"d{i:02d}", 40000.0 + i * 1500.0) for i in range(DEPTS)])
    db.table("emp").insert_many(
        [(i, (i * 7) % DEPTS, 90000.0 + (i * 37 % 500) * 100.0 + i / 16.0,
          i % 2 == 0) for i in range(rows)])
    return db


def _measure(db, statement) -> tuple:
    """One warm execution: its result and the counters recorded."""
    db.execute(statement)  # warm the plan cache and compiled program
    stats = db.services.stats
    before = stats.snapshot()
    result = db.execute(statement)
    delta = stats.delta(before)
    return result, {key: delta.get(key, 0)
                    for key in ROW_OPS + COLUMNAR_OPS + IR_COUNTERS}


def _ops(shape, names):
    return sum(shape[name] for name in names)


def _dispatch_guard(name: str, shape: dict, rows: int) -> bool:
    """Dispatches per operator and batch, nothing per row; a join pairs
    its inputs exactly once."""
    ok = (_ops(shape, COLUMNAR_OPS)
          <= 6 * shape["executor.scan_batches"] + 16
          and _ops(shape, ROW_OPS) == 0)
    if name in JOINS:
        ok = ok and (shape["executor.columnar.ir.join.hash"]
                     + shape["executor.columnar.ir.join.merge"] == 1
                     and shape["executor.columnar.ir.join.pairs"]
                     >= rows * 0.9)
    return ok


def ir_profile(rows: int = N) -> dict:
    db = build_db(rows)
    counters = {}
    guarded = True
    for name, statement in QUERIES.items():
        __, counters[name] = _measure(db, statement)
        guarded &= _dispatch_guard(name, counters[name], rows)
    return bench_payload(
        "E20-ir",
        {"rows": rows, "depts": DEPTS, "queries": dict(QUERIES)},
        counters, {"per_operator_dispatch": guarded})


@pytest.fixture(scope="module")
def profile():
    return ir_profile(N)


# ---------------------------------------------------------------------------
# Acceptance: counter assertions
# ---------------------------------------------------------------------------

def test_dispatches_per_operator_not_per_row(profile):
    for name, shape in profile["counters"].items():
        assert _dispatch_guard(name, shape, N), (name, shape)


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def _bench(benchmark, db, statement):
    db.execute(statement)
    benchmark.pedantic(lambda: db.execute(statement), rounds=5,
                       iterations=3)
    benchmark.extra_info["rows"] = N


def test_join_columnar_python(benchmark):
    _bench(benchmark, build_db(), QUERIES["join"])


def test_group_expr_columnar_python(benchmark):
    _bench(benchmark, build_db(), QUERIES["group_expr"])


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = ir_profile(args.rows)
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0 if result["derived"]["per_operator_dispatch"] else 1


if __name__ == "__main__":
    sys.exit(main())
