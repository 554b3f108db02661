"""E4 — join indexes as multi-table access paths.

Three join sources run the same 1 200 ⋈ 60 equi-join: the precomputed
join index, index nested-loop over the inner relation's index, and the
hash join over two scans.  Every pair joins here, so reading both
relations once is cheapest and the planner says ``hash``; it picks the
join index when the pairs are few beside the relations (a selective
join — ``tests/query/test_columnar_ir.py``).  Each timing asserts the
source it forces is the one that ran.
"""

import pytest

from repro import Database

DEPTS = 60
EMPS = 1_200
JOIN = ("SELECT e.id, d.budget FROM emp e JOIN dept d "
        "ON e.dept = d.dname")


@pytest.fixture(scope="module")
def db():
    db = Database(buffer_capacity=1024)
    dept = db.create_table("dept", [("dname", "STRING"),
                                    ("budget", "FLOAT")])
    emp = db.create_table("emp", [("id", "INT"), ("dept", "STRING")])
    dept.insert_many([(f"d{i}", float(i)) for i in range(DEPTS)])
    emp.insert_many([(i, f"d{i % DEPTS}") for i in range(EMPS)])
    db.create_attachment("emp", "join_index", "emp_dept_ji",
                         {"other": "dept", "column": "dept",
                          "other_column": "dname"})
    db.create_index("dept_name", "dept", ["dname"], unique=True)
    return db


#: The counter each join source bumps once per execution.
RAN = {"join_index": "executor.join_index_joins",
       "index_nl": "executor.index_nl_joins",
       "hash": "executor.columnar.ir.join.hash"}


def run_with_method(db, method):
    """Execute the join, forcing the given join method (and checking
    that it is the one that ran)."""
    from repro.query.parser import parse_statement
    from repro.query.planner import plan_select
    stats = db.services.stats
    before = stats.get(RAN[method])
    with db.autocommit() as ctx:
        plan = plan_select(ctx, parse_statement(JOIN), JOIN)
        plan.join.method = method
        if method == "join_index":
            plan.join.join_index_instance = "emp_dept_ji"
        rows = db.query_engine.executor.run_select(ctx, plan, None)
    assert stats.get(RAN[method]) == before + 1, method
    return rows


def test_planner_reads_both_relations_when_every_pair_joins(db):
    plan = db.explain(JOIN)
    assert plan["join"]["method"] == "hash"


def test_join_via_join_index(benchmark, db):
    result = benchmark(lambda: run_with_method(db, "join_index"))
    assert len(result) == EMPS


def test_join_via_index_nested_loop(benchmark, db):
    result = benchmark(lambda: run_with_method(db, "index_nl"))
    assert len(result) == EMPS


def test_join_via_hash(benchmark, db):
    result = benchmark(lambda: run_with_method(db, "hash"))
    assert len(result) == EMPS


def test_all_methods_agree(db):
    expected = sorted(run_with_method(db, "hash"))
    assert sorted(run_with_method(db, "join_index")) == expected
    assert sorted(run_with_method(db, "index_nl")) == expected
