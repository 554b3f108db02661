"""Join execution across all three methods with mixed predicates."""

import pytest

from repro import Database
from repro.query.parser import parse_statement
from repro.query.planner import plan_select


@pytest.fixture
def joined(db):
    dept = db.create_table("dept", [("dname", "STRING"),
                                    ("budget", "FLOAT")])
    emp = db.create_table("emp", [("id", "INT"), ("dept", "STRING"),
                                  ("salary", "FLOAT")])
    dept.insert_many([(f"d{i}", float(i * 10)) for i in range(10)])
    emp.insert_many([(i, f"d{i % 10}", 1000.0 * (i % 7)) for i in range(80)])
    return db


QUERY = ("SELECT e.id, d.budget FROM emp e JOIN dept d "
         "ON e.dept = d.dname WHERE e.salary >= 3000 AND d.budget >= 40 "
         "AND e.id + d.budget > 50")


#: The counter each join source bumps once per execution.
RAN = {"hash": "executor.columnar.ir.join.hash",
       "index_nl": "executor.index_nl_joins",
       "join_index": "executor.join_index_joins"}


def run_forced(db, statement, method, instance=None):
    """Run ``statement`` with its join method overridden; the forced
    source must be the one that ran, and the only one."""
    stats = db.services.stats
    before = stats.snapshot()
    with db.autocommit() as ctx:
        plan = plan_select(ctx, parse_statement(statement), statement)
        plan.join.method = method
        plan.join.join_index_instance = instance
        rows = db.query_engine.executor.run_select(ctx, plan, None)
    delta = stats.delta(before)
    assert {name: delta.get(name, 0) for name in RAN.values()} \
        == {name: int(name == RAN[method]) for name in RAN.values()}
    return rows


def run_with(db, method, instance=None):
    return sorted(run_forced(db, QUERY, method, instance))


def reference(db):
    out = []
    for __, (eid, edept, salary) in db.table("emp").scan():
        if salary < 3000:
            continue
        for __, (dname, budget) in db.table("dept").scan():
            if dname == edept and budget >= 40 and eid + budget > 50:
                out.append((eid, budget))
    return sorted(out)


def test_hash_join_matches_reference(joined):
    """The hash source — what runs where no keyed route exists — against
    the nested loop of ``reference``."""
    assert run_with(joined, "hash") == reference(joined)


def test_index_nested_loop_matches_reference(joined):
    joined.create_index("dept_name", "dept", ["dname"], unique=True)
    assert run_with(joined, "index_nl") == reference(joined)


def test_index_nl_via_hash_probe(joined):
    joined.create_attachment("dept", "hash_index", "dept_hash",
                             {"columns": ["dname"]})
    assert run_with(joined, "index_nl") == reference(joined)


def test_index_nl_via_btree_file_inner(db):
    """The inner relation's own keyed storage serves as the probe route."""
    dept = db.create_table("dept", [("dname", "STRING"), ("budget",
                                                          "FLOAT")],
                           storage_method="btree_file",
                           attributes={"key": ["dname"]})
    emp = db.create_table("emp", [("id", "INT"), ("dept", "STRING"),
                                  ("salary", "FLOAT")])
    dept.insert_many([(f"d{i}", float(i * 10)) for i in range(10)])
    emp.insert_many([(i, f"d{i % 10}", 5000.0) for i in range(20)])
    rows = db.execute("SELECT e.id, d.budget FROM emp e JOIN dept d "
                      "ON e.dept = d.dname WHERE d.budget >= 40")
    assert len(rows) == 12
    assert all(budget >= 40 for __, budget in rows)


def test_join_index_matches_reference(joined):
    joined.create_attachment("emp", "join_index", "emp_dept_ji",
                             {"other": "dept", "column": "dept",
                              "other_column": "dname"})
    assert run_with(joined, "join_index", "emp_dept_ji") \
        == reference(joined)


def test_join_with_order_and_limit(joined):
    rows = joined.execute(
        "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.dname "
        "ORDER BY d.budget DESC, e.id LIMIT 3")
    assert rows == [(9, 90.0), (19, 90.0), (29, 90.0)]


def test_join_aggregate(joined):
    (row,) = joined.execute(
        "SELECT COUNT(*), SUM(d.budget) FROM emp e JOIN dept d "
        "ON e.dept = d.dname")
    assert row[0] == 80
    assert row[1] == sum(float((i % 10) * 10) for i in range(80))
