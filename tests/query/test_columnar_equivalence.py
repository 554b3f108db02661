"""Single-table SELECT shapes against the reference evaluator.

Every supported query shape runs through the engine and must produce
exactly what ``tests/query/reference.py`` computes row by row from
``Relation.scan()`` (bit-identical floats included: engine and
reference fold the same values in the same order).  Fault injection
proves a kernel fault fails the statement as a typed error and leaves
the transaction usable.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import QueryError

from . import reference

ROWS = 300  # several doubling batches (32+64+128+...)


def _seed_rows():
    rows = []
    for i in range(ROWS):
        name = None if i % 11 == 0 else f"name{i:03d}"
        dept = ("eng", "sales", "ops")[i % 3]
        salary = None if i % 7 == 0 else 1000.0 + (i * 37 % 250) + i / 8.0
        active = i % 2 == 0
        rows.append((i, name, dept, salary, active))
    return rows


def make_db(rows=ROWS):
    db = Database(page_size=1024, buffer_capacity=128)
    table = db.create_table("emp", [
        ("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
        ("salary", "FLOAT"), ("active", "BOOL")])
    table.insert_many(_seed_rows()[:rows])
    return db


@pytest.fixture
def cdb():
    return make_db()


def both_paths(db, statement, params=None):
    """The engine's answer and the reference evaluator's."""
    return db.execute(statement, params), reference.run(db, statement,
                                                        params)


QUERIES = [
    "SELECT * FROM emp",
    "SELECT id, salary FROM emp",
    "SELECT id FROM emp WHERE dept = 'eng'",
    "SELECT id FROM emp WHERE salary > 1100.0",
    "SELECT id FROM emp WHERE salary >= 1100.0 AND salary <= 1200.0",
    "SELECT id FROM emp WHERE id != 10 AND id < 50",
    "SELECT id FROM emp WHERE salary IS NULL",
    "SELECT id, name FROM emp WHERE name IS NOT NULL AND active = TRUE",
    "SELECT id FROM emp WHERE dept IN ('eng', 'ops')",
    "SELECT id FROM emp WHERE dept NOT IN ('eng', 'ops')",
    "SELECT id FROM emp WHERE id BETWEEN 40 AND 60",
    "SELECT id FROM emp WHERE NOT (id BETWEEN 40 AND 260)",
    "SELECT id FROM emp WHERE NOT dept = 'eng'",
    "SELECT id FROM emp WHERE dept = 'eng' OR salary < 1050.0",
    "SELECT id FROM emp WHERE name LIKE 'name2%'",   # row-eval filter
    "SELECT id, salary * 2 FROM emp WHERE id < 10",  # computed projection
    "SELECT COUNT(*) FROM emp",
    "SELECT COUNT(salary), SUM(salary), MIN(salary), MAX(salary), "
    "AVG(salary) FROM emp",
    "SELECT AVG(salary) FROM emp WHERE dept = 'sales'",
    "SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept",
    "SELECT active, MIN(id), MAX(salary) FROM emp GROUP BY active",
    "SELECT id, salary FROM emp WHERE salary IS NOT NULL "
    "ORDER BY salary DESC LIMIT 7",
    "SELECT id FROM emp WHERE dept = 'eng' AND salary IS NOT NULL "
    "ORDER BY salary LIMIT 5",
    "SELECT id, dept FROM emp ORDER BY dept, id DESC LIMIT 9",
    "SELECT id FROM emp ORDER BY id DESC",
    "SELECT id FROM emp LIMIT 11",
    "SELECT id FROM emp WHERE dept = :d AND salary > :s",
]


@pytest.mark.parametrize("statement", QUERIES)
def test_equivalence_matrix(statement):
    params = {"d": "eng", "s": 1100.0} if ":d" in statement else None
    engine, expected = both_paths(make_db(), statement, params)
    assert engine == expected


def test_columnar_path_actually_taken(cdb):
    cdb.execute("SELECT id FROM emp WHERE dept = 'eng'")
    stats = cdb.services.stats
    assert stats.get("executor.columnar.plans") >= 1
    assert stats.get("executor.columnar.batches") >= 1
    assert stats.get("predicate.vector_selects") >= 1


def test_computed_projection_vectorizes(cdb):
    """Computed projections compile through the expression compiler:
    kernel dispatches per batch, no per-row evaluation."""
    stats = cdb.services.stats
    engine, expected = both_paths(cdb, "SELECT salary / 1000 FROM emp "
                                       "WHERE id < 10")
    assert engine == expected
    assert stats.get("executor.columnar.ir.project.rows") == 10
    assert stats.get("predicate.row_evals") == 0


def test_tiny_table_with_statistics_runs_the_same_engine():
    """A statistics attachment attesting a handful of rows selects no
    other path: there is none."""
    db = make_db(rows=20)
    db.create_attachment("emp", "statistics", "emp_stats")
    stats = db.services.stats
    for statement in ("SELECT id, salary * 2 FROM emp WHERE id < 10",
                      "SELECT dept, COUNT(*), SUM(salary) FROM emp "
                      "GROUP BY dept",
                      "SELECT id FROM emp WHERE salary IS NOT NULL "
                      "ORDER BY salary DESC LIMIT 3"):
        before = stats.get("executor.columnar.ir.programs")
        engine, expected = both_paths(db, statement)
        assert engine == expected
        assert stats.get("executor.columnar.ir.programs") == before + 1


SHORT_CIRCUIT = "id = 0 OR 10 / id > 1"


def test_short_circuit_or_is_retried_per_row(cdb):
    """A vector kernel evaluates both sides of the OR for every row and
    divides by zero where ``id = 0``; ``Expr.eval`` never reaches the
    division there.  The batch that raised is re-evaluated row by row —
    as a projection and as an aggregate argument here, as the scan's
    filter in the storage method — once, not per operator."""
    stats = cdb.services.stats
    for statement in (f"SELECT id, {SHORT_CIRCUIT} FROM emp",
                      f"SELECT COUNT({SHORT_CIRCUIT}), MIN(id) FROM emp",
                      f"SELECT dept, COUNT({SHORT_CIRCUIT}) FROM emp "
                      "GROUP BY dept",
                      f"SELECT id FROM emp WHERE {SHORT_CIRCUIT}"):
        before = stats.snapshot()
        engine, expected = both_paths(cdb, statement)
        delta = stats.delta(before)
        assert engine == expected
        # Only the batch (or page) holding row 0 is retried.
        assert 0 < delta["predicate.row_evals"] <= ROWS


# ---------------------------------------------------------------------------
# Fault containment
# ---------------------------------------------------------------------------

def test_kernel_fault_is_a_query_error(cdb):
    """One kernel fault fails the statement with the fault as its cause;
    the transaction stays usable, the fault is spent, and the next run
    of the same program answers."""
    statement = "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept"
    expected = reference.run(cdb, statement)
    cause = RuntimeError("kernel")
    cdb.services.faults.arm("columnar.kernel", error=cause, nth=1)
    stats = cdb.services.stats
    programs = stats.get("executor.columnar.ir.programs")
    cdb.begin()
    with pytest.raises(QueryError) as excinfo:
        cdb.execute(statement)
    assert excinfo.value.__cause__ is cause
    assert cdb.services.faults.injected("columnar.kernel") == 1
    assert stats.get("executor.columnar.ir.programs") == programs + 1
    assert cdb.execute(statement) == expected
    cdb.commit()


def test_persistent_kernel_fault_surfaces_as_query_error(cdb):
    """Armed for every fire: a typed error with the cause chained, and
    the transaction left as after any failed statement."""
    statement = "SELECT id FROM emp WHERE dept = 'eng'"
    expected = reference.run(cdb, statement)
    cause = RuntimeError("kernel")
    cdb.services.faults.arm("columnar.kernel", error=cause, nth=1,
                            one_shot=False)
    cdb.begin()
    cdb.execute("INSERT INTO emp VALUES (1000, 'zed', 'eng', 1.0, TRUE)")
    with pytest.raises(QueryError) as excinfo:
        cdb.execute(statement)
    assert excinfo.value.__cause__ is cause
    assert cdb.services.faults.injected("columnar.kernel") == 1
    cdb.services.faults.disarm("columnar.kernel")
    # The transaction is still open and usable; its insert is intact.
    assert sorted(cdb.execute(statement)) == sorted(expected + [(1000,)])
    cdb.rollback()
    assert cdb.execute(statement) == expected


def test_kernel_fault_in_projection_and_topk_is_a_query_error(cdb):
    """A fault in the top-k sink fails the statement; the transaction's
    own write stays, and the same program then answers with it."""
    statement = ("SELECT id, salary FROM emp WHERE salary IS NOT NULL "
                 "ORDER BY salary DESC LIMIT 5")
    expected = reference.run(cdb, statement)
    cause = RuntimeError("kernel")
    cdb.services.faults.arm("columnar.kernel", error=cause, nth=1)
    cdb.begin()
    cdb.execute("INSERT INTO emp VALUES (1000, 'zed', 'eng', 9999.0, TRUE)")
    with pytest.raises(QueryError) as excinfo:
        cdb.execute(statement)
    assert excinfo.value.__cause__ is cause
    assert cdb.execute(statement) == [(1000, 9999.0)] + expected[:4]
    cdb.rollback()
    assert cdb.execute(statement) == expected
