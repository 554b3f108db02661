"""Columnar operator IR: joins, grouped aggregates, compiled scalar
expressions, snapshot reads, and program caching.

Extends the engine-versus-reference matrix of
``test_columnar_equivalence.py`` to joins and compiled expressions:
equi-joins (duplicate and NULL keys) through all three join sources,
grouped aggregates over joins, and computed projections with
NULL-propagating expression kernels.  Where engine and reference both
read in scan order the comparison is ``==`` on ordered result lists,
i.e. bit-identical; where an index decides the engine's arrival order it
is a multiset.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import QueryError
from repro.query import executor as executor_module, ir

from . import reference
from .test_joins_execution import run_forced

pytestmark = []


def _seed(db):
    dept = db.create_table("dept", [("dno", "INT", False),
                                    ("dname", "STRING"),
                                    ("budget", "FLOAT")])
    emp = db.create_table("emp", [("eid", "INT", False), ("dno", "INT"),
                                  ("name", "STRING"), ("sal", "FLOAT")])
    dept.insert_many([(i, f"d{i}", float(i * 1000)) for i in range(12)])
    rows = []
    for i in range(300):
        # i % 13 == 0 → NULL join key; dno 12/13 → no dept match;
        # several employees share each dno → duplicate keys both sides
        # of the key space.
        dno = None if i % 13 == 0 else (i * 5) % 14
        sal = None if i % 11 == 0 else 1000.0 + (i * 37 % 250) + i / 8.0
        name = None if i % 17 == 0 else f"e{i:03d}"
        if i % 14 == 3:
            # dno 1 throughout; 'd1' and 'd1\x00' are two strings, which
            # an array type that drops trailing NULs would make one.
            name = "d1" + "\x00" * (i % 28 // 14)
        rows.append((i, dno, name, sal))
    emp.insert_many(rows)
    return db


@pytest.fixture
def jdb():
    return _seed(Database(page_size=1024, buffer_capacity=256))


def both_paths(db, statement, params=None):
    """The engine's answer and the reference evaluator's."""
    return db.execute(statement, params), reference.run(db, statement,
                                                        params)


JOIN_QUERIES = [
    "SELECT * FROM emp JOIN dept ON emp.dno = dept.dno",
    "SELECT emp.eid, dept.dname FROM emp JOIN dept ON emp.dno = dept.dno",
    "SELECT dept.dname, emp.eid FROM dept JOIN emp ON dept.dno = emp.dno",
    "SELECT emp.eid, emp.sal * 2 FROM emp JOIN dept "
    "ON emp.dno = dept.dno WHERE emp.sal > 1100.0",
    "SELECT emp.eid FROM emp JOIN dept ON emp.dno = dept.dno "
    "WHERE emp.sal + dept.budget > 6000.0",
    "SELECT COUNT(*), SUM(emp.sal), AVG(dept.budget) FROM emp "
    "JOIN dept ON emp.dno = dept.dno",
    "SELECT dept.dname, COUNT(*), SUM(emp.sal) FROM emp JOIN dept "
    "ON emp.dno = dept.dno GROUP BY dname",
    "SELECT dept.dname, AVG(emp.sal), MIN(emp.eid) FROM emp JOIN dept "
    "ON emp.dno = dept.dno WHERE emp.name IS NOT NULL GROUP BY dname",
    "SELECT emp.eid, dept.budget FROM emp JOIN dept ON emp.dno = dept.dno "
    "ORDER BY dept.budget DESC, emp.eid LIMIT 9",
    "SELECT emp.eid, dept.dname FROM emp JOIN dept ON emp.dno = dept.dno "
    "WHERE emp.name IS NOT NULL AND emp.name = dept.dname",
]


@pytest.mark.parametrize("statement", JOIN_QUERIES)
def test_join_equivalence(jdb, statement):
    engine, expected = both_paths(jdb, statement)
    assert engine == expected
    assert jdb.services.stats.get("executor.columnar.ir.join.hash") \
        + jdb.services.stats.get("executor.columnar.ir.join.merge") >= 1


EXPRESSION_QUERIES = [
    # NULL-propagating arithmetic and comparisons over nullable columns
    "SELECT sal + 1, sal * 2 - eid FROM emp",
    "SELECT -sal, eid % 7 FROM emp WHERE eid > 10",
    "SELECT lower(name), length(name) FROM emp",
    "SELECT abs(eid - 150) FROM emp WHERE sal IS NOT NULL",
    "SELECT eid FROM emp WHERE sal + dno > 1100.0",
    "SELECT eid FROM emp WHERE eid + 1 BETWEEN dno AND 250",
    "SELECT eid, sal IS NULL FROM emp",
    "SELECT SUM(sal / 2), AVG(sal + 0.5), COUNT(sal * 2) FROM emp",
    "SELECT dno, SUM(sal / 2), COUNT(*) FROM emp GROUP BY dno",
    "SELECT name, COUNT(*), MIN(eid) FROM emp "
    "WHERE dno < 3 AND name IS NOT NULL GROUP BY name",
]


@pytest.mark.parametrize("statement", EXPRESSION_QUERIES)
def test_compiled_expression_equivalence(jdb, statement):
    engine, expected = both_paths(jdb, statement)
    assert engine == expected


def test_a_grouped_float_fold_sees_its_values_in_arrival_order():
    """Both groups hold 1e308 twice and -1e308 once: summed in arrival
    order one overflows and the other does not, where any order but
    arrival would give both the same sum."""
    db = Database()
    big = 1e308
    db.create_table("t", [("id", "INT"), ("g", "STRING"),
                          ("v", "FLOAT")]).insert_many(
        [(0, "b", big), (1, "a", big), (2, "b", big), (3, "a", -big),
         (4, "b", -big), (5, "a", big)])
    statement = "SELECT g, SUM(v), MIN(id) FROM t GROUP BY g"
    assert db.execute(statement) == reference.run(db, statement) \
        == [("a", big, 1), ("b", float("inf"), 0)]


def test_expression_queries_actually_vectorize(jdb):
    stats = jdb.services.stats
    before = stats.get("executor.columnar.plans")
    jdb.execute("SELECT sal * 2 + 1 FROM emp WHERE eid % 3 = 1")
    assert stats.get("executor.columnar.plans") == before + 1


# ---------------------------------------------------------------------------
# Sort-merge join over ordered inputs
# ---------------------------------------------------------------------------

def _ordered_pair():
    db = Database(page_size=1024, buffer_capacity=256)
    db.create_table("a", [("k", "INT", False), ("av", "STRING")],
                    storage_method="btree_file", attributes={"key": ["k"]})
    db.create_table("b", [("k", "INT", False), ("bv", "FLOAT")],
                    storage_method="btree_file", attributes={"key": ["k"]})
    db.table("a").insert_many([(i, f"a{i}") for i in range(120)])
    db.table("b").insert_many([(i * 2, float(i)) for i in range(90)])
    return db


MERGE_JOIN = "SELECT a.k, b.bv FROM a JOIN b ON a.k = b.k"


def test_merge_join_on_ordered_storage():
    db = _ordered_pair()
    engine, expected = both_paths(db, MERGE_JOIN)
    assert reference.same_rows(engine, expected)
    assert db.services.stats.get("executor.columnar.ir.join.merge") >= 1


def test_snapshot_join_over_ordered_storage_does_not_merge():
    """A snapshot scan appends the rows it resurrects after the live
    ones, so its output is not in key order: merging it dropped rows."""
    db = _ordered_pair()
    quiesced = db.execute(MERGE_JOIN)
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("a").delete_where("k < 10")
        writer.table("b").delete_where("k = 4")
    merges = db.services.stats.get("executor.columnar.ir.join.merge")
    assert reference.same_rows(reader.execute(MERGE_JOIN), quiesced)
    assert db.services.stats.get("executor.columnar.ir.join.merge") == merges
    reader.commit()


def test_snapshot_join_over_ordered_storage_merges_while_nothing_is_patched():
    """With empty patches a snapshot's routes are in route order, like a
    locking reader's: the shared plan's merge join still merges."""
    db = _ordered_pair()
    quiesced = db.execute(MERGE_JOIN)
    reader = db.connect()
    reader.begin(snapshot=True)
    merges = db.services.stats.get("executor.columnar.ir.join.merge")
    assert reader.execute(MERGE_JOIN) == quiesced
    assert db.services.stats.get("executor.columnar.ir.join.merge") \
        == merges + 1
    reader.commit()


# ---------------------------------------------------------------------------
# Snapshot readers run columnar, bit-identically
# ---------------------------------------------------------------------------

SNAPSHOT_QUERIES = [
    "SELECT eid, sal FROM emp WHERE sal > 1100.0",
    "SELECT dno, COUNT(*), SUM(sal) FROM emp GROUP BY dno",
    "SELECT emp.eid, dept.dname FROM emp JOIN dept ON emp.dno = dept.dno",
]


@pytest.mark.parametrize("statement", SNAPSHOT_QUERIES)
def test_snapshot_read_is_columnar_and_bit_identical(statement):
    db = _seed(Database(page_size=1024, buffer_capacity=256))
    quiesced = db.execute(statement)  # current state, nobody writing
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("emp").update_where("eid % 2 = 0", {"sal": 1.0})
        writer.table("emp").delete_where("eid % 5 = 1")
    stats = db.services.stats
    before = stats.get("executor.columnar.plans")
    under_snapshot = reader.execute(statement)
    # The snapshot reader ran the same program and computed, over
    # patched batches, exactly the quiesced values (deleted rows
    # come back via resurrection, which appends them in key order — so
    # row *order* may differ from the quiesced scan, the content is
    # bit-identical).
    assert stats.get("executor.columnar.plans") == before + 1
    assert sorted(under_snapshot, key=repr) == sorted(quiesced, key=repr)
    # The reference, reading through the same snapshot, agrees exactly
    # (identical row order included).
    assert reference.run(reader, statement) == under_snapshot
    reader.commit()
    assert db.execute(statement) != quiesced  # the writes are real


# ---------------------------------------------------------------------------
# Join-index memo: LRU bound
# ---------------------------------------------------------------------------

def test_join_index_memo_lru_bound(monkeypatch):
    db = _seed(Database(page_size=1024, buffer_capacity=256))
    db.create_attachment("emp", "join_index", "emp_dept_ji",
                         {"other": "dept", "column": "dno",
                          "other_column": "dno"})
    statement = ("SELECT emp.eid, dept.dname FROM emp JOIN dept "
                 "ON emp.dno = dept.dno")
    unbounded = run_forced(db, statement, "join_index", "emp_dept_ji")
    assert db.services.stats.get("executor.join_memo_evictions") == 0
    # Far below the 12 distinct depts.
    monkeypatch.setattr(executor_module, "_JOIN_MEMO_MAX", 4)
    bounded = run_forced(db, statement, "join_index", "emp_dept_ji")
    assert bounded == unbounded
    assert db.services.stats.get("executor.join_memo_evictions") > 0


# ---------------------------------------------------------------------------
# Program caching and invalidation
# ---------------------------------------------------------------------------

def test_program_compiled_once_and_invalidated_by_ddl(monkeypatch):
    db = _seed(Database(page_size=1024, buffer_capacity=256))
    statement = "SELECT eid, sal * 2 FROM emp WHERE dno = 3"
    compiles = []
    original = ir.lower_select
    monkeypatch.setattr(ir, "lower_select",
                        lambda plan: (compiles.append(1), original(plan))[1])
    first = db.execute(statement)
    assert db.execute(statement) == first
    assert len(compiles) == 1  # cached plan carries its compiled program
    # A DDL change bumps the descriptor version: the plan cache discards
    # the stale plan and the fresh plan recompiles its program.
    db.create_index("emp_eid", "emp", ["eid"], unique=True)
    assert sorted(db.execute(statement)) == sorted(first)
    assert len(compiles) >= 2


def test_join_kernel_fault_is_a_query_error():
    """One kernel fault under a join fails the statement with the fault
    as its cause; the transaction stays usable and the next statement
    answers."""
    db = _seed(Database(page_size=1024, buffer_capacity=256))
    statement = ("SELECT emp.eid, dept.dname FROM emp JOIN dept "
                 "ON emp.dno = dept.dno WHERE emp.sal > 1050.0")
    expected = reference.run(db, statement)
    cause = RuntimeError("kernel")
    db.services.faults.arm("columnar.kernel", error=cause, nth=1)
    db.begin()
    db.execute("INSERT INTO dept VALUES (99, 'd99', 1.0)")
    with pytest.raises(QueryError) as excinfo:
        db.execute(statement)
    assert excinfo.value.__cause__ is cause
    assert db.services.faults.injected("columnar.kernel") == 1
    assert db.execute(statement) == expected
    assert db.execute("SELECT dname FROM dept WHERE dno = 99") == [("d99",)]
    db.rollback()
    assert db.execute("SELECT dname FROM dept WHERE dno = 99") == []


# ---------------------------------------------------------------------------
# The three join sources
# ---------------------------------------------------------------------------

def _orders_db(rows=400):
    """``orders`` ⨝ ``customer``, a unique index on each side's key."""
    db = Database(page_size=1024, buffer_capacity=512)
    orders = db.create_table("orders", [("oid", "INT", False),
                                        ("cid", "INT"), ("total", "INT")])
    customer = db.create_table("customer", [("cid", "INT", False),
                                            ("cname", "STRING")])
    customer.insert_many([(i, f"c{i:04d}") for i in range(rows)])
    orders.insert_many([(i, (i * 7) % rows, i % 50) for i in range(rows)])
    db.create_index("orders_oid", "orders", ["oid"], unique=True)
    db.create_index("customer_cid", "customer", ["cid"], unique=True)
    return db


ONE_ORDER = ("SELECT o.oid, c.cname FROM orders o JOIN customer c "
             "ON o.cid = c.cid WHERE o.oid = 7")


def test_one_row_outer_join_probes_the_inner_index_once():
    """The keyed join is costed on what the outer access returns, not on
    the outer relation: one order, one probe, under default settings."""
    db = _orders_db()
    assert db.explain(ONE_ORDER)["join"]["method"] == "index_nl"
    stats = db.services.stats
    before = stats.snapshot()
    engine = db.execute(ONE_ORDER)
    delta = stats.delta(before)
    assert engine == reference.run(db, ONE_ORDER) == [(7, "c0049")]
    assert delta["executor.index_nl_joins"] == 1
    assert delta.get("executor.columnar.ir.join.hash", 0) == 0
    # Neither relation was scanned: one index probe and fetch on each.
    assert delta.get("heap.tuples_scanned", 0) <= 2


def test_one_row_outer_join_under_snapshot_probes_the_inner_index():
    """The keyed join serves a snapshot through the same probes: the
    order and its customer were both rewritten after the snapshot, so
    both rows come from the version store and neither heap is scanned."""
    db = _orders_db()
    quiesced = db.execute(ONE_ORDER)
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.execute("UPDATE orders SET cid = 3 WHERE oid = 7")
        writer.execute("UPDATE customer SET cname = 'renamed' WHERE cid = 49")
    assert db.execute(ONE_ORDER) == [(7, "c0003")]
    stats = db.services.stats
    before = stats.snapshot()
    assert reader.execute(ONE_ORDER) == quiesced == [(7, "c0049")]
    delta = stats.delta(before)
    reader.commit()
    assert delta["executor.index_nl_joins"] == 1
    assert delta.get("executor.columnar.ir.join.hash", 0) == 0
    assert delta.get("heap.tuples_scanned", 0) <= 2
    assert "mvcc.route_downgrades" not in delta
    assert stats.session_get(reader.session_id, "locks.acquire_calls") == 0


def test_join_index_join_under_defaults():
    """A sparse join — few pairs between sizeable relations — is where
    the precomputed pairs undercut reading either relation."""
    db = Database(page_size=1024, buffer_capacity=512)
    dept = db.create_table("dept", [("dname", "STRING"),
                                    ("budget", "FLOAT")])
    emp = db.create_table("emp", [("id", "INT"), ("dept", "STRING")])
    dept.insert_many([(f"d{i}", float(i)) for i in range(300)])
    emp.insert_many([(i, f"x{i}" if i % 40 else f"d{i // 40 * 30}")
                     for i in range(400)])
    db.create_attachment("emp", "join_index", "emp_dept_ji",
                         {"other": "dept", "column": "dept",
                          "other_column": "dname"})
    statement = ("SELECT e.id, d.budget FROM emp e JOIN dept d "
                 "ON e.dept = d.dname WHERE d.budget >= 50")
    assert db.explain(statement)["join"]["method"] == "join_index"
    engine, expected = both_paths(db, statement)
    assert reference.same_rows(engine, expected) and len(engine) == 8
    assert db.services.stats.get("executor.join_index_joins") == 1
    assert db.services.stats.get("executor.columnar.ir.join.hash") == 0


JOIN_LIMIT = ("SELECT o.oid, c.cname FROM orders o JOIN customer c "
              "ON o.cid = c.cid LIMIT 5")


@pytest.mark.parametrize("method", ["hash", "index_nl", "join_index"])
def test_join_limit_without_order_by(method):
    """Any five joined rows are a right answer (the route decides which);
    the keyed sources stop pulling once the sink has them, the hash
    source has materialised both inputs by then and is truncated."""
    db = _orders_db()
    db.create_attachment("orders", "join_index", "orders_customer_ji",
                         {"other": "customer", "column": "cid",
                          "other_column": "cid"})
    everything = set(reference.run(db, JOIN_LIMIT.replace(" LIMIT 5", "")))
    stats = db.services.stats
    before = stats.snapshot()
    rows = run_forced(db, JOIN_LIMIT, method,
                      "orders_customer_ji" if method == "join_index"
                      else None)
    delta = stats.delta(before)
    assert len(rows) == len(set(rows)) == 5 and set(rows) <= everything
    assert delta["executor.limit_short_circuits"] == 1
    if method == "hash":
        assert delta["heap.tuples_scanned"] == 800
        assert delta["executor.columnar.ir.join.pairs"] == 400
    else:
        # One block of outer rows / one chunk of pairs, not 400 of each.
        assert delta.get("heap.tuples_scanned", 0) <= 64
        assert delta["executor.columnar.batches"] == 1


def test_forced_join_sources_agree_with_the_reference():
    db = _orders_db()
    db.create_attachment("orders", "join_index", "orders_customer_ji",
                         {"other": "customer", "column": "cid",
                          "other_column": "cid"})
    statement = ("SELECT o.oid, c.cname, o.total FROM orders o "
                 "JOIN customer c ON o.cid = c.cid "
                 "WHERE o.total > 10 AND c.cid < 300 AND o.oid + c.cid > 90")
    expected = reference.run(db, statement)
    for method, instance in (("hash", None), ("index_nl", None),
                             ("join_index", "orders_customer_ji")):
        assert reference.same_rows(
            run_forced(db, statement, method, instance), expected), method


def test_short_circuit_or_as_a_cross_table_filter(jdb):
    """``dept.dno = 0 OR 10 / dept.dno > 1`` divides by zero in a vector
    kernel for every pair whose dept is 0; the batch is re-evaluated per
    row, where the OR never reaches the division."""
    statement = ("SELECT emp.eid, dept.dname FROM emp JOIN dept "
                 "ON emp.dno = dept.dno "
                 "WHERE emp.eid < 100 AND (dept.dno = 0 OR "
                 "10 / dept.dno > emp.eid - 50)")
    stats = jdb.services.stats
    before = stats.snapshot()
    engine, expected = both_paths(jdb, statement)
    delta = stats.delta(before)
    assert engine == expected and engine
    assert delta["predicate.row_evals"] == \
        delta["executor.columnar.ir.join.pairs"]


# ---------------------------------------------------------------------------
# ORDER BY over NULLs: NULL is the greatest value, in every sink branch
# ---------------------------------------------------------------------------

NULL_ORDER_QUERIES = [
    "SELECT eid, sal FROM emp ORDER BY sal",                  # full sort
    "SELECT eid, sal FROM emp ORDER BY sal DESC",
    "SELECT eid, dno, sal FROM emp ORDER BY dno, sal DESC",   # two keys
    "SELECT eid, sal FROM emp ORDER BY sal LIMIT 5",          # top-k
    "SELECT eid, sal FROM emp ORDER BY sal DESC LIMIT 40",
    "SELECT name FROM emp ORDER BY name DESC LIMIT 25",
    "SELECT eid, sal FROM emp WHERE eid < 12 ORDER BY sal LIMIT 20",
    "SELECT eid, dno, sal FROM emp ORDER BY dno DESC, sal LIMIT 60",
    "SELECT eid, dno, sal FROM emp ORDER BY dno, sal LIMIT 290",
    "SELECT emp.eid, emp.sal FROM emp JOIN dept ON emp.dno = dept.dno "
    "ORDER BY emp.sal DESC LIMIT 30",
]


@pytest.mark.parametrize("statement", NULL_ORDER_QUERIES)
def test_order_by_over_nulls_matches_the_reference(jdb, statement):
    got, expected = both_paths(jdb, statement)
    assert got == expected  # every ordered column of the seed holds NULLs


def test_null_sorts_last_ascending_and_first_descending():
    """Both used to fail as an engine fault (``'<' not supported``)."""
    db = Database()
    db.create_table("t", [("id", "INT"), ("v", "INT")]).insert_many(
        [(1, 30), (2, None), (3, 10), (4, 20)])
    ascending = [(3, 10), (4, 20), (1, 30), (2, None)]
    assert db.execute("SELECT id, v FROM t ORDER BY v") == ascending
    assert db.execute("SELECT id, v FROM t ORDER BY v LIMIT 2") \
        == ascending[:2]
    assert db.execute("SELECT id, v FROM t ORDER BY v LIMIT 4") == ascending
    assert db.execute("SELECT id, v FROM t ORDER BY v DESC") \
        == ascending[::-1]
    assert db.execute("SELECT id, v FROM t ORDER BY v DESC LIMIT 2") \
        == [(2, None), (1, 30)]
    assert db.execute("SELECT id, v FROM t ORDER BY v DESC, id LIMIT 2") \
        == [(2, None), (1, 30)]


def test_top_k_ties_resolve_by_arrival_order(jdb):
    """The bounded selection returns the rows, in the order, of the
    stable sort it replaces — also where the cut falls inside a tie."""
    for direction in ("", " DESC"):
        full = jdb.execute(f"SELECT eid, dno FROM emp ORDER BY dno{direction}")
        for k in (1, 7, 23, 150, 299, 400):
            assert jdb.execute(f"SELECT eid, dno FROM emp ORDER BY "
                               f"dno{direction} LIMIT {k}") == full[:k]


# ---------------------------------------------------------------------------
# The fields a program reads
# ---------------------------------------------------------------------------

def _fields_read(db, statement):
    from repro.query.parser import parse_statement
    from repro.query.planner import plan_select
    with db.autocommit() as ctx:
        program = ir.lower_select(
            plan_select(ctx, parse_statement(statement), statement))
    return program.left_fields, program.right_fields


def test_lowering_names_the_fields_each_side_reads(jdb):
    assert _fields_read(jdb, "SELECT * FROM emp WHERE sal > 1.0") \
        == (None, None)
    assert _fields_read(jdb, "SELECT COUNT(*) FROM emp WHERE sal > 1.0") \
        == ((), None)                       # the filter is the scan's own
    assert _fields_read(jdb, "SELECT name, sal * 2 FROM emp ORDER BY eid") \
        == ((0, 2, 3), None)
    assert _fields_read(jdb, "SELECT dno, MAX(sal) FROM emp GROUP BY dno") \
        == ((1, 3), None)
    assert _fields_read(
        jdb, "SELECT dept.dname, COUNT(*) FROM emp JOIN dept "
             "ON emp.dno = dept.dno WHERE emp.sal + dept.budget > 6000.0 "
             "GROUP BY dname") == ((1, 3), (0, 1, 2))
    assert _fields_read(jdb, "SELECT * FROM emp JOIN dept "
                             "ON emp.dno = dept.dno") == (None, None)


@pytest.mark.parametrize("statement, side, field", [
    ("SELECT eid, sal FROM emp WHERE name IS NOT NULL", "left_fields", 3),
    ("SELECT dept.dname, SUM(emp.sal) FROM emp JOIN dept "
     "ON emp.dno = dept.dno GROUP BY dname", "right_fields", 1),
])
def test_a_field_the_scan_was_not_asked_for_is_an_error_not_a_null(
        jdb, monkeypatch, statement, side, field):
    """A wrong needed-set fails loudly: drop one field from a lowered
    program and the statement raises, naming it — no NULLs."""
    lower = ir.lower_select

    def forgetful(plan):
        program = lower(plan)
        held = getattr(program, side)
        assert field in held
        setattr(program, side, tuple(f for f in held if f != field))
        return program

    monkeypatch.setattr(ir, "lower_select", forgetful)
    with pytest.raises(QueryError, match=f"field {field} is not in"):
        jdb.execute(statement)
