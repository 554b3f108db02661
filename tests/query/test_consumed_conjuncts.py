"""An index route tests each conjunct once.

A B-tree route is the intersection of its relevant bounds and a hash
probe the agreement of its equalities, so every conjunct they are built
from holds for all they yield: those conjuncts are *consumed*, and the
key filter and the fetch are handed only the rest, which they test a
batch (or a page) at a time.  A bound that is NULL or of another type
than the key consumes nothing, and a NaN key, which no bound holds, has
no entry.  The tests here hold the routes to what a
scan answers — under a locking reader, under a snapshot reader whose
relation is patched, for UPDATE and DELETE — and to the work they do.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import ReproError
from repro.services.predicate import Predicate

NAN = float("nan")

#: (statement, params): every bound shape a route intersects.
SHAPES = [
    # a tie in bound value: the exclusive bound wins
    ("SELECT a, s FROM t WHERE a >= 10 AND a > 10 AND a < 20", {}),
    ("SELECT a, s FROM t WHERE a <= 20 AND a < 20 AND a >= 14", {}),
    # an equality outside (or on the open end of) the other bounds
    ("SELECT a, s FROM t WHERE a > 20 AND a = 10", {}),
    ("SELECT a, s FROM t WHERE a = 10 AND a > 10", {}),
    ("SELECT a, s FROM t WHERE a = 10 AND a >= 10 AND a <= 10", {}),
    ("SELECT a, s FROM t WHERE a = 10 AND a = 12", {}),
    # two lows and two highs
    ("SELECT a, s FROM t WHERE a > 4 AND a >= 8 AND a < 40 AND a <= 20", {}),
    # BETWEEN, alone and beside a bound that ties with it
    ("SELECT a, s FROM t WHERE a BETWEEN 10 AND 30", {}),
    ("SELECT a, s FROM t WHERE a BETWEEN 10 AND 30 AND a > 10", {}),
    # parameter bounds: a value, a float, NULL, another type
    ("SELECT a, s FROM t WHERE a >= :lo AND a < :hi", {"lo": 10, "hi": 30}),
    ("SELECT a, s FROM t WHERE a >= :lo AND a < :hi",
     {"lo": 9.5, "hi": 30}),
    ("SELECT a, s FROM t WHERE a >= :lo AND a < :hi",
     {"lo": None, "hi": 30}),
    ("SELECT a, s FROM t WHERE a >= :lo AND a < :hi", {"lo": "x", "hi": 30}),
    ("SELECT a, s FROM t WHERE a = :p", {"p": 12}),
    ("SELECT a, s FROM t WHERE a = :p", {"p": 12.0}),
    ("SELECT a, s FROM t WHERE a = :p", {"p": None}),
    ("SELECT a, s FROM t WHERE a = :p", {"p": "x"}),
    # a residual on the key, and on the second field of a composite key
    ("SELECT a, s FROM t WHERE a >= 10 AND a < 40 AND a != 16", {}),
    ("SELECT a, s FROM t WHERE a >= 10 AND a < 40 AND b = 3", {}),
    ("SELECT a FROM t WHERE a >= 10 AND a < 40 AND a != 16", {}),
    ("SELECT COUNT(*), MAX(s) FROM t WHERE a >= 10 AND a < 40 "
     "GROUP BY b", {}),
    # a FLOAT key with NaN rows, which no bound holds
    ("SELECT a, f FROM t WHERE f >= 280", {}),
    ("SELECT a, f FROM t WHERE f <= 12", {}),
    ("SELECT a FROM t WHERE f > 40 AND f < 60 AND f != 50", {}),
    ("SELECT a FROM t WHERE f >= :lo AND f < :hi", {"lo": 100, "hi": 130}),
    ("SELECT a FROM t WHERE f >= :lo AND f < :hi", {"lo": NAN, "hi": 130}),
    ("SELECT a FROM t WHERE f = 30.0", {}),
    ("SELECT a FROM t WHERE f = :p", {"p": NAN}),
]

#: (statement, params) that write by a range, under a locking reader.
WRITES = [
    ("UPDATE t SET s = 'u' WHERE a >= 10 AND a > 10 AND a < 30", {}),
    ("UPDATE t SET b = 9 WHERE a BETWEEN :lo AND :hi AND b != 2",
     {"lo": 40, "hi": 60}),
    ("DELETE FROM t WHERE a > 100 AND a = 70", {}),
    ("DELETE FROM t WHERE a >= :lo AND a < :hi AND s != 's40'",
     {"lo": 70, "hi": 90}),
    ("UPDATE t SET f = :p WHERE a >= 100 AND a < 110", {"p": NAN}),
    ("UPDATE t SET f = 1.5 WHERE f >= 280", {}),
    ("DELETE FROM t WHERE f <= 12 AND f > 5", {}),
]

INDEXES = ["btree", "unique", "composite", "hash", "float", "float_hash"]


def build(kind):
    """300 rows with even, distinct ``a``, FLOAT ``f`` (NaN in every 25th
    row), and an index of ``kind``."""
    db = Database(page_size=1024)
    table = db.create_table("t", [("a", "INT"), ("b", "INT"),
                                  ("s", "STRING"), ("f", "FLOAT")])
    table.insert_many([(2 * i, i % 7, f"s{i}", float(i) if i % 25 else NAN)
                       for i in range(300)])
    if kind == "float":
        db.create_index("t_f", "t", ["f"])
    elif kind == "float_hash":
        db.create_index("t_f", "t", ["f"], kind="hash_index")
    elif kind == "hash":
        db.create_index("t_a", "t", ["a"], kind="hash_index")
    elif kind == "composite":
        db.create_index("t_a", "t", ["a", "b"])
    elif kind is not None:
        db.create_index("t_a", "t", ["a"], unique=kind == "unique")
    return db


def outcome(session, statement, params):
    """The rows by ``repr`` (a NaN equals no other NaN), or the error."""
    try:
        return sorted(map(repr, session.execute(statement, params)))
    except ReproError as exc:  # a built-in exception fails the test
        return type(exc)


def read_answers(kind, snapshot: bool):
    """Every shape's rows or typed error, read by a locking reader, or by
    a snapshot reader after a writer moved rows into and out of the
    ranges, deleted one and inserted one."""
    db = build(kind)
    reader = db.connect()
    if snapshot:
        reader.begin(snapshot=True)
        writer = db.connect()
        for statement, params in (
                ("UPDATE t SET a = -1 WHERE s = 's6'", {}),
                ("UPDATE t SET a = 13 WHERE s = 's150'", {}),
                ("UPDATE t SET s = 'moved' WHERE s = 's8'", {}),
                ("DELETE FROM t WHERE s = 's7'", {}),
                ("INSERT INTO t VALUES (15, 1, 'new', 2.5)", {}),
                ("UPDATE t SET f = :p WHERE s = 's9'", {"p": NAN}),
                ("UPDATE t SET f = 12.5 WHERE s = 's25'", {})):
            writer.execute(statement, params)
    return [outcome(reader, statement, params)
            for statement, params in SHAPES]


@pytest.mark.parametrize("snapshot", [False, True],
                         ids=["locking", "snapshot"])
@pytest.mark.parametrize("kind", INDEXES)
def test_a_route_answers_every_bound_shape_as_the_scan_does(kind, snapshot):
    assert read_answers(kind, snapshot) == read_answers(None, snapshot)


@pytest.mark.parametrize("kind", INDEXES)
def test_a_write_by_a_range_meets_the_rows_the_scan_meets(kind):
    def run(index):
        db = build(index)
        counts = [db.execute(statement, params)
                  for statement, params in WRITES]
        return counts, sorted(map(repr, db.table("t").rows()))
    assert run(kind) == run(None)


RANGES = [  # (statement, rows in the answer)
    ("SELECT a FROM t WHERE a >= 10 AND a > 10 AND a < 20", 4),
    ("SELECT a FROM t WHERE a <= 20 AND a < 20 AND a >= 14", 3),
    ("SELECT a FROM t WHERE a > 20 AND a = 10", 0),
    ("SELECT a FROM t WHERE a = 10 AND a > 10", 0),
    ("SELECT a FROM t WHERE a BETWEEN 10 AND 20 AND a > 10", 5),
    ("SELECT a FROM t WHERE a > 4 AND a >= 8 AND a < 40 AND a <= 20", 7),
]


@pytest.mark.parametrize("kind", ["btree", "unique", "composite"])
def test_a_range_walks_only_the_entries_of_its_intersection(kind):
    """The bounds consumed, the route itself must be exact: it walks no
    entry a bound rejects (an inclusive bound beside an exclusive one of
    the same value, or an equality outside the range, walked some)."""
    db = build(kind)
    stats = db.services.stats
    for statement, rows in RANGES:
        assert "t_a" in db.explain(statement)["access"]["route"], statement
        before = stats.snapshot()
        assert len(db.execute(statement)) == rows, statement
        scanned = stats.delta(before).get("btree_index.entries_scanned", 0)
        assert scanned == rows, statement


def test_explain_names_the_conjuncts_the_route_consumed():
    db = build("composite")
    db.create_index("t_s", "t", ["s"], kind="hash_index")

    def consumed(statement):
        return db.explain(statement)["access"]["consumed"]

    assert consumed("SELECT * FROM t WHERE a >= 10 AND a < 20") \
        == ["a >= 10", "a < 20"]
    assert consumed("SELECT * FROM t WHERE a >= 10 AND a < 20 AND b = 3") \
        == ["a >= 10", "a < 20"]
    assert consumed("SELECT * FROM t WHERE a BETWEEN 10 AND 12 AND s > 'a'") \
        == ["a BETWEEN 10 AND 12"]
    assert consumed("SELECT * FROM t WHERE s = 's5' AND b = 5") \
        == ["s = 's5'"]
    # A bound of another type than the key: the route walks every entry
    # and the whole predicate answers, as a scan's does.
    mistyped = "SELECT * FROM t WHERE a = 'x' AND a < 20"
    assert "t_a" in db.explain(mistyped)["access"]["route"]
    assert consumed(mistyped) == []
    assert consumed("SELECT * FROM t WHERE b = 3") == []  # a scan


def count_calls(monkeypatch):
    calls = {"matches": 0, "select": 0}
    for name in calls:
        original = getattr(Predicate, name)

        def counted(self, *args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Predicate, name, counted)
    return calls


def test_a_consumed_range_tests_nothing_and_a_residual_a_page_at_once(
        monkeypatch):
    """The e2e ``oltp_point`` shapes are a literal range over a unique
    B-tree: no predicate call at all.  A residual on a field outside the
    key is one ``select`` per page the fetch pins, and no ``matches``."""
    db = Database()
    table = db.create_table("e", [("id", "INT"), ("dept", "INT"),
                                  ("salary", "FLOAT"), ("active", "BOOL")])
    table.insert_many([(i, i % 9, float(i % 50), i % 3 != 0)
                       for i in range(2000)])
    db.create_index("e_id", "e", ["id"], unique=True)
    shapes = ["SELECT dept, COUNT(*), AVG(salary) FROM e "
              "WHERE id >= 300 AND id < 400 GROUP BY dept",
              "SELECT id, salary FROM e WHERE id >= 300 AND id < 400 "
              "ORDER BY salary DESC LIMIT 10",
              "SELECT * FROM e WHERE id = :id",
              "UPDATE e SET salary = 1.0 WHERE id = :id"]
    residual = ("SELECT id FROM e WHERE salary > :s AND active "
                "AND id >= 300 AND id < 320")
    for statement in [*shapes, residual]:
        assert "e_id" in db.explain(statement.replace(
            "UPDATE e SET salary = 1.0", "SELECT * FROM e"))["access"][
                "route"], statement
    calls = count_calls(monkeypatch)
    for statement in shapes:
        db.execute(statement, {"id": 5})
    assert calls == {"matches": 0, "select": 0}
    rows = db.execute(residual, {"s": 10.0})
    pages = {key[0] for key, record in table.scan()
             if 300 <= record[0] < 320}
    assert sorted(rows) == [(i,) for i in range(300, 320)
                            if i % 50 > 10 and i % 3 != 0]
    assert calls == {"matches": 0, "select": len(pages)}


def test_a_key_residual_is_tested_once_per_index_batch(monkeypatch):
    """A residual the key can answer runs on the index batch, not again
    on the fetched records; a hash probe's equality is consumed."""
    db = build("btree")
    db.create_index("t_s", "t", ["s"], kind="hash_index")
    calls = count_calls(monkeypatch)
    assert db.execute("SELECT a FROM t WHERE a >= 10 AND a < 20 "
                      "AND a != 12") == [(10,), (14,), (16,), (18,)]
    assert calls == {"matches": 0, "select": 1}
    assert db.execute("SELECT a FROM t WHERE s = 's5'") == [(10,)]
    assert calls == {"matches": 0, "select": 1}


# ---------------------------------------------------------------------------
# The index nested-loop probe: a join value of another type
# ---------------------------------------------------------------------------

JOINS = ["SELECT * FROM u JOIN t ON u.k = t.a",
         "SELECT v.k, t.s FROM v JOIN t ON v.k = t.a"]


def join_answers(kind):
    """Each join's rows, or its typed error, with ``t``'s key column
    ``a`` reached through ``kind`` (``None``: no index)."""
    db = Database(page_size=1024)
    if kind == "btree_file":
        db.create_table("t", [("a", "INT", False), ("s", "STRING")],
                        storage_method="btree_file",
                        attributes={"key": ["a"]})
    else:
        db.create_table("t", [("a", "INT"), ("s", "STRING")])
    db.table("t").insert_many([(i, f"s{i}") for i in range(300)])
    db.create_table("u", [("k", "STRING")])
    db.table("u").insert_many([(f"{i}",) for i in range(5)])
    db.create_table("v", [("k", "FLOAT")])
    db.table("v").insert_many([(1.0,), (2.5,), (None,), (7.0,)])
    if kind in ("btree_index", "unique"):
        db.create_index("t_a", "t", ["a"], unique=kind == "unique")
    elif kind == "hash_index":
        db.create_index("t_a", "t", ["a"], kind="hash_index")
    answers = []
    for statement in JOINS:
        if kind is not None:
            assert db.explain(statement)["join"]["method"] == "index_nl"
        try:
            answers.append(sorted(db.execute(statement), key=repr))
        except ReproError as exc:  # a built-in exception fails the test
            answers.append(type(exc))
    return answers


@pytest.mark.parametrize("kind", ["btree_index", "unique", "hash_index",
                                  "btree_file"])
def test_an_index_join_on_a_value_of_another_type_answers_as_a_scan(kind):
    """``u.k`` is STRING, ``t.a`` INT: the probe finds no equal row, as the
    hash join over two scans finds none (a B-tree probe used to raise a
    built-in TypeError); a FLOAT join value still meets its INT key."""
    assert join_answers(kind) == join_answers(None) \
        == [[], [(1.0, "s1"), (7.0, "s7")]]
