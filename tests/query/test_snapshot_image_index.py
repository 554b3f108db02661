"""Snapshot index routes read the patch's images through their index.

Under a snapshot an index route answers its current hits outside the
relation's patch plus the patch's images that pass the predicate.  The
images are indexed once per version of the patch memo, by the value the
snapshot sees of each field that leads an access path, and an exact route
tests only the images its bounds reach (``PatchImages.select``).  Every
statement here runs through a snapshot and is compared with a locking read
taken before the writers started, over heap and memory relations, while
writers move indexed fields, delete, insert, write NULL and NaN keys,
commit between the reader's statements and roll back after them.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.query.parser import parse_statement
from repro.query.planner import TableAccess, plan_select

NAN = float("nan")
POINT = "SELECT * FROM t WHERE id = :id"
RANGE = "SELECT id, k FROM t WHERE k >= :lo AND k < :hi"
RANGE_CLOSED = "SELECT id, v FROM t WHERE k > :lo AND k <= :hi AND id < 350"
K_EQUAL = "SELECT id FROM t WHERE k = :k"
HASH = "SELECT id, g FROM t WHERE g = :g"
JOIN_G = "SELECT o.oid, t.id, t.k FROM o JOIN t ON o.g = t.g"
JOIN_K = "SELECT o.oid, t.id, t.v FROM o JOIN t ON o.k = t.k WHERE o.oid < :n"

#: statement -> (parameter sets, the index its route reads; a join's is
#: the inner side's probe).
STATEMENTS = {
    POINT: ([{"id": i} for i in (5, 10, 11, 20, 30, 40, 41, 50, 51, 300,
                                 301, 400, 401, 402, 1000)], "t_id"),
    RANGE: ([{"lo": 4, "hi": 12}, {"lo": 0, "hi": 40}, {"lo": 100,
             "hi": 200}, {"lo": 3.5, "hi": 3.6}, {"lo": 7, "hi": 8.5},
             {"lo": 5, "hi": 6}, {"lo": 10, "hi": 11}], "t_k"),
    RANGE_CLOSED: ([{"lo": 4.0, "hi": 11.0}, {"lo": 6.5, "hi": 9}], "t_k"),
    K_EQUAL: ([{"k": 5.0}, {"k": 7}, {"k": 10.0}, {"k": 105.0},
               {"k": NAN}], "t_k"),
    HASH: ([{"g": 5.0}, {"g": 7.0}, {"g": 8.0}, {"g": 10.0}, {"g": 11.0},
            {"g": 105.0}, {"g": NAN}], "t_g"),
    JOIN_G: ([{}], "t_g"),
    JOIN_K: ([{"n": 40}, {"n": 5}], "t_k"),
}


def build(storage_method: str) -> Database:
    db = Database(page_size=1024, buffer_capacity=256)
    t = db.create_table("t", [("id", "INT", False), ("k", "FLOAT"),
                              ("g", "FLOAT"), ("v", "STRING")],
                        storage_method=storage_method)
    t.insert_many([(i, float(i % 40), float(i % 60), f"v{i}")
                   for i in range(200)]
                  + [(300, None, None, "null"), (301, NAN, NAN, "nan")])
    o = db.create_table("o", [("oid", "INT", False), ("k", "FLOAT"),
                              ("g", "FLOAT")])
    o.insert_many([(j, float(j % 45) if j % 9 else NAN,
                    float(j % 65) if j % 11 else None) for j in range(60)])
    db.create_index("t_id", "t", ["id"], unique=True)
    db.create_index("t_k", "t", ["k"])
    db.create_index("t_g", "t", ["g"], kind="hash_index")
    return db


def run_on_route(session, text: str, params: dict, index: str):
    """``text`` through ``session`` on a hand-made plan that reads ``t``
    through ``index`` (a join: ``t`` is the inner side of an index
    nested-loop join), whatever the planner would have chosen."""
    with session.autocommit() as ctx:
        plan = plan_select(ctx, parse_statement(text), text)
        if plan.join is not None:
            plan.join.method = "index_nl"
        else:
            access, cost = next((access, cost) for access, cost
                                in plan.access.candidates
                                if access[2:3] == (index,))
            plan.access = TableAccess(plan.access.relation, access, cost,
                                      tuple(cost.relevant),
                                      plan.access.predicate)
        return session.database.query_engine.executor.run_select(
            ctx, plan, params)


def answers(session, run=lambda session, text, params, index:
            session.execute(text, params)) -> dict:
    """Every statement's rows with every parameter set, as a multiset that
    NaN does not break."""
    return {(text, repr(params)): sorted(map(repr, run(session, text,
                                                       params, index)))
            for text, (sets, index) in STATEMENTS.items()
            for params in sets}


def check(db, reader, expected: dict) -> None:
    """Every statement through the snapshot, on its route, equals the
    locking read taken before the writers; only a join's outer relation is
    scanned, and a point read tests at most one image."""
    stats = db.services.stats
    before = stats.snapshot()
    assert answers(reader, run_on_route) == expected
    delta = stats.delta(before)
    assert delta["executor.index_nl_joins"] == 3
    scanned = delta.get("heap.tuples_scanned", 0) \
        + delta.get("memory.tuples_scanned", 0)
    assert scanned <= 3 * 60  # the outer relation, once per join
    assert stats.session_get(reader.session_id, "locks.acquire_calls") == 0
    for params in STATEMENTS[POINT][0]:
        before = stats.snapshot()
        run_on_route(reader, POINT, params, "t_id")
        assert stats.delta(before).get("mvcc.images_tested", 0) <= 1


def version(db, reader) -> tuple:
    snapshot = reader._txn.snapshot
    return snapshot.images[db.catalog.handle("t").relation_id].version


@pytest.mark.parametrize("storage_method", ["heap", "memory"])
def test_snapshot_index_routes_agree_with_a_locking_read(storage_method):
    db = build(storage_method)
    expected = answers(db.connect())
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    check(db, reader, expected)
    first = version(db, reader)

    with writer.transaction():
        # Moved: found under the old value only.
        writer.execute("UPDATE t SET k = k + 100, g = g + 100 WHERE id = 5")
        writer.execute("UPDATE t SET id = 1000 WHERE id = 30")
        # Keys that become NULL or NaN, and images whose key is NULL / NaN.
        writer.execute("UPDATE t SET k = NULL, g = NULL WHERE id = 10")
        writer.execute("UPDATE t SET k = :x, g = :x WHERE id = 11",
                       {"x": NAN})
        writer.execute("UPDATE t SET k = 7.0, g = 7.0 WHERE id = 300")
        writer.execute("UPDATE t SET k = 8.0, g = 8.0, v = 'x' "
                       "WHERE id = 301")
        writer.execute("DELETE FROM t WHERE id = 20")
        writer.execute("INSERT INTO t VALUES (400, 5.0, 5.0, 'new')")
    check(db, reader, expected)
    assert version(db, reader) != first

    # A commit between two statements extends the memo, and the index
    # is built again with it.
    extended = version(db, reader)
    with writer.transaction():
        writer.execute("UPDATE t SET k = 3.55, g = 11.0 WHERE id = 40")
        writer.execute("DELETE FROM t WHERE id = 41")
        writer.execute("INSERT INTO t VALUES (401, 10.0, 10.0, 'new')")
    check(db, reader, expected)
    assert version(db, reader)[0] == extended[0]
    assert version(db, reader)[1] > extended[1]

    # A rollback after the reader's statement moves the store's epoch.
    writer.begin()
    writer.execute("UPDATE t SET k = 9.0, g = 9.0 WHERE id = 50")
    writer.execute("DELETE FROM t WHERE id = 51")
    writer.execute("INSERT INTO t VALUES (402, 4.5, 4.5, 'new')")
    check(db, reader, expected)
    pending = version(db, reader)
    writer.rollback()
    check(db, reader, expected)
    assert version(db, reader)[0] > pending[0]
    reader.commit()
    assert answers(db.connect()) != expected  # the writers changed it


def test_a_point_read_tests_one_image_however_large_the_patch():
    db = build("heap")
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    reader.execute(POINT, {"id": 0})
    writer.execute("UPDATE t SET k = k + 1000, v = 'moved' WHERE id < 150")
    stats = db.services.stats
    for row_id, tested in ((7, 1), (170, 0), (5000, 0)):
        before = stats.snapshot()
        rows = reader.execute(POINT, {"id": row_id})
        delta = stats.delta(before)
        assert delta.get("mvcc.images_tested", 0) == tested
        assert [row[3] for row in rows] == ([f"v{row_id}"] if row_id < 200
                                            else [])
    # A range tests the images whose snapshot value is in it: ids with
    # k in [4, 6) below 150 (4, 5, 44, 45, ...), not the whole patch.
    before = stats.snapshot()
    rows = reader.execute(RANGE, {"lo": 4, "hi": 6})
    delta = stats.delta(before)
    in_range = [i for i in range(150) if 4 <= i % 40 < 6]
    assert delta["mvcc.images_tested"] == len(in_range)
    assert sorted(row[0] for row in rows) == sorted(
        i for i in range(200) if 4 <= i % 40 < 6)
    reader.commit()


def test_a_route_that_is_not_exact_tests_every_image():
    """A NULL bound binds no exact route: the whole predicate judges every
    image, as a scan's filter would, and passes none."""
    db = build("heap")
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    reader.execute(POINT, {"id": 0})
    writer.execute("UPDATE t SET v = 'moved' WHERE id < 20")
    stats = db.services.stats
    params = {"lo": None, "hi": 5}
    before = stats.snapshot()
    assert run_on_route(reader, RANGE, params, "t_k") == []
    assert stats.delta(before)["mvcc.images_tested"] == 20
    assert db.execute(RANGE, params) == []
    reader.commit()


def test_an_index_nl_join_tests_each_inner_image_once():
    """Outer rows that share a join value share its inner images: each
    image is tested, and counted as patched, once per statement."""
    db = build("heap")
    join = JOIN_K.replace("WHERE", "WHERE t.id < 100 AND")
    expected = sorted(db.execute(join, {"n": 60}))
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    reader.execute(POINT, {"id": 0})
    writer.execute("UPDATE t SET v = 'moved' WHERE id < 10")
    stats = db.services.stats
    before = stats.snapshot()
    assert sorted(run_on_route(reader, join, {"n": 60}, "t_k")) == expected
    delta = stats.delta(before)
    # o.k = 1..8 each leads two outer rows (j and j + 45); the patched
    # inner rows with those values are ids 1..8.
    assert delta["mvcc.images_tested"] == 8
    assert delta["mvcc.records_patched"] == 8
    reader.commit()


@pytest.mark.parametrize("storage_method", ["heap", "memory"])
@pytest.mark.parametrize("kind", ["btree_index", "hash_index"])
def test_a_bytearray_is_looked_up_as_its_bytes(storage_method, kind):
    """A BYTES value may be a ``bytearray``: a probe, an image (a memory
    relation keeps the one a record was inserted with) and an index-NL
    join's outer value are each looked up as the ``bytes`` they equal."""
    db = Database()
    t = db.create_table("t", [("a", "INT"), ("b", "BYTES")],
                        storage_method=storage_method)
    t.insert_many([(i, bytes([i])) for i in range(50)]
                  + [(99, bytearray(b"zz"))])
    o = db.create_table("o", [("oid", "INT"), ("b", "BYTES")],
                        storage_method=storage_method)
    o.insert_many([(j, bytearray([j % 10])) for j in range(30)]
                  + [(98, bytearray(b"zz"))])
    db.create_index("t_b", "t", ["b"], kind=kind)
    point = "SELECT a FROM t WHERE b = :p"
    join = "SELECT o.oid, t.a FROM o JOIN t ON o.b = t.b"
    expected = sorted([(j, j % 10) for j in range(30)] + [(98, 99)])
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    reader.execute(point, {"p": b"\x00"})
    with writer.transaction():
        writer.execute("UPDATE t SET a = 105 WHERE a = 5")
        writer.execute("UPDATE t SET a = 199 WHERE a = 99")
    for probe, rows in ((bytearray(b"\x05"), [(5,)]), (b"zz", [(99,)]),
                        (bytearray(b"zz"), [(99,)])):
        assert run_on_route(reader, point, {"p": probe}, "t_b") == rows
    assert sorted(run_on_route(reader, join, {}, "t_b")) == expected
    reader.commit()
    assert db.execute(point, {"p": bytearray(b"zz")}) == [(199,)]
