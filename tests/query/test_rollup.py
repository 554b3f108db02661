"""The roll-up split (eager aggregation), differentially.

A hash join grouped by a JOIN-relation column whose items aggregate the
FROM relation runs as a single-table plan grouping the FROM relation by
its join column, whose partial groups then meet the JOIN relation's
rows.  Every answer here must equal ``reference.run`` bit for bit
(``repr``), on a heap, on btree_file, on a 3-shard relation with
pushdown on and off, and under a snapshot beside an uncommitted writer;
and the shapes the split must refuse must still run the hash join.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.query.parser import parse_statement
from repro.query.planner import plan_select

from . import reference

FACT = [("id", "INT", False), ("k", "INT"), ("v", "INT"), ("b", "BOOL"),
        ("s", "STRING"), ("x", "FLOAT")]
DIM = [("did", "INT", False), ("k", "INT"), ("g", "STRING"), ("w", "INT"),
       ("z", "FLOAT")]
#: Key 1 twice in group g1; key 2 once in each of g1 and g2; a NULL key;
#: a NULL group; key 99, which no fact row has (fact key 5 has no
#: dimension row); and FLOAT values that compare equal in unequal reprs.
DIM_ROWS = [(0, 1, "g1", 1, 0.0), (1, 1, "g1", 2, -0.0),
            (2, 2, "g1", 3, -0.0), (3, 2, "g2", None, 0.0),
            (4, 3, "g2", 4, 1.5), (5, None, "g3", 5, 2.5),
            (6, 4, None, 6, 2.5), (7, 99, "g4", 7, 3.5)]

J = "FROM f JOIN d ON f.k = d.k"
#: Shapes the split takes.
ROLLUP = [
    f"SELECT d.g, COUNT(*), COUNT(f.v), SUM(f.v), AVG(f.v) {J} GROUP BY g",
    f"SELECT MIN(f.s), MAX(f.s), d.g, SUM(f.b), AVG(f.b), MIN(f.b) {J} "
    "GROUP BY g",
    f"SELECT d.w, COUNT(*), MAX(f.v) {J} WHERE f.v > :lo GROUP BY w",
    f"SELECT d.g, COUNT(f.s), MIN(f.id) {J} "
    "WHERE d.w <= 4 AND f.s < 'zz' GROUP BY g",
    f"SELECT d.k, COUNT(*), SUM(f.v), d.k {J} GROUP BY d.k",
    "SELECT d.g, COUNT(*) FROM f JOIN d ON d.k = f.k GROUP BY g",
    f"SELECT d.g, COUNT(*), SUM(f.v) {J} WHERE d.g = 'nowhere' GROUP BY g",
    f"SELECT d.g, COUNT(*), MAX(f.s) {J} WHERE f.s > 'zz' GROUP BY g",
]
PARAMS = {"lo": 0}
#: Shapes it must refuse, each with the statement whose reference answer
#: it gives (aggregate queries ignore ORDER BY and LIMIT).
STAYS = [
    (f"SELECT d.g, SUM(f.x) {J} GROUP BY g", None),
    (f"SELECT d.g, AVG(f.x), COUNT(*) {J} GROUP BY g", None),
    (f"SELECT d.g, COUNT(*) {J} WHERE f.v > d.w GROUP BY g", None),
    (f"SELECT d.g, COUNT(*) {J} GROUP BY g ORDER BY g",
     f"SELECT d.g, COUNT(*) {J} GROUP BY g"),
    (f"SELECT d.g, COUNT(*) {J} GROUP BY g LIMIT 2",
     f"SELECT d.g, COUNT(*) {J} GROUP BY g"),
    (f"SELECT d.g, SUM(d.w) {J} GROUP BY g", None),
    (f"SELECT d.g, d.w, COUNT(*) {J} GROUP BY g", None),
    (f"SELECT d.g, f.s, COUNT(*) {J} GROUP BY g", None),
    (f"SELECT f.s, COUNT(*) {J} GROUP BY s", None),
    (f"SELECT d.z, COUNT(*), SUM(f.v) {J} GROUP BY z", None),
    (f"SELECT d.g, SUM(f.v + 1) {J} GROUP BY g", None),
]


def fact_rows(seed: int, n: int, keys=(1, 2, 3, 4, 5, None)):
    rng = random.Random(seed)
    return [(i, rng.choice(keys),
             rng.choice([None, -3, 0, 7, 12]), rng.choice([True, False, None]),
             rng.choice(["a", "b", "zz", None]), rng.choice([0.1, 1.25, None]))
            for i in range(n)]


def build(kind: str = "heap", seed: int = 1, n: int = 400,
          keys=(1, 2, 3, 4, 5, None)) -> Database:
    """``f`` (``n`` rows over ``keys``, with a statistics attachment, so
    the gate counts the keys) and ``d`` (``DIM_ROWS``)."""
    db = Database(page_size=1024)
    fact, dim = {}, {}
    if kind == "btree_file":
        fact = dict(storage_method="btree_file", attributes={"key": ["id"]})
        dim = dict(storage_method="btree_file", attributes={"key": ["did"]})
    elif kind.startswith("sharded"):
        fact = dict(storage_method="sharded", attributes={"shards": 3})
    db.create_table("f", FACT, **fact)
    db.create_attachment("f", "statistics", "f_stats")
    db.table("f").insert_many(fact_rows(seed, n, keys))
    db.create_table("d", DIM, **dim).insert_many(DIM_ROWS)
    db.query_engine.executor.pushdown_enabled = kind != "sharded_pull"
    return db


def check(scope, stats, statement, splits, reference_statement=None):
    before = stats.snapshot()
    got = scope.execute(statement, PARAMS)
    delta = stats.delta(before)
    want = reference.run(scope, reference_statement or statement, PARAMS)
    assert repr(got) == repr(want), statement
    assert delta.get("executor.rollups", 0) == int(splits), statement
    assert delta.get("executor.columnar.ir.join.hash", 0) \
        == int(not splits), statement
    return delta


def join_path(db, statement, refuse=True):
    """``statement`` planned by hand and run with the split refused (or
    decided as usual): ``(rows, record locks the statement left)``."""
    with db.transaction() as ctx:
        plan = plan_select(ctx, parse_statement(statement), statement)
        if refuse:
            plan.fragment = False
        rows = db.query_engine.executor.run_select(ctx, plan, PARAMS)
        held = db.services.locks.locks_held(ctx.txn.txn_id)
    return rows, held


@pytest.mark.parametrize("kind", ["heap", "btree_file", "sharded_push",
                                  "sharded_pull"])
@pytest.mark.parametrize("seed", [1, 2])
def test_rollup_answers_equal_the_reference(kind, seed):
    db = build(kind, seed)
    stats = db.services.stats
    pushed = stats.get("sharded.pushdown.queries")
    for statement in ROLLUP:
        check(db, stats, statement, True)
    pushed = stats.get("sharded.pushdown.queries") - pushed
    assert (pushed > 0) == (kind == "sharded_push")


def test_rollup_answers_equal_the_join_path():
    db = build("heap", 3)
    for statement in ROLLUP:
        assert repr(db.execute(statement, PARAMS)) \
            == repr(join_path(db, statement)[0])


@pytest.mark.parametrize("kind", ["heap", "sharded_push"])
def test_shapes_the_split_refuses_stay_on_the_hash_join(kind):
    db = build(kind)
    for statement, reference_statement in STAYS:
        check(db, db.services.stats, statement, False, reference_statement)


def test_an_emptied_from_relation_splits_to_no_groups():
    db = build()
    statement = ROLLUP[0]
    assert db.execute(statement)     # planned over 120 rows: it splits
    db.execute("DELETE FROM f")
    assert check(db, db.services.stats, statement, True) is not None
    assert db.execute(statement) == []


def test_the_split_is_decided_at_every_run_of_a_cached_plan():
    """Join keys made unique send the plan cached over six keys to the
    join path, with no new translation."""
    db = build()
    stats = db.services.stats
    check(db, stats, ROLLUP[0], True)
    db.execute("UPDATE f SET k = id")
    delta = check(db, stats, ROLLUP[0], False)
    assert delta.get("plan_cache.translations", 0) == 0


def test_an_empty_from_relation_stays_on_the_join_path():
    db = Database(page_size=1024)
    db.create_table("f", FACT)
    db.create_table("d", DIM).insert_many(DIM_ROWS)
    check(db, db.services.stats, ROLLUP[0], False)


def test_snapshot_reader_beside_an_uncommitted_writer():
    db = build("heap", 4)
    reader, writer, other = db.connect(), db.connect(), db.connect()
    reader.begin(snapshot=True)
    with other.transaction():
        other.execute("UPDATE d SET g = 'g2' WHERE did = 1")
        other.execute("UPDATE f SET v = 40 WHERE id < 30")
    writer.begin()
    writer.execute("UPDATE f SET k = 2, v = 9 WHERE id >= 60")
    writer.execute("DELETE FROM d WHERE did = 4")
    writer.execute("INSERT INTO d VALUES (8, 3, 'g1', 9, 0.5)")
    stats = db.services.stats
    for statement in ROLLUP:
        check(reader, stats, statement, True)
    for statement, reference_statement in STAYS:
        check(reader, stats, statement, False, reference_statement)
    reader.commit()
    writer.rollback()


@pytest.mark.parametrize("method", ["index_nl", "join_index"])
def test_keyed_join_methods_never_split(method):
    db = build()
    db.create_index("d_k", "d", ["k"], kind="hash_index")
    db.create_attachment("f", "join_index", "f_d_ji",
                         {"other": "d", "column": "k", "other_column": "k"})
    stats = db.services.stats
    counter = {"index_nl": "executor.index_nl_joins",
               "join_index": "executor.join_index_joins"}[method]
    for statement in ROLLUP[:2]:
        before = stats.snapshot()
        with db.autocommit() as ctx:
            plan = plan_select(ctx, parse_statement(statement), statement)
            plan.join.method = method
            plan.join.join_index_instance = "f_d_ji"
            rows = db.query_engine.executor.run_select(ctx, plan, PARAMS)
        delta = stats.delta(before)
        assert delta.get(counter) == 1
        assert delta.get("executor.rollups", 0) == 0
        assert repr(rows) == repr(reference.run(db, statement, PARAMS))


@pytest.mark.parametrize("unique", [True, False])
def test_statistics_decide_the_split(unique):
    """A join column as distinct as the rows keeps the join path; the
    same relation over few keys splits."""
    db = Database(page_size=1024)
    db.create_table("f", FACT)
    db.create_attachment("f", "statistics", "f_stats")
    db.table("f").insert_many(
        [(i, i if unique else i % 4, i, None, None, None) for i in range(80)])
    db.create_table("d", DIM).insert_many(DIM_ROWS)
    check(db, db.services.stats, ROLLUP[0], not unique)


def test_rollup_leaves_the_locks_the_join_path_leaves():
    # Under the 64 record locks that escalate: one key, in two groups.
    db = build("heap", 5, n=60, keys=(2,))
    stats = db.services.stats
    for statement in ROLLUP[:4]:
        before = stats.get("executor.rollups")
        rolled, rolled_locks = join_path(db, statement, refuse=False)
        assert stats.get("executor.rollups") == before + 1
        joined, joined_locks = join_path(db, statement)
        assert repr(rolled) == repr(joined)
        assert rolled_locks and rolled_locks == joined_locks
