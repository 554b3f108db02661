"""NaN as a join key and as a GROUP BY key, route by route.

A join treats NaN as equal to nothing, as filters and index keys do;
GROUP BY puts every NaN in one group, as it does every NULL.  A dict finds
a key by identity before equality, and ``memory`` keeps the float objects
it was given where a heap decodes a new one per record, so every route
runs on both, over rows that share one NaN object.
"""

from __future__ import annotations

import math

import pytest

from repro import Database
from repro.errors import StorageError
from repro.query import fragments
from repro.query.backends import PythonBackend
from repro.query.parser import parse_statement
from repro.query.planner import plan_select

NAN = math.nan  # one object, shared by every NaN row
ROWS = [(1, NAN), (2, NAN), (3, 1.0), (4, NAN)]
SELF_JOIN = "SELECT a.id, b.id FROM t a JOIN t b ON a.f = b.f"
#: The counter each join source bumps once per execution.
RAN = {"hash": "executor.columnar.ir.join.hash",
       "merge": "executor.columnar.ir.join.merge",
       "index_nl": "executor.index_nl_joins",
       "join_index": "executor.join_index_joins"}


def build(storage: str, rows=ROWS, **attributes) -> Database:
    db = Database(page_size=1024)
    db.create_table("t", [("id", "INT"), ("f", "FLOAT")],
                    storage_method=storage,
                    attributes=attributes or None).insert_many(rows)
    return db


def run(db, statement, method=None, instance=None):
    """``statement``'s rows, sorted, with its join method forced to
    ``method`` (or as planned), and the join source that ran."""
    before = db.services.stats.snapshot()
    with db.autocommit() as ctx:
        plan = plan_select(ctx, parse_statement(statement), statement)
        if method is not None:
            plan.join.method = method
            plan.join.join_index_instance = instance
        rows = db.query_engine.executor.run_select(ctx, plan, None)
    delta = db.services.stats.delta(before)
    return sorted(rows), [source for source, name in RAN.items()
                          if delta.get(name)]


@pytest.mark.parametrize("storage", ["heap", "memory"])
@pytest.mark.parametrize("method, index", [("hash", None),
                                           ("index_nl", "btree_index"),
                                           ("index_nl", "hash_index")])
def test_a_nan_key_joins_nothing(storage, method, index):
    db = build(storage)
    if index is not None:
        db.create_attachment("t", index, "t_f", {"columns": ["f"]})
    assert run(db, SELF_JOIN, method) == ([(3, 3)], [method])


@pytest.mark.parametrize("storage", ["heap", "memory"])
def test_a_nan_key_joins_nothing_through_a_join_index(storage):
    """Pairs built over stored rows, then kept as rows arrive."""
    db = build(storage)
    other = db.create_table("u", [("g", "FLOAT")], storage_method=storage)
    other.insert_many([(NAN,), (1.0,)])
    db.create_attachment("t", "join_index", "t_u",
                         {"other": "u", "column": "f", "other_column": "g"})
    statement = "SELECT a.id, b.g FROM t a JOIN u b ON a.f = b.g"
    assert run(db, statement, "join_index", "t_u") \
        == ([(3, 1.0)], ["join_index"])
    db.table("t").insert((5, NAN))
    other.insert((NAN,))
    assert run(db, statement, "join_index", "t_u") \
        == ([(3, 1.0)], ["join_index"])


def test_a_nan_key_joins_nothing_in_a_merge_join():
    """Only key-ordered routes merge: two btree_file relations keyed on
    the join column (heap and memory deliver no order).  A btree_file
    refuses a NaN key field, as it refuses NULL, so no NaN reaches the
    merge from storage; given one in its key vectors, it passes over it."""
    db = build("btree_file", [(3, 1.0), (5, 2.0)], key=["f", "id"])
    u = db.create_table("u", [("f", "FLOAT"), ("id", "INT")],
                        storage_method="btree_file",
                        attributes={"key": ["f", "id"]})
    u.insert_many([(1.0, 3), (2.0, 5)])
    with pytest.raises(StorageError, match="NaN"):
        u.insert_many([(NAN, 1), (NAN, 4)])
    assert run(db, "SELECT a.id, b.id FROM t a JOIN u b ON a.f = b.f") \
        == ([(3, 3), (5, 5)], ["merge"])
    assert PythonBackend().merge_pairs([NAN, NAN, 1.0, 2.0],
                                       [1.0, NAN, 2.0, NAN]) \
        == ([2, 3], [0, 2])


@pytest.mark.parametrize("storage, attributes", [
    ("heap", {}), ("memory", {}), ("sharded", {"shards": 3})])
def test_every_nan_is_one_group(storage, attributes):
    """On a sharded relation each shard's partial groups merge at the
    coordinator, so its NaN groups must merge there too."""
    rows = [(i, NAN if i % 3 == 0 else float(i % 2)) for i in range(12)]
    db = build(storage, rows, **attributes)
    pushed = db.services.stats.get("sharded.pushdown.queries")
    assert repr(db.execute("SELECT f, COUNT(*), MIN(id) FROM t GROUP BY f")) \
        == "[(0.0, 4, 2), (1.0, 4, 1), (nan, 4, 0)]"
    assert db.services.stats.get("sharded.pushdown.queries") - pushed \
        == int(storage == "sharded")


@pytest.mark.parametrize("storage", ["heap", "memory"])
def test_a_nan_key_joins_nothing_in_a_rollup(storage, monkeypatch):
    """The roll-up groups the FROM relation by its join key, so its NaN
    partial group must meet no JOIN-relation row."""
    monkeypatch.setattr(fragments, "ROLLUP_ROWS_PER_KEY", 0)
    db = build(storage)
    db.create_table("d", [("z", "FLOAT"), ("g", "STRING")],
                    storage_method=storage).insert_many(
        [(NAN, "nan"), (1.0, "one")])
    before = db.services.stats.get("executor.rollups")
    assert db.execute("SELECT d.g, COUNT(*) FROM t JOIN d ON t.f = d.z "
                      "GROUP BY g") == [("one", 1)]
    assert db.services.stats.get("executor.rollups") == before + 1
