"""SQL DDL over extension-specific objects (BOX columns, rtree/hash
indexes, alternative storage methods)."""

import pytest

from repro import Box, Database


def test_create_table_using_memory(db):
    db.execute("CREATE TABLE scratch (id INT) USING memory")
    entry = db.catalog.entry("scratch")
    assert entry.storage_method_name == "memory"
    db.execute("INSERT INTO scratch VALUES (1)")
    db.restart()
    assert db.execute("SELECT COUNT(*) FROM scratch") == [(0,)]


def test_create_rtree_index_via_sql(db):
    db.execute("CREATE TABLE parcels (id INT, region BOX)")
    db.execute("CREATE INDEX parcels_rtree ON parcels (region) USING rtree")
    db.table("parcels").insert_many(
        [(1, Box(0, 0, 1, 1)), (2, Box(10, 10, 11, 11))]
        + [(i, Box(i * 20.0, 0, i * 20.0 + 1, 1)) for i in range(3, 100)])
    rows = db.execute("SELECT id FROM parcels WHERE region ENCLOSED_BY "
                      "box(-1, -1, 2, 2)")
    assert rows == [(1,)]
    plan = db.explain("SELECT id FROM parcels WHERE region ENCLOSED_BY "
                      "box(-1, -1, 2, 2)")
    assert "rtree" in plan["access"]["route"]


def test_create_hash_index_via_sql(db):
    db.execute("CREATE TABLE t (k STRING, v INT)")
    db.execute("CREATE INDEX t_hash ON t (k) USING hash_index")
    db.execute("INSERT INTO t VALUES ('alpha', 1), ('beta', 2)")
    plan = db.explain("SELECT v FROM t WHERE k = 'alpha'")
    assert "hash_index" in plan["access"]["route"] \
        or "storage scan" in plan["access"]["route"]
    assert db.execute("SELECT v FROM t WHERE k = 'beta'") == [(2,)]


def test_unique_index_via_sql_enforces(db):
    from repro import UniqueViolation
    db.execute("CREATE TABLE t (k INT)")
    db.execute("CREATE UNIQUE INDEX t_k ON t (k)")
    db.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(UniqueViolation):
        db.execute("INSERT INTO t VALUES (1)")


def test_drop_index_then_reuse_name(db):
    db.execute("CREATE TABLE t (k INT)")
    db.execute("CREATE INDEX t_k ON t (k)")
    db.execute("DROP INDEX t_k")
    db.execute("CREATE INDEX t_k ON t (k)")  # name freed


def test_box_values_through_sql_insert(db):
    db.execute("CREATE TABLE sites (id INT, area BOX)")
    db.execute("INSERT INTO sites VALUES (1, box(0, 0, 5, 5))")
    ((box,),) = db.execute("SELECT area FROM sites WHERE id = 1")
    assert box == Box(0, 0, 5, 5)
    rows = db.execute("SELECT id FROM sites WHERE area ENCLOSES "
                      "box(1, 1, 2, 2)")
    assert rows == [(1,)]


def test_unique_index_of_a_kind_that_has_no_unique_rule_is_refused(db):
    """``UNIQUE`` reaches the index type as its ``unique`` attribute: a
    type without one refuses it instead of building a plain index."""
    from repro import UniqueViolation
    from repro.errors import StorageError
    db.execute("CREATE TABLE t (k INT)")
    with pytest.raises(StorageError):
        db.execute("CREATE UNIQUE INDEX t_k ON t (k) USING hash_index")
    db.execute("CREATE UNIQUE INDEX t_k ON t (k) USING btree_index")
    db.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(UniqueViolation):
        db.execute("INSERT INTO t VALUES (1)")
