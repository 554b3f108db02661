"""B-tree-organised storage: field-composed keys, ordered scans."""

import math

import pytest

from repro import Database, UniqueViolation
from repro.errors import InjectedFault, LockConflictError, StorageError


@pytest.fixture
def btab(db):
    # "id" is nullable in the schema so the *storage method's* own
    # null-key rejection is exercised (not the schema NOT NULL check).
    return db.create_table("b", [("id", "INT"), ("v", "STRING")],
                           storage_method="btree_file",
                           attributes={"key": ["id"]})


def test_record_key_composed_from_fields(btab):
    key = btab.insert((42, "x"))
    assert key == (42,)
    assert btab.fetch((42,)) == (42, "x")


def test_duplicate_storage_keys_rejected(btab):
    btab.insert((1, "a"))
    with pytest.raises(UniqueViolation):
        btab.insert((1, "b"))


def test_null_key_fields_rejected(btab):
    with pytest.raises(StorageError):
        btab.insert((None, "x"))


def test_nan_key_fields_rejected_as_null(db):
    """A B-tree key reads NaN as NULL: no shape of NaN key is stored,
    whether the rows hold distinct NaN objects or share one."""
    table = db.create_table("f", [("f", "FLOAT"), ("v", "INT")],
                            storage_method="btree_file",
                            attributes={"key": ["f"]})
    for rows in ([(float("nan"), 1)], [(float("nan"), 2)],
                 [(math.nan, 1), (math.nan, 2)]):
        with pytest.raises(StorageError, match="NaN"):
            table.insert_many(rows)
    with pytest.raises(StorageError, match="NaN"):
        table.insert((math.nan, 3))
    table.insert((1.5, 4))
    with pytest.raises(StorageError, match="NaN"):
        table.update((1.5,), {"f": math.nan})
    assert table.rows() == [(1.5, 4)]
    assert table.fetch((math.nan,)) is None


def test_key_sequential_access_in_key_order(btab):
    for i in (5, 1, 9, 3, 7):
        btab.insert((i, "v"))
    assert [r[0] for r in btab.rows()] == [1, 3, 5, 7, 9]


def test_update_of_non_key_field_keeps_key(btab):
    btab.insert((1, "old"))
    new_key = btab.update((1,), {"v": "new"})
    assert new_key == (1,)
    assert btab.fetch((1,)) == (1, "new")


def test_update_of_key_field_moves_record(btab):
    btab.insert((1, "x"))
    new_key = btab.update((1,), {"id": 99})
    assert new_key == (99,)
    assert btab.fetch((1,)) is None
    assert btab.fetch((99,)) == (99, "x")


def test_update_to_existing_key_rejected_and_rolled_back(db, btab):
    btab.insert((1, "a"))
    btab.insert((2, "b"))
    with pytest.raises(UniqueViolation):
        btab.update((1,), {"id": 2})
    assert btab.fetch((1,)) == (1, "a")
    assert btab.fetch((2,)) == (2, "b")


def test_delete_and_count(btab):
    for i in range(5):
        btab.insert((i, "v"))
    btab.delete((2,))
    assert btab.count() == 4
    assert btab.fetch((2,)) is None


def test_abort_restores_directory(db, btab):
    btab.insert((1, "a"))
    db.begin()
    btab.insert((2, "b"))
    btab.delete((1,))
    db.rollback()
    assert [r[0] for r in btab.rows()] == [1]


def test_multi_column_keys(db):
    table = db.create_table("mc", [("a", "INT"), ("b", "STRING"),
                                   ("v", "FLOAT")],
                            storage_method="btree_file",
                            attributes={"key": ["a", "b"]})
    table.insert((1, "x", 1.0))
    table.insert((1, "y", 2.0))
    assert table.fetch((1, "y")) == (1, "y", 2.0)
    with pytest.raises(UniqueViolation):
        table.insert((1, "x", 3.0))


def test_unorderable_key_column_rejected(db):
    with pytest.raises(StorageError):
        db.create_table("bad", [("region", "BOX")],
                        storage_method="btree_file",
                        attributes={"key": ["region"]})


def test_crash_recovery(db, btab):
    for i in range(20):
        btab.insert((i, "keep"))
    db.begin()
    btab.insert((100, "loser"))
    db.services.wal.flush()
    db.restart()
    assert [r[0] for r in btab.rows()] == list(range(20))
    assert btab.fetch((100,)) is None


def test_range_scan_via_storage_method(db, btab):
    for i in range(10):
        btab.insert((i, "v"))
    with db.autocommit() as ctx:
        handle = db.catalog.handle("b")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle, low=(3,), high=(6,))
        out = []
        while True:
            item = scan.next()
            if item is None:
                break
            out.append(item[1][0])
        scan.close()
    assert out == [3, 4, 5, 6]


def test_planner_prefers_keyed_access_for_key_predicates(db, btab):
    for i in range(200):
        btab.insert((i, "v"))
    plan = db.explain("SELECT * FROM b WHERE id = 7")
    assert "storage scan" in plan["access"]["route"]
    # The storage method itself reports the low keyed cost.
    assert plan["access"]["estimated_io"] < 3


# ---------------------------------------------------------------------------
# The heap's bodies under the directory: what a copy of them used to miss
# ---------------------------------------------------------------------------

def ids(table):
    return [record[0] for record in table.rows()]


def test_failed_log_append_leaves_no_unlogged_record(db, btab):
    for i in range(5):
        btab.insert((i, "v"))
    db.services.faults.arm("wal.append", nth=1)  # the insert's one record
    with pytest.raises(InjectedFault):
        btab.insert((100, "x"))
    db.services.faults.disarm()
    assert ids(btab) == list(range(5)) and btab.count() == 5
    db.restart()
    assert ids(btab) == list(range(5)) and btab.count() == 5


def test_slot_freed_by_an_uncommitted_delete_is_not_reused(db, btab):
    """The deleter still holds the slot, so a concurrent insert conflicts
    instead of taking it from under the deleter's undo."""
    for i in range(6):
        btab.insert((i, "v"))
    deleter = db.connect()
    deleter.begin()
    deleter.table("b").delete((4,))
    with pytest.raises(LockConflictError):
        btab.insert((7, "new"))
    deleter.rollback()
    assert ids(btab) == list(range(6))


def test_a_slot_lock_is_not_a_key_lock(db):
    """Key ``(0, 4)`` is held by a writer while an insert takes the free
    slot 4 of page 0: the two lock names must not be the same."""
    table = db.create_table("b", [("a", "INT"), ("b", "INT")],
                            storage_method="btree_file",
                            attributes={"key": ["a", "b"]})
    table.insert_many([(1, i) for i in range(6)])  # page 0, slots 0-5
    table.insert((0, 4))                           # page 0, slot 6
    table.delete((1, 4))                           # slot 4 is free
    writer = db.connect()
    writer.begin()
    writer.table("b").update((0, 4), {"b": 4})     # X lock on key (0, 4)
    assert table.insert((0, 50)) == (0, 50)
    writer.commit()
    assert db.catalog.handle("b").descriptor.storage_descriptor[
        "directory"][1] == [[0, 50], 0, 4]


def test_fill_hint_is_validated_and_honoured(db):
    with pytest.raises(StorageError):
        db.create_table("bad", [("id", "INT")], storage_method="btree_file",
                        attributes={"key": ["id"], "fill_hint": 7.0})
    rows = [(i, "v" * 10) for i in range(500)]
    pages = {}
    for storage, attributes in (("heap", {}),
                                ("btree_file", {"key": ["id"]})):
        for fill in (0.5, 1.0):
            name = f"{storage}_{int(fill * 10)}"
            db.create_table(name, [("id", "INT"), ("v", "STRING")],
                            storage_method=storage,
                            attributes={**attributes, "fill_hint": fill}
                            ).insert_many(rows)
            pages[name] = len(db.catalog.handle(name).descriptor
                              .storage_descriptor["pages"])
    assert pages["btree_file_5"] == pages["heap_5"] > pages["btree_file_10"]
    assert pages["btree_file_10"] == pages["heap_10"]


# ---------------------------------------------------------------------------
# The directory is derived from the pages, again at restart
# ---------------------------------------------------------------------------

def test_restart_drops_the_entry_of_an_insert_the_crash_lost(db, btab):
    for i in range(20):
        btab.insert((i, "keep"))
    db.begin()
    btab.insert((100, "lost"))  # never flushed
    db.restart()
    assert ids(btab) == list(range(20)) and btab.count() == 20
    assert btab.fetch((100,)) is None


def test_restart_of_a_stable_insert_and_a_lost_delete_of_one_key(db, btab):
    for i in range(20):
        btab.insert((i, "keep"))
    db.begin()
    btab.insert((100, "loser"))
    db.services.wal.flush()
    btab.delete((100,))  # never flushed: restart undoes the insert alone
    db.restart()
    assert ids(btab) == list(range(20)) and btab.count() == 20
    btab.insert((100, "again"))
    assert btab.fetch((100,)) == (100, "again")
