"""Temporary memory storage method (internal identifier 1)."""

import pytest

from repro import Database
from repro.errors import LockConflictError, StorageError


@pytest.fixture
def temp_table(db):
    return db.create_table("scratch", [("id", "INT"), ("v", "STRING")],
                           storage_method="memory")


def test_surrogate_integer_keys(temp_table):
    first = temp_table.insert((10, "a"))
    second = temp_table.insert((20, "b"))
    assert second == first + 1
    assert temp_table.fetch(first) == (10, "a")


def test_no_page_io(db, temp_table):
    before = db.services.disk.reads
    temp_table.insert_many([(i, "v") for i in range(100)])
    temp_table.rows()
    assert db.services.disk.reads == before


def test_scan_filter_and_projection(temp_table):
    temp_table.insert_many([(i, f"v{i}") for i in range(10)])
    rows = temp_table.rows(where="id >= 8", fields=["v"])
    assert rows == [("v8",), ("v9",)]


def test_update_and_delete(temp_table):
    key = temp_table.insert((1, "old"))
    temp_table.update(key, {"v": "new"})
    assert temp_table.fetch(key) == (1, "new")
    temp_table.delete(key)
    assert temp_table.fetch(key) is None
    assert temp_table.count() == 0


def test_abort_undoes_changes_like_recoverable_methods(db, temp_table):
    """Temporary relations still coordinate with transaction rollback —
    only *restart* loses them."""
    key = temp_table.insert((1, "keep"))
    db.begin()
    temp_table.insert((2, "gone"))
    temp_table.update(key, {"v": "changed"})
    db.rollback()
    assert temp_table.rows() == [(1, "keep")]


def test_savepoint_rollback(db, temp_table):
    db.begin()
    temp_table.insert((1, "a"))
    db.savepoint("sp")
    temp_table.insert((2, "b"))
    db.rollback_to("sp")
    db.commit()
    assert temp_table.rows() == [(1, "a")]


def test_restart_empties_temporary_relations(db, temp_table):
    temp_table.insert_many([(i, "v") for i in range(5)])
    db.restart()
    assert temp_table.rows() == []
    # The relation itself still exists and is usable.
    temp_table.insert((1, "after"))
    assert temp_table.rows() == [(1, "after")]


def test_attribute_validation(db):
    with pytest.raises(StorageError):
        db.create_table("bad", [("id", "INT")], storage_method="memory",
                        attributes={"initial_capacity": -1})
    with pytest.raises(StorageError):
        db.create_table("bad", [("id", "INT")], storage_method="memory",
                        attributes={"wat": 1})
    db.create_table("ok", [("id", "INT")], storage_method="memory",
                    attributes={"initial_capacity": 64})


def test_delete_under_scan_semantics(db, temp_table):
    keys = [temp_table.insert((i, "v")) for i in range(4)]
    db.begin()
    with db.autocommit() as ctx:
        handle = db.catalog.handle("scratch")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle)
        key0, __ = scan.next()
        db.data.delete(ctx, handle, key0)
        __, record = scan.next()
        assert record[0] == 1
    db.commit()


def test_a_delete_refused_mid_batch_removes_nothing(db, temp_table):
    """A reader holds one row of the batch: the delete must conflict
    before it removes any row, or its rollback has nothing to restore."""
    temp_table.insert_many([(i, "v") for i in range(4)])
    reader, writer = db.connect(), db.connect()
    reader.begin()
    assert reader.execute("SELECT v FROM scratch WHERE id = 3") == [("v",)]
    writer.begin()
    with pytest.raises(LockConflictError):
        writer.execute("DELETE FROM scratch WHERE id >= 0")
    writer.rollback()
    reader.commit()
    assert sorted(temp_table.rows()) == [(i, "v") for i in range(4)]
