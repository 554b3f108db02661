"""A set-at-a-time update or delete touches each page once.

Heap and btree_file: the pre-images of an update or delete are read by one
``fetch_many`` (one pin and one lock request per page), an update batch is
written and logged a page at a time (one ``update_multi`` record per
page), and a key repeated in one batch is refused before anything changes.
"""

import pytest

from repro import AccessPath, Database
from repro.core.context import ExecutionContext
from repro.errors import InjectedFault, LockConflictError, PageError, \
    StorageError

STORAGES = {"heap": None, "btree_file": {"key": ["id"]}}


def build(storage):
    db = Database(page_size=512, buffer_capacity=64)
    table = db.create_table("t", [("id", "INT"), ("k", "INT"),
                                  ("s", "STRING")],
                            storage_method=storage,
                            attributes=STORAGES[storage])
    return db, table


def logged(db, since: int):
    """The ``(op, page)`` of every storage record logged after ``since``."""
    return [(record.payload["op"], record.payload["page"])
            for record in db.services.wal.forward(since + 1)
            if (record.resource or "").startswith("storage.")]


# ---------------------------------------------------------------------------
# One update_multi record per page
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_multi_page_update_logs_one_record_per_page(storage):
    db, table = build(storage)
    table.insert_many([(i, i % 10, "v" * 20) for i in range(200)])
    heap_pages = db.catalog.handle("t").descriptor.storage_descriptor["pages"]
    since = db.services.wal.current_lsn
    pins = db.services.stats.get("buffer.pins")
    assert table.update_where("k = 5", {"s": "w" * 20}) == 20
    records = logged(db, since)
    assert {op for op, __ in records} == {"update_multi"}
    touched = [page for __, page in records]
    assert len(touched) == len(set(touched)) >= 3
    # the scan, then one pin per page to read the pre-images, one to write
    assert db.services.stats.get("buffer.pins") - pins \
        == len(heap_pages) + 2 * len(touched)
    expected = sorted((i, i % 10, "w" * 20 if i % 10 == 5 else "v" * 20)
                      for i in range(200))
    assert sorted(table.rows()) == expected
    # the pages never reached the device: restart redoes the batch
    redone = db.services.stats.get("recovery.redo.applied")
    db.restart()
    assert db.services.stats.get("recovery.redo.applied") - redone >= 20
    assert sorted(table.rows()) == expected


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_rolled_back_update_batch_restores_every_page(storage):
    db, table = build(storage)
    table.insert_many([(i, i % 10, "v" * 20) for i in range(200)])
    before = sorted(table.rows())
    db.begin()
    table.update_where("k >= 5", {"s": "grown" * 12})  # some move
    table.update_where("k < 5", {"s": ""})
    db.rollback()
    assert sorted(table.rows()) == before
    assert table.count() == 200


def test_a_record_that_no_longer_fits_leaves_its_room_to_the_next():
    """On a page full to the last byte every record grows by one byte: the
    first no longer fits and moves, and the room it leaves holds the rest
    in place, as one record at a time would.  The page's log says so in
    the order done: the delete, then the rewrites."""
    db = Database(page_size=512)
    table = db.create_table("t", [("id", "INT"), ("s", "STRING")])
    table.insert_many([(i, "x" * 40) for i in range(8)])
    page_id = db.catalog.handle("t").descriptor.storage_descriptor[
        "pages"][0]
    with db.services.buffer.pinned(page_id) as page:
        spare = page.free_space() - len(page.read(0))
    table.insert((8, "x" * (40 + spare)))
    since = db.services.wal.current_lsn
    assert table.update_where("id >= 0", {"s": "y" * 41}) == 9
    assert db.services.stats.get("heap.relocating_updates") == 1
    assert logged(db, since)[:2] == [("delete_multi", page_id),
                                     ("update_multi", page_id)]
    assert sorted(table.rows()) == [(i, "y" * 41) for i in range(9)]
    db.restart()
    assert sorted(table.rows()) == [(i, "y" * 41) for i in range(9)]


@pytest.mark.parametrize("storage", sorted(STORAGES))
@pytest.mark.parametrize("nth", [3, 4])  # the first page's record, the next
def test_an_update_batch_whose_log_append_fails_changes_nothing(storage,
                                                               nth):
    """The page whose record was refused is put back under its pin; the
    pages logged before it are undone by the operation's rollback."""
    db, table = build(storage)
    table.insert_many([(i, i % 10, "v" * 20) for i in range(200)])
    before = sorted(table.rows())
    db.services.faults.arm("wal.append", nth=nth)
    with pytest.raises(InjectedFault):
        table.update_where("k = 5", {"s": "w" * 20})
    db.services.faults.disarm()
    assert sorted(table.rows()) == before and table.count() == 200
    db.restart()
    assert sorted(table.rows()) == before


def test_the_heap_logs_no_single_slot_update(db):
    table = db.create_table("h", [("id", "INT"), ("s", "STRING")])
    key = table.insert((1, "a"))
    since = db.services.wal.current_lsn
    assert table.update(key, {"s": "b"}) == key
    assert logged(db, since) == [("update_multi", key[0])]


def test_rolling_back_a_shrink_on_a_page_filled_to_the_last_byte():
    """Putting the old image back needs only the room it had: the slot
    is the record's own, no new directory entry is reserved for it."""
    db = Database(page_size=512)
    table = db.create_table("t", [("id", "INT"), ("s", "STRING")])
    table.insert_many([(i, "x" * 40) for i in range(8)])
    page_id = db.catalog.handle("t").descriptor.storage_descriptor[
        "pages"][0]
    with db.services.buffer.pinned(page_id) as page:
        spare = page.free_space() - len(page.read(0))
    key = table.insert((8, "x" * (40 + spare)))
    with db.services.buffer.pinned(page_id) as page:
        assert key[0] == page_id and page.free_space() == 0
    db.begin()
    table.update(key, {"s": "y"})
    db.rollback()
    assert table.fetch(key) == (8, "x" * (40 + spare))


# ---------------------------------------------------------------------------
# A key repeated in one batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_repeated_key_in_a_delete_batch_changes_nothing(storage):
    db, table = build(storage)
    keys = table.insert_many([(i, i, "v") for i in range(5)])
    with pytest.raises(StorageError, match="twice"):
        table.delete_many([keys[1], keys[1]])
    assert table.count() == len(table.rows()) == 5


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_repeated_key_in_an_update_batch_changes_nothing(storage):
    db, table = build(storage)
    db.create_index("t_k", "t", ["k"])
    keys = table.insert_many([(i, i, "x") for i in range(5)])
    with pytest.raises(StorageError, match="twice"):
        table.update_many([(keys[1], (1, 10, "x")), (keys[1], (1, 20, "x"))])
    index = AccessPath(db.registry.attachment_type_by_name(
        "btree_index").type_id, "t_k")
    for k in (10, 20):
        assert table.fetch((k,), access_path=index) in (None, [])
    assert table.fetch((1,), access_path=index) == [keys[1]]
    assert sorted(table.rows()) == [(i, i, "x") for i in range(5)]
    db.restart()
    assert table.fetch((1,), access_path=index) == [keys[1]]


def test_a_failed_delete_puts_back_what_it_took_from_the_page(db):
    """Below dispatch's check: a page whose second delete fails keeps its
    first record, as no log record names its removal."""
    table = db.create_table("h", [("id", "INT")])
    key = table.insert((1,))
    handle = db.catalog.handle("h")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with db.autocommit() as ctx:
        with pytest.raises(PageError):
            method.delete_batch(ctx, handle, [(key, (1,)), (key, (1,))])
    assert table.rows() == [(1,)] and table.count() == 1


# ---------------------------------------------------------------------------
# The pre-image read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", ["update", "delete"])
def test_a_pre_image_an_uncommitted_delete_removed_conflicts(db, op):
    table = db.create_table("h", [("id", "INT"), ("s", "STRING")])
    keys = table.insert_many([(1, "a"), (2, "b")])
    handle = db.catalog.handle("h")
    txn_a = db.services.transactions.begin()
    txn_b = db.services.transactions.begin()
    ctx_a = ExecutionContext(txn_a, db.services, db)
    ctx_b = ExecutionContext(txn_b, db.services, db)
    db.data.delete(ctx_a, handle, keys[0])
    with pytest.raises(LockConflictError):
        if op == "update":
            db.data.update(ctx_b, handle, keys[0], (1, "b-version"))
        else:
            db.data.delete(ctx_b, handle, keys[0])
    db.services.transactions.abort(txn_a)
    db.services.transactions.abort(txn_b)
    assert sorted(table.rows()) == [(1, "a"), (2, "b")]


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_missing_key_names_itself(storage):
    db, table = build(storage)
    keys = table.insert_many([(i, i, "v") for i in range(3)])
    table.delete(keys[2])
    with pytest.raises(StorageError, match="no record with key"):
        table.delete_many([keys[0], keys[2]])
    assert table.count() == 2


# ---------------------------------------------------------------------------
# delete_where reads keys only
# ---------------------------------------------------------------------------

def _made(storage):
    db = Database(page_size=1024)
    attributes = {"heap": None, "btree_file": {"key": ["id"]},
                  "memory": None, "sharded": {"shards": 3}}[storage]
    table = db.create_table("t", [("id", "INT"), ("k", "INT")],
                            storage_method=storage, attributes=attributes)
    table.insert_many([(i, i % 7) for i in range(60)])
    return db, table


@pytest.mark.parametrize("storage", ["heap", "btree_file", "memory",
                                     "sharded"])
def test_delete_where_reads_keys_only(storage, monkeypatch):
    db, table = _made(storage)
    asked = []
    open_scan = db.data.open_scan

    def spy(ctx, handle, fields=None, predicate=None, **kwargs):
        asked.append(fields)
        return open_scan(ctx, handle, fields, predicate, **kwargs)

    monkeypatch.setattr(db.data, "open_scan", spy)
    assert table.delete_where("k = 3 OR id >= 50") == 17
    assert asked == [()]
    monkeypatch.undo()
    assert sorted(table.rows()) == [(i, i % 7) for i in range(50)
                                    if i % 7 != 3]
    assert table.count() == 43


@pytest.mark.parametrize("storage", ["heap", "btree_file", "memory",
                                     "sharded"])
def test_sql_delete_reads_keys_only(storage, monkeypatch):
    """The executor opens the storage method's scan itself (a locking
    reader does not go through dispatch), so the spy sits there."""
    db, table = _made(storage)
    method = db.registry.storage_method(
        table.handle.descriptor.storage_method_id)
    asked = []
    open_scan = method.open_scan

    def spy(ctx, handle, fields=None, predicate=None, **kwargs):
        asked.append(fields)
        return open_scan(ctx, handle, fields, predicate, **kwargs)

    monkeypatch.setattr(method, "open_scan", spy)
    assert db.execute("DELETE FROM t WHERE k = 3 OR id >= 50") == 17
    assert asked == [()]
    monkeypatch.undo()
    assert sorted(table.rows()) == [(i, i % 7) for i in range(50)
                                    if i % 7 != 3]
