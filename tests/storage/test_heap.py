"""Heap storage method: address keys, paging, scans, recovery."""

import pytest

from repro import Database
from repro.errors import QueryError, StorageError
from repro.services.predicate import Predicate
from repro.services.vectors import ColumnBatch
from repro.storage.heap import HeapStorageMethod


@pytest.fixture
def heap_table(db):
    return db.create_table("h", [("id", "INT"), ("payload", "STRING")])


def test_record_keys_are_page_slot_addresses(heap_table):
    key = heap_table.insert((1, "x"))
    page_id, slot = key
    assert isinstance(page_id, int) and isinstance(slot, int)
    assert heap_table.fetch(key) == (1, "x")


def test_insert_spills_to_new_pages(db, heap_table):
    heap_table.insert_many([(i, "p" * 100) for i in range(50)])
    handle = db.catalog.handle("h")
    assert len(handle.descriptor.storage_descriptor["pages"]) > 1
    assert heap_table.count() == 50


def test_fill_hint_reserves_page_space(db):
    """A lower fill target spreads records over more pages, leaving room
    for in-place growth."""
    packed = db.create_table("packed", [("id", "INT"), ("p", "STRING")],
                             attributes={"fill_hint": 1.0})
    loose = db.create_table("loose", [("id", "INT"), ("p", "STRING")],
                            attributes={"fill_hint": 0.5})
    rows = [(i, "x" * 60) for i in range(60)]
    packed.insert_many(rows)
    loose.insert_many(rows)
    packed_pages = len(db.catalog.handle("packed")
                       .descriptor.storage_descriptor["pages"])
    loose_pages = len(db.catalog.handle("loose")
                      .descriptor.storage_descriptor["pages"])
    assert loose_pages > packed_pages
    # The reserved space lets grown records stay at their address key.
    key = loose.scan(where="id = 0")[0][0]
    assert loose.update(key, {"p": "y" * 120}) == key


def test_fetch_unknown_key_returns_none(heap_table):
    assert heap_table.fetch((999, 0)) is None
    heap_table.insert((1, "x"))
    key = heap_table.scan()[0][0]
    assert heap_table.fetch((key[0], 57)) is None


def test_fetch_selected_fields(heap_table):
    key = heap_table.insert((5, "hello"))
    assert heap_table.fetch(key, fields=["payload"]) == ("hello",)


def test_update_in_place_keeps_key(heap_table):
    key = heap_table.insert((1, "short"))
    new_key = heap_table.update(key, {"payload": "tiny"})
    assert new_key == key


def test_update_that_grows_beyond_page_relocates(db):
    table = db.create_table("g", [("id", "INT"), ("payload", "STRING")])
    keys = [table.insert((i, "x" * 300)) for i in range(3)]
    new_key = table.update(keys[0], {"payload": "y" * 900})
    assert table.fetch(new_key)[1] == "y" * 900
    assert table.count() == 3


def test_delete_tombstones_and_scan_skips(heap_table):
    keys = [heap_table.insert((i, "v")) for i in range(5)]
    heap_table.delete(keys[2])
    assert heap_table.count() == 4
    assert sorted(r[0] for r in heap_table.rows()) == [0, 1, 3, 4]


def test_scan_in_physical_order(heap_table):
    for i in range(10):
        heap_table.insert((i, "v"))
    assert [r[0] for r in heap_table.rows()] == list(range(10))


def test_scan_filters_in_buffer_pool(db, heap_table):
    heap_table.insert_many([(i, "v") for i in range(100)])
    before = db.services.stats.get("heap.tuples_scanned")
    rows = heap_table.rows(where="id = 50")
    assert rows == [(50, "v")]
    # Every tuple was examined inside the storage method, not the client.
    assert db.services.stats.get("heap.tuples_scanned") - before == 100


def test_delete_under_scan_leaves_scan_after_item(db, heap_table):
    keys = [heap_table.insert((i, "v")) for i in range(4)]
    db.begin()
    with db.autocommit() as ctx:
        handle = db.catalog.handle("h")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle)
        key0, record0 = scan.next()
        assert record0[0] == 0
        # Delete the record the scan is positioned on.
        db.data.delete(ctx, handle, key0)
        key1, record1 = scan.next()
        assert record1[0] == 1  # "positioned just after the deleted item"
    db.commit()


def test_abort_undoes_inserts_updates_deletes(db, heap_table):
    key_a = heap_table.insert((1, "a"))
    key_b = heap_table.insert((2, "b"))
    db.begin()
    heap_table.insert((3, "c"))
    heap_table.update(key_a, {"payload": "changed"})
    heap_table.delete(key_b)
    db.rollback()
    assert sorted(heap_table.rows()) == [(1, "a"), (2, "b")]


def test_ntuples_statistic_tracks_rollbacks(db, heap_table):
    heap_table.insert((1, "a"))
    db.begin()
    for i in range(10):
        heap_table.insert((i + 10, "x"))
    db.rollback()
    handle = db.catalog.handle("h")
    assert handle.descriptor.storage_descriptor["ntuples"] == 1


def test_new_page_allocation_undone_on_abort(db):
    table = db.create_table("t", [("id", "INT"), ("p", "STRING")])
    handle = db.catalog.handle("t")
    db.begin()
    table.insert_many([(i, "x" * 200) for i in range(20)])
    assert len(handle.descriptor.storage_descriptor["pages"]) > 1
    db.rollback()
    assert handle.descriptor.storage_descriptor["pages"] == []


def test_crash_recovery_committed_survives_loser_rolled_back(db):
    table = db.create_table("t", [("id", "INT"), ("p", "STRING")])
    table.insert_many([(i, "keep") for i in range(30)])
    db.begin()
    table.insert((100, "loser"))
    db.services.wal.flush()  # loser hits the stable log without committing
    summary = db.restart()
    assert summary["losers"]
    assert sorted(r[0] for r in table.rows()) == list(range(30))


def test_crash_before_any_flush_recovers_to_last_commit(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert((1,))
    db.services.checkpoint()
    table.insert((2,))   # committed, log flushed at commit
    db.begin()
    table.insert((3,))   # never flushed, never committed
    db.restart()
    assert sorted(r[0] for r in table.rows()) == [1, 2]


def test_restart_counts_again_when_the_crash_lost_an_insert(db, heap_table):
    for i in range(20):
        heap_table.insert((i, "keep"))
    db.begin()
    heap_table.insert((100, "lost"))  # never flushed
    db.restart()
    assert len(heap_table.rows()) == 20 and heap_table.count() == 20


def test_restart_counts_only_a_count_it_cannot_trust(db, heap_table,
                                                      monkeypatch):
    """Pages are walked for a count that reflects a change past the
    stable log, or one restart undid — not for every relation."""
    walked = []
    monkeypatch.setattr(HeapStorageMethod, "_derive",
                        lambda method, ctx, handle: walked.append(handle.name))
    heap_table.insert_many([(i, "keep") for i in range(20)])
    db.restart()
    assert walked == []
    db.begin()
    heap_table.insert((100, "loser"))
    db.services.wal.flush()
    db.restart()
    assert walked == ["h"]


def test_repeated_crashes_are_idempotent(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(10)])
    db.restart()
    db.restart()
    assert sorted(r[0] for r in table.rows()) == list(range(10))


class CountingPages(list):
    """A page list that counts how many of its elements anyone walks over
    (membership tests, iteration, ``set(...)``, ``index``, ``count``)."""

    walked = 0

    def __iter__(self):
        for page_id in super().__iter__():
            type(self).walked += 1
            yield page_id

    def __contains__(self, page_id):
        type(self).walked += len(self)  # a list membership test is a walk
        return super().__contains__(page_id)


def test_point_fetch_cost_is_independent_of_table_size(db, heap_table):
    """``fetch`` and ``fetch_many`` of a record the relation owns must not
    walk the relation's page list: on a 2 000-page table that walk was
    most of a point fetch."""
    keys = heap_table.insert_many([(i, "p" * 100) for i in range(40)])
    handle = db.catalog.handle("h")
    descriptor = handle.descriptor.storage_descriptor
    own = descriptor["pages"]
    # Stand-ins for a big table: 2 000 page ids of no existing page, ahead
    # of and behind the real ones.
    pages = descriptor["pages"] = CountingPages(
        list(range(10_000, 11_000)) + own + list(range(11_000, 12_000)))
    def fetch_many(wanted):
        with db.autocommit() as ctx:
            return db.data.fetch_many(ctx, handle, wanted)
    assert heap_table.fetch(keys[0]) == (0, "p" * 100)  # learns the list
    CountingPages.walked = 0
    for key in keys:
        assert heap_table.fetch(key)[0] == keys.index(key)
    assert [r[0] for __, r in fetch_many(keys)] == list(range(40))
    assert fetch_many(keys[7:8]) == [(keys[7], (7, "p" * 100))]
    assert CountingPages.walked == 0
    # A page of some other relation is still refused, and a page the list
    # gained or lost since is noticed (the index is a hint, never trusted).
    other = db.create_table("o", [("id", "INT")]).insert((1,))
    assert heap_table.fetch(other) is None
    assert fetch_many([other, keys[3]]) == [(keys[3], (3, "p" * 100))]
    moved = pages.pop(pages.index(keys[0][0]))
    assert heap_table.fetch(keys[0]) is None
    pages.insert(0, moved)
    assert heap_table.fetch(keys[0]) == (0, "p" * 100)
    descriptor["pages"] = own
    assert heap_table.fetch(keys[5]) == (5, "p" * 100)


# ---------------------------------------------------------------------------
# A page whose allocation record was lost in a crash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("indexed", [False, True],
                         ids=["bare heap", "B-tree indexed"])
def test_insert_after_a_crash_that_lost_a_page_allocation(indexed):
    """A loser's ``new_page`` record was never forced, so restart neither
    redoes nor undoes it — but the (non-volatile) page list keeps the page,
    all zeros on the device.  The next insert picks it as the last page:
    it used to write the record at offset 0, over the header."""
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT"), ("name", "STRING")])
    if indexed:
        db.create_index("t_id", "t", ["id"])
    for i in range(10):
        table.insert((i, f"n{i}"))
    db.checkpoint()
    descriptor = db.catalog.handle("t").descriptor.storage_descriptor
    pages_before = len(descriptor["pages"])
    loser = db.connect()
    loser.begin()
    row_id = 100
    while len(descriptor["pages"]) == pages_before:
        loser.table("t").insert((row_id, "x" * 20))
        row_id += 1
    db.restart()
    assert len(descriptor["pages"]) == pages_before + 1  # the orphan stays
    committed = [(i, f"n{i}") for i in range(10)]
    assert sorted(table.rows()) == committed
    key = table.insert((1000, "after"))
    assert key[0] == descriptor["pages"][-1]
    assert table.fetch(key) == (1000, "after")
    assert sorted(table.rows()) == committed + [(1000, "after")]
    # ... survives a second restart, which is byte-identical to a third.
    device = db.services.disk
    db.restart()
    assert sorted(table.rows()) == committed + [(1000, "after")]
    db.services.buffer.flush_all()
    first = [(pid, device.read(pid)) for pid in descriptor["pages"]]
    db.restart()
    db.services.buffer.flush_all()
    assert [(pid, device.read(pid)) for pid in descriptor["pages"]] == first
    assert sorted(table.rows()) == committed + [(1000, "after")]
    if indexed:
        att = db.registry.attachment_type_by_name("btree_index")
        from repro import AccessPath
        assert table.fetch((1000,), access_path=AccessPath(
            att.type_id, "t_id")) == [key]


# ---------------------------------------------------------------------------
# A slot is locked before it holds bytes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [
    [(100, "b")],
    # Slot 1 is free for good, slot 2 is reserved: the second row of the
    # batch is the one that would take it.
    [(100, "b"), (101, "c"), (102, "d")],
], ids=["one row", "second row of three"])
def test_insert_into_a_slot_an_uncommitted_delete_still_holds(batch):
    from repro.errors import LockConflictError
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT"), ("name", "STRING")])
    keys = table.insert_many([(i, f"n{i}") for i in range(5)])
    if len(batch) > 1:
        table.delete(keys[1])
    committed = sorted(table.rows())
    deleter, inserter = db.connect(), db.connect()
    deleter.begin()
    deleter.table("t").delete(keys[2])
    inserter.begin()
    try:
        inserter.table("t").insert_many(batch)
    except LockConflictError as conflict:
        assert "(0, 2)" in str(conflict)   # the reserved slot, never written
    inserter.rollback()
    # Whatever became of the insert, the deleter can still roll back into
    # its slot, and the relation is the committed state.
    deleter.rollback()
    assert sorted(table.rows()) == committed
    assert table.fetch(keys[2]) == (2, "n2")
    assert db.catalog.handle("t").descriptor.storage_descriptor[
        "ntuples"] == len(committed)


# ---------------------------------------------------------------------------
# What a load costs per row
# ---------------------------------------------------------------------------

def test_bulk_load_decodes_a_bounded_number_of_headers_per_row(
        header_decodes):
    """Loading 8 000 rows used to decode 69.6 page headers a row (the
    free-slot search walked the slot directory through the header)."""
    db = Database()
    table = db.create_table("employee", [
        ("id", "INT"), ("name", "STRING"), ("dept", "STRING"),
        ("salary", "FLOAT"), ("active", "BOOL")])
    rows = [(i, f"employee-{i:05d}", f"dept-{i % 20}", 1000.0 + i, i % 3 == 0)
            for i in range(8000)]
    header_decodes.decodes = 0
    for start in range(0, len(rows), 1000):
        table.insert_many(rows[start:start + 1000])
    assert header_decodes.decodes <= 6 * len(rows)
    per_row = header_decodes.decodes / len(rows)
    assert per_row < 0.5, per_row  # a few per *page*, in fact
    # ... and one row at a time, whatever its page already holds.
    header_decodes.decodes = 0
    for i in range(8000, 8200):
        table.insert((i, f"employee-{i:05d}", "dept-0", 1.0, True))
    assert header_decodes.decodes <= 6 * 200


# ---------------------------------------------------------------------------
# One batch body: next(), the batch's pairs and the batch's columns agree
# ---------------------------------------------------------------------------

_WIDE = [("id", "INT"), ("name", "STRING"), ("score", "FLOAT"),
         ("flag", "BOOL")]


@pytest.fixture
def wide(db):
    """120 rows over several 1 KB pages, NULLs and tombstones included."""
    table = db.create_table("w", _WIDE)
    table.insert_many([
        (i, None if i % 11 == 0 else f"name-{i:03d}",
         None if i % 7 == 0 else i * 1.5, i % 3 == 0) for i in range(120)])
    table.delete_where("id >= 30 AND id < 45 OR id = 0 OR id = 119")
    assert len(db.catalog.handle("w").descriptor
               .storage_descriptor["pages"]) > 3
    return table


def _open(db, ctx, fields, where):
    handle = db.catalog.handle("w")
    predicate = None if where is None \
        else Predicate.parse(where, handle.schema)
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    return method.open_scan(ctx, handle, fields, predicate)


@pytest.mark.parametrize("where", [None, "score > 20.0 AND id < 100"])
@pytest.mark.parametrize("fields", [None, (3, 1), (2,), ()], ids=[
    "whole", "subset", "predicate-only-field", "nothing"])
def test_batch_pairs_and_columns_agree_with_next(db, wide, fields, where):
    stats = db.services.stats
    with db.autocommit() as ctx:
        before = stats.get("heap.tuples_scanned")
        scan = _open(db, ctx, fields, where)
        expected = []
        while (item := scan.next()) is not None:
            expected.append(item)
        one_at_a_time = stats.get("heap.tuples_scanned") - before
        assert expected and len(expected) < 120
        layout = range(len(_WIDE)) if fields is None else fields
        whole = dict(wide.scan(where=where))
        assert expected == [(key, tuple(whole[key][f] for f in layout))
                            for key in whole]

        # 7 rows a call: every batch fills in the middle of a page.
        scan = _open(db, ctx, fields, where)
        got, calls = [], 0
        while True:
            saved = scan.save_position()
            batch = scan.next_batch(7)
            calls += 1
            if calls == 3:
                # Back to the batch boundary: the same batch comes again.
                scan.restore_position(saved)
                assert scan.next_batch(7) == batch
            if not batch:
                break
            assert isinstance(batch, ColumnBatch) and len(batch) <= 7
            pairs = list(batch)
            assert batch.keys == [key for key, __ in pairs]
            assert batch == pairs and batch[0] == pairs[0]
            for position, field in enumerate(layout):
                assert list(batch.column(field)) == [
                    record[position] for __, record in pairs]
            for field in set(range(len(_WIDE))) - set(layout):
                with pytest.raises(QueryError, match=f"field {field} "):
                    batch.column(field)
            if fields is None:
                assert batch.rows() == [record for __, record in pairs]
            got.extend(pairs)
        assert got == expected
        assert scan.next() is None and not scan.next_batch(1)

        # A clean drain examines what the tuple-at-a-time drain examined.
        before = stats.get("heap.tuples_scanned")
        scan = _open(db, ctx, fields, where)
        while scan.next_batch(7):
            pass
        assert stats.get("heap.tuples_scanned") - before == one_at_a_time


def test_batch_decodes_no_row_when_columns_are_asked_for(db, wide,
                                                        monkeypatch):
    """``fields`` given: the row decoder is never called; whole records:
    it is called for the selected records only."""
    schema = db.catalog.handle("w").schema
    calls = []
    decode = schema.decoder
    monkeypatch.setitem(schema.__dict__, "decoder",
                        lambda buf, off=0: calls.append(off) or decode(buf,
                                                                       off))
    with db.autocommit() as ctx:
        batch = _open(db, ctx, (0, 1), "score > 100.0").next_batch(500)
        assert len(batch) and not calls
        batch = _open(db, ctx, None, "score > 100.0").next_batch(500)
        assert len(calls) == len(batch) < 60


def test_restart_after_a_rollback_gave_pages_back_and_lost_its_clrs():
    """A partial rollback undoes a loser's inserts and gives the pages it
    had allocated back to the device; the crash comes before the CLRs are
    forced, so restart undoes the same records again — the ones on pages
    that are gone have nothing left to undo (restart used to fail with
    ``StalePageError``; found by the crash-at-every-boundary driver)."""
    db = Database(page_size=512, buffer_capacity=8)
    table = db.create_table("t", [("id", "INT"), ("k", "INT")])
    table.insert_many([(i, i) for i in range(10)])
    pages = list(db.catalog.handle("t").descriptor.storage_descriptor["pages"])
    db.begin()
    table.insert_many([(100 + i, i) for i in range(5)])
    db.savepoint("sp")
    table.insert_many([(200 + i, i) for i in range(80)])
    db.services.wal.flush()   # the inserts are stable ...
    db.rollback_to("sp")      # ... their CLRs are not
    assert db.catalog.handle("t").descriptor.storage_descriptor["pages"] \
        == pages
    db.restart()
    assert sorted(table.rows()) == [(i, i) for i in range(10)]
    table.insert((300, 0))
    assert len(table.rows()) == 11
