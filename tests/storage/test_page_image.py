"""A resident heap page is decoded once.

The scan leaf keeps what it decodes in the buffer frame's image
(``heap.PageImage``, through ``BufferPool.fetch_image``); the next scan of
the page, while it stays resident, reads it from there.  A page's first
visit since it was installed keeps nothing and decodes what the leaf
always decoded.  A forward update or delete marks the slots it touched on
the image the frame holds, and the next read decodes those slots again
before it serves any; every other write path (insert, undo, redo,
formatting, publishing) drops the image on its dirty unpin.  Either way a
warm scan after any write equals a cold read of the same pages — on heap
and btree_file relations alike.
"""

import random

import pytest

from repro import Database
from repro.core.records import decode_record
from repro.errors import InjectedFault
from repro.services.replication import Standby
from repro.storage.heap import PageImage
from tests.services.test_standby import ship

SCHEMA = [("id", "INT"), ("name", "STRING"), ("score", "FLOAT")]
#: Storage method -> its DDL attributes.
STORAGES = {"heap": None, "btree_file": {"key": ["id"]}}
FIELDS = ["id", "name", "score"]
WHERE = "score >= 0.0"


def build(storage, rows=60):
    db = Database(page_size=512)
    table = db.create_table("emp", SCHEMA, storage_method=storage,
                            attributes=STORAGES[storage])
    table.insert_many([(i, f"n{i:03d}", i * 0.5) for i in range(rows)])
    return db, table


def pages(db, name="emp"):
    return db.catalog.handle(name).descriptor.storage_descriptor["pages"]


def frames(db, name="emp"):
    return [db.services.buffer._frames[page_id] for page_id in pages(db, name)]


def cold(db, name="emp"):
    """The relation's records read off its page bytes, sorted."""
    handle = db.catalog.handle(name)
    found = []
    for page_id in pages(db, name):
        with db.services.buffer.pinned(page_id) as page:
            found += [decode_record(handle.schema, raw)
                      for __, raw in page.records()]
    return sorted(found)


def reads(table):
    """Whole records, and columns through a predicate, both sorted."""
    return (sorted(table.rows()),
            sorted(table.rows(WHERE, FIELDS)))


def warm(db, table, name="emp"):
    """Scan until every page of the relation holds a kept image."""
    reads(table)
    got = reads(table)
    assert all(isinstance(frame.image, PageImage) for frame in
               frames(db, name))
    return got


def check_warm_equals_cold(db, table, name="emp"):
    records = cold(db, name)
    expected = (records, [record for record in records if record[2] >= 0])
    assert reads(table) == expected
    assert reads(table) == expected  # and from the image


def count_page_decodes(monkeypatch, schema):
    """Wrap every page decoder of ``schema``: the offsets each call got."""
    calls = []
    compile_one = schema.page_decoder

    def page_decoder(wanted):
        decode = compile_one(wanted)
        def counted(buf, offsets):
            offsets = list(offsets)
            calls.append(len(offsets))
            return decode(buf, offsets)
        return counted
    monkeypatch.setattr(schema, "page_decoder", page_decoder)
    return calls


# ---------------------------------------------------------------------------
# Decoded once: a warm scan decodes nothing, a first visit what it always did
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_second_scan_of_a_resident_page_decodes_nothing(storage,
                                                          monkeypatch):
    db, table = build(storage)
    schema = db.catalog.handle("emp").schema
    calls = count_page_decodes(monkeypatch, schema)
    rows, decode = [], schema.decoder
    monkeypatch.setitem(schema.__dict__, "decoder", lambda buf, off=0: (
        rows.append(off) or decode(buf, off)))
    first = reads(table)
    assert calls and rows
    del calls[:], rows[:]
    assert reads(table) == first
    assert calls == [] and rows == []


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_scan_from_the_image_pins_locks_and_counts_as_any_other(storage):
    """Images made, then read, then a scan of pages that all miss: the
    pins, lock requests and tuples examined are the same each time."""
    db, table = build(storage)
    stats = db.services.stats
    names = ("buffer.pins", "locks.acquire_calls",
             f"{storage}.tuples_scanned")
    seen = []
    for cold_pool in (False, False, True):
        if cold_pool:
            db.services.buffer.flush_all()
            db.services.buffer._frames.clear()
        before = [stats.get(name) for name in names]
        reads(table)
        seen.append([stats.get(name) - b for name, b in zip(names, before)])
    assert seen[0] == seen[1] == seen[2] and seen[0][0] > 0


def test_a_first_visit_keeps_nothing_and_decodes_the_chosen_rows_only(
        monkeypatch):
    """Every page a miss (the pool is emptied first): a selective scan
    decodes its predicate's field for every slot and its output fields for
    the selected slots only, and no frame keeps an image."""
    db, table = build("heap", rows=200)
    db.services.buffer.flush_all()
    db.services.buffer._frames.clear()
    calls = count_page_decodes(monkeypatch, db.catalog.handle("emp").schema)
    assert len(table.rows("score < 3.0", ["id", "name"])) == 6
    # One call per page for the predicate's field; the output fields of
    # the six chosen rows, which all lie on the first page.
    assert sum(calls) == 200 + 6
    assert all(frame.image is None for frame in frames(db))


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_scan_that_resumes_mid_page_reads_the_image(storage, monkeypatch):
    db, table = build(storage)
    expected = warm(db, table)[0]
    handle = db.catalog.handle("emp")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    calls = count_page_decodes(monkeypatch, handle.schema)
    with db.autocommit() as ctx:
        scan = method.open_scan(ctx, handle, (0, 1, 2), None)
        got = []
        while batch := scan.next_batch(7):
            got += [record for __, record in batch]
    assert sorted(got) == expected and calls == []


@pytest.mark.parametrize("rows", [10, 60], ids=["one-page", "pages"])
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_what_a_scan_returns_does_not_alias_the_image(storage, rows):
    db, table = build(storage, rows)
    expected = warm(db, table)
    handle = db.catalog.handle("emp")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with db.autocommit() as ctx:
        for fields in (None, (0, 2)):
            scan = method.open_scan(ctx, handle, fields, None)
            batch = scan.next_batch(500)
            scan.close()
            ctx.services.scans.unregister(scan)
            if fields is None:
                batch.records()[:] = [(-1, "x", -1.0)] * len(batch)
            for index in fields or ():
                column = batch.column(index)
                column[:] = [None] * len(column)
    assert reads(table) == expected


# ---------------------------------------------------------------------------
# A looping heap scan keeps what it found resident, and nothing else moves
# ---------------------------------------------------------------------------

def small_pool(storage="heap", rows=500, capacity=8, batch=None):
    """``rows`` shuffled records (in ``batch``-sized inserts) in a pool of
    ``capacity`` frames, and a function that scans them all and returns
    the scan's ``(misses, hits)``."""
    db = Database(page_size=512, buffer_capacity=capacity)
    table = db.create_table("emp", SCHEMA, storage_method=storage,
                            attributes=STORAGES[storage])
    ids = list(range(rows))
    random.Random(7).shuffle(ids)
    batch = batch or rows
    for start in range(0, rows, batch):
        table.insert_many([(i, f"n{i:03d}", i * 0.5)
                           for i in ids[start:start + batch]])
    stats = db.services.stats

    def scan():
        before = stats.get("buffer.misses"), stats.get("buffer.hits")
        assert len(table.rows(None, FIELDS)) == rows
        return (stats.get("buffer.misses") - before[0],
                stats.get("buffer.hits") - before[1])
    return db, scan


def test_repeated_scans_of_a_heap_larger_than_the_pool_hit_alike(
        monkeypatch):
    db, scan = small_pool()
    capacity = db.services.buffer.capacity
    assert len(pages(db)) > 3 * capacity
    seen = [scan() for __ in range(6)]
    # At plain LRU a loop over more pages than the pool never hits.
    assert len(set(seen[1:])) == 1 and seen[1][1] >= capacity - 2
    # The pages it finds resident hold their images and decode nothing.
    buffer = db.services.buffer
    kept = sum(isinstance(buffer._frames[page_id].image, PageImage)
               for page_id in pages(db) if page_id in buffer._frames)
    assert kept >= capacity - 2
    calls = count_page_decodes(monkeypatch, db.catalog.handle("emp").schema)
    assert scan() == seen[1] and len(calls) <= sum(seen[1]) - kept


def test_a_page_pinned_by_key_survives_a_scan_of_a_heap_three_times_the_pool():
    db, scan = small_pool()
    buffer = db.services.buffer
    hot = db.create_table("hot", SCHEMA)
    hot.insert((1, "hot", 1.0))
    hot_page = pages(db, "hot")[0]
    with buffer.pinned(hot_page):
        pass
    scan()
    assert hot_page in buffer._frames


def test_a_heap_that_fits_the_pool_is_scanned_into_it_at_plain_lru():
    """The rule is the loop's: a small relation scanned after a loop filled
    the pool still becomes resident."""
    db, scan = small_pool()
    buffer = db.services.buffer
    small = db.create_table("small", SCHEMA)
    small.insert_many([(i, "s", 1.0) for i in range(40)])
    assert 1 < len(pages(db, "small")) < buffer.capacity
    buffer.flush_all()
    buffer._frames.clear()
    scan()
    small.rows()
    assert all(page_id in buffer._frames for page_id in pages(db, "small"))


def test_a_key_order_scan_of_a_btree_file_misses_as_at_plain_lru():
    """The btree_file scan revisits pages as it follows the key directory,
    so its pins stay LRU: the same fault counts as plain LRU (as the
    looping rule it faults a page about fourteen times a scan)."""
    db, scan = small_pool("btree_file", rows=2000, capacity=16, batch=200)
    assert len(pages(db)) == 118
    assert [scan()[0] for __ in range(3)] == [127, 118, 118]


# ---------------------------------------------------------------------------
# An image never outlives a byte change
# ---------------------------------------------------------------------------

def failed_insert(db, table):
    """Inserts whose log append fails at each of its calls: the
    operation's record, then the COMMIT (a commit that fails aborts)."""
    for nth in range(1, 3):
        db.services.faults.arm("wal.append", nth=nth)
        with pytest.raises(InjectedFault):
            table.insert_many([(1000 + nth, "never", 1.0)])
        db.services.faults.disarm()


def relocating_update(db, table):
    stats = db.services.stats
    moved = [stats.get(f"{name}.relocating_updates")
             for name in STORAGES]
    table.update_where("id = 5 OR id = 6", {"name": "r" * 300})
    assert [stats.get(f"{name}.relocating_updates")
            for name in STORAGES] != moved


def rollback(db, table):
    db.begin()
    table.insert_many([(500 + i, "gone", 1.0) for i in range(20)])
    table.delete_where("id < 10")
    table.update_where("id >= 20 AND id < 30", {"name": "undone"})
    db.rollback()


def savepoint_undo(db, table):
    db.begin()
    table.insert((700, "kept", 2.0))
    db.savepoint("sp")
    table.insert_many([(800 + i, "gone", 1.0) for i in range(20)])
    table.delete_where("id >= 40")
    table.update_where("id < 5", {"name": "undone"})
    db.rollback_to("sp")
    db.commit()


WRITES = {
    "insert": lambda db, table: table.insert((100, "new", 3.0)),
    "failed-insert": failed_insert,
    "in-place-update": lambda db, table: table.update_where(
        "id >= 10 AND id < 20", {"score": -1.0}),
    "relocating-update": relocating_update,
    "delete": lambda db, table: table.delete_where("id >= 30 AND id < 45"),
    "rollback": rollback,
    "savepoint-undo": savepoint_undo,
}


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_warm_scan_after_a_write_equals_a_cold_read(storage, write):
    db, table = build(storage)
    before = warm(db, table)
    WRITES[write](db, table)
    check_warm_equals_cold(db, table)
    if write not in ("failed-insert", "rollback"):
        assert reads(table) != before


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_standby_scanned_warm_between_ships_equals_its_pages(storage):
    primary, __ = build(storage, rows=0)
    replica, __ = build(storage, rows=0)
    primary.services.wal.flush()
    replica.services.wal.flush()
    standby = Standby(0, "r0", replica, {}, replica.services.wal.current_lsn)
    table, mirror = primary.table("emp"), replica.table("emp")
    writes = [lambda: table.insert_many([(i, f"n{i}", 1.0)
                                         for i in range(40)]),
              lambda: table.update_where("id < 10", {"name": "x" * 60}),
              lambda: table.delete_where("id >= 20 AND id < 30"),
              lambda: table.insert((99, "late", 2.0))]
    for write in writes:
        if pages(replica):
            warm(replica, mirror)
        write()
        ship(primary, standby)
        check_warm_equals_cold(replica, mirror)
        assert sorted(mirror.rows()) == sorted(table.rows())


def test_a_published_readonly_relation_scanned_warm_equals_a_cold_read(
        monkeypatch):
    db = Database(page_size=512)
    db.create_table("pub", SCHEMA, storage_method="readonly")
    handle = db.catalog.handle("pub")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with db.autocommit() as ctx:
        method.publish(ctx, handle, [(i, f"n{i:03d}", i * 0.5)
                                     for i in range(80)])
    table = db.table("pub")
    assert len(pages(db, "pub")) > 3
    expected = cold(db, "pub")
    assert warm(db, table, "pub") == (expected, expected)  # all score >= 0
    calls = count_page_decodes(monkeypatch, handle.schema)
    check_warm_equals_cold(db, table, "pub")
    assert calls == []


# ---------------------------------------------------------------------------
# A forward rewrite or delete keeps the image: the next read decodes the
# slots it touched, and only those
# ---------------------------------------------------------------------------

NAN = float("nan")


def count_record_decodes(monkeypatch, schema):
    """Wrap ``schema.decoder``: the offset of each whole record decoded."""
    offsets, decode = [], schema.decoder
    monkeypatch.setitem(schema.__dict__, "decoder", lambda buf, off=0: (
        offsets.append(off) or decode(buf, off)))
    return offsets


def shown(rows):
    """Rows as a multiset that NaN does not break."""
    return sorted(map(repr, rows))


#: write -> (the write, the live slots it leaves to decode again).  NULL
#: and NaN are rewritten in place: neither record grows.
TOUCHING = {
    "in-place-update": (lambda table: table.update_where(
        "id >= 10 AND id < 13", {"name": None, "score": NAN}), 3),
    "delete": (lambda table: table.delete_where("id >= 30 AND id < 33"), 0),
}


@pytest.mark.parametrize("write", sorted(TOUCHING))
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_warm_scan_after_a_rewrite_decodes_only_the_touched_slots(
        storage, write, monkeypatch):
    db, table = build(storage)
    warm(db, table)
    images = [frame.image for frame in frames(db)]
    touch, decoded = TOUCHING[write]
    touch(table)
    assert all(frame.image is image
               for frame, image in zip(frames(db), images))
    schema = db.catalog.handle("emp").schema
    calls = count_page_decodes(monkeypatch, schema)
    rows = count_record_decodes(monkeypatch, schema)
    got = reads(table)
    # Each touched slot still live, once, as a whole record: the refresh
    # takes the columns the image holds from it.
    assert calls == [] and len(rows) == decoded
    del calls[:], rows[:]
    assert reads(table) == got and calls == [] and rows == []
    records = cold(db)
    assert shown(got[0]) == shown(records)
    assert shown(got[1]) == shown(
        record for record in records
        if record[2] is not None and record[2] >= 0)
    assert all(not frame.image.stale for frame in frames(db))


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_snapshot_from_before_a_rewrite_scans_warm_and_sees_its_values(
        storage, monkeypatch):
    db, table = build(storage)
    query = "SELECT id, name, score FROM emp"
    before = shown(db.execute(query))
    reader = db.connect()
    reader.begin(snapshot=True)
    assert shown(reader.execute(query)) == before
    warm(db, table)
    # The update's own scan refreshes the slots the delete emptied.
    table.delete_where("id >= 40 AND id < 43")
    table.update_where("id >= 10 AND id < 20", {"name": "u", "score": NAN})
    schema = db.catalog.handle("emp").schema
    calls = count_page_decodes(monkeypatch, schema)
    rows = count_record_decodes(monkeypatch, schema)
    assert shown(reader.execute(query)) == before
    assert calls == [] and len(rows) == 10  # the rewritten records only
    after = shown(db.connect().execute(query))
    assert after == shown(cold(db)) != before
    reader.commit()


# ---------------------------------------------------------------------------
# A seeded mix of writes, each followed by a check against the page bytes
# ---------------------------------------------------------------------------

MIX = [("id", "INT"), ("name", "STRING"), ("score", "FLOAT"),
       ("blob", "BYTES")]


class Mix:
    """A relation written at random, checked against its pages after each
    step."""

    def __init__(self, storage, seed):
        self.storage, self.rng = storage, random.Random(seed)
        self.db = Database(page_size=512)
        self.db.create_table("mix", MIX, storage_method=storage,
                             attributes=STORAGES[storage])
        self.next_id = 0
        self.insert(80)

    @property
    def table(self):
        return self.db.table("mix")

    def value(self):
        rng = self.rng
        return rng.choice([None, NAN, -2.5, 0.0, rng.random() * 10])

    def row(self):
        self.next_id += 1
        return (self.next_id, f"n{self.next_id}", self.value(),
                bytearray(self.rng.randbytes(self.rng.randrange(0, 6))))

    def insert(self, count):
        self.table.insert_many([self.row() for __ in range(count)])

    def ids(self):
        low = self.rng.randrange(self.next_id)
        return f"id >= {low} AND id < {low + self.rng.randrange(1, 8)}"

    def rewrite(self):
        """One in-place, growing or page-moving update, or a delete."""
        rng, table = self.rng, self.table
        kind = rng.choice(["in-place", "in-place", "growing", "moving",
                           "delete"])
        if kind == "in-place":  # NULL, NaN, a float and a shorter BYTES
            table.update_where(self.ids(), {
                "score": self.value(), "name": rng.choice([None, "s"]),
                "blob": bytearray(b"b")})
        elif kind == "growing":
            table.update_where(self.ids(), {
                "name": "g" * rng.randrange(8, 60)})
        elif kind == "moving":
            low = rng.randrange(self.next_id)
            table.update_where(f"id = {low} OR id = {low + 1}",
                               {"name": "m" * 300, "score": NAN})
        else:
            table.delete_where(self.ids())

    def rolled_back(self):
        db = self.db
        db.begin()
        self.rewrite()
        self.insert(self.rng.randrange(1, 4))
        self.rewrite()
        db.rollback()

    def savepoint_undone(self):
        db = self.db
        db.begin()
        self.rewrite()
        db.savepoint("sp")
        self.rewrite()
        self.insert(2)
        self.rewrite()
        db.rollback_to("sp")
        db.commit()

    def restart(self):
        self.db.restart()

    def warm_scan(self):
        self.table.rows()
        self.table.rows("score >= 0.0", ["id", "blob"])

    def in_scan_order(self):
        """``(scan order, record)`` of every record on the pages: a heap
        scan's (page index, slot), a btree_file scan's key."""
        db = self.db
        schema = db.catalog.handle("mix").schema
        found = []
        for index, page_id in enumerate(pages(db, "mix")):
            with db.services.buffer.pinned(page_id) as page:
                for slot, raw in page.records():
                    record = decode_record(schema, raw)
                    found.append(((index, slot) if self.storage == "heap"
                                  else (record[0],), record))
        return sorted(found, key=lambda item: item[0])

    def suspended_scan(self):
        """A scan stopped mid-page, a rewrite in its transaction, then the
        rest of the scan: the records after its position, as written."""
        db = self.db
        handle = db.catalog.handle("mix")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        db.begin()
        with db.autocommit() as ctx:
            scan = method.open_scan(ctx, handle, None, None)
            first = [key for key, __ in scan.next_batch(
                self.rng.randrange(3, 15))]
            self.rewrite()
            rest = db.services.scans.drain(scan)
        last = first[-1]
        if self.storage == "heap":
            last = (pages(db, "mix").index(last[0]), last[1])
        assert [repr(record) for __, record in rest] == [
            repr(record) for order, record in self.in_scan_order()
            if order > last]
        db.commit()

    def check(self):
        records = cold(self.db, "mix")
        table = self.table
        assert shown(table.rows()) == shown(records)
        assert shown(table.rows("score >= 0.0", ["id", "blob"])) == shown(
            (record[0], record[3]) for record in records
            if record[2] is not None and record[2] >= 0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_random_mix_of_writes_and_warm_scans_equals_the_pages(storage,
                                                               seed):
    mix = Mix(storage, seed)
    steps = [mix.rewrite] * 6 + [
        lambda: mix.insert(mix.rng.randrange(1, 6)), mix.rolled_back,
        mix.savepoint_undone, mix.restart, mix.suspended_scan] \
        + [mix.warm_scan] * 3
    mix.warm_scan()
    for __ in range(40):
        mix.rng.choice(steps)()
        mix.check()
    assert any(isinstance(frame.image, PageImage)
               for frame in frames(mix.db, "mix"))
