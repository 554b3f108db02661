"""Set-at-a-time read path: ``next_batch``/``fetch_many`` agree with the
tuple-at-a-time operations, and the paper's scan-position rules (savepoint
restore, delete-at-position) hold across batch boundaries."""

import pytest

from repro import AccessPath, Box, Database
from repro.errors import ScanError


def drain_next(scan):
    out = []
    while True:
        item = scan.next()
        if item is None:
            return out
        out.append(item)


def drain_batches(scan, n):
    out = []
    while True:
        batch = scan.next_batch(n)
        if not batch:
            return out
        out.extend(batch)


def views(items):
    """Index scans pair record keys with RecordViews (no ``__eq__``);
    compare them by content."""
    return [(key, repr(view)) for key, view in items]


def storage_scan(db, name, ctx, fields=None, predicate=None):
    handle = db.catalog.handle(name)
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    return method.open_scan(ctx, handle, fields, predicate)


def make_table(db, storage):
    """A 40-row relation on the requested storage method."""
    rows = [(i, f"name_{i}") for i in range(40)]
    if storage == "readonly":
        table = db.create_table("t", [("id", "INT"), ("name", "STRING")],
                                storage_method="readonly")
        handle = db.catalog.handle("t")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        with db.autocommit() as ctx:
            method.publish(ctx, handle, rows)
        return table
    if storage == "foreign":
        remote = Database(page_size=1024)
        remote.create_table("t", [("id", "INT"), ("name", "STRING")]) \
              .insert_many(rows)
        table = db.create_table("t", [("id", "INT"), ("name", "STRING")],
                                storage_method="foreign",
                                attributes={"database": remote,
                                            "relation": "t"})
        return table
    attrs = {"key": ["id"]} if storage == "btree_file" else None
    table = db.create_table("t", [("id", "INT"), ("name", "STRING")],
                            storage_method=storage, attributes=attrs)
    table.insert_many(rows)
    return table


STORAGES = ["heap", "memory", "btree_file", "readonly", "foreign"]


# ---------------------------------------------------------------------------
# Equivalence: next_batch sees exactly what next sees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("batch_size", [1, 7, 100])
def test_next_batch_matches_next(db, storage, batch_size):
    make_table(db, storage)
    with db.autocommit() as ctx:
        expected = drain_next(storage_scan(db, "t", ctx))
    with db.autocommit() as ctx:
        got = drain_batches(storage_scan(db, "t", ctx), batch_size)
    assert got == expected


@pytest.mark.parametrize("storage", STORAGES)
def test_next_batch_with_predicate_and_projection(db, storage):
    table = make_table(db, storage)
    predicate = table._predicate("id >= 10 AND id < 30", None)
    with db.autocommit() as ctx:
        expected = drain_next(storage_scan(db, "t", ctx, (1,), predicate))
    with db.autocommit() as ctx:
        got = drain_batches(storage_scan(db, "t", ctx, (1,), predicate), 6)
    assert got == expected
    assert [values for __, values in got] \
        == [(f"name_{i}",) for i in range(10, 30)]


def test_next_batch_rejects_non_positive_counts(db, employee):
    with db.autocommit() as ctx:
        scan = storage_scan(db, "employee", ctx)
        with pytest.raises(ScanError):
            scan.next_batch(0)


@pytest.mark.parametrize("index_ddl", [
    "CREATE INDEX t_id ON t (id)",                      # btree_index
    "CREATE INDEX t_id ON t (id) USING hash_index",
])
def test_index_scan_batches_match_next(db, index_ddl):
    make_table(db, "heap")
    db.execute(index_ddl)
    handle = db.catalog.handle("t")
    type_name = "hash_index" if "hash_index" in index_ddl else "btree_index"
    att = db.registry.attachment_type_by_name(type_name)
    field = handle.descriptor.attachment_field(att.type_id)
    instance = att.instance(field, "t_id")
    with db.autocommit() as ctx:
        expected = drain_next(att.open_scan(ctx, handle, instance))
    with db.autocommit() as ctx:
        got = drain_batches(att.open_scan(ctx, handle, instance), 7)
    assert views(got) == views(expected)
    assert len(got) == 40


def test_rtree_scan_batches_match_next(db):
    table = db.create_table("t", [("id", "INT"), ("region", "BOX")])
    table.insert_many([(i, Box(i, i, i + 2, i + 2)) for i in range(30)])
    db.create_attachment("t", "rtree", "t_rt", {"column": "region"})
    handle = db.catalog.handle("t")
    att = db.registry.attachment_type_by_name("rtree")
    field = handle.descriptor.attachment_field(att.type_id)
    instance = att.instance(field, "t_rt")
    route = ("rtree_search", "overlaps", Box(0, 0, 100, 100))
    with db.autocommit() as ctx:
        expected = drain_next(att.open_scan(ctx, handle, instance,
                                            route=route))
    with db.autocommit() as ctx:
        got = drain_batches(att.open_scan(ctx, handle, instance,
                                          route=route), 4)
    assert views(got) == views(expected)
    assert len(got) == 30


# ---------------------------------------------------------------------------
# fetch_many
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("storage", STORAGES)
def test_fetch_many_matches_fetch(db, storage):
    make_table(db, storage)
    handle = db.catalog.handle("t")
    with db.autocommit() as ctx:
        keys = [key for key, __ in drain_batches(
            storage_scan(db, "t", ctx), 16)]
    # Reverse the keys: pairs must come back in *input* order.
    probe = list(reversed(keys))
    with db.autocommit() as ctx:
        pairs = db.data.fetch_many(ctx, handle, probe)
        expected = [(key, db.data.fetch(ctx, handle, key)) for key in probe]
    assert pairs == expected


def test_fetch_many_omits_missing_and_filtered(db, employee):
    handle = db.catalog.handle("employee")
    predicate = employee._predicate("dept = 'eng'", None)
    with db.autocommit() as ctx:
        keys = [key for key, __ in drain_batches(
            storage_scan(db, "employee", ctx), 16)]
        missing = (keys[-1][0] + 1000, 0)  # a page the heap never owned
        pairs = db.data.fetch_many(ctx, handle,
                                   [keys[0], missing] + keys[1:],
                                   predicate=predicate)
    assert [values[1] for __, values in pairs] == ["alice", "carol", "erin"]


# ---------------------------------------------------------------------------
# Scan-position semantics across batch boundaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("storage,attrs", [
    ("heap", None),
    ("memory", None),
    ("btree_file", {"key": ["id"]}),
])
def test_savepoint_mid_batch_restores_position(db, storage, attrs):
    """A position captured between batches is restored by partial
    rollback, and the following batch re-covers the rolled-back items."""
    table = db.create_table("s", [("id", "INT")], storage_method=storage,
                            attributes=attrs)
    table.insert_many([(i,) for i in range(8)])
    db.begin()
    with db.autocommit() as ctx:
        handle = db.catalog.handle("s")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle)
        assert [r[0] for __, r in scan.next_batch(3)] == [0, 1, 2]
        db.savepoint("sp")
        assert [r[0] for __, r in scan.next_batch(3)] == [3, 4, 5]
        db.rollback_to("sp")
        # Restored to "on item 2": the next batch starts at item 3 again.
        assert [r[0] for __, r in scan.next_batch(3)] == [3, 4, 5]
        assert [r[0] for __, r in scan.next_batch(3)] == [6, 7]
    db.commit()


@pytest.mark.parametrize("storage,attrs", [
    ("heap", None),
    ("memory", None),
    ("btree_file", {"key": ["id"]}),
])
def test_delete_at_batch_position_leaves_scan_after_item(db, storage, attrs):
    """After a batch the scan is ON its last item; deleting that record
    leaves the scan just after it, so the next batch starts beyond it."""
    table = db.create_table("s", [("id", "INT")], storage_method=storage,
                            attributes=attrs)
    table.insert_many([(i,) for i in range(6)])
    db.begin()
    with db.autocommit() as ctx:
        handle = db.catalog.handle("s")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle)
        batch = scan.next_batch(2)
        assert [r[0] for __, r in batch] == [0, 1]
        db.data.delete(ctx, handle, batch[-1][0])  # delete item 1, the position
        assert [r[0] for __, r in scan.next_batch(2)] == [2, 3]
    db.commit()


def open_hash_scan(db, ctx, buckets=2):
    db.create_attachment("s", "hash_index", "s_hash",
                         {"columns": ["id"], "buckets": buckets})
    att = db.registry.attachment_type_by_name("hash_index")
    handle = db.catalog.handle("s")
    instance = att.instance(handle.descriptor.attachment_field(att.type_id),
                            "s_hash")
    return att.open_scan(ctx, handle, instance), instance


def ids(batch):
    return [view[0] for __, view in batch]


@pytest.mark.parametrize("batch_size", [1, 5, 64])
def test_hash_scan_resumes_across_splits(db, batch_size):
    """Buckets split — the directory doubles, more than once — between
    two ``next_batch`` calls: every entry that was there when the scan
    opened still comes exactly once, whichever side of a split it went."""
    table = db.create_table("s", [("id", "INT")])
    table.insert_many([(i,) for i in range(60)])
    db.begin()
    with db.autocommit() as ctx:
        scan, instance = open_hash_scan(db, ctx)
        seen = ids(scan.next_batch(20))
        slots, splits = len(instance["buckets"]), \
            db.services.stats.get("hash_index.splits")
        table.insert_many([(i,) for i in range(1000, 1400)])
        assert len(instance["buckets"]) >= 4 * slots
        assert db.services.stats.get("hash_index.splits") > splits + 4
        seen += ids(drain_batches(scan, batch_size))
        assert scan.next_batch(1) == [] and scan.next() is None
    db.commit()
    old = [i for i in seen if i < 1000]
    assert sorted(old) == list(range(60))
    assert len(seen) == len(set(seen))  # what came of the new ones, once


def test_hash_scan_position_restored_after_a_split(db):
    """A position saved at a savepoint, a split, a rollback that undoes
    the inserts and leaves the split: the restored position goes on where
    the savepoint was — nothing skipped, nothing repeated — although the
    entries it lay between have moved to other pages."""
    table = db.create_table("s", [("id", "INT")])
    table.insert_many([(i,) for i in range(60)])
    db.begin()
    with db.autocommit() as ctx:
        scan, instance = open_hash_scan(db, ctx)
        first = ids(scan.next_batch(25))
        db.savepoint("sp")
        ahead = ids(scan.next_batch(10))
        slots = len(instance["buckets"])
        table.insert_many([(i,) for i in range(1000, 1400)])
        assert len(instance["buckets"]) > slots
        db.rollback_to("sp")
        assert instance["nentries"] == 60
        assert len(instance["buckets"]) > slots  # a split is not undone
        rest = ids(drain_batches(scan, 7))
        assert rest[:10] == ahead
        assert sorted(first + rest) == list(range(60))
    db.commit()


def test_hash_scan_goes_on_after_its_position_is_deleted(db):
    """Deleting the entry the scan is on, its whole bucket, or a chain
    page under it leaves the scan just after where it was."""
    table = db.create_table("s", [("id", "INT"), ("k", "INT")])
    table.insert_many([(i, i % 3) for i in range(300)])
    db.create_attachment("s", "hash_index", "s_k", {"columns": ["k"]})
    att = db.registry.attachment_type_by_name("hash_index")
    handle = db.catalog.handle("s")
    instance = att.instance(handle.descriptor.attachment_field(att.type_id),
                            "s_k")
    assert len(instance["pages"]) > len(instance["buckets"])  # chains
    db.begin()
    with db.autocommit() as ctx:
        scan = att.open_scan(ctx, handle, instance)
        seen = [key for key, __ in scan.next_batch(140)]
        doomed = seen[20:] + [key for key, __ in table.scan()
                              if key not in seen][::2]
        pages = len(instance["pages"])
        table.delete_many(doomed)
        assert len(instance["pages"]) < pages  # chain pages went back
        rest = [key for key, __ in drain_batches(scan, 9)]
    db.commit()
    assert not set(rest) & set(seen) and not set(rest) & set(doomed)
    assert sorted(seen[:20] + rest) == sorted(key for key, __ in table.scan())


def test_scans_closed_at_txn_end_reject_next_batch(db, employee):
    db.begin()
    with db.autocommit() as ctx:
        scan = storage_scan(db, "employee", ctx)
        scan.next_batch(2)
    db.commit()
    assert scan.closed
    with pytest.raises(ScanError):
        scan.next_batch(2)


# ---------------------------------------------------------------------------
# Executor: LIMIT short-circuit and top-k
# ---------------------------------------------------------------------------

def test_limit_short_circuit_stops_pulling_batches(db):
    table = db.create_table("big", [("id", "INT"), ("pad", "STRING")])
    table.insert_many([(i, "x" * 40) for i in range(2000)])
    stats = db.services.stats
    before = stats.snapshot()
    rows = db.execute("SELECT id FROM big LIMIT 10")
    assert rows == [(i,) for i in range(10)]
    delta = stats.delta(before)
    assert delta.get("executor.limit_short_circuits", 0) == 1
    # LIMIT 10 pulled one small batch, not the 2000-row relation.
    assert delta.get("heap.tuples_scanned", 0) <= 64


def test_order_by_limit_uses_bounded_heap(db):
    table = db.create_table("big", [("id", "INT"), ("score", "FLOAT")])
    table.insert_many([(i, float((i * 7919) % 1000)) for i in range(500)])
    stats = db.services.stats
    before = stats.snapshot()
    rows = db.execute("SELECT id, score FROM big ORDER BY score DESC, id "
                      "LIMIT 5")
    delta = stats.delta(before)
    assert delta.get("executor.topk", 0) == 1
    assert delta.get("executor.sorts", 0) == 0
    expected = sorted(table.rows(), key=lambda r: (-r[1], r[0]))[:5]
    assert rows == expected


def test_top_k_matches_full_sort_results(db):
    table = db.create_table("big", [("id", "INT"), ("score", "FLOAT")])
    table.insert_many([(i, float(i % 7)) for i in range(100)])
    limited = db.execute("SELECT id FROM big ORDER BY score LIMIT 20")
    full = db.execute("SELECT id FROM big ORDER BY score")
    assert limited == full[:20]


def test_predicate_compiled_once_per_plan(db, employee):
    stats = db.services.stats
    db.execute("SELECT name FROM employee WHERE salary > 90000")
    before = stats.snapshot()
    db.execute("SELECT name FROM employee WHERE salary > 90000")
    db.execute("SELECT name FROM employee WHERE salary > 90000")
    delta = stats.delta(before)
    assert delta.get("executor.predicate_compilations", 0) == 0
    assert delta.get("executor.predicate_cache_hits", 0) >= 2


def test_parameterised_executions_share_compiled_predicate(db, employee):
    stats = db.services.stats
    query = "SELECT name FROM employee WHERE dept = :d"
    assert db.execute(query, {"d": "sales"}) == [("bob",)]
    before = stats.snapshot()
    assert db.execute(query, {"d": "finance"}) == [("dave",)]
    delta = stats.delta(before)
    assert delta.get("executor.predicate_compilations", 0) == 0


# ---------------------------------------------------------------------------
# The batch schedule is a counter contract: the page-at-a-time leaf must
# examine, pin and deliver exactly what the per-slot loop did
# ---------------------------------------------------------------------------

#: ``buffer.pins`` of one full scan, measured before the scan leaf became
#: page-at-a-time (PR 14's parent), per predicate and batch size.
PARENT_PINS = {
    "heap": {None: {1: 273, 7: 47, 64: 14, 1000: 10},
             "n = 3": {1: 62, 7: 17, 64: 10, 1000: 10},
             "id >= 40 AND id < 200": {1: 147, 7: 29, 64: 12, 1000: 10}},
    "btree_file": {None: {1: 263, 7: 45, 64: 14, 1000: 10},
                   "n = 3": {1: 60, 7: 17, 64: 10, 1000: 10},
                   "id >= 40 AND id < 200": {1: 142, 7: 28, 64: 12,
                                             1000: 10}},
    "memory": {None: {}, "n = 3": {}, "id >= 40 AND id < 200": {}},
}


def holey_table(db, storage):
    """300 rows, then tombstones on every page and a few reused slots."""
    attrs = {"key": ["id"]} if storage == "btree_file" else None
    table = db.create_table(
        "t", [("id", "INT"), ("name", "STRING"), ("n", "INT")],
        storage_method=storage, attributes=attrs)
    keys = table.insert_many([(i, f"name_{i}", i % 5) for i in range(300)])
    table.delete_many(keys[10:300:7])
    table.insert_many([(1000 + i, "again", 9) for i in range(5)])
    return table


@pytest.mark.parametrize("storage", sorted(PARENT_PINS))
@pytest.mark.parametrize("where", [None, "n = 3", "id >= 40 AND id < 200"])
def test_batch_schedule_counters_are_unchanged(storage, where):
    db = Database(page_size=1024, buffer_capacity=128)
    table = holey_table(db, storage)
    predicate = table._predicate(where, None) if where else None
    with db.autocommit() as ctx:
        expected = drain_next(storage_scan(db, "t", ctx, (0,), predicate))
    stats = db.services.stats
    for size in (1, 7, 64, 1000):
        before = stats.snapshot()
        with db.autocommit() as ctx:
            got = drain_batches(
                storage_scan(db, "t", ctx, (0,), predicate), size)
        delta = stats.delta(before)
        assert got == expected                       # same rows, same order
        assert delta[f"{storage}.tuples_scanned"] == 263
        assert delta.get("buffer.pins") == PARENT_PINS[storage][where].get(size)


@pytest.mark.parametrize("storage", sorted(PARENT_PINS))
def test_executor_batch_schedule_is_unchanged(storage):
    db = Database(page_size=1024, buffer_capacity=128)
    holey_table(db, storage)
    stats = db.services.stats
    for sql, batches in [("SELECT id FROM t WHERE n = 3", 3),
                         ("SELECT n, COUNT(*) FROM t GROUP BY n", 2),
                         ("SELECT id FROM t ORDER BY id DESC LIMIT 5", 5)]:
        before = stats.snapshot()
        db.execute(sql)
        delta = stats.delta(before)
        assert delta["executor.scan_batches"] == batches
        assert delta[f"{storage}.tuples_scanned"] == 263
