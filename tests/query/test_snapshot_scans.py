"""Snapshot scans over every storage method, checked against locking reads.

A snapshot reader's storage scan is the locking reader's scan (with its
projection and predicate) less the keys the relation's rewind patch
names, followed by the patch's images of those keys.  The reference here
is therefore a *locking* read of the same state, taken before the writes
the snapshot must not see — not ``Relation.scan()``, which reads through
the very code under test when the reader is a snapshot.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.context import ExecutionContext

COLUMNS = [("id", "INT", False), ("g", "INT"), ("v", "INT"),
           ("pad", "STRING")]

GROUP = "SELECT g, SUM(v) FROM t WHERE v >= 100 GROUP BY g"
PROJECT = "SELECT id, v FROM t WHERE v >= 100 AND g != 2"
TOP = "SELECT id, g FROM t WHERE v >= 50 ORDER BY v DESC, id LIMIT 7"


def build(method: str, n: int) -> Database:
    db = Database(page_size=1024)
    attributes = {"key": ["id"]} if method == "btree_file" else None
    db.create_table("t", COLUMNS, storage_method=method,
                    attributes=attributes)
    rows = [(i, i % 5, (i * 37) % 300, f"p{i}") for i in range(n)]
    if method == "readonly":
        handle = db.catalog.handle("t")
        with db.autocommit() as ctx:
            db.registry.storage_method(
                handle.descriptor.storage_method_id).publish(ctx, handle, rows)
    else:
        db.table("t").insert_many(rows)
    return db


@pytest.mark.parametrize("method", ["heap", "memory", "btree_file",
                                    "readonly"])
def test_a_projected_filtered_snapshot_read_equals_the_locking_read(method):
    db = build(method, 200)
    before = {sql: db.execute(sql) for sql in (GROUP, PROJECT, TOP)}
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    if method != "readonly":  # a published relation takes no writes
        writer.begin()
        # Into the predicate, out of it, a group moved, rows deleted and
        # one born after the snapshot.
        writer.execute("UPDATE t SET v = v + 150 WHERE id < 40")
        writer.execute("UPDATE t SET v = 0 WHERE id >= 50 AND id < 60")
        writer.execute("UPDATE t SET g = 9 WHERE id >= 60 AND id < 70")
        writer.execute("DELETE FROM t WHERE id >= 150 AND id < 170")
        writer.execute("INSERT INTO t VALUES (500, 1, 299, 'born late')")
        writer.commit()
        assert sorted(db.execute(GROUP)) != sorted(before[GROUP])
    assert sorted(reader.execute(GROUP)) == sorted(before[GROUP])
    assert sorted(reader.execute(PROJECT)) == sorted(before[PROJECT])
    assert reader.execute(TOP) == before[TOP]
    reader.commit()


@pytest.mark.parametrize("method", ["heap", "memory", "btree_file"])
def test_a_snapshot_scan_held_open_across_a_commit_returns_each_row_once(
        method):
    db = build(method, 300)
    expected = sorted(record for __, record in db.table("t").scan())
    reader, writer = db.connect(), db.connect()
    txn = reader.begin(snapshot=True)
    ctx = ExecutionContext(txn, db.services, reader)
    scan = db.data.open_scan(ctx, db.catalog.handle("t"))
    got = [tuple(record) for __, record in scan.next_batch(100)]
    returned = {record[0] for record in got}
    assert 10 in returned and 20 in returned
    assert 250 not in returned and 260 not in returned
    writer.begin()
    writer.execute("UPDATE t SET v = -1 WHERE id = 10")
    writer.execute("UPDATE t SET v = -1, pad = 'a longer pad that moves "
                   "the record' WHERE id = 250")
    writer.execute("DELETE FROM t WHERE id = 20")
    writer.execute("DELETE FROM t WHERE id = 260")
    writer.execute("INSERT INTO t VALUES (1000, 0, 1, 'born late')")
    writer.commit()
    while True:
        batch = scan.next_batch(100)
        if not batch:
            break
        got += [tuple(record) for __, record in batch]
    scan.close()
    reader.commit()
    assert len(got) == len({record[0] for record in got})
    assert sorted(got) == expected


@pytest.mark.parametrize("method", ["heap", "memory", "btree_file"])
def test_a_writer_that_aborts_mid_scan_leaves_each_row_once(method):
    """Keys the scan dropped as patched leave the patch when their
    writer, active at the snapshot, rolls back: their images still come."""
    db = build(method, 300)
    expected = sorted(record for __, record in db.table("t").scan())
    reader, writer = db.connect(), db.connect()
    writer.begin()
    writer.execute("UPDATE t SET v = -1 WHERE id = 10 OR id = 250")
    writer.execute("DELETE FROM t WHERE id = 20 OR id = 260")
    txn = reader.begin(snapshot=True)
    ctx = ExecutionContext(txn, db.services, reader)
    scan = db.data.open_scan(ctx, db.catalog.handle("t"))
    got = [tuple(record) for __, record in scan.next_batch(100)]
    writer.rollback()
    while True:
        batch = scan.next_batch(100)
        if not batch:
            break
        got += [tuple(record) for __, record in batch]
    scan.close()
    reader.commit()
    assert len(got) == len({record[0] for record in got})
    assert sorted(got) == expected


@pytest.mark.parametrize("mid_scan_commit", [False, True],
                         ids=["one-patch-version", "two-versions"])
@pytest.mark.parametrize("method", ["heap", "memory", "btree_file"])
def test_a_snapshot_scan_answers_its_patched_keys_last_in_key_order(
        method, mid_scan_commit):
    """The tail is the images of the patched keys the scan did not return
    as current, in record-key order: under one patch version as the
    patch's images were sorted once, after a commit mid-scan as the items
    the scan gathered, sorted again."""
    db = build(method, 300)
    expected = sorted(record for __, record in db.table("t").scan())
    reader, writer = db.connect(), db.connect()
    txn = reader.begin(snapshot=True)
    ctx = ExecutionContext(txn, db.services, reader)
    writer.begin()
    writer.execute("UPDATE t SET v = -1 WHERE g = 3")
    writer.execute("DELETE FROM t WHERE id >= 100 AND id < 110")
    writer.commit()
    patched = {i for i in range(300) if i % 5 == 3 or 100 <= i < 110}
    scan = db.data.open_scan(ctx, db.catalog.handle("t"))
    pairs = list(scan.next_batch(100))
    if mid_scan_commit:
        writer.begin()
        writer.execute("UPDATE t SET v = -2 WHERE g = 4")
        writer.commit()
        returned = {record[0] for __, record in pairs}
        patched |= {i for i in range(300) if i % 5 == 4} - returned
    while batch := scan.next_batch(100):
        pairs += list(batch)
    scan.close()
    reader.commit()
    assert sorted(tuple(record) for __, record in pairs) == expected
    tail = pairs[-len(patched):]
    assert {record[0] for __, record in tail} == patched
    keys = [key for key, __ in tail]
    assert keys == sorted(keys)
