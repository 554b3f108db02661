"""Snapshot visibility: edge cases of the multi-version read path.

Readers under ``begin(snapshot=True)`` resolve row visibility at the scan
boundary from commit-LSN stamps and WAL/savepoint undo images.  These
tests pin down the corners: a reader spanning a writer's abort, a reader
spanning restart recovery, precomputed-aggregate reads under a stale
snapshot, deletion resurrection, and the no-log/no-lock contract.
"""

import pytest

from repro import Database, ReadOnlyTransactionError, SnapshotError
from repro.core.context import ExecutionContext


def make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table("emp", [("id", "INT", False), ("name", "STRING"),
                            ("salary", "FLOAT")])
    db.table("emp").insert_many([
        (1, "alice", 120000.0), (2, "bob", 95000.0), (3, "carol", 130000.0)])
    return db


def snapshot_rows(session):
    return sorted(session.table("emp").rows())


# ---------------------------------------------------------------------------
# Core visibility
# ---------------------------------------------------------------------------

def test_snapshot_ignores_later_commits_and_new_snapshot_sees_them():
    db = make_db()
    reader, writer = db.connect(), db.connect()
    baseline = snapshot_rows(reader)
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("emp").update_where("id = 1", {"salary": 1.0})
    assert snapshot_rows(reader) == baseline     # commit is after my LSN
    reader.commit()
    reader.begin(snapshot=True)                  # new read point
    assert snapshot_rows(reader)[0][2] == 1.0
    reader.rollback()


def test_reader_spanning_writers_abort_sees_neither_state():
    """An aborted writer's transitions never existed for any snapshot —
    before, during, or after the rollback restores the before-images."""
    db = make_db()
    reader, writer = db.connect(), db.connect()
    baseline = snapshot_rows(reader)
    reader.begin(snapshot=True)
    writer.begin()
    writer.table("emp").update_where("id = 2", {"salary": 0.0})
    assert snapshot_rows(reader) == baseline     # uncommitted: invisible
    writer.rollback()
    assert snapshot_rows(reader) == baseline     # aborted: still invisible
    reader.commit()
    assert sorted(db.table("emp").rows()) == baseline


def test_snapshot_sees_deleted_rows_resurrected():
    db = make_db()
    reader, writer = db.connect(), db.connect()
    baseline = snapshot_rows(reader)
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("emp").delete_where("id >= 2")
    assert len(db.table("emp").rows()) == 1
    assert snapshot_rows(reader) == baseline     # deletions undone for me
    assert reader.table("emp").count("id >= 1") == 3
    reader.commit()


# ---------------------------------------------------------------------------
# Reader spanning restart recovery
# ---------------------------------------------------------------------------

def test_reader_spanning_restart_gets_snapshot_error():
    """Undo images are volatile; restart invalidates every live snapshot
    rather than silently serving a view it can no longer reconstruct."""
    db = make_db()
    reader = db.connect()
    txn = reader.begin(snapshot=True)
    snapshot = txn.snapshot
    db.restart()
    assert snapshot.invalidated
    with pytest.raises(SnapshotError):
        db.services.transactions.snapshot_patch(
            snapshot, db.catalog.handle("emp").relation_id)
    # The session survives and can open a fresh, valid snapshot.
    reader.begin(snapshot=True)
    assert len(snapshot_rows(reader)) == 3
    reader.commit()
    reader.close()


# ---------------------------------------------------------------------------
# Statistics-attachment reads under a stale snapshot
# ---------------------------------------------------------------------------

def test_aggregate_fast_path_bypassed_under_stale_snapshot():
    """Precomputed aggregates track *current* state; a snapshot reader
    must count through the patched scan, not the attachment."""
    db = make_db()
    db.create_attachment("emp", "aggregate", "emp_count",
                         {"function": "count"})
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("emp").insert((4, "dave", 70000.0))
    # Current state (fast path): 4 rows.  Stale snapshot: still 3.
    assert db.execute("SELECT COUNT(*) FROM emp") == [(4,)]
    before = db.services.stats.snapshot()
    assert reader.execute("SELECT COUNT(*) FROM emp") == [(3,)]
    delta = db.services.stats.delta(before)
    assert delta.get("mvcc.fast_path_bypasses", 0) == 1
    # Only a statement the attachment would have answered counts.
    assert sorted(reader.execute("SELECT id FROM emp")) == [(1,), (2,), (3,)]
    assert db.services.stats.delta(before)["mvcc.fast_path_bypasses"] == 1
    reader.commit()


def test_statistics_attachment_reads_do_not_lock_for_snapshot_readers():
    db = make_db()
    db.create_attachment("emp", "statistics", "emp_stats", {})
    reader = db.connect()
    stats = db.services.stats
    reader.begin(snapshot=True)
    before = stats.snapshot()
    reader.table("emp").rows(where="salary > 100000.0")
    delta = stats.delta(before)
    assert stats.session_get(reader.session_id, "locks.acquire_calls") == 0
    assert delta.get("mvcc.lock_bypasses", 0) >= 1
    reader.commit()


# ---------------------------------------------------------------------------
# Read-only contract: no writes, no WAL, no locks
# ---------------------------------------------------------------------------

def test_snapshot_transaction_rejects_writes_and_savepoints():
    db = make_db()
    session = db.connect()
    txn = session.begin(snapshot=True)
    ctx = ExecutionContext(txn, db.services, db)
    handle = db.catalog.handle("emp")
    with pytest.raises(ReadOnlyTransactionError):
        db.data.insert(ctx, handle, (9, "eve", 1.0))
    with pytest.raises(ReadOnlyTransactionError):
        db.services.transactions.savepoint(txn, "sp")
    session.rollback()


def test_snapshot_begin_and_commit_write_no_log_records():
    db = make_db()
    session = db.connect()
    wal = db.services.wal
    lsn_before = wal.current_lsn
    session.begin(snapshot=True)
    snapshot_rows(session)
    session.commit()
    assert wal.current_lsn == lsn_before
    session.begin(snapshot=True)
    session.rollback()
    assert wal.current_lsn == lsn_before
    session.close()


def test_version_store_reclaimed_after_readers_finish():
    db = make_db()
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("emp").update_where("id >= 1", {"salary": 2.0})
    transactions = db.services.transactions
    assert len(transactions.versions) > 0        # pinned by the reader
    reader.commit()
    assert len(transactions.versions) == 0       # nothing needs them now
