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


@pytest.mark.parametrize("interval", range(2, 9))
def test_savepoint_rollback_beside_a_reader_under_auto_checkpoints(interval):
    """A savepoint marks the end of log, not the writer's last LSN: an
    auto-checkpoint can append between an update's record and the LSN its
    transitions are tagged with.  Marked at the writer's last LSN, the
    rollback would cancel the update made before the savepoint too, and
    the reader would see that uncommitted update."""
    db = make_db(auto_checkpoint_interval=interval)
    reader, writer = db.connect(), db.connect()
    baseline = snapshot_rows(reader)
    reader.begin(snapshot=True)
    writer.begin()
    table = writer.table("emp")
    table.update_where("id = 1", {"salary": 1.0})
    writer.savepoint("sp")
    table.update_where("id = 2", {"salary": 2.0})
    writer.rollback_to("sp")
    assert snapshot_rows(reader) == baseline
    writer.commit()
    assert snapshot_rows(reader) == baseline     # commit is after my LSN
    reader.commit()
    rows = sorted(db.table("emp").rows())
    assert rows[0] == (1, "alice", 1.0) and rows[1:] == baseline[1:]


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


def test_relation_count_under_a_snapshot_counts_the_snapshot():
    """The storage method's record count is current state too."""
    db = Database()
    db.create_table("t", [("id", "INT", False)])
    db.table("t").insert_many([(i,) for i in range(100)])
    reader, writer = db.connect(), db.connect()
    reader.begin(snapshot=True)
    with writer.transaction():
        writer.table("t").delete_where("id < 40")
        writer.table("t").insert((100,))
    assert db.table("t").count() == 61
    assert reader.table("t").count() == 100
    assert len(reader.table("t").rows()) == 100
    assert reader.execute("SELECT COUNT(*) FROM t") == [(100,)]
    assert db.services.stats.session_get(reader.session_id,
                                         "locks.acquire_calls") == 0
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


# ---------------------------------------------------------------------------
# The patch is computed once per snapshot
# ---------------------------------------------------------------------------

class _Walked(list):
    """A relation's transition list that counts the entries a patch
    computation looks at: a full walk reverses it, an extension slices
    its tail."""

    visits = 0

    def __reversed__(self):
        for entry in super().__reversed__():
            self.visits += 1
            yield entry

    def __getitem__(self, index):
        out = super().__getitem__(index)
        if isinstance(index, slice):
            self.visits += len(out)
        return out


def _memo_world():
    """300 rows, a snapshot, and 200 transitions it must not see."""
    db = Database()
    db.create_table("t", [("id", "INT", False), ("v", "INT")])
    db.table("t").insert_many([(i, 0) for i in range(300)])
    db.create_index("t_id", "t", ["id"], unique=True)
    reader, writer = db.connect(), db.connect()
    snapshot = reader.begin(snapshot=True).snapshot
    writer.execute("UPDATE t SET v = 1 WHERE id < 200")
    store = db.services.transactions.versions
    relation_id = db.catalog.handle("t").relation_id
    walked = store._by_relation[relation_id] = _Walked(
        store._by_relation[relation_id])
    assert len(walked) >= 200
    return db, reader, writer, snapshot, store, relation_id, walked


def _six_statements(reader):
    assert reader.execute("SELECT * FROM t WHERE id = 7") == [(7, 0)]
    assert reader.execute("SELECT * FROM t WHERE id = 250") == [(250, 0)]
    assert reader.execute("SELECT SUM(v), COUNT(*) FROM t") == [(0, 300)]
    assert reader.execute(
        "SELECT id FROM t WHERE id >= 190 AND id < 210 AND v = 0 "
        "ORDER BY id") == [(i,) for i in range(190, 210)]
    assert len(reader.table("t").rows(where="v = 0")) == 300
    assert reader.table("t").count() == 300


def test_patch_is_walked_once_per_snapshot_and_extended_by_later_notes():
    db, reader, writer, snapshot, store, relation_id, walked = _memo_world()
    _six_statements(reader)
    # Every transition was looked at once, not once per batch or fetch.
    assert walked.visits == len(walked)
    epoch, consumed, patch = snapshot.patches[relation_id]
    assert consumed == len(walked) and len(patch) == 200
    # Three more: the memo takes them from the tail and stays the memo.
    writer.execute("UPDATE t SET v = 2 WHERE id >= 250 AND id < 253")
    _six_statements(reader)
    assert walked.visits == len(walked)
    assert snapshot.patches[relation_id][2] is patch and len(patch) == 203
    assert snapshot.patches[relation_id][0] == epoch == store.epoch
    # A second transition of a key leaves the first before-image alone.
    writer.execute("UPDATE t SET v = 3 WHERE id = 7")
    _six_statements(reader)
    assert walked.visits == len(walked) and len(patch) == 203
    assert db.services.stats.session_get(reader.session_id,
                                         "locks.acquire_calls") == 0
    reader.commit()


def test_cancel_and_reclaim_make_the_next_read_recompute_the_patch():
    db, reader, writer, snapshot, store, relation_id, walked = _memo_world()
    key_of = {record[0]: key for key, record in db.table("t").scan()}
    _six_statements(reader)
    first = snapshot.patches[relation_id][2]

    # rollback_to: the cancelled transition was the only reason the key
    # of row 260 was patched.
    writer.begin()
    writer.execute("UPDATE t SET v = 5 WHERE id = 255")
    writer.savepoint("sp")
    writer.execute("UPDATE t SET v = 5 WHERE id = 260")
    _six_statements(reader)
    assert snapshot.patches[relation_id][2] is first  # extended, not rebuilt
    assert key_of[255] in first and key_of[260] in first
    epoch, visits = store.epoch, walked.visits
    writer.rollback_to("sp")
    assert store.epoch == epoch + 1
    _six_statements(reader)
    assert walked.visits == visits + len(walked)  # one more full walk
    second = snapshot.patches[relation_id][2]
    assert second is not first
    assert key_of[255] in second and key_of[260] not in second

    # abort: what was left of the writer goes too.
    writer.rollback()
    assert store.epoch == epoch + 2
    _six_statements(reader)
    third = snapshot.patches[relation_id][2]
    assert third is not second and len(third) == 200
    assert key_of[255] not in third

    # A reclaiming commit: another reader ends, and the transitions that
    # every live snapshot sees (the initial inserts) are dropped, which
    # moves every position in the list.
    other = db.connect()
    other.begin(snapshot=True)
    assert other.execute("SELECT * FROM t WHERE id = 7") == [(7, 1)]
    epoch = store.epoch
    other.commit()
    assert store.epoch == epoch + 1
    assert len(store._by_relation[relation_id]) == 200 < len(walked)
    _six_statements(reader)
    memo = snapshot.patches[relation_id]
    assert memo[:2] == (store.epoch, 200)
    assert memo[2] is not third and memo[2] == third
    reader.commit()
    # The memo died with the snapshot, and with it the last need for the
    # transitions.
    assert len(store) == 0
