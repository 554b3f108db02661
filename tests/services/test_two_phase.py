"""Explicit two-phase commit: the participant API and in-doubt restart.

The coordinator side is the sharded storage method
(tests/storage/test_sharded.py)."""

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.core.hashing import shard_of
from repro.errors import (GatewayError, LockError, ReadOnlyTransactionError,
                          TransactionError)
from repro.services import events as ev
from repro.services import wal as wal_records
from repro.services.transactions import TxnState


def make_db():
    db = Database(page_size=1024)
    db.create_table("t", [("k", "INT"), ("v", "STRING")])
    return db


def write_one(db, txn, record=(1, "a")):
    ctx = ExecutionContext(txn, db.services, db)
    return db.data.insert(ctx, db.catalog.handle("t"), record)


# -- participant API ---------------------------------------------------------------

def test_prepare_forces_a_prepare_record_and_enters_prepared():
    db = make_db()
    mgr = db.services.transactions
    txn = mgr.begin()
    write_one(db, txn)
    flushed_before = db.services.wal.flushed_lsn
    mgr.prepare(txn, "g1")
    assert txn.state is TxnState.PREPARED
    assert txn.gtid == "g1"
    assert mgr.find_gtid("g1") is txn
    record = db.services.wal.record(db.services.wal.current_lsn)
    assert record.kind == wal_records.PREPARE
    assert record.payload["gtid"] == "g1"
    # the vote is durable: the log was forced through the PREPARE record
    assert db.services.wal.flushed_lsn > flushed_before
    assert db.services.wal.flushed_lsn >= record.lsn
    mgr.commit_decided(txn)
    assert db.table("t").count() == 1


def test_abort_decided_rolls_a_prepared_participant_back():
    db = make_db()
    mgr = db.services.transactions
    txn = mgr.begin()
    write_one(db, txn)
    mgr.prepare(txn, "g1")
    mgr.abort_decided(txn)
    assert txn.state is TxnState.ABORTED
    assert mgr.find_gtid("g1") is None
    assert db.table("t").count() == 0


def test_decisions_require_a_prepared_transaction():
    db = make_db()
    mgr = db.services.transactions
    txn = mgr.begin()
    write_one(db, txn)
    with pytest.raises(TransactionError):
        mgr.commit_decided(txn)
    with pytest.raises(TransactionError):
        mgr.abort_decided(txn)
    mgr.abort(txn)


def test_snapshot_readers_cannot_prepare():
    db = make_db()
    mgr = db.services.transactions
    snap = mgr.begin(snapshot=True)
    with pytest.raises(ReadOnlyTransactionError):
        mgr.prepare(snap, "g1")
    mgr.commit(snap)


def test_gtid_collision_is_rejected():
    db = make_db()
    mgr = db.services.transactions
    first = mgr.begin()
    write_one(db, first, (1, "a"))
    mgr.prepare(first, "g1")
    second = mgr.begin()
    write_one(db, second, (2, "b"))
    with pytest.raises(TransactionError):
        mgr.prepare(second, "g1")
    mgr.commit_decided(first)
    mgr.abort(second)


# -- restart classification ---------------------------------------------------------

def test_restart_keeps_prepared_transactions_in_doubt():
    db = make_db()
    mgr = db.services.transactions
    txn = mgr.begin()
    write_one(db, txn)
    mgr.prepare(txn, "g-indoubt")
    txn_id = txn.txn_id
    summary = db.restart()
    assert summary["indoubt"] == {txn_id: "g-indoubt"}
    revived = db.services.transactions.find_gtid("g-indoubt")
    assert revived is not None and revived.state is TxnState.PREPARED
    # the in-doubt transaction's effects were redone, not rolled back:
    # a commit decision completes it without replaying anything
    db.services.transactions.commit_decided(revived)
    assert db.table("t").count() == 1


def test_restart_presumes_abort_when_the_vote_never_became_stable():
    db = make_db()
    mgr = db.services.transactions
    txn = mgr.begin()
    write_one(db, txn)
    db.services.wal.flush()  # the writes are stable, the vote will not be
    # stop the PREPARE force from reaching stable storage: the vote is
    # lost with the crash, so restart must roll the transaction back
    db.services.faults.arm("wal.flush", nth=1)
    with pytest.raises(Exception):
        mgr.prepare(txn, "g-lost")
    db.services.faults.disarm()
    db.restart()
    assert db.services.transactions.find_gtid("g-lost") is None
    assert db.table("t").count() == 0


def test_restart_reacquires_indoubt_record_locks():
    """An in-doubt participant must re-hold its X locks after restart:
    without them a new transaction could overwrite its record, and a
    later abort decision would clobber the newer write with the stale
    before-image."""
    db = make_db()
    mgr = db.services.transactions
    setup = mgr.begin()
    key = write_one(db, setup, (1, "a"))
    mgr.commit(setup)
    txn = mgr.begin()
    ctx = ExecutionContext(txn, db.services, db)
    key = db.data.update(ctx, db.catalog.handle("t"), key, (1, "b"))
    mgr.prepare(txn, "g-locked")
    db.restart()
    assert db.services.stats.get("txn.indoubt.locks_reacquired") >= 1
    intruder = db.services.transactions.begin()
    ictx = ExecutionContext(intruder, db.services, db)
    with pytest.raises(LockError):
        db.data.update(ictx, db.catalog.handle("t"), key, (1, "c"))
    db.services.transactions.abort(intruder)
    revived = db.services.transactions.find_gtid("g-locked")
    db.services.transactions.commit_decided(revived)
    # the decision released the locks; the record is writable again
    later = db.services.transactions.begin()
    lctx = ExecutionContext(later, db.services, db)
    db.data.update(lctx, db.catalog.handle("t"), key, (1, "c"))
    db.services.transactions.commit(later)
    assert [r for __, r in db.table("t").scan()] == [(1, "c")]


def test_close_drains_prepared_limbo():
    db = make_db()
    mgr = db.services.transactions
    txn = mgr.begin()
    write_one(db, txn)
    mgr.prepare(txn, "g-limbo")
    db.close()
    assert db.services.stats.get("txn.indoubt.resolved") == 1
    assert txn.state is TxnState.ABORTED



# -- the coordinator (the sharded storage method) over two shards -------------------

def make_sharded():
    db = Database(page_size=1024)
    db.create_table("emp", [("id", "INT"), ("name", "STRING")],
                    storage_method="sharded", attributes={"shards": 2})
    return db, db.catalog.handle("emp").descriptor.storage_descriptor[
        "databases"]


def test_prepare_all_skips_read_only_participants():
    db, dbs = make_sharded()
    table = db.table("emp")
    table.insert_many([(i, f"n{i}") for i in range(10)])
    reader = shard_of((0,), 2)
    new_id = next(i for i in range(100, 200) if shard_of((i,), 2) != reader)
    reader_lsn = dbs[reader].services.wal.current_lsn
    prepared = db.services.stats.get("txn.2pc.prepared")
    db.begin()
    table.insert((new_id, "written"))
    assert table.scan(where="id = 0")[0][1] == (0, "n0")
    db.commit()
    assert db.services.stats.get("txn.2pc.readonly_skips") == 1
    assert db.services.stats.get("txn.2pc.prepared") == prepared + 1
    assert dbs[reader].services.wal.current_lsn == reader_lsn
    assert dbs[reader].services.transactions.active_transactions() == ()


def test_lost_commit_delivery_leaves_the_participant_in_doubt():
    db, dbs = make_sharded()
    txn = db.services.transactions.begin()
    ctx = ExecutionContext(txn, db.services, db)
    # Runs after phase 1 and before delivery: every message to shard 1 is lost.
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.1.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, db.catalog.handle("emp"),
                         [(i, f"n{i}") for i in range(10)])
    db.services.transactions.commit(txn)
    db.services.faults.disarm()
    assert txn.state is TxnState.COMMITTED
    assert db.services.stats.get("txn.2pc.indoubt") == 1
    assert db.services.stats.get("txn.2pc.commits_delivered") == 1
    assert dbs[0].services.transactions.active_transactions() == ()
    (deaf,) = dbs[1].services.transactions.active_transactions()
    assert deaf.state is TxnState.PREPARED
    assert dbs[1].services.transactions.find_gtid(deaf.gtid) is deaf
