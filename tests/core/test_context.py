"""Execution context helpers."""

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.errors import RecoveryError
from repro.services.locks import LOCK_ESCALATION_THRESHOLD, LockMode


@pytest.fixture
def ctx(db):
    txn = db.services.transactions.begin()
    return ExecutionContext(txn, db.services, db)


def test_passthrough_properties(db, ctx):
    assert ctx.txn_id == ctx.txn.txn_id
    assert ctx.buffer is db.services.buffer
    assert ctx.stats is db.services.stats
    assert ctx.database is db


def test_log_requires_registered_resource(ctx):
    with pytest.raises(RecoveryError):
        ctx.log("no.such.resource", {})
    record = ctx.log("storage.heap", {"op": "insert", "relation_id": 0,
                                      "page": 0, "slot": 0, "new_raw": b""})
    assert record.txn_id == ctx.txn_id


def test_lock_record_takes_intent_lock_on_relation(db, ctx):
    ctx.lock_record(7, "key", LockMode.X)
    locks = db.services.locks
    assert locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.IX
    assert locks.held_mode(ctx.txn_id, ("rec", 7, "key")) is LockMode.X


def test_lock_record_shared_takes_is(db, ctx):
    ctx.lock_record(7, "key", LockMode.S)
    locks = db.services.locks
    assert locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.IS


def test_lock_records_is_lock_record_for_each_key(db, ctx):
    locks = db.services.locks
    ctx.lock_records(7, ["k1", "k2"], LockMode.X)
    assert locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.IX
    ctx.lock_records(8, ["k1", "k2"], LockMode.S)
    assert locks.held_mode(ctx.txn_id, ("rel", 8)) is LockMode.IS
    assert locks.locks_held(ctx.txn_id) == {
        ("rel", 7), ("rec", 7, "k1"), ("rec", 7, "k2"),
        ("rel", 8), ("rec", 8, "k1"), ("rec", 8, "k2")}
    ctx.lock_records(9, [], LockMode.S)             # nothing to lock
    assert locks.held_mode(ctx.txn_id, ("rel", 9)) is None


def test_lock_records_escalates_reads_at_the_threshold(db, ctx):
    locks, stats = db.services.locks, db.services.stats
    ctx.lock_records(7, list(range(LOCK_ESCALATION_THRESHOLD - 1)),
                     LockMode.S)
    ctx.lock_records(7, [0, 1, 2], LockMode.S)      # held already: not counted
    assert locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.IS
    ctx.lock_records(7, ["one more"], LockMode.S)
    assert locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.S
    assert stats.get("locks.read_escalations") == 1
    held = len(locks.locks_held(ctx.txn_id))
    calls = stats.get("locks.acquire_calls")
    ctx.lock_records(7, ["covered", "now"], LockMode.S)
    assert len(locks.locks_held(ctx.txn_id)) == held
    assert stats.get("locks.acquire_calls") == calls
    # Another relation has its own count; X batches never escalate here
    # (dispatch escalates writes before the storage method runs).
    ctx.lock_records(8, list(range(200)), LockMode.X)
    assert locks.held_mode(ctx.txn_id, ("rel", 8)) is LockMode.IX
    assert stats.get("locks.read_escalations") == 1


def test_lock_records_asks_only_for_keys_not_held(db, ctx):
    locks, stats = db.services.locks, db.services.stats
    ctx.lock_records(7, ["k1", "k2"], LockMode.X)
    ctx.lock_records(7, ["k3"], LockMode.S)
    calls = stats.get("locks.acquire_calls")
    ctx.lock_records(7, ["k1", "k2", "k3"], LockMode.S)  # all held
    assert stats.get("locks.acquire_calls") == calls
    ctx.lock_records(7, ["k3", "k4"], LockMode.S)        # k4: IX has IS
    assert stats.get("locks.acquire_calls") == calls + 1
    assert locks.held_mode(ctx.txn_id, ("rec", 7, "k1")) is LockMode.X
    assert ctx.txn.record_reads[7] == 2


def test_lock_records_under_six_asks_for_no_intent(db, ctx):
    locks, stats = db.services.locks, db.services.stats
    ctx.lock_relation(7, LockMode.SIX)
    calls = stats.get("locks.acquire_calls")
    ctx.lock_records(7, ["k1"], LockMode.X)    # records only: SIX has IX
    assert stats.get("locks.acquire_calls") == calls + 1
    ctx.lock_records(7, ["k2"], LockMode.S)    # SIX covers S reads
    assert stats.get("locks.acquire_calls") == calls + 1
    assert locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.SIX
    assert locks.held_mode(ctx.txn_id, ("rec", 7, "k1")) is LockMode.X


def test_lock_records_under_a_snapshot_takes_nothing(db):
    session = db.connect()
    ctx = ExecutionContext(session.begin(snapshot=True), db.services, db)
    before = db.services.stats.snapshot()
    ctx.lock_records(7, list(range(100)), LockMode.S)
    delta = db.services.stats.delta(before)
    # What one lock_record per key would have bypassed: intent + record.
    assert delta == {"mvcc.lock_bypasses": 200}
    assert db.services.locks.locks_held(ctx.txn_id) == frozenset()
    session.commit()


def test_single_fetches_count_toward_read_escalation(db, ctx):
    table = db.create_table("t", [("v", "INT")])
    keys = table.insert_many([(i,) for i in range(LOCK_ESCALATION_THRESHOLD)])
    relation = ("rel", table.handle.relation_id)
    locks, stats = db.services.locks, db.services.stats
    for key in keys[:-1]:
        db.data.fetch(ctx, table.handle, key)
    assert locks.held_mode(ctx.txn_id, relation) is LockMode.IS
    db.data.fetch(ctx, table.handle, keys[-1])      # the threshold-th read
    assert locks.held_mode(ctx.txn_id, relation) is LockMode.S
    assert stats.get("locks.read_escalations") == 1
    assert ctx.txn.record_reads[table.handle.relation_id] == len(keys)


def test_a_fetched_key_is_not_locked_again(db, ctx, monkeypatch):
    table = db.create_table("t", [("v", "INT")])
    key, = table.insert_many([(1,)])
    locks, stats = db.services.locks, db.services.stats
    granted = []
    grant = locks._grant
    monkeypatch.setattr(locks, "_grant", lambda txn_id, resource, *args:
                        granted.append(resource) or grant(txn_id, resource,
                                                          *args))
    calls = []
    for __ in range(2):
        before = stats.get("locks.acquire_calls")
        assert db.data.fetch(ctx, table.handle, key) == (1,)
        calls.append(stats.get("locks.acquire_calls") - before)
    assert granted.count(("rec", table.handle.relation_id, key)) == 1
    assert calls[1] == calls[0] - 2     # neither the intent nor the record
    assert ctx.txn.record_reads[table.handle.relation_id] == 1


def test_defer_queues_on_event_service(db, ctx):
    from repro.services import events as ev
    ran = []
    ctx.defer(ev.AT_COMMIT, lambda t, d: ran.append(d), "payload")
    db.services.transactions.commit(ctx.txn)
    assert ran == ["payload"]
