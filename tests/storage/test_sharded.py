"""Sharded storage method: routing, fan-out, merge, and the 2PC fault matrix."""

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.core.hashing import shard_of
from repro.errors import GatewayError, StorageError, TransactionError
from repro.services import events as ev
from repro.services.transactions import TxnState

ROWS = [(i, f"n{i}") for i in range(10)]


def make_sharded(shards=2, **attributes):
    db = Database(page_size=1024)
    attrs = {"shards": shards}
    attrs.update(attributes)
    db.create_table("emp", [("id", "INT"), ("name", "STRING")],
                    storage_method="sharded", attributes=attrs)
    return db, db.table("emp")


def children(db, name="emp"):
    descriptor = db.catalog.handle(name).descriptor.storage_descriptor
    return descriptor, descriptor["databases"]


def shard_union(db, name="emp"):
    """Every record on every shard — the ground truth a cross-shard
    transaction must change all-or-nothing."""
    descriptor, dbs = children(db, name)
    rows = []
    for child in dbs:
        rows.extend(tuple(record) for __, record in
                    child.table(descriptor["relation"]).scan())
    return sorted(rows)


def begin_ctx(db):
    txn = db.services.transactions.begin()
    return txn, ExecutionContext(txn, db.services, db)


# -- routing and fan-out -----------------------------------------------------------

def test_hash_routing_matches_stable_hash():
    db, table = make_sharded(shards=4)
    keys = table.insert_many(ROWS)
    for (value, __), key in zip(ROWS, keys):
        assert key[0] == shard_of(value, 4)


def test_every_shard_holds_only_its_records():
    db, table = make_sharded(shards=4)
    table.insert_many(ROWS)
    descriptor, dbs = children(db)
    for index, child in enumerate(dbs):
        for __, record in child.table(descriptor["relation"]).scan():
            assert shard_of(record[0], 4) == index


def test_batch_insert_fans_out_one_message_per_touched_shard():
    db, table = make_sharded(shards=4)
    before = db.services.stats.get("remote.messages")
    table.insert_many(ROWS)
    touched = len({shard_of(v, 4) for v, __ in ROWS})
    # one block-insert per touched shard + 2PC (prepare + commit) each
    assert db.services.stats.get("remote.messages") - before == 3 * touched
    assert db.services.stats.get("sharded.batch_fanout") == touched


def test_per_shard_counters_are_namespaced():
    db, table = make_sharded(shards=2)
    table.insert_many(ROWS)
    total = db.services.stats.get("remote.messages")
    per_shard = (db.services.stats.get("shard.0.remote.messages")
                 + db.services.stats.get("shard.1.remote.messages"))
    assert total == per_shard > 0


def test_range_partitioning_routes_by_bounds():
    db = Database(page_size=1024)
    db.create_table("r", [("k", "INT"), ("v", "STRING")],
                    storage_method="sharded",
                    attributes={"shards": 3, "partition": "range",
                                "bounds": [100, 200]})
    table = db.table("r")
    keys = table.insert_many([(50, "a"), (150, "b"), (250, "c"),
                              (99, "d"), (100, "e"), (200, "f")])
    assert [k[0] for k in keys] == [0, 1, 2, 0, 1, 2]


def test_crud_round_trip_and_migration():
    db, table = make_sharded(shards=4)
    keys = table.insert_many(ROWS)
    assert table.count() == 10
    assert table.fetch(keys[5]) == (5, "n5")
    table.update(keys[5], {"name": "renamed"})
    assert sorted(r for r in shard_union(db)) .count((5, "renamed")) == 1
    # moving the partition key migrates the record to its new shard
    old_shard = keys[3][0]
    new_value = next(v for v in range(100, 200)
                     if shard_of(v, 4) != old_shard)
    table.update(keys[3], {"id": new_value})
    assert db.services.stats.get("sharded.migrations") == 1
    assert (new_value, "n3") in shard_union(db)
    table.delete(keys[6])
    assert table.count() == 9


def test_scan_concatenates_heap_shards_and_merges_btree_shards():
    db, table = make_sharded(shards=3)
    table.insert_many(ROWS)
    assert len(table.scan()) == 10
    assert db.services.stats.get("sharded.merged_scans") == 0
    ordered = Database(page_size=1024)
    ordered.create_table("kv", [("k", "INT"), ("v", "STRING")],
                         storage_method="sharded",
                         attributes={"shards": 3,
                                     "child_storage": "btree_file",
                                     "child_attributes": {"key": ["k"]}})
    values = [731, 17, 502, 88, 256, 913, 64, 401, 5, 620]
    ordered.table("kv").insert_many([(v, f"v{v}") for v in values])
    got = [record[0] for __, record in ordered.table("kv").scan()]
    assert got == sorted(values)
    assert ordered.services.stats.get("sharded.merged_scans") == 1


def test_predicate_pushdown_filters_on_the_shards():
    db, table = make_sharded(shards=2)
    table.insert_many(ROWS)
    rows = table.scan(where="id >= 5")
    assert sorted(record[0] for __, record in rows) == [5, 6, 7, 8, 9]


def test_estimate_cost_aggregates_children():
    db, table = make_sharded(shards=4, latency=0.5)
    table.insert_many(ROWS)
    txn, ctx = begin_ctx(db)
    try:
        cost = db.registry.storage_method(6).estimate_cost(
            ctx, db.catalog.handle("emp"), ())
    finally:
        db.services.transactions.abort(txn)
    assert cost.route == ("sharded_scan", 4)
    assert cost.cpu_tuples == 10
    assert cost.io_pages >= 4 * 0.5


def test_ddl_validation_rejects_bad_attributes():
    db = Database(page_size=1024)
    schema = [("id", "INT"), ("name", "STRING")]
    for attrs in ({}, {"shards": 0}, {"shards": 2, "key": "nope"},
                  {"shards": 2, "partition": "modulo"},
                  {"shards": 3, "partition": "range", "bounds": [1]},
                  {"shards": 2, "partition": "range", "bounds": [9, 1]},
                  {"shards": 2, "bounds": [5]},
                  {"shards": 2, "zorp": 1}):
        with pytest.raises(StorageError):
            db.create_table(f"bad{len(str(attrs))}", schema,
                            storage_method="sharded", attributes=attrs)


# -- transactional behaviour -------------------------------------------------------

def test_abort_rolls_back_every_shard():
    db, table = make_sharded(shards=2)
    table.insert_many(ROWS)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    db.data.insert_batch(ctx, handle, [(100 + i, "x") for i in range(6)])
    db.services.transactions.abort(txn)
    assert shard_union(db) == sorted(ROWS)


def test_savepoint_rollback_mirrors_into_the_shards():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    db.data.insert(ctx, handle, (1, "keep"))
    db.services.transactions.savepoint(txn, "sp")
    db.data.insert_batch(ctx, handle, [(i, "drop") for i in range(2, 8)])
    db.services.transactions.rollback_to(txn, "sp")
    db.services.transactions.commit(txn)
    assert shard_union(db) == [(1, "keep")]


def test_commit_runs_two_phases_and_logs_one_decision():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    db.data.insert_batch(ctx, handle, ROWS)
    db.services.transactions.commit(txn)
    assert db.services.stats.get("txn.2pc.prepared") == 2
    assert db.services.stats.get("txn.2pc.decisions_logged") == 1
    assert db.services.stats.get("txn.2pc.commits_delivered") == 2
    assert shard_union(db) == sorted(ROWS)


def test_snapshot_reader_scans_without_writing():
    db, table = make_sharded(shards=2)
    table.insert_many(ROWS)
    snap = db.services.transactions.begin(snapshot=True)
    ctx = ExecutionContext(snap, db.services, db)
    scan = db.data.open_scan(ctx, db.catalog.handle("emp"), None, None)
    seen = 0
    while scan.next() is not None:
        seen += 1
    db.services.transactions.commit(snap)
    assert seen == 10


# -- the fault matrix (fast 2-shard version; E21 runs the full sweep) --------------

def test_shard_dies_after_prepare_then_resolves_to_commit():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    # Arm the fault from an AT_COMMIT action registered *before* the first
    # write, so it runs after phase 1 but before the delivery to shard 0.
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.0.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, handle, ROWS)
    db.services.transactions.commit(txn)  # local commit survives the loss
    assert db.services.stats.get("sharded.indoubt_children") == 1
    db.services.faults.disarm()
    # The shard heals: re-reading the stable decision commits it.
    assert db.resolve_indoubt() == 1
    assert shard_union(db) == sorted(ROWS)


def test_child_heuristic_abort_reports_commit_mismatch():
    """A shard that drains its limbo (orderly close) after its commit
    decision was lost contradicts the durable COMMIT; redelivery must
    report the mismatch instead of silently resolving nothing."""
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.0.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, handle, ROWS)
    db.services.transactions.commit(txn)  # decision to shard 0 lost
    db.services.faults.disarm()
    __, dbs = children(db)
    # Shard 0 shuts down on its own: its heuristic abort is remembered
    # durably (marked ABORT record) and survives the shard's restart.
    dbs[0].close()
    assert dbs[0].services.stats.get("txn.2pc.heuristic_aborts") == 1
    dbs[0].restart()
    assert db.resolve_indoubt() == 0
    assert db.services.stats.get("txn.2pc.heuristic_mismatches") == 1
    # the damage is real — shard 1 committed, shard 0 rolled back
    assert 0 < len(shard_union(db)) < 10


def test_coordinator_restart_redelivers_the_decision():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, handle, ROWS)
    db.services.transactions.commit(txn)  # every delivery lost
    assert db.services.stats.get("sharded.indoubt_children") == 2
    db.services.faults.disarm()
    summary = db.restart()
    assert summary["indoubt_resolved"] == 2
    assert shard_union(db) == sorted(ROWS)


def test_coordinator_crash_before_commit_presumes_abort():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    db.data.insert_batch(ctx, handle, ROWS)
    # Phase 1 forces the log once (the enlist record); the COMMIT force is
    # the second flush — lose it, as a crash there would.
    db.services.faults.arm("wal.flush", nth=2)
    with pytest.raises(Exception):
        db.services.transactions.commit(txn)
    db.services.faults.disarm()
    db.restart()
    # No stable decision -> both prepared children presumed aborted.
    assert shard_union(db) == []
    assert db.services.stats.get("sharded.presumed_aborts") == 2


def test_live_abort_after_prepare_delivers_the_abort():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    db.data.insert_batch(ctx, handle, ROWS)
    # A commit-time veto *after* phase 1: this deferred action is queued
    # behind the sharded method's phase-1 action (registered at the first
    # write), so both children prepare — and then the local commit aborts.
    def veto(__, ___):
        raise StorageError("constraint veto after phase 1")
    ctx.defer(ev.BEFORE_PREPARE, veto)
    with pytest.raises(StorageError):
        db.services.transactions.commit(txn)
    assert shard_union(db) == []
    __, dbs = children(db)
    for child in dbs:
        assert child.services.transactions.active_transactions() == ()


def prepared_children(db, *names):
    return [txn for name in names for child in children(db, name)[1]
            for txn in child.services.transactions.active_transactions()
            if txn.state is TxnState.PREPARED]


def lose_shard_1_votes(db, ctx):
    """From a BEFORE_PREPARE action: every later message to shard 1 is
    lost, starting with the vote of any relation whose phase 1 runs after
    this action."""
    ctx.defer(ev.BEFORE_PREPARE, lambda __, ___: db.services.faults.arm(
        "shard.1.remote_call", error=GatewayError, nth=1, one_shot=False))


def test_failed_vote_aborts_the_other_voters_and_reraises():
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    lose_shard_1_votes(db, ctx)  # queued before phase 1
    db.data.insert_batch(ctx, db.catalog.handle("emp"), ROWS)
    with pytest.raises(GatewayError):
        db.services.transactions.commit(txn)
    db.services.faults.disarm()
    __, dbs = children(db)
    assert db.services.stats.get("txn.2pc.votes_no") == 1
    # shard 0 voted yes and received the abort; shard 1 never voted
    assert dbs[0].services.stats.get("txn.2pc.aborts_decided") == 1
    for child in dbs:
        assert child.services.transactions.active_transactions() == ()
    assert shard_union(db) == []


def test_failed_vote_cleanup_survives_a_non_gateway_failure(monkeypatch):
    """A cleanup abort that fails with a non-gateway error leaves that
    child in doubt, counted, and never masks the vote failure."""
    db, table = make_sharded(shards=2)
    __, dbs = children(db)

    def underfoot(child_txn):
        raise TransactionError("participant state changed underfoot")
    monkeypatch.setattr(dbs[0].services.transactions, "abort_decided",
                        underfoot)
    txn, ctx = begin_ctx(db)
    lose_shard_1_votes(db, ctx)
    db.data.insert_batch(ctx, db.catalog.handle("emp"), ROWS)
    with pytest.raises(GatewayError):
        db.services.transactions.commit(txn)
    db.services.faults.disarm()
    assert db.services.stats.get("txn.2pc.indoubt") == 1
    assert db.services.stats.get("txn.2pc.cleanup_failures") == 1
    assert len(prepared_children(db, "emp")) == 1
    monkeypatch.undo()
    assert db.resolve_indoubt() == 1  # presumed abort settles it
    assert prepared_children(db, "emp") == []
    assert shard_union(db) == []


def test_lost_abort_decision_is_resent_by_resolution():
    """One transaction writes ``a`` then ``b``; shard 1 dies between their
    phase 1s, so ``a``'s children prepared, ``b``'s vote fails, and the
    abort to ``a``'s shard 1 is lost.  Resolution resends it."""
    db = Database(page_size=1024)
    for name in ("a", "b"):
        db.create_table(name, [("id", "INT"), ("name", "STRING")],
                        storage_method="sharded", attributes={"shards": 2})
    txn, ctx = begin_ctx(db)
    db.data.insert_batch(ctx, db.catalog.handle("a"), ROWS)
    lose_shard_1_votes(db, ctx)  # queued between a's and b's phase 1
    db.data.insert_batch(ctx, db.catalog.handle("b"), ROWS)
    with pytest.raises(GatewayError):
        db.services.transactions.commit(txn)
    assert db.services.stats.get("txn.2pc.indoubt") == 1
    assert len(prepared_children(db, "a", "b")) == 1
    db.services.faults.disarm()
    assert db.resolve_indoubt() == 1
    assert db.services.stats.get("sharded.presumed_aborts") == 1
    assert prepared_children(db, "a", "b") == []
    assert shard_union(db, "a") == shard_union(db, "b") == []
    assert db.table("a").count() == db.table("b").count() == 0


@pytest.mark.parametrize("mode", ["sharp", "fuzzy"])
def test_truncating_checkpoint_keeps_an_undelivered_decision(mode):
    """Truncation never reclaims the decision a prepared child still
    waits for: the checkpoint settles the child first."""
    db, table = make_sharded(shards=2)
    txn, ctx = begin_ctx(db)
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.0.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, db.catalog.handle("emp"), ROWS)
    db.services.transactions.commit(txn)  # the delivery to shard 0 is lost
    db.services.faults.disarm()
    assert len(prepared_children(db, "emp")) == 1
    info = db.checkpoint(mode, truncate=True)
    assert info["truncated"] > 0
    assert prepared_children(db, "emp") == []
    assert shard_union(db) == sorted(ROWS)
    db.restart()
    assert prepared_children(db, "emp") == []
    assert shard_union(db) == sorted(ROWS)


def test_breaker_open_shard_fails_writes_closed_and_degrades_reads():
    db, table = make_sharded(shards=2, degraded_reads=True)
    table.insert_many(ROWS)
    shard0_rows = [(v, "zz") for v in range(100, 400)
                   if shard_of(v, 2) == 0][:4]
    db.services.faults.arm("shard.0.remote_call", error=GatewayError,
                           nth=1, one_shot=False)
    for __ in range(3):  # breaker_threshold exhausted calls
        with pytest.raises(GatewayError):
            table.insert_many(shard0_rows)
    db.services.faults.disarm()
    descriptor, __ = children(db)
    method = db.registry.storage_method(6)
    assert not method._transport(0).available(descriptor["channels"][0])
    # Writes fail closed (fast) and atomically: nothing lands anywhere.
    with pytest.raises(GatewayError):
        table.insert_many(shard0_rows)
    assert shard_union(db) == sorted(ROWS)
    # Reads degrade: the scan sees only the live shard.
    assert len(table.scan()) < 10
    assert db.services.stats.get("remote.degraded_scans") >= 1
    # After the cooldown a half-open probe heals the channel.
    channel = descriptor["channels"][0]
    healed = False
    for __ in range(12):
        try:
            method._transport(0).call(channel, db.services.stats,
                                      lambda: "pong")
            healed = True
            break
        except GatewayError:
            pass
    assert healed
    assert len(table.scan()) == 10
    assert db.services.stats.get("remote.gateway.breaker.closes") == 1


@pytest.mark.parametrize("statement", ["scan", "fragment"])
def test_read_traffic_alone_heals_an_open_breaker(statement):
    """Every read goes through the channel, so a fail-fast read ticks the
    cooldown and the one after it is the half-open probe: a healed shard
    rejoins within ``breaker_cooldown + 1`` statements of either kind."""
    db, table = make_sharded(shards=2, degraded_reads=True, retries=0,
                             breaker_threshold=1, breaker_cooldown=2)
    table.insert_many([(i, f"n{i}") for i in range(20)])

    def read():
        if statement == "scan":
            return len(table.scan())
        return db.execute("SELECT COUNT(*) FROM emp")[0][0]

    db.services.faults.arm("shard.0.remote_call", error=GatewayError,
                           nth=1, one_shot=False)
    partial = read()  # the lost message trips shard 0's breaker
    db.services.faults.disarm()
    assert 0 < partial < 20
    assert [read() for __ in range(3)] == [partial, partial, 20]
    stats = db.services.stats
    assert stats.get("remote.gateway.fail_fast") == 2
    assert stats.get("remote.gateway.half_open_probes") == 1
    assert stats.get("remote.gateway.breaker.closes") == 1
    if statement == "fragment":
        assert stats.get("sharded.pushdown.queries") == 4
        assert stats.get("sharded.pushdown.fallbacks") == 0


def test_a_scan_leaves_no_scan_registered_in_a_child():
    db, table = make_sharded(shards=2)
    table.insert_many(ROWS)
    db.begin()
    for __ in range(5):
        assert len(table.scan()) == 10
    __, dbs = children(db)
    for child in dbs:
        (child_txn,) = child.services.transactions.active_transactions()
        assert child.services.scans.open_scans(child_txn.txn_id) == ()
    db.commit()


def test_reads_fail_closed_without_degraded_opt_in():
    """Without degraded_reads=True a dead shard fails reads loudly rather
    than silently returning a partial answer."""
    db, table = make_sharded(shards=2)
    table.insert_many(ROWS)
    shard0_rows = [(v, "zz") for v in range(100, 400)
                   if shard_of(v, 2) == 0][:4]
    db.services.faults.arm("shard.0.remote_call", error=GatewayError,
                           nth=1, one_shot=False)
    for __ in range(3):  # breaker_threshold exhausted calls
        with pytest.raises(GatewayError):
            table.insert_many(shard0_rows)
    db.services.faults.disarm()
    descriptor, __ = children(db)
    method = db.registry.storage_method(6)
    assert not method._transport(0).available(descriptor["channels"][0])
    with pytest.raises(GatewayError):
        table.scan()
    assert db.services.stats.get("remote.degraded_scans") == 0


def test_degraded_reads_attribute_must_be_bool():
    with pytest.raises(StorageError):
        make_sharded(shards=2, degraded_reads="yes")
