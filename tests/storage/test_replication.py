"""Replication: WAL shipping, durability modes, fencing, and failover."""

import copy

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.core.hashing import shard_of
from repro.core.records import decode_record
from repro.errors import FencingError, GatewayError, StorageError
from repro.services import events as ev
from repro.services.replication import DOWN, HEALTHY, SUSPECT, Standby


def make_replicated(shards=2, replicas=2, mode="quorum", **attributes):
    db = Database(page_size=1024)
    attrs = {"shards": shards, "replicas": replicas, "replication": mode,
             "retries": 1, "breaker_threshold": 1}
    attrs.update(attributes)
    db.create_table("emp", [("id", "INT"), ("name", "STRING")],
                    storage_method="sharded", attributes=attrs)
    return db, db.table("emp")


def replication_of(db, name="emp"):
    descriptor = db.catalog.handle(name).descriptor.storage_descriptor
    return descriptor, descriptor["replication"]


def child_ntuples(database, descriptor):
    handle = database.catalog.handle(descriptor["relation"])
    return handle.descriptor.storage_descriptor["ntuples"]


def derived(database, relation):
    """A copy of what a relation's descriptor derives from its pages: the
    tuple count and, on btree_file, the key directory."""
    descriptor = database.catalog.handle(relation).descriptor \
        .storage_descriptor
    return copy.deepcopy({name: descriptor[name]
                          for name in ("ntuples", "directory")
                          if name in descriptor})


def derived_from_pages(database, relation):
    """The same, read off the relation's pages."""
    handle = database.catalog.handle(relation)
    descriptor = handle.descriptor.storage_descriptor
    entries = []
    for page_id in descriptor["pages"]:
        with database.services.buffer.pinned(page_id) as page:
            for slot, raw in page.records():
                record = decode_record(handle.schema, raw)
                entries.append([[record[i] for i in
                                 descriptor.get("key_fields", ())],
                                page_id, slot])
    found = {"ntuples": len(entries)}
    if "directory" in descriptor:
        found["directory"] = sorted(entries)
    return found


def kill_primary(db, index):
    """Persistently fail every message to shard ``index``'s primary."""
    db.services.faults.arm(f"shard.{index}.primary", error=GatewayError,
                           nth=1, one_shot=False)


def begin_ctx(db):
    txn = db.services.transactions.begin()
    return txn, ExecutionContext(txn, db.services, db)


ROWS = [(i, f"n{i}") for i in range(20)]


# -- shipping and apply ------------------------------------------------------------

def test_committed_writes_ship_to_every_standby(make=make_replicated):
    db, table = make()
    table.insert_many(ROWS)
    table.insert((100, "tail"))
    descriptor, repl = replication_of(db)
    for replica_set in repl.sets:
        primary = descriptor["databases"][replica_set.index]
        want = child_ntuples(primary, descriptor)
        for standby in replica_set.standbys:
            assert standby.acked_lsn == primary.services.wal.flushed_lsn
            assert standby.applied_lsn == standby.received_lsn
            assert child_ntuples(standby.database, descriptor) == want
    assert db.services.stats.get("repl.acks") > 0


def test_standby_apply_stalls_behind_an_in_doubt_transaction(
        make=make_replicated):
    """The apply horizon is commit-boundary: a shipped-but-undecided txn
    (prepared, decision delivery lost) keeps its records out of the
    standby's visible state — no dirty reads from a standby, ever."""
    db, table = make(shards=1)
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    standby = repl.sets[0].standbys[0]
    settled_applied = standby.applied_lsn
    settled_ntuples = child_ntuples(standby.database, descriptor)
    # Phase 1 ships through the child's PREPARE; kill the primary channel
    # right after it (an AT_COMMIT action queued before the write runs
    # between phase 1 and delivery), so the decision never lands.
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    ctx.defer(ev.AT_COMMIT, lambda __, ___: kill_primary(db, 0))
    db.data.insert(ctx, handle, (100, "limbo"))
    db.services.transactions.commit(txn)  # local commit; child in doubt
    assert db.services.stats.get("sharded.indoubt_children") == 1
    assert standby.received_lsn > settled_applied
    # The horizon may advance over the previous txn's trailing END, but it
    # stalls at the in-doubt txn's first record — nothing of it is visible.
    assert standby.applied_lsn < standby.received_lsn
    assert child_ntuples(standby.database, descriptor) == settled_ntuples
    # The shard heals (fault disarmed, breaker administratively closed);
    # the stable decision settles the child, and the next ship carries its
    # COMMIT — the standby's horizon advances past it.
    db.services.faults.disarm()
    descriptor["channels"][0]["breaker"] = {
        "failures": 0, "open": False, "cooldown_left": 0}
    assert db.resolve_indoubt() == 1
    table.insert((101, "after"))
    assert standby.applied_lsn == standby.received_lsn
    assert (child_ntuples(standby.database, descriptor)
            == settled_ntuples + 2)


def test_duplicate_ship_after_lost_ack_is_idempotent(make=make_replicated):
    db, table = make(shards=1, replicas=1, mode="async")
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    standby = repl.sets[0].standbys[0]
    applied = standby.applied_lsn
    # Lose the ack of the next ship.  The standby has already appended and
    # applied the records; the transport retries the whole interaction, so
    # the same wire records arrive a second time and must be dropped as
    # duplicates (at-least-once delivery, exactly-once apply).
    db.services.faults.arm("repl.0.ack", error=GatewayError, nth=1)
    table.insert((100, "once"))
    db.services.faults.disarm()
    assert db.services.stats.get("repl.gateway.retry.attempts") >= 1
    assert standby.acked_lsn == standby.received_lsn  # retry recovered it
    assert standby.applied_lsn > applied
    # Exactly one copy of each record: count matches the primary.
    primary = descriptor["databases"][0]
    assert (child_ntuples(standby.database, descriptor)
            == child_ntuples(primary, descriptor))


# -- durability modes --------------------------------------------------------------

def test_quorum_mode_vetoes_the_vote_when_replicas_are_dead(
        make=make_replicated):
    db, table = make(shards=1, replicas=2, mode="quorum")
    table.insert((1, "ok"))
    # Kill both standbys: quorum needs (2+1)//2 = 1 standby ack.
    db.services.faults.arm("repl.0.standby.0", error=GatewayError,
                           nth=1, one_shot=False)
    db.services.faults.arm("repl.0.standby.1", error=GatewayError,
                           nth=1, one_shot=False)
    with pytest.raises(GatewayError):
        table.insert((2, "lost"))
    assert db.services.stats.get("repl.quorum_failures") >= 1
    # Fail-closed: the global transaction aborted, nothing half-committed.
    assert sorted(r[0] for r in table.rows()) == [1]


def test_semi_sync_needs_one_ack_and_async_needs_none(make=make_replicated):
    for mode, survives in (("semi-sync", True), ("async", True)):
        db, table = make(shards=1, replicas=2, mode=mode)
        # One standby dead: semi-sync (1 ack) and async (0 acks) both cope.
        db.services.faults.arm("repl.0.standby.0", error=GatewayError,
                               nth=1, one_shot=False)
        table.insert((1, "ok"))
        assert [r[0] for r in table.rows()] == [1]
    # Both standbys dead: semi-sync fails, async still commits.
    db, table = make(shards=1, replicas=2, mode="semi-sync")
    for j in (0, 1):
        db.services.faults.arm(f"repl.0.standby.{j}", error=GatewayError,
                               nth=1, one_shot=False)
    with pytest.raises(GatewayError):
        table.insert((1, "no"))
    db2, table2 = make(shards=1, replicas=2, mode="async")
    for j in (0, 1):
        db2.services.faults.arm(f"repl.0.standby.{j}", error=GatewayError,
                                nth=1, one_shot=False)
    table2.insert((1, "yes"))
    assert [r[0] for r in table2.rows()] == [1]


# -- failover ----------------------------------------------------------------------

def test_write_failover_promotes_and_loses_no_acknowledged_write(
        make=make_replicated):
    db, table = make()
    table.insert_many(ROWS)
    kill_primary(db, 0)
    committed, failed = [], 0
    for i in range(100, 140):
        try:
            table.insert((i, "storm"))
            committed.append(i)
        except GatewayError:
            failed += 1
    db.services.faults.disarm()
    descriptor, repl = replication_of(db)
    assert db.services.stats.get("repl.promotions") == 1
    assert repl.epoch(0) == 1
    assert failed > 0  # the strikes before the shard was declared down
    ids = {r[0] for r in table.rows()}
    assert all(i in ids for i in committed)            # zero lost
    assert not any(i in ids for i in range(100, 140)   # zero phantom
                   if i not in committed)


def test_deposed_primary_participant_is_fenced(make=make_replicated):
    db, table = make()
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    # Bind a participant to epoch 0 by starting (not committing) a write,
    # then promote the shard underneath it: every later send by that
    # participant must be rejected by the fence, not retried.
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    index = shard_of(100, 2)
    db.data.insert(ctx, handle, (100, "pre-promotion"))
    repl.promote(index, reason="test")
    follow_up = next(v for v in range(101, 200) if shard_of(v, 2) == index)
    with pytest.raises(GatewayError):
        db.data.insert(ctx, handle, (follow_up, "fenced"))
    db.services.transactions.abort(txn)
    stats = db.services.stats
    assert stats.get("repl.fenced") >= 1
    # A fence is a decision, not a transient: no retries were charged.
    assert stats.get("remote.gateway.retry.exhausted") == 0
    ids = {r[0] for r in table.rows()}
    assert 100 not in ids and follow_up not in ids


def test_promotion_failure_is_absorbed_and_retried_later(make=make_replicated):
    db, table = make()
    table.insert_many(ROWS)
    kill_primary(db, 0)
    db.services.faults.arm("repl.promote", error=GatewayError, nth=1)
    committed = []
    for i in range(100, 140):
        try:
            table.insert((i, "storm"))
            committed.append(i)
        except GatewayError:
            pass
    db.services.faults.disarm()
    stats = db.services.stats
    assert stats.get("repl.promote_failures") >= 1
    assert stats.get("repl.promotions") == 1
    ids = {r[0] for r in table.rows()}
    assert all(i in ids for i in committed)


def test_heartbeat_partition_drives_health_to_down_then_promotes(
        make=make_replicated):
    db, table = make(shards=1, heartbeat_every=1)
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    assert repl.health(0) == HEALTHY
    # Partition the heartbeat path only: data writes would still work, but
    # the probes fail and the health state machine walks to DOWN.
    db.services.faults.arm("repl.0.heartbeat", error=GatewayError,
                           nth=1, one_shot=False)
    seen = set()
    for i in range(100, 120):
        try:
            table.insert((i, "hb"))
        except GatewayError:
            pass
        seen.add(repl.health(0))
        if db.services.stats.get("repl.promotions"):
            break
    db.services.faults.disarm()
    assert SUSPECT in seen or DOWN in seen
    assert db.services.stats.get("repl.promotions") == 1
    assert db.services.stats.get("repl.heartbeat_failures") >= 2


def test_indoubt_write_survives_promotion_and_resolves_to_commit(
        make=make_replicated):
    """The crown jewel: a write acknowledged under quorum, with the shard
    killed between its PREPARE and the decision delivery, must commit on
    the *promoted* standby — the coordinator's stable decision record is
    re-applied against the new primary."""
    db, table = make(shards=1, replicas=2, mode="quorum")
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    # Phase 1 (prepare + quorum ship) succeeds; the primary dies at the
    # commit point, so the decision delivery is lost and the child is left
    # prepared and in doubt on its (already quorum-acked) log.
    txn, ctx = begin_ctx(db)
    handle = db.catalog.handle("emp")
    ctx.defer(ev.AT_COMMIT, lambda __, ___: kill_primary(db, 0))
    db.data.insert(ctx, handle, (100, "indoubt"))
    db.services.transactions.commit(txn)  # local commit; child in doubt
    assert db.services.stats.get("sharded.indoubt_children") >= 1
    # The next write finds the shard down and (after strikes) promotes;
    # promotion force-applies the standby's log, restarts it — which
    # re-registers the prepared txn in doubt — and re-resolves from the
    # coordinator's stable decision.
    for i in range(101, 140):
        try:
            table.insert((i, "after"))
        except GatewayError:
            continue
        break
    db.services.faults.disarm()
    assert db.services.stats.get("repl.promotions") == 1
    ids = {r[0] for r in table.rows()}
    assert 100 in ids  # the acknowledged in-doubt write committed
    assert db.services.stats.get("txn.2pc.heuristic_mismatches") == 0


def test_replica_rejoins_and_catches_up_from_acked_lsn(make=make_replicated):
    db, table = make(shards=1, replicas=2, mode="semi-sync")
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    victim = repl.sets[0].standbys[0]
    caught_up = victim.acked_lsn
    db.services.faults.arm("repl.0.standby.0", error=GatewayError,
                           nth=1, one_shot=False)
    for i in range(100, 110):
        table.insert((i, "while-down"))  # the other standby keeps acking
    db.services.faults.disarm()
    assert victim.acked_lsn == caught_up  # fell behind while dead
    gained = repl.rejoin(0, victim)
    assert gained > 0
    assert victim.acked_lsn == victim.received_lsn
    primary = descriptor["databases"][0]
    assert (child_ntuples(victim.database, descriptor)
            == child_ntuples(primary, descriptor))
    assert db.services.stats.get("repl.rejoins") == 1


# -- reads -------------------------------------------------------------------------

def test_reads_fail_over_to_standby_and_report_staleness(make=make_replicated):
    db, table = make()
    table.insert_many(ROWS)
    kill_primary(db, 1)
    rows, report = table.scan(with_report=True)
    assert len(rows) == len(ROWS)  # standby holds everything committed
    assert report["complete"] is True
    assert report["stale_shards"] == [1]
    assert report["skipped_shards"] == []
    assert db.services.stats.get("shard.1.stale_reads") >= 1
    # Direct-by-key failover too.
    key = next(k for k, record in rows if k[0] == 1)
    record, fetch_report = table.fetch(key, with_report=True)
    assert record is not None
    assert fetch_report["stale_shards"] == [1]
    assert fetch_report["max_lag_lsn"] >= 0


def _fetch(db, ctx, handle, keys):
    assert db.data.fetch(ctx, handle, keys[0]) is not None


def _fetch_many(db, ctx, handle, keys):
    assert len(db.data.fetch_many(ctx, handle, keys)) == len(keys)


def _scan(db, ctx, handle, keys):
    scan = db.data.open_scan(ctx, handle, None, None)
    assert len(db.services.scans.drain(scan)) == len(ROWS)


def _pushed_group_by(db, ctx, handle, keys):
    rows = db.query_engine.execute(
        "SELECT name, COUNT(*) FROM emp GROUP BY name")
    assert len(rows) == len(ROWS)
    assert db.services.stats.get("sharded.pushdown.queries") == 1


@pytest.mark.parametrize("read", [_fetch, _fetch_many, _scan,
                                  _pushed_group_by])
def test_every_read_entry_point_climbs_the_same_ladder(
        read, monkeypatch, make=make_replicated):
    """A dead primary, then a standby that answers: whichever way the
    read came in, the shard is stale in the report, the failure reached
    replication health once, and one stale read was counted."""
    db, table = make()
    keys = [key for key in table.insert_many(ROWS) if key[0] == 1]
    descriptor, repl = replication_of(db)
    handle = db.catalog.handle("emp")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    reports = []
    start_report = method._start_report
    monkeypatch.setattr(
        method, "_start_report",
        lambda ctx: reports.append(start_report(ctx)) or reports[-1])
    kill_primary(db, 1)
    txn, ctx = begin_ctx(db)
    read(db, ctx, handle, keys)
    db.services.transactions.commit(txn)
    # (planning begins reports of its own; the read's is the last)
    assert reports[-1] == {"complete": True, "skipped_shards": [],
                           "stale_shards": [1],
                           "max_lag_lsn": reports[-1]["max_lag_lsn"]}
    stats = db.services.stats
    assert stats.get("shard.1.stale_reads") == 1
    assert stats.get("repl.stale_reads") == 1
    assert stats.get("shard.1.remote.gateway.retry.exhausted") == 1
    assert repl.sets[1].strikes == 1 and repl.sets[0].strikes == 0


def test_a_fenced_fragment_counts_the_fence_and_leaves_health_alone():
    """A fence is a decision, not a dead channel: like a fenced write, a
    fenced fragment counts ``repl.fenced``, reports nothing to
    replication health, and is neither failed over nor skipped."""
    db, table = make_replicated(degraded_reads=True)
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    count = "SELECT COUNT(*) FROM emp"
    db.begin()
    assert db.execute(count) == [(len(ROWS),)]  # binds both shards, epoch 0
    repl.promote(0, reason="test")
    with pytest.raises(FencingError):
        db.execute(count)
    db.rollback()
    stats = db.services.stats
    assert stats.get("repl.fenced") == 2  # the fragment, then the pull-up
    assert stats.get("sharded.pushdown.fallbacks") == 1
    assert stats.get("remote.gateway.retry.exhausted") == 0
    assert stats.get("repl.stale_reads") == 0
    assert stats.get("shard.0.degraded_skips") == 0
    assert repl.health(0) == HEALTHY and repl.sets[0].strikes == 0
    assert db.execute(count) == [(len(ROWS),)]  # a new transaction rebinds


def test_a_fault_inside_a_child_falls_back_whole():
    """Not a ``GatewayError``: the channel worked and the child failed,
    so there is no failover and no degraded skip — the fragment falls
    back and the pull-up path recomputes the answer."""
    db, table = make_replicated(degraded_reads=True)
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    total = "SELECT SUM(id) FROM emp"
    expected = db.execute(total)
    child = descriptor["databases"][1]
    # Every kernel call in the child fails: a QueryError.
    child.services.faults.arm("columnar.kernel", error=RuntimeError("kernel"),
                              nth=1, one_shot=False)
    assert db.execute(total) == expected
    assert child.services.faults.injected("columnar.kernel") == 1
    stats = db.services.stats
    assert stats.get("sharded.pushdown.fallbacks") == 1
    assert stats.get("executor.pushdown.fallbacks") == 1
    assert stats.get("repl.stale_reads") == 0
    assert stats.get("remote.degraded_fragments") == 0
    assert repl.sets[1].strikes == 0


def test_degraded_skip_is_reported_when_no_standby_exists():
    db, table = make_replicated(replicas=0, degraded_reads=True)
    table.insert_many(ROWS)
    kill_primary(db, 1)
    rows, report = table.scan(with_report=True)
    assert 0 < len(rows) < len(ROWS)
    assert report["complete"] is False
    assert report["skipped_shards"] == [1]
    assert report["stale_shards"] == []
    assert db.services.stats.get("shard.1.degraded_skips") >= 1
    # Without the opt-in the same failure stays fail-closed.
    db2, table2 = make_replicated(replicas=0)
    table2.insert_many(ROWS)
    kill_primary(db2, 1)
    with pytest.raises(GatewayError):
        table2.scan()


def test_healthy_read_reports_complete_and_current():
    db, table = make_replicated()
    table.insert_many(ROWS)
    rows, report = table.scan(with_report=True)
    assert len(rows) == len(ROWS)
    assert report == {"complete": True, "skipped_shards": [],
                      "stale_shards": [], "max_lag_lsn": 0}


# -- DDL ---------------------------------------------------------------------------

def test_replication_attributes_are_validated():
    db = Database(page_size=1024)
    cases = [
        ({"shards": 2, "replicas": -1}, "replicas"),
        ({"shards": 2, "replicas": 1, "replication": "sync"}, "replication"),
        ({"shards": 2, "replicas": 1, "heartbeat_every": -2},
         "heartbeat_every"),
        ({"shards": 2, "deadline": 0}, "deadline"),
        ({"databases": [Database(page_size=1024)], "replicas": 1},
         "method-created"),
        # a standby is built by redo, and memory redoes nothing
        ({"shards": 2, "replicas": 1, "child_storage": "memory"},
         "child_storage"),
    ]
    for attrs, needle in cases:
        with pytest.raises(StorageError, match=needle):
            db.create_table(f"bad_{needle.strip('-')}",
                            [("id", "INT"), ("name", "STRING")],
                            storage_method="sharded", attributes=attrs)


def test_read_only_participant_logs_nothing_and_ships_nothing():
    """A 2PC round in which one shard only read: the coordinator skips it
    in both phases, and — its child transaction having logged nothing —
    that child's log and its standbys' logs do not grow at all."""
    db, table = make_replicated(shards=2, replicas=1)
    table.insert_many(ROWS)
    descriptor, repl = replication_of(db)
    reader = shard_of((0,), 2)  # the shard row 0 lives on; we only read it
    new_id = next(i for i in range(100, 200) if shard_of((i,), 2) != reader)

    def logs(index):
        child = descriptor["databases"][index].services
        standby = repl.sets[index].standbys[0]
        return (child.wal.current_lsn, child.wal.flushed_lsn,
                standby.received_lsn, standby.acked_lsn,
                standby.database.services.wal.current_lsn)
    before = {index: logs(index) for index in (0, 1)}
    skips = db.services.stats.get("txn.2pc.readonly_skips")
    db.begin()
    table.insert((new_id, "written"))
    # Read after the write: an operation savepoint is mirrored (and logged)
    # on every child enlisted so far, which would make the reader log.
    assert table.scan(where="id = 0")[0][1] == (0, "n0")
    db.commit()
    assert db.services.stats.get("txn.2pc.readonly_skips") == skips + 1
    assert logs(reader) == before[reader]
    assert logs(1 - reader) != before[1 - reader]
    child = descriptor["databases"][reader].services
    assert child.transactions.active_transactions() == ()
    assert child.stats.get("txn.unlogged_ends") >= 1


# -- the same failover tests over btree_file children -------------------------------
# (The pushdown cases stay heap-only: ordered children are gated off it.)

class BTreeFileChildren:
    """A ``make`` for the tests above whose shard children are btree_file
    relations.  Every ship checks each standby: what its descriptor
    derives (``ntuples`` and the key directory) is what its pages hold;
    :meth:`check_drained` then feeds each standby the rest of its
    primary's log and checks that it derives what the primary does."""

    def __init__(self, monkeypatch):
        self.made = []
        receive = Standby.receive

        def checked_receive(standby, epoch, wire):
            lsn = receive(standby, epoch, wire)
            database = standby.database
            for relation in database.catalog.relation_names():
                assert derived(database, relation) \
                    == derived_from_pages(database, relation)
            return lsn
        monkeypatch.setattr(Standby, "receive", checked_receive)

    def __call__(self, **attributes):
        self.made.append(make_replicated(
            child_storage="btree_file", child_attributes={"key": ["id"]},
            **attributes))
        return self.made[-1]

    def check_drained(self) -> int:
        compared = 0
        for db, __ in self.made:
            descriptor, repl = replication_of(db)
            relation = descriptor["relation"]
            for replica_set in repl.sets:
                primary = descriptor["databases"][replica_set.index]
                log = primary.services.wal
                log.flush()
                for standby in replica_set.standbys:
                    standby.receive(replica_set.epoch,
                                    log.ship_since(standby.received_lsn))
                    if standby.applied_lsn == log.current_lsn:
                        assert derived(standby.database, relation) \
                            == derived(primary, relation)
                        compared += 1
        return compared


@pytest.mark.parametrize("test", [
    test_committed_writes_ship_to_every_standby,
    test_standby_apply_stalls_behind_an_in_doubt_transaction,
    test_duplicate_ship_after_lost_ack_is_idempotent,
    test_quorum_mode_vetoes_the_vote_when_replicas_are_dead,
    test_semi_sync_needs_one_ack_and_async_needs_none,
    test_write_failover_promotes_and_loses_no_acknowledged_write,
    test_deposed_primary_participant_is_fenced,
    test_promotion_failure_is_absorbed_and_retried_later,
    test_heartbeat_partition_drives_health_to_down_then_promotes,
    test_indoubt_write_survives_promotion_and_resolves_to_commit,
    test_replica_rejoins_and_catches_up_from_acked_lsn,
    test_reads_fail_over_to_standby_and_report_staleness,
], ids=lambda test: test.__name__[len("test_"):])
def test_over_btree_file_children(test, monkeypatch):
    make = BTreeFileChildren(monkeypatch)
    test(make=make)
    assert make.check_drained() > 0


@pytest.mark.parametrize("read", [_fetch, _fetch_many, _scan])
def test_every_read_entry_point_climbs_the_same_ladder_over_btree_file(
        read, monkeypatch):
    make = BTreeFileChildren(monkeypatch)
    test_every_read_entry_point_climbs_the_same_ladder(read, monkeypatch,
                                                       make=make)
    assert make.check_drained() > 0
