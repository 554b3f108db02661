"""A standby's apply horizon: what it settles, when, and at what cost.

Drives one :class:`~repro.services.replication.Standby` by hand — the
primary's stable log cut into ships at chosen LSNs — so that a COMMIT and
its END, or the halves of one transaction, arrive in different ships.
"""

import inspect

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.core.records import decode_record
from repro.services import events as ev
from repro.services import wal as wal_records
from repro.services.replication import Standby
from tests.storage.test_replication import derived, derived_from_pages

SCHEMA = [("id", "INT"), ("name", "STRING")]

#: DDL attributes of the relation under test, by storage method.
ATTRIBUTES = {"heap": None, "btree_file": {"key": ["id"]}}


def fresh(storage="heap"):
    db = Database()
    db.create_table("emp", SCHEMA, storage_method=storage,
                    attributes=ATTRIBUTES[storage])
    return db


def make_pair(storage="heap"):
    """``(primary, standby)``: two databases with the same DDL prefix."""
    primary, replica = fresh(storage), fresh(storage)
    base = replica.services.wal.current_lsn
    assert base == primary.services.wal.current_lsn
    replica.services.wal.flush()
    return primary, Standby(0, "r0", replica, {}, base)


@pytest.fixture
def pair():
    return make_pair()


def ship(primary, standby, up_to=None):
    """Ship the primary's stable log after what the standby holds, through
    LSN ``up_to`` (default: all of it); returns the records shipped.  What
    the standby's descriptor derives is what its pages hold, and once it
    has applied all the primary logged, what the primary's derives."""
    log = primary.services.wal
    log.flush()
    wire = log.ship_since(standby.received_lsn, up_to=up_to)
    standby.receive(0, wire)
    replica = standby.database
    assert derived(replica, "emp") == derived_from_pages(replica, "emp")
    if standby.applied_lsn == log.current_lsn:
        assert derived(replica, "emp") == derived(primary, "emp")
    return len(wire)


def rows(database):
    """The relation's records, read off its pages: no transaction runs on
    the standby (one of its own would write into the log it mirrors)."""
    handle = database.catalog.handle("emp")
    found = []
    for page_id in handle.descriptor.storage_descriptor["pages"]:
        with database.services.buffer.pinned(page_id) as page:
            found += [decode_record(handle.schema, raw)
                      for __, raw in page.records()]
    return sorted(found)


def lsn_of(primary, kind, nth=-1):
    return [r.lsn for r in primary.services.wal.forward()
            if r.kind == kind][nth]


def insert_at_commit(primary, txn, record):
    """Defer to ``txn``'s commit an insert logged under it, so the insert's
    record lies between its COMMIT and its END."""
    def insert(txn_id, data):
        handle = primary.catalog.handle("emp")
        method = primary.registry.storage_method(
            handle.descriptor.storage_method_id)
        method.insert(ExecutionContext(txn, primary.services, primary),
                      handle, record)
    primary.services.events.defer(txn.txn_id, ev.AT_COMMIT, insert)


def test_end_that_arrives_a_ship_after_its_commit(pair):
    primary, standby = pair
    session = primary.connect()
    txn = session.begin()
    session.table("emp").insert_many([(i, f"n{i}") for i in range(5)])
    insert_at_commit(primary, txn, (5, "at commit"))
    session.commit()
    commit = lsn_of(primary, wal_records.COMMIT)
    end = lsn_of(primary, wal_records.END)
    assert primary.services.wal.record(commit).payload == {"end": True}
    assert end > commit + 1      # the at-commit insert logged in between
    ship(primary, standby, up_to=commit)
    assert standby.applied_lsn == commit and len(rows(standby.database)) == 5
    assert len(standby._settled) == 1      # decided, its END still to come
    ship(primary, standby, up_to=end - 1)
    assert standby.applied_lsn == end - 1 and len(standby._settled) == 1
    ship(primary, standby)
    assert standby.applied_lsn == standby.received_lsn == end
    assert rows(standby.database) == rows(primary)
    assert len(rows(primary)) == 6 and len(standby._settled) == 0


def test_a_plain_commit_settles_at_its_commit(pair):
    """A commit with no at-commit work writes no END: its COMMIT is its
    last record, and the standby lets it go as it applies that."""
    primary, standby = pair
    table = primary.table("emp")
    for i in range(50):
        table.insert((i, f"n{i}"))
    ship(primary, standby)
    assert all(r.kind != wal_records.END
               for r in primary.services.wal.forward())
    assert standby.applied_lsn == standby.received_lsn
    assert len(standby._settled) == 0
    assert rows(standby.database) == rows(primary)


def test_a_dropped_relation_applies_its_trailing_records_then_drains():
    """DROP TABLE releases storage at commit, so its COMMIT is marked and
    an END follows; the standby holds it until that END is applied."""
    primary, replica = fresh(), fresh()
    for db in (primary, replica):
        db.create_table("tmp", SCHEMA)
    base = replica.services.wal.current_lsn
    replica.services.wal.flush()
    standby = Standby(0, "r0", replica, {}, base)
    primary.table("tmp").insert_many([(i, "x" * 40) for i in range(200)])
    primary.table("emp").insert((0, "kept"))
    ship(primary, standby)
    primary.drop_table("tmp")
    commit = lsn_of(primary, wal_records.COMMIT)
    assert primary.services.wal.record(commit).payload == {"end": True}
    ship(primary, standby, up_to=commit)
    assert standby.applied_lsn == commit and len(standby._settled) == 1
    ship(primary, standby)
    assert lsn_of(primary, wal_records.END) == standby.applied_lsn
    assert standby.applied_lsn == standby.received_lsn
    assert len(standby._settled) == 0
    assert rows(standby.database) == rows(primary) == [(0, "kept")]


def test_transaction_that_spans_three_ships(pair):
    primary, standby = pair
    primary.table("emp").insert((0, "before"))
    ship(primary, standby)
    horizon = standby.applied_lsn
    session = primary.connect()
    session.begin()
    table = session.table("emp")
    table.insert((1, "first"))
    assert ship(primary, standby) > 0
    table.insert_many([(i, "second") for i in range(2, 40)])
    assert ship(primary, standby) > 0
    # Received, not applied: the standby shows the last committed state.
    assert standby.applied_lsn == horizon < standby.received_lsn
    assert rows(standby.database) == [(0, "before")]
    session.commit()
    ship(primary, standby)
    assert standby.applied_lsn == standby.received_lsn
    assert rows(standby.database) == rows(primary) and len(rows(primary)) == 40
    assert len(standby._settled) == 0


def test_aborted_transaction_applies_with_its_compensations(pair):
    primary, standby = pair
    keys = primary.table("emp").insert_many([(i, f"n{i}") for i in range(6)])
    ship(primary, standby)
    session = primary.connect()
    session.begin()
    table = session.table("emp")
    table.insert_many([(10 + i, "doomed") for i in range(30)])
    table.delete(keys[2])
    table.update(keys[3], {"name": "changed"})
    ship(primary, standby)
    stalled = standby.applied_lsn
    session.rollback()
    assert any(r.kind == wal_records.CLR
               for r in primary.services.wal.forward(stalled + 1))
    ship(primary, standby, up_to=lsn_of(primary, wal_records.ABORT))
    # Settled by the ABORT: the operations apply, the CLRs not yet here.
    assert standby.applied_lsn > stalled and len(standby._settled) == 1
    ship(primary, standby)
    assert standby.applied_lsn == standby.received_lsn
    assert len(standby._settled) == 0
    assert rows(standby.database) == rows(primary) == [
        (i, f"n{i}") for i in range(6)]
    descriptor = standby.database.catalog.handle(
        "emp").descriptor.storage_descriptor
    assert descriptor["ntuples"] == 6


def test_forced_apply_in_the_middle_of_a_transaction_then_recovery(pair):
    """Promotion: everything received is applied, losers included, and
    restart recovery takes the standby to the committed state."""
    primary, standby = pair
    primary.table("emp").insert_many([(i, f"n{i}") for i in range(8)])
    committed = rows(primary)
    session = primary.connect()
    session.begin()
    session.table("emp").insert_many([(100 + i, "loser") for i in range(50)])
    ship(primary, standby)
    session.table("emp").insert((200, "never shipped"))
    assert standby.applied_lsn < standby.received_lsn
    assert standby.apply_pending(force=True) > 0
    assert standby.applied_lsn == standby.received_lsn
    standby.database.restart()
    assert rows(standby.database) == committed


def test_settled_set_is_bounded_by_transactions_in_flight(pair):
    primary, standby = pair
    table = primary.table("emp")
    for batch in range(200):
        table.insert_many([(batch * 10 + i, "x") for i in range(3)])
        if batch % 7 == 0:
            ship(primary, standby)
            assert len(standby._settled) == 0
    ship(primary, standby)
    assert len(standby._settled) == 0
    # One writer left open holds the horizon: what commits behind it is
    # settled and waits, and drains when the writer ends.
    blocker = primary.connect()
    blocker.begin()
    blocker.table("emp").insert((9000, "open"))
    for i in range(5):
        table.insert((9100 + i, "behind"))
    ship(primary, standby)
    assert len(standby._settled) == 5
    assert standby.applied_lsn < standby.received_lsn
    blocker.commit()
    ship(primary, standby)
    assert len(standby._settled) == 0
    assert standby.applied_lsn == standby.received_lsn
    assert rows(standby.database) == rows(primary)


def test_each_received_record_is_read_at_most_twice(pair, monkeypatch):
    """Once to settle, once to apply — whatever the log already holds."""
    primary, standby = pair
    table = primary.table("emp")
    for i in range(600):
        table.insert((i, f"n{i}"))
    log = standby.database.services.wal
    steps = []
    real_forward = log.forward

    def counting_forward(from_lsn=None):
        for record in real_forward(from_lsn):
            steps[-1] += 1
            yield record

    # Every ship ends on a transaction's last record (ten transactions of
    # two records, and a page allocation now and then), so no call stops
    # at a record that a later one reads again.
    ends = [r.lsn for r in primary.services.wal.forward(
        standby.received_lsn + 1) if r.kind == wal_records.COMMIT]
    monkeypatch.setattr(log, "forward", counting_forward)
    shipped = []
    for n in range(50):
        steps.append(0)
        shipped.append(ship(primary, standby, up_to=ends[10 * n + 9]))
    assert all(20 <= count <= 22 for count in shipped)
    assert all(read <= 2 * count for read, count in zip(steps, shipped))
    assert max(steps[-10:]) <= max(steps[:10])   # flat, not growing
    assert sum(steps) <= 2 * sum(shipped)
    # A call with nothing new reads nothing.
    steps.append(0)
    assert standby.apply_pending() == 0 and steps[-1] == 0


def test_rebuilt_standby_starts_empty_and_catches_up():
    from tests.storage.test_replication import (child_ntuples,
                                                make_replicated,
                                                replication_of)
    db, table = make_replicated(shards=1, replicas=1)
    table.insert_many([(i, f"n{i}") for i in range(30)])
    descriptor, repl = replication_of(db)
    old = repl.sets[0].standbys[0]
    assert old.applied_lsn == old.received_lsn > 0
    repl._rebuild_standby(0, old)
    fresh_standby = repl.sets[0].standbys[0]
    assert fresh_standby is not old and len(fresh_standby._settled) == 0
    assert fresh_standby.applied_lsn < old.applied_lsn
    table.insert((100, "after the rebuild"))
    primary = descriptor["databases"][0]
    assert fresh_standby.acked_lsn == primary.services.wal.flushed_lsn
    assert fresh_standby.applied_lsn == fresh_standby.received_lsn
    # The decision is shipped as soon as it is stable, and a child's
    # commit has no at-commit work, so its COMMIT is its last record.
    assert len(fresh_standby._settled) == 0
    assert child_ntuples(fresh_standby.database, descriptor) == 31


def page_images(database):
    """Every page of the relation, less the checksum its last write-back
    stamped: ``{page id: bytes}``."""
    handle = database.catalog.handle("emp")
    images = {}
    for page_id in handle.descriptor.storage_descriptor["pages"]:
        with database.services.buffer.pinned(page_id) as page:
            images[page_id] = bytes(page.data[:21]) + bytes(page.data[25:])
    return images


def test_a_stale_read_between_two_ships_leaves_the_mirror_alone(pair):
    """``failover_read`` runs a transaction of the standby's own.  It drew
    its id from the id space the standby mirrors: the log said that id had
    logged, so the reader's COMMIT/END were appended to the mirrored log
    and the next ship's first records were dropped as duplicates."""
    primary, standby = pair
    table = primary.table("emp")
    table.insert_many([(i, f"n{i}") for i in range(30)])
    table.delete_where("id < 5")
    ship(primary, standby)
    mirrored = standby.database.services.wal.current_lsn
    for __ in range(3):   # the stale reads: what failover_read's action does
        assert sorted(standby.database.table("emp").rows()) == rows(primary)
    assert standby.database.services.wal.current_lsn == mirrored
    table.insert_many([(100 + i, "later") for i in range(200)])
    table.update_where("id = 7", {"name": "changed"})
    log = primary.services.wal
    assert ship(primary, standby) == log.current_lsn - mirrored
    assert standby.applied_lsn == standby.received_lsn == log.current_lsn
    assert [(r.lsn, r.txn_id, r.kind)
            for r in standby.database.services.wal.forward()] \
        == [(r.lsn, r.txn_id, r.kind) for r in log.forward()]
    assert page_images(standby.database) == page_images(primary)
    assert len(page_images(primary)) > 1


def test_a_promoted_standby_begins_above_the_ids_it_mirrored(pair):
    """Restart (promotion) resumes ids above every id in the log: a new
    transaction used to take the id of a mirrored one and chain its
    records onto that one's."""
    primary, standby = pair
    for i in range(3):
        primary.table("emp").insert((i, "x"))
    ship(primary, standby)
    replica = standby.database
    assert sorted(replica.table("emp").rows()) == rows(primary)  # a reader
    mirrored = {r.txn_id for r in replica.services.wal.forward()}
    standby.apply_pending(force=True)
    replica.restart()
    top = replica.services.wal.current_lsn
    replica.table("emp").insert((99, "new"))
    new = {r.txn_id for r in replica.services.wal.forward(top + 1)}
    assert len(new) == 1 and not new & mirrored and min(new) > max(mirrored)
    replica.begin()
    replica.table("emp").insert((100, "doomed"))
    replica.rollback()
    assert rows(replica) == rows(primary) + [(99, "new")]


def test_a_promoted_standby_derives_the_state_it_never_kept():
    """Redo keeps no statistics or aggregate state: a standby marks the
    instance stale, so promotion's restart derives it from the pages."""
    primary, replica = fresh(), fresh()
    for db in (primary, replica):
        db.create_attachment("emp", "statistics", "emp_stats")
        db.create_attachment("emp", "aggregate", "emp_count",
                             {"function": "count"})
    base = replica.services.wal.current_lsn
    replica.services.wal.flush()
    standby = Standby(0, "r0", replica, {}, base)
    primary.table("emp").insert_many([(i, f"n{i}") for i in range(5)])
    ship(primary, standby)
    standby.apply_pending(force=True)
    replica.restart()
    assert replica.execute("SELECT COUNT(*) FROM emp") == [(5,)]
    handle = replica.catalog.handle("emp")
    statistics = replica.registry.attachment_type_by_name("statistics")
    field = handle.descriptor.attachment_field(statistics.type_id)
    assert field["instances"]["emp_stats"]["state"]["row_count"] == 5


@pytest.mark.parametrize("test", [
    test_end_that_arrives_a_ship_after_its_commit,
    test_a_plain_commit_settles_at_its_commit,
    test_transaction_that_spans_three_ships,
    test_aborted_transaction_applies_with_its_compensations,
    test_forced_apply_in_the_middle_of_a_transaction_then_recovery,
    test_settled_set_is_bounded_by_transactions_in_flight,
    test_each_received_record_is_read_at_most_twice,
    test_a_stale_read_between_two_ships_leaves_the_mirror_alone,
    test_a_promoted_standby_begins_above_the_ids_it_mirrored,
], ids=lambda test: test.__name__[len("test_"):])
def test_pair_over_btree_file(test, monkeypatch):
    """The pair tests above, on a btree_file relation: its standby keeps
    the key directory by the same redo that builds its pages."""
    wants = inspect.signature(test).parameters
    test(make_pair("btree_file"),
         **({"monkeypatch": monkeypatch} if "monkeypatch" in wants else {}))
