"""Standby = primary = restart: one redo step, three ways to reach a state.

A primary runs random transactions — insert, delete and update batches,
updates that grow a record off its page, savepoint rollbacks, aborts — and
its stable log reaches a standby in random cuts.  After every ship the
standby's applied pages (checksum aside) and what its descriptor derives
equal the primary's at the same horizon, and a scan of the standby — which
scanned it before the ship too — returns what its pages hold.  At the end a forced apply and a
restart of the standby equal a restart of the primary.  Every case runs on
heap and on btree_file relations.
"""

import random

import pytest

from repro import Database
from repro.services import wal as wal_records
from repro.services.replication import Standby
from tests.services.test_standby import ATTRIBUTES, SCHEMA, page_images, \
    rows, ship
from tests.storage.test_replication import derived, derived_from_pages

IDS = 60


def fresh(storage, relations=("emp",)):
    db = Database(page_size=512)
    for name in relations:
        db.create_table(name, SCHEMA, storage_method=storage,
                        attributes=ATTRIBUTES[storage])
    return db


def standby_of(storage, relations=("emp",)):
    replica = fresh(storage, relations)
    replica.services.wal.flush()
    return Standby(0, "r0", replica, {}, replica.services.wal.current_lsn)


def state(database):
    """The relation's page list, its page images and what its descriptor
    derives — checked against what the pages hold."""
    assert derived(database, "emp") == derived_from_pages(database, "emp")
    pages = database.catalog.handle("emp").descriptor.storage_descriptor[
        "pages"]
    return list(pages), page_images(database), derived(database, "emp")


def scanned(database):
    """The relation's records as a scan of the standby's own returns them
    (it logs nothing), sorted."""
    return sorted(database.table("emp").rows())


def run_operation(rng, table):
    present = {record[0] for record in table.rows()}
    low = rng.randrange(IDS)
    high = low + rng.randint(1, 15)
    kind = rng.choice(("insert", "insert", "delete", "update"))
    if kind == "insert":
        free = sorted(set(range(IDS)) - present)
        chosen = rng.sample(free, min(len(free), rng.randint(1, 12)))
        if chosen:
            table.insert_many([(i, "n" * rng.randint(1, 40))
                               for i in chosen])
    elif kind == "delete":
        table.delete_where("id >= :lo AND id < :hi",
                           {"lo": low, "hi": high})
    else:
        # Long enough, at times, to no longer fit where the record is.
        table.update_where("id >= :lo AND id < :hi",
                           {"name": "u" * rng.randint(1, 150)},
                           {"lo": low, "hi": high})


def run_case(storage, seed):
    rng = random.Random(seed)
    primary, standby = fresh(storage), standby_of(storage)
    log = primary.services.wal
    #: LSN -> the primary's state once every record through it had run;
    #: a transaction's END changes nothing, so it also names the record
    #: before it.
    horizons = {log.current_lsn: state(primary)}
    compared = 0

    def ship_and_compare(up_to):
        nonlocal compared
        # A scan before the ship leaves images on the standby's frames that
        # the redo must drop: the scan after it reads what the pages hold.
        scanned(standby.database)
        ship(primary, standby, up_to)
        assert scanned(standby.database) == rows(standby.database)
        seen = state(standby.database)
        if standby.applied_lsn in horizons:
            assert seen == horizons[standby.applied_lsn], standby.applied_lsn
            compared += 1

    def random_cut():
        return rng.randint(standby.received_lsn, log.current_lsn)

    session = primary.connect()
    table = session.table("emp")
    for __ in range(rng.randint(4, 9)):
        session.begin()
        for step in range(rng.randint(1, 4)):
            savepoint = f"s{step}" if rng.random() < 0.25 else None
            if savepoint:
                session.savepoint(savepoint)
            run_operation(rng, table)
            if savepoint:
                session.rollback_to(savepoint)
            if rng.random() < 0.2:
                ship_and_compare(random_cut())
        if rng.random() < 0.75:
            session.commit()
        else:
            session.rollback()
        horizons[log.current_lsn] = state(primary)
        if log.record(log.current_lsn).kind == wal_records.END:
            horizons[log.current_lsn - 1] = horizons[log.current_lsn]
        if rng.random() < 0.5:
            ship_and_compare(rng.choice((log.current_lsn, random_cut())))
    if rng.random() < 0.5:
        session.begin()   # a loser: shipped, then undone by both restarts
        run_operation(rng, table)
    ship_and_compare(None)
    assert compared > 0
    standby.apply_pending(force=True)
    standby.database.restart()
    primary.restart()
    assert state(standby.database) == state(primary)
    assert rows(standby.database) == rows(primary)


@pytest.mark.parametrize("storage", sorted(ATTRIBUTES))
@pytest.mark.parametrize("seed", range(100))
def test_standby_equals_primary_equals_restart(storage, seed):
    run_case(storage, seed)


@pytest.mark.parametrize("storage", sorted(ATTRIBUTES))
@pytest.mark.parametrize("flushed", [False, True])
def test_a_page_id_rolled_back_by_one_relation_and_reused_by_another(
        storage, flushed):
    """Relation A allocates a page and rolls back, B takes the same page
    id, then a crash: redo must not give A the page back, on the primary
    or on a standby fed the same log."""
    primary = fresh(storage, ("a", "emp"))
    standby = standby_of(storage, ("a", "emp"))
    a, b = primary.table("a"), primary.table("emp")
    primary.begin()
    a.insert_many([(i, "rolled back") for i in range(3)])
    pages = primary.catalog.handle("a").descriptor.storage_descriptor["pages"]
    (given_back,) = pages
    primary.rollback()
    assert pages == []
    b.insert_many([(i, "kept") for i in range(3)])
    assert primary.catalog.handle("emp").descriptor.storage_descriptor[
        "pages"] == [given_back]
    if flushed:
        primary.services.buffer.flush_all()
    ship(primary, standby, None)
    expected = state(primary)
    for database in (primary, standby.database):
        if database is standby.database:
            standby.apply_pending(force=True)
        database.restart()
        assert state(database) == expected
        assert database.catalog.handle("a").descriptor.storage_descriptor[
            "pages"] == []
        assert database.table("a").rows() == []
        assert sorted(database.table("emp").rows()) == [
            (i, "kept") for i in range(3)]
