"""Deeper crash/recovery scenarios across modules."""

import pytest

from repro import AccessPath, Database, UniqueViolation


def test_crash_between_two_committed_transactions(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(10)])
    db.restart()
    table.insert_many([(i,) for i in range(10, 20)])
    db.restart()
    assert sorted(r[0] for r in table.rows()) == list(range(20))


def test_crash_after_partial_flush_of_dirty_pages(db):
    """Some committed pages reached the device, some only the log; redo
    must repair exactly the missing ones."""
    table = db.create_table("t", [("id", "INT"), ("pad", "STRING")])
    table.insert_many([(i, "x" * 200) for i in range(30)])
    # Flush roughly half the dirty pages.
    handle = db.catalog.handle("t")
    pages = handle.descriptor.storage_descriptor["pages"]
    for page_id in pages[: len(pages) // 2]:
        db.services.buffer.flush_page(page_id)
    db.restart()
    assert sorted(r[0] for r in table.rows()) == list(range(30))


def test_crash_during_transaction_with_savepoint_rollback(db):
    """A transaction that partially rolled back before the crash: the
    CLRs on the stable log steer restart undo past the undone work."""
    table = db.create_table("t", [("id", "INT")])
    table.insert((0,))
    db.begin()
    table.insert((1,))
    db.savepoint("sp")
    table.insert((2,))
    db.rollback_to("sp")   # CLR for record 2
    table.insert((3,))
    db.services.wal.flush()
    db.restart()           # the whole transaction is a loser
    assert sorted(r[0] for r in table.rows()) == [0]


def test_crash_after_drop_table_commit(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert((1,))
    db.drop_table("t")
    db.restart()
    assert not db.catalog.exists("t")


def test_crash_with_uncommitted_drop_restores_relation(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert((1,))
    db.services.checkpoint()
    db.begin()
    db.drop_table("t")
    db.services.wal.flush()
    db.restart()
    assert db.catalog.exists("t")
    assert db.table("t").rows() == [(1,)]


def test_crash_with_uncommitted_create_removes_relation(db):
    db.begin()
    db.create_table("ghost", [("id", "INT")])
    db.table("ghost").insert((1,))
    db.services.wal.flush()
    db.restart()
    assert not db.catalog.exists("ghost")


def test_constraints_enforced_identically_after_restart(db):
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_index("t_id", "t", ["id"], unique=True)
    db.create_attachment("t", "unique", "t_v", {"columns": ["v"]})
    table.insert((1, "a"))
    db.restart()
    with pytest.raises(UniqueViolation):
        table.insert((1, "b"))
    with pytest.raises(UniqueViolation):
        table.insert((2, "a"))
    table.insert((2, "b"))


def test_multi_relation_crash_consistency(db):
    """Committed and loser work interleaved over several relations."""
    a = db.create_table("a", [("v", "INT")])
    b = db.create_table("b", [("v", "INT")])
    a.insert_many([(i,) for i in range(5)])
    b.insert_many([(i,) for i in range(5)])
    db.begin()
    a.insert((100,))
    b.insert((100,))
    db.commit()
    db.begin()
    a.insert((200,))
    b.insert((200,))
    db.services.wal.flush()
    db.restart()
    assert sorted(r[0] for r in a.rows()) == [0, 1, 2, 3, 4, 100]
    assert sorted(r[0] for r in b.rows()) == [0, 1, 2, 3, 4, 100]


def test_updates_and_deletes_recovered(db):
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    keys = table.insert_many([(i, "orig") for i in range(10)])
    table.update(keys[3], {"v": "patched"})
    table.delete(keys[7])
    db.restart()
    rows = dict((r[0], r[1]) for r in table.rows())
    assert rows[3] == "patched"
    assert 7 not in rows
    assert len(rows) == 9


def test_loser_updates_and_deletes_undone_at_restart(db):
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    keys = table.insert_many([(i, "orig") for i in range(10)])
    db.begin()
    table.update(keys[2], {"v": "loser"})
    table.delete(keys[5])
    db.services.wal.flush()
    db.restart()
    rows = dict((r[0], r[1]) for r in table.rows())
    assert rows[2] == "orig"
    assert rows[5] == "orig"


def test_sharp_checkpoint_makes_redo_cheap(db):
    """After a sharp checkpoint, every page is current on the device and
    the dirty-page table is empty, so redo starts at the checkpoint and
    finds nothing to replay or skip."""
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(50)])
    info = db.checkpoint(mode="sharp")
    assert info["dirty_pages"] == 0
    assert info["redo_lsn"] == info["begin_lsn"]
    summary = db.restart()
    assert db.services.stats.get("recovery.redo.applied") == 0
    assert db.services.stats.get("recovery.redo.skipped_page_lsn") == 0
    assert summary["redo_from"] == info["begin_lsn"]
    assert table.count() == 50


def test_unknown_checkpoint_mode_is_a_typed_error(db):
    from repro.errors import ReproError, UnknownCheckpointModeError
    before = db.services.stats.get("db.checkpoints")
    with pytest.raises(UnknownCheckpointModeError) as caught:
        db.checkpoint(mode="blurry")
    assert caught.value.mode == "blurry"
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)  # what callers caught before
    assert db.services.stats.get("db.checkpoints") == before


def test_fuzzy_checkpoint_bounds_redo_without_flushing_pages(db):
    """A fuzzy checkpoint flushes no data pages, yet restart replays only
    from min(rec_lsn) over the checkpointed dirty-page table — and the
    relation contents still come back exactly."""
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(30)])
    writes_before = db.services.disk.writes
    info = db.checkpoint()  # fuzzy: snapshot only
    assert db.services.disk.writes == writes_before  # no page flushed
    assert info["dirty_pages"] > 0
    assert info["redo_lsn"] <= info["begin_lsn"]
    summary = db.restart()
    assert summary["checkpoint_lsn"] == info["begin_lsn"]
    assert summary["redo_from"] == info["redo_lsn"]
    assert db.services.stats.get("recovery.redo.applied") >= 30
    assert table.count() == 30


def test_recovery_without_checkpoint_replays_operations(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(50)])
    # Only the log is stable (commit forces it); pages are dirty.
    db.restart()
    assert db.services.stats.get("recovery.redo.applied") >= 50
    assert table.count() == 50


def test_crash_during_rollback_is_restartable(db):
    """A crash while an abort is half done: the CLRs already on the stable
    log steer restart undo past the compensated operations, so nothing is
    undone twice."""
    table = db.create_table("t", [("id", "INT")])
    table.insert((0,))
    txn = db.begin()
    for i in range(1, 6):
        table.insert((i,))
    mid = db.services.wal.last_lsn(txn.txn_id)
    table.insert((6,))
    table.insert((7,))
    # The abort gets through records 7 and 6, then the system dies.
    db.services.recovery.rollback(txn.txn_id, to_lsn=mid)
    db.services.wal.flush()
    db.restart()
    assert sorted(r[0] for r in table.rows()) == [0]


def test_crash_during_restart_undo_is_restartable(db):
    """Restart itself can crash during its undo pass; the second restart
    must continue from the CLR chain rather than re-undo from the top."""
    table = db.create_table("t", [("id", "INT")])
    table.insert((0,))
    db.begin()
    for i in range(1, 8):
        table.insert((i,))
    db.services.wal.flush()
    # First restart attempt: the power fails again after three loser
    # operations have been compensated (their CLRs on the stable log).
    handler = db.services.recovery.handler("storage.heap")
    real_undo = handler.undo
    undone = []

    def undo_then_die(services, payload, clr_lsn):
        real_undo(services, payload, clr_lsn)
        undone.append(clr_lsn)
        if len(undone) == 3:
            services.wal.flush()
            raise RuntimeError("power lost during restart undo")

    handler.undo = undo_then_die
    try:
        with pytest.raises(RuntimeError):
            db.restart()
    finally:
        handler.undo = real_undo
    db.restart()  # second attempt runs to completion
    assert sorted(r[0] for r in table.rows()) == [0]


def test_crash_inside_checkpoint_window_falls_back(db):
    """A crash between CHECKPOINT_BEGIN and CHECKPOINT_END: the torn
    checkpoint never became master, so restart uses the previous complete
    checkpoint and still recovers everything."""
    from repro.services import wal as wal_records
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(20)])
    first = db.checkpoint()
    table.insert_many([(i,) for i in range(20, 40)])
    # Hand-roll the torn window: BEGIN is stable, END is lost in the crash.
    wal = db.services.wal
    wal.append(wal_records.SYSTEM_TXN, wal_records.CHECKPOINT_BEGIN)
    wal.flush()
    wal.append(wal_records.SYSTEM_TXN, wal_records.CHECKPOINT_END,
               payload={"begin_lsn": wal.current_lsn - 1,
                        "att": {}, "dpt": {}})
    summary = db.restart()
    assert summary["checkpoint_lsn"] == first["begin_lsn"]
    assert sorted(r[0] for r in table.rows()) == list(range(40))


def test_truncated_log_still_recovers_post_checkpoint_tail(db):
    """After checkpoint(truncate=True) the reclaimed prefix is gone, yet a
    crash right afterwards recovers from the retained suffix alone."""
    table = db.create_table("t", [("id", "INT")])
    table.insert_many([(i,) for i in range(25)])
    info = db.checkpoint(mode="sharp", truncate=True)
    assert info["truncated"] > 0
    assert db.services.wal.oldest_lsn > 1
    table.insert_many([(i,) for i in range(25, 50)])
    db.restart()
    assert sorted(r[0] for r in table.rows()) == list(range(50))


def test_auto_checkpoint_bounds_restart_analysis():
    """With auto-checkpointing on, analysis scans a bounded tail however
    long the history grows."""
    db = Database(page_size=1024, buffer_capacity=128,
                  auto_checkpoint_interval=40)
    table = db.create_table("t", [("id", "INT")])
    for i in range(300):
        table.insert((i,))
    assert db.services.stats.get("recovery.checkpoints.auto") > 0
    summary = db.restart()
    assert summary["checkpoint_lsn"] > 0
    # Far fewer records analyzed than the full history.
    assert summary["analysis_records"] < 120
    assert table.count() == 300


def test_group_commit_database_end_to_end():
    db = Database(page_size=1024, buffer_capacity=128, group_commit=4)
    table = db.create_table("t", [("id", "INT")])
    for i in range(8):  # 8 autocommitted inserts: two full groups
        table.insert((i,))
    assert db.services.stats.get("txn.group_commit.stabilized") >= 8
    flushes = db.services.stats.get("txn.group_commit.flushes")
    assert flushes <= 2
    db.commit_group()  # drain any tail before the crash
    db.restart()
    assert table.count() == 8


def test_btree_file_storage_crash_with_key_movement(db):
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")],
                            storage_method="btree_file",
                            attributes={"key": ["id"]})
    for i in range(20):
        table.insert((i, "v"))
    table.update((5,), {"id": 500})   # key movement = delete + insert
    db.begin()
    table.update((6,), {"id": 600})   # loser key movement
    db.services.wal.flush()
    db.restart()
    ids = [r[0] for r in table.rows()]
    assert 500 in ids and 5 not in ids
    assert 6 in ids and 600 not in ids

def test_close_forces_pending_group_commits():
    db = Database(page_size=1024, buffer_capacity=128, group_commit=8)
    table = db.create_table("t", [("id", "INT")])
    for i in range(3):  # a partial group: durability still deferred
        table.insert((i,))
    assert db.services.transactions.pending_group_commits() >= 3
    db.close()
    assert db.services.transactions.pending_group_commits() == 0
    assert db.services.stats.get("db.closes") == 1
    db.restart()  # nothing committed may be lost after close()
    assert table.count() == 3


def test_close_aborts_open_session_transaction():
    db = Database(page_size=1024, buffer_capacity=128)
    table = db.create_table("t", [("id", "INT")])
    table.insert((1,))
    db.begin()
    table.insert((2,))
    db.close()
    assert not db.in_transaction
    assert table.rows() == [(1,)]


def test_checkpoint_forces_pending_group_commits():
    db = Database(page_size=1024, buffer_capacity=128, group_commit=8)
    table = db.create_table("t", [("id", "INT")])
    for i in range(3):
        table.insert((i,))
    assert db.services.transactions.pending_group_commits() >= 3
    # An enqueued COMMIT must neither fall below the truncation horizon
    # nor be classified a loser by the checkpoint's ATT snapshot.
    db.checkpoint(truncate=True)
    assert db.services.transactions.pending_group_commits() == 0
    db.restart()
    assert table.count() == 3


@pytest.mark.parametrize("storage", ["heap", "btree_file"])
def test_single_record_insert_and_delete_redo_and_undo(db, storage):
    """A single insert/delete is a batch of one all the way down to the
    log record: the one payload kind per operation must carry it through
    crash redo, rollback undo, and loser undo at restart."""
    table = db.create_table(
        "t", [("id", "INT", False), ("v", "STRING")], storage_method=storage,
        attributes={"key": ["id"]} if storage == "btree_file" else None)
    keep = table.insert((1, "keep"))
    table.delete(table.insert((2, "gone")))
    ops = {record.payload["op"] for record in db.services.wal.forward()
           if record.resource == f"storage.{storage}"}
    assert ops == {"new_page", "insert_multi", "delete_multi"}

    # Crash redo: no data page reached the device.
    before = db.services.stats.get("recovery.redo.applied")
    db.restart()
    assert db.services.stats.get("recovery.redo.applied") >= before + 3
    assert table.rows() == [(1, "keep")]

    # Rollback undo of a single insert and a single delete.
    db.begin()
    table.insert((3, "aborted"))
    table.delete(keep)
    assert table.rows() == [(3, "aborted")]
    db.rollback()
    assert table.rows() == [(1, "keep")]

    # The same pair as a loser transaction, undone by restart.
    db.begin()
    table.insert((4, "lost"))
    table.delete(keep)
    db.services.wal.flush()
    db.restart()
    assert table.rows() == [(1, "keep")]
    assert table.fetch(keep) == (1, "keep")
