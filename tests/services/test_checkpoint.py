"""Fuzzy checkpoint protocol: ATT/DPT snapshots, master fallback, truncation."""

import pytest

from repro.errors import RecoveryError
from repro.services import SystemServices
from repro.services import events as ev
from repro.services import wal
from repro.services.recovery import ResourceHandler


class CounterHandler(ResourceHandler):
    """Same synthetic resource as test_recovery: an LSN-guarded counter."""

    def __init__(self, store):
        self.store = store

    def undo(self, services, payload, clr_lsn):
        self.store["values"][payload["key"]] -= payload["delta"]
        self.store["lsn"][payload["key"]] = clr_lsn

    def redo(self, services, lsn, payload):
        if self.store["lsn"].get(payload["key"], 0) >= lsn:
            return
        if payload.get("compensates") is not None:
            self.store["values"][payload["key"]] -= payload["delta"]
        else:
            self.store["values"][payload["key"]] += payload["delta"]
        self.store["lsn"][payload["key"]] = lsn


@pytest.fixture
def env():
    services = SystemServices(page_size=1024)
    store = {"values": {"x": 0, "y": 0}, "lsn": {}}
    services.recovery.register_handler("counter", CounterHandler(store))
    return services, store


def apply(services, store, txn, key, delta):
    record = services.recovery.log_update(txn.txn_id, "counter",
                                          {"key": key, "delta": delta})
    store["values"][key] += delta
    store["lsn"][key] = record.lsn


def wipe(store):
    store["values"] = {"x": 0, "y": 0}
    store["lsn"] = {}


# ---------------------------------------------------------------------------
# The checkpoint record pair and its snapshots
# ---------------------------------------------------------------------------

def test_checkpoint_writes_begin_end_pair_and_advances_master(env):
    services, __ = env
    info = services.checkpoint()
    begin = services.wal.record(info["begin_lsn"])
    end = services.wal.record(info["end_lsn"])
    assert begin.kind == wal.CHECKPOINT_BEGIN
    assert end.kind == wal.CHECKPOINT_END
    assert end.payload["begin_lsn"] == begin.lsn
    assert services.wal.master_lsn == begin.lsn
    # The checkpoint records themselves are stable before master advances.
    assert services.wal.flushed_lsn >= end.lsn


def test_checkpoint_snapshots_active_transaction_table(env):
    services, store = env
    active = services.transactions.begin()
    apply(services, store, active, "x", 5)
    done = services.transactions.begin()
    services.transactions.commit(done)
    info = services.checkpoint()
    att = services.wal.record(info["end_lsn"]).payload["att"]
    assert set(att) == {active.txn_id}
    assert att[active.txn_id]["first_lsn"] == services.wal.first_lsn(
        active.txn_id)
    assert att[active.txn_id]["last_lsn"] == services.wal.last_lsn(
        active.txn_id)


def test_fuzzy_checkpoint_never_flushes_pages(env):
    services, __ = env
    page = services.buffer.new_page(1)
    page.insert(b"dirty")
    services.buffer.unpin(page.page_id, dirty=True)
    writes = services.disk.writes
    info = services.checkpoint()
    assert services.disk.writes == writes
    assert info["dirty_pages"] == 1


def test_sharp_checkpoint_empties_dirty_page_table(env):
    services, __ = env
    page = services.buffer.new_page(1)
    services.buffer.unpin(page.page_id, dirty=True)
    info = services.checkpoint(flush_pages=True)
    assert info["dirty_pages"] == 0
    assert info["redo_lsn"] == info["begin_lsn"]


def test_redo_lsn_is_min_rec_lsn_over_dirty_pages(env):
    services, store = env
    txn = services.transactions.begin()
    page = services.buffer.new_page(1)
    apply(services, store, txn, "x", 1)  # log traffic after the page dirtied
    services.buffer.unpin(page.page_id, dirty=True)
    info = services.checkpoint()
    dpt = services.wal.record(info["end_lsn"]).payload["dpt"]
    assert info["redo_lsn"] == min(dpt.values())
    assert info["redo_lsn"] < info["begin_lsn"]


def test_truncatable_below_respects_undo_horizon(env):
    """An old active transaction holds the truncation point down even when
    every dirty page is recent."""
    services, store = env
    old = services.transactions.begin()
    apply(services, store, old, "x", 1)
    for __ in range(10):
        done = services.transactions.begin()
        apply(services, store, done, "y", 1)
        services.transactions.commit(done)
    info = services.checkpoint()
    assert info["truncatable_below"] <= services.wal.first_lsn(old.txn_id)


# ---------------------------------------------------------------------------
# Master fallback: a torn checkpoint window never becomes master
# ---------------------------------------------------------------------------

def test_crash_between_begin_and_end_falls_back_to_previous_master(env):
    services, store = env
    txn = services.transactions.begin()
    apply(services, store, txn, "x", 7)
    services.transactions.commit(txn)
    first = services.checkpoint()

    # Hand-roll a torn checkpoint: BEGIN reaches the stable log, END does not.
    services.wal.append(wal.SYSTEM_TXN, wal.CHECKPOINT_BEGIN)
    services.wal.flush()
    services.wal.append(wal.SYSTEM_TXN, wal.CHECKPOINT_END,
                        payload={"begin_lsn": services.wal.current_lsn - 1,
                                 "att": {}, "dpt": {}})
    services.crash()
    assert services.wal.master_lsn == first["begin_lsn"]

    # The counter store survives like a flushed page would: restart from
    # the previous complete checkpoint finds no losers and changes nothing.
    summary = services.recovery.restart()
    assert summary["checkpoint_lsn"] == first["begin_lsn"]
    assert store["values"]["x"] == 7


def test_unstable_master_never_survives_crash(env):
    services, __ = env
    with pytest.raises(RecoveryError):
        # Advancing master past the stable prefix is a protocol violation.
        services.wal.set_master(services.wal.current_lsn + 1)


def test_restart_without_any_checkpoint_scans_from_log_start(env):
    services, store = env
    txn = services.transactions.begin()
    apply(services, store, txn, "x", 3)
    services.transactions.commit(txn)
    services.crash()
    wipe(store)
    summary = services.recovery.restart()
    assert summary["checkpoint_lsn"] == 0
    assert summary["redo_from"] == services.wal.oldest_lsn
    assert store["values"]["x"] == 3


# ---------------------------------------------------------------------------
# Restart bounded by the checkpoint
# ---------------------------------------------------------------------------

def test_restart_analysis_starts_at_master_checkpoint(env):
    services, store = env
    for __ in range(20):
        txn = services.transactions.begin()
        apply(services, store, txn, "x", 1)
        services.transactions.commit(txn)
    info = services.checkpoint()
    tail = services.transactions.begin()
    apply(services, store, tail, "x", 1)
    services.transactions.commit(tail)
    services.crash()
    summary = services.recovery.restart()
    assert summary["checkpoint_lsn"] == info["begin_lsn"]
    # Analysis scanned the checkpoint + tail, not the 20 old transactions.
    assert summary["analysis_records"] <= 8
    assert store["values"]["x"] == 21


def test_loser_active_at_checkpoint_is_found_via_att(env):
    """A transaction with no records after the checkpoint still rolls back:
    analysis seeds the loser set from the checkpointed ATT."""
    services, store = env
    loser = services.transactions.begin()
    apply(services, store, loser, "y", 9)
    services.checkpoint()
    services.wal.flush()
    services.crash()
    summary = services.recovery.restart()
    assert summary["losers"] == [loser.txn_id]
    assert store["values"]["y"] == 0


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def test_checkpoint_truncate_reclaims_prefix_and_preserves_recovery(env):
    services, store = env
    for __ in range(10):
        txn = services.transactions.begin()
        apply(services, store, txn, "x", 1)
        services.transactions.commit(txn)
    before = len(services.wal)
    info = services.checkpoint(truncate=True)
    assert info["truncated"] > 0
    assert len(services.wal) == before + 2 - info["truncated"]
    assert services.wal.oldest_lsn == info["truncatable_below"]
    # Recovery still works over the retained suffix.
    services.crash()
    wipe(store)
    services.recovery.restart()
    # Pre-truncation history is gone from the log, so only operations at or
    # above the truncation point can be redone into the wiped store — and
    # restart must not error trying to read below the horizon.
    assert services.wal.truncated_records == info["truncated"]


def test_truncation_never_reclaims_undo_horizon_of_active_txn(env):
    services, store = env
    loser = services.transactions.begin()
    apply(services, store, loser, "x", 5)
    for __ in range(5):
        txn = services.transactions.begin()
        apply(services, store, txn, "y", 1)
        services.transactions.commit(txn)
    services.checkpoint(truncate=True)
    # The loser's records survived truncation; abort can still undo them.
    services.transactions.abort(loser)
    assert store["values"]["x"] == 0


# ---------------------------------------------------------------------------
# Automatic checkpointing
# ---------------------------------------------------------------------------

def test_auto_checkpoint_fires_every_interval(env):
    services, store = env
    services.enable_auto_checkpoint(10)
    for __ in range(20):                      # 40 records: UPDATE, COMMIT
        txn = services.transactions.begin()
        apply(services, store, txn, "x", 1)
        services.transactions.commit(txn)
    auto = services.stats.get("recovery.checkpoints.auto")
    assert auto >= 3
    assert services.wal.master_lsn > 0
    # The trigger does not recurse on the checkpoint's own records.
    assert services.stats.get("recovery.checkpoints") == auto


def test_checkpoint_during_commit_excludes_finished_txn_from_att(env):
    """The trigger fires inside the COMMIT append, while the committing
    transaction is still registered as active.  Its COMMIT precedes the
    checkpoint, so an ATT entry would make restart analysis call it a
    loser and undo committed work."""
    services, store = env
    services.enable_auto_checkpoint(2)
    txn = services.transactions.begin()
    apply(services, store, txn, "x", 5)       # 1: UPDATE
    services.transactions.commit(txn)         # 2: COMMIT -> checkpoint
    assert services.wal.master_lsn > services.wal.last_lsn(txn.txn_id)
    att = services.recovery._checkpoint_tables(services.wal.master_lsn)[0]
    assert txn.txn_id not in att
    services.crash()
    summary = services.recovery.restart()
    assert txn.txn_id not in summary["losers"]
    assert store["values"]["x"] == 5


def test_checkpoint_during_at_commit_work_excludes_committed_txn(env):
    """At-commit work may log after the COMMIT, and a checkpoint may land
    between that record and the END.  A crash that loses the END must not
    make restart undo the committed transaction."""
    services, store = env
    txn = services.transactions.begin()
    apply(services, store, txn, "x", 5)

    def at_commit(txn_id, data):
        apply(services, store, txn, "y", 1)
        services.checkpoint()

    services.events.defer(txn.txn_id, ev.AT_COMMIT, at_commit)
    services.transactions.commit(txn)
    assert services.wal.lose_unflushed() == 1          # the END
    att = services.recovery._checkpoint_tables(services.wal.master_lsn)[0]
    assert txn.txn_id not in att
    services.crash()
    summary = services.recovery.restart()
    assert txn.txn_id not in summary["losers"]
    assert store["values"] == {"x": 5, "y": 1}


def test_auto_checkpoint_disable(env):
    services, store = env
    services.enable_auto_checkpoint(5)
    services.enable_auto_checkpoint(0)
    for __ in range(5):
        txn = services.transactions.begin()
        apply(services, store, txn, "x", 1)
        services.transactions.commit(txn)
    assert services.stats.get("recovery.checkpoints.auto") == 0
