"""Transaction manager: lifecycle, savepoints, deferred-action vetoes."""

import pytest

from repro.errors import RecoveryError, TransactionError, VetoError
from repro.services import SystemServices
from repro.services import events as ev
from repro.services import wal
from repro.services.recovery import ResourceHandler
from repro.services.transactions import TxnState


class NoopHandler(ResourceHandler):
    """A resource whose logged operations change nothing."""

    def undo(self, services, payload, clr_lsn):
        pass

    def redo(self, services, lsn, payload):
        pass


def logged_begin(services):
    """A transaction with one logged operation (a no-op UPDATE): it exists
    in the log from that first record, so an empty one leaves no log."""
    try:
        services.recovery.handler("test.noop")
    except RecoveryError:
        services.recovery.register_handler("test.noop", NoopHandler())
    txn = services.transactions.begin()
    services.recovery.log_update(txn.txn_id, "test.noop", {})
    return txn


def test_first_record_begins_the_transaction(services):
    quiet = services.transactions.begin()
    services.transactions.savepoint(quiet, "sp")  # a savepoint logs nothing
    assert services.wal.current_lsn == 0  # nothing until it logs something
    logged_begin(services)
    txn = logged_begin(services)
    records = list(services.wal.forward())
    assert [r.kind for r in records] == [wal.UPDATE, wal.UPDATE]
    assert records[1].txn_id == txn.txn_id and records[1].prev_lsn == 0
    # The first record is the transaction's undo horizon.
    assert services.wal.first_lsn(txn.txn_id) == records[1].lsn


def test_commit_forces_log_and_releases_locks(services):
    from repro.services.locks import LockMode
    txn = logged_begin(services)
    services.locks.acquire(txn.txn_id, "r", LockMode.X)
    services.transactions.commit(txn)
    assert txn.state is TxnState.COMMITTED
    assert services.wal.flushed_lsn >= services.wal.last_lsn(txn.txn_id) - 1
    assert services.locks.locks_held(txn.txn_id) == frozenset()
    # A plain COMMIT is the transaction's last record.
    kinds = [r.kind for r in services.wal.forward()]
    assert kinds == [wal.UPDATE, wal.COMMIT]
    assert services.wal.record(2).payload == {}


def test_abort_writes_abort_then_end(services):
    txn = logged_begin(services)
    services.transactions.abort(txn)
    assert txn.state is TxnState.ABORTED
    kinds = [r.kind for r in services.wal.forward()]
    assert kinds == [wal.UPDATE, wal.ABORT, wal.CLR, wal.END]


@pytest.mark.parametrize("end", ["commit", "abort"])
def test_never_logged_transaction_leaves_no_log(services, end):
    """Commit or abort of a transaction that logged nothing appends
    nothing and forces nothing, and still ends it: events fired, locks
    released, gone from the active table."""
    from repro.services.locks import LockMode
    fired = []
    for event in (ev.BEFORE_PREPARE, ev.AT_COMMIT, ev.AT_ABORT, ev.AT_END):
        services.events.subscribe(
            event, lambda txn_id, info, event=event: fired.append(event))
    txn = services.transactions.begin()
    services.locks.acquire(txn.txn_id, "r", LockMode.S)
    flushes = []
    services.wal.flush = lambda *a, **k: flushes.append(a)
    getattr(services.transactions, end)(txn)
    assert txn.settled
    assert services.wal.current_lsn == services.wal.flushed_lsn == 0
    assert flushes == [] and services.wal.last_lsn(txn.txn_id) == 0
    assert services.locks.locks_held(txn.txn_id) == frozenset()
    assert services.transactions.active_transactions() == ()
    assert fired == ([ev.BEFORE_PREPARE, ev.AT_COMMIT, ev.AT_END]
                     if end == "commit" else [ev.AT_ABORT, ev.AT_END])
    assert services.stats.get("txn.unlogged_ends") == 1


def test_pending_at_commit_action_keeps_the_logged_commit_path(services):
    """At-commit actions externalize state, so their transaction is made
    durable first even when it logged nothing else."""
    txn = services.transactions.begin()
    services.events.defer(txn.txn_id, ev.AT_COMMIT, lambda t, d: None)
    services.transactions.commit(txn)
    kinds = [r.kind for r in services.wal.forward()]
    assert kinds == [wal.COMMIT, wal.END]
    # The marked COMMIT tells a standby that an END follows.
    assert services.wal.record(1).payload == {"end": True}
    assert services.wal.flushed_lsn >= 1


def test_crash_with_never_logged_transaction_open_leaves_no_loser(services):
    reader = services.transactions.begin()
    writer = logged_begin(services)
    services.wal.flush()
    services.crash()
    summary = services.recovery.restart()
    assert summary["losers"] == [writer.txn_id]
    assert all(r.txn_id != reader.txn_id for r in services.wal.forward())


def test_commit_twice_rejected(services):
    txn = services.transactions.begin()
    services.transactions.commit(txn)
    with pytest.raises(TransactionError):
        services.transactions.commit(txn)
    with pytest.raises(TransactionError):
        services.transactions.abort(txn)


def test_savepoint_names_must_be_unique(services):
    txn = services.transactions.begin()
    services.transactions.savepoint(txn, "sp")
    with pytest.raises(TransactionError):
        services.transactions.savepoint(txn, "sp")


def test_rollback_to_unknown_savepoint_rejected(services):
    txn = services.transactions.begin()
    with pytest.raises(TransactionError):
        services.transactions.rollback_to(txn, "nope")


def test_rollback_cancels_inner_savepoints_keeps_target(services):
    txn = services.transactions.begin()
    services.transactions.savepoint(txn, "outer")
    services.transactions.savepoint(txn, "inner")
    services.transactions.rollback_to(txn, "outer")
    assert "inner" not in txn.savepoints
    assert "outer" in txn.savepoints
    # Rolling back to the same savepoint again is allowed (SQL semantics).
    services.transactions.rollback_to(txn, "outer")


def test_release_savepoint_releases_nested(services):
    txn = services.transactions.begin()
    services.transactions.savepoint(txn, "a")
    services.transactions.savepoint(txn, "b")
    services.transactions.release_savepoint(txn, "a")
    assert txn.savepoints == {}


def test_before_prepare_veto_aborts_transaction(services):
    txn = services.transactions.begin()

    def veto(txn_id, data):
        raise VetoError("deferred_constraint", "not satisfied at commit")

    services.events.defer(txn.txn_id, ev.BEFORE_PREPARE, veto)
    with pytest.raises(VetoError):
        services.transactions.commit(txn)
    assert txn.state is TxnState.ABORTED


def test_at_commit_actions_run_after_commit_record(services):
    txn = services.transactions.begin()
    seen = []
    services.events.defer(txn.txn_id, ev.AT_COMMIT,
                          lambda t, d: seen.append(services.wal.flushed_lsn))
    services.transactions.commit(txn)
    assert seen and seen[0] >= 1  # the COMMIT record was already stable


def test_deferred_actions_do_not_run_on_abort(services):
    txn = services.transactions.begin()
    ran = []
    services.events.defer(txn.txn_id, ev.AT_COMMIT,
                          lambda t, d: ran.append("commit"))
    services.transactions.abort(txn)
    assert ran == []


def test_abort_forces_log_through_end_record(services):
    """A crash right after abort returns must find the CLR/ABORT/END chain
    on the stable log — otherwise restart re-undoes the transaction."""
    txn = services.transactions.begin()
    services.transactions.abort(txn)
    assert services.wal.flushed_lsn == services.wal.current_lsn
    assert services.wal.lose_unflushed() == 0


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------

def test_group_commit_defers_durability_until_group_flush(services):
    services.transactions.group_commit_limit = 8
    commit_lsns = []
    for __ in range(3):
        txn = logged_begin(services)
        services.transactions.commit(txn)
        # last_lsn is the COMMIT record: a plain commit writes no END.
        commit_lsns.append(services.wal.last_lsn(txn.txn_id))
        # A commit that logged nothing has no COMMIT record to stabilize:
        # it never joins the group.
        services.transactions.commit(services.transactions.begin())
    assert services.transactions.pending_group_commits() == 3
    assert services.wal.flushed_lsn < max(commit_lsns)
    assert services.transactions.commit_group() == 3
    assert services.wal.flushed_lsn >= max(commit_lsns)
    assert services.stats.get("txn.group_commit.enqueued") == 3
    assert services.stats.get("txn.group_commit.flushes") == 1
    assert services.stats.get("txn.group_commit.stabilized") == 3


def test_group_commit_auto_flushes_at_limit(services):
    services.transactions.group_commit_limit = 3
    for __ in range(3):
        txn = logged_begin(services)
        services.transactions.commit(txn)
    # The third commit filled the group: one flush stabilized all three.
    assert services.transactions.pending_group_commits() == 0
    assert services.stats.get("txn.group_commit.flushes") == 1
    assert services.stats.get("txn.group_commit.stabilized") == 3


def test_group_commit_prunes_already_stable_commits(services):
    services.transactions.group_commit_limit = 8
    txn = logged_begin(services)
    services.transactions.commit(txn)
    assert services.transactions.pending_group_commits() == 1
    services.wal.flush()  # some other force covered the enqueued COMMIT
    assert services.transactions.commit_group() == 0
    assert services.stats.get("txn.group_commit.flushes") == 0


def test_unflushed_group_commit_lost_at_crash(services):
    services.transactions.group_commit_limit = 8
    txn = logged_begin(services)
    services.wal.flush()  # the first record reaches the stable log
    services.transactions.commit(txn)
    assert services.wal.lose_unflushed() > 0  # the deferred-durability window
    summary = services.recovery.restart()
    assert summary["losers"] == [txn.txn_id]


def test_at_commit_actions_force_solo_flush_despite_group_commit(services):
    """Deferred at-commit actions externalize state (e.g. deferred storage
    release); their transaction must be durable before they run."""
    services.transactions.group_commit_limit = 8
    txn = services.transactions.begin()
    stable_at_action = []
    services.events.defer(
        txn.txn_id, ev.AT_COMMIT,
        lambda t, d: stable_at_action.append(services.wal.flushed_lsn))
    services.transactions.commit(txn)
    assert services.transactions.pending_group_commits() == 0
    assert stable_at_action[0] >= services.wal.last_lsn(txn.txn_id) - 1


def test_active_transactions_tracking(services):
    a = services.transactions.begin()
    b = services.transactions.begin()
    assert {t.txn_id for t in services.transactions.active_transactions()} \
        == {a.txn_id, b.txn_id}
    services.transactions.commit(a)
    assert services.transactions.get(a.txn_id) is None
    assert services.transactions.get(b.txn_id) is b
