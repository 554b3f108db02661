"""Sessions: admission control, per-session transactions, the shared
plan cache, per-session statistics, and lifecycle safety."""

import pytest

from repro import AdmissionError, Database, SessionError
from repro.errors import TransactionError
from repro.services import events as ev
from repro.services import wal


def make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table("emp", [("id", "INT", False), ("name", "STRING"),
                            ("salary", "FLOAT")])
    db.create_index("emp_id", "emp", ["id"], unique=True)
    db.table("emp").insert_many([
        (1, "alice", 120000.0), (2, "bob", 95000.0), (3, "carol", 130000.0)])
    return db


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_bounds_session_pool():
    db = make_db(max_sessions=2)
    s1 = db.connect()
    s2 = db.connect()
    with pytest.raises(AdmissionError) as info:
        db.connect()
    assert "2" in str(info.value)
    assert db.services.stats.get("sessions.rejected") == 1
    # Closing a session frees its admission slot.
    s1.close()
    s3 = db.connect()
    assert not s3.closed
    assert db.services.stats.get("sessions.connected") == 3
    s2.close()
    s3.close()


def test_session_ids_are_distinct_and_listed():
    db = make_db()
    sessions = [db.connect() for _ in range(5)]
    ids = {s.session_id for s in sessions}
    assert len(ids) == 5
    assert set(db.sessions()) == set(sessions)
    for s in sessions:
        s.close()
    assert db.sessions() == ()


# ---------------------------------------------------------------------------
# Per-session transactions
# ---------------------------------------------------------------------------

def test_sessions_have_independent_transactions():
    db = make_db()
    s1, s2 = db.connect(), db.connect()
    t1 = s1.begin()
    t2 = s2.begin()
    assert t1.txn_id != t2.txn_id
    assert s1.in_transaction and s2.in_transaction
    s1.commit()
    assert not s1.in_transaction
    assert s2.in_transaction          # s1's commit did not touch s2
    s2.rollback()


def test_double_begin_rejected():
    db = make_db()
    with db.connect() as session:
        session.begin()
        with pytest.raises(TransactionError):
            session.begin()
        session.rollback()


def test_misuse_texts_of_both_transaction_scopes():
    """The database and a session each name their own transaction in a
    misuse error; a closed session refuses every transaction call; only a
    session's transaction takes ``snapshot=``."""
    db = make_db()
    session = db.connect()
    for scope, none_open, already_open in (
            (db, "no session transaction is open",
             "a session transaction is already open"),
            (session, f"session {session.session_id} has no open transaction",
             f"session {session.session_id} already has an open transaction")):
        for call in (scope.commit, scope.rollback,
                     lambda: scope.savepoint("s"),
                     lambda: scope.rollback_to("s")):
            with pytest.raises(TransactionError) as info:
                call()
            assert str(info.value) == none_open
        scope.begin()
        for call in (scope.begin, lambda: scope.transaction().__enter__()):
            with pytest.raises(TransactionError) as info:
                call()
            assert str(info.value) == already_open
        scope.rollback()
        assert not scope.in_transaction
    for call in (lambda: db.begin(snapshot=True),
                 lambda: db.transaction(snapshot=True)):
        with pytest.raises(TypeError):
            call()
    session.close()
    for call in (session.begin, session.commit, session.rollback,
                 lambda: session.savepoint("s"),
                 lambda: session.rollback_to("s"),
                 lambda: session.transaction().__enter__(),
                 lambda: session.autocommit().__enter__()):
        with pytest.raises(SessionError) as info:
            call()
        assert str(info.value) == f"session {session.session_id} is closed"


def test_session_relation_operations_and_transaction_scope():
    db = make_db()
    with db.connect() as session:
        emp = session.table("emp")
        key = emp.insert((4, "dave", 70000.0))
        assert emp.fetch(key)[1] == "dave"
        session.begin()
        emp.update_where("id = 4", {"salary": 75000.0})
        session.rollback()                      # per-session rollback
        assert emp.rows(where="id = 4")[0][2] == 70000.0


def test_session_transaction_contextmanager_commits():
    db = make_db()
    with db.connect() as session:
        with session.transaction():
            session.table("emp").update_where("id = 1", {"salary": 1.0})
        assert session.table("emp").rows(where="id = 1")[0][2] == 1.0


# ---------------------------------------------------------------------------
# Shared plan cache
# ---------------------------------------------------------------------------

def test_plan_cache_shared_across_sessions():
    db = make_db()
    stats = db.services.stats
    s1, s2 = db.connect(), db.connect()
    statement = "SELECT name FROM emp WHERE salary > 100000.0"
    expected = sorted(s1.execute(statement))
    before = stats.snapshot()
    assert sorted(s2.execute(statement)) == expected
    delta = stats.delta(before)
    assert delta.get("plan_cache.hits", 0) >= 1
    assert "plan_cache.translations" not in delta
    s1.close()
    s2.close()


def test_plan_cache_retranslates_on_descriptor_version_change():
    db = make_db()
    stats = db.services.stats
    s1 = db.connect()
    statement = "SELECT id FROM emp WHERE id = 2"
    assert s1.execute(statement) == [(2,)]
    # Another caller's DDL bumps the descriptor version out from under
    # the cached plan; the next execution must notice and re-translate.
    db.catalog.handle("emp").descriptor.version += 1
    before = stats.snapshot()
    assert s1.execute(statement) == [(2,)]
    delta = stats.delta(before)
    assert delta.get("plan_cache.version_mismatches", 0) >= 1
    assert delta.get("plan_cache.retranslations", 0) >= 1
    s1.close()


# ---------------------------------------------------------------------------
# A transaction exists in the log from its first logged record
# ---------------------------------------------------------------------------

def test_read_only_autocommit_statement_leaves_the_log_untouched():
    db = make_db()
    session = db.connect()
    services = db.services
    ended = []
    services.events.subscribe(ev.AT_END,
                              lambda txn_id, info: ended.append(txn_id))
    session.execute("SELECT * FROM emp WHERE id = :id", {"id": 2})  # warm
    lsn, flushed = services.wal.current_lsn, services.wal.flushed_lsn
    unlogged = services.stats.get("txn.unlogged_ends")
    del ended[:]
    assert session.execute("SELECT * FROM emp WHERE id = :id",
                           {"id": 2}) == [(2, "bob", 95000.0)]
    assert (services.wal.current_lsn, services.wal.flushed_lsn) \
        == (lsn, flushed)
    # The statement's transaction still ended like any other: AT_END fired
    # (its scans closed), its locks released, nothing left active.
    assert len(ended) == 1
    assert services.scans.open_scans(ended[0]) == ()
    assert services.locks.locks_held(ended[0]) == frozenset()
    assert services.transactions.active_transactions() == ()
    assert services.stats.get("txn.unlogged_ends") == unlogged + 1
    session.close()


def test_writer_log_is_operations_then_commit():
    db = make_db()
    session = db.connect()
    log = db.services.wal
    session.execute("SELECT * FROM emp WHERE id = 1")
    start = log.current_lsn
    txn = session.begin()
    session.execute("SELECT * FROM emp WHERE id = 1")
    assert log.current_lsn == start  # begun, has read, logged nothing yet
    session.execute("UPDATE emp SET salary = 1.0 WHERE id = 1")
    session.commit()
    records = [r for r in log.forward(start + 1)]
    assert {r.txn_id for r in records} == {txn.txn_id}
    kinds = [r.kind for r in records]
    assert kinds[-1] == wal.COMMIT and set(kinds[:-1]) == {wal.UPDATE}
    # The first operation heads the backchain; the commit was forced.
    assert records[0].lsn == log.first_lsn(txn.txn_id)
    assert records[0].prev_lsn == 0 and records[1].prev_lsn == records[0].lsn
    assert log.flushed_lsn >= records[-1].lsn
    session.close()


def test_open_readers_are_not_restart_losers():
    """A snapshot reader and a locking transaction that has only read,
    both open across a fuzzy checkpoint and a crash: neither exists in
    the log, so neither is a loser; a writer open beside them still is."""
    db = make_db()
    reader, locker, writer = db.connect(), db.connect(), db.connect()
    snap = reader.begin(snapshot=True)
    reader.execute("SELECT * FROM emp")
    read = locker.begin()
    locker.execute("SELECT * FROM emp WHERE id = 2")
    wrote = writer.begin()
    writer.execute("UPDATE emp SET salary = 7.0 WHERE id = 3")
    info = db.checkpoint()
    assert info["active_transactions"] == 1
    db.services.wal.flush()
    summary = db.restart()
    assert summary["losers"] == [wrote.txn_id]
    assert not {snap.txn_id, read.txn_id} & {
        r.txn_id for r in db.services.wal.forward()}
    assert db.execute("SELECT salary FROM emp WHERE id = 3") == [(130000.0,)]


# ---------------------------------------------------------------------------
# Per-session statistics
# ---------------------------------------------------------------------------

def test_per_session_counters_reconcile_with_engine_totals():
    db = make_db()
    stats = db.services.stats
    s1, s2 = db.connect(), db.connect()
    before = stats.get("locks.acquire_calls")
    s1.table("emp").rows()
    s1.table("emp").rows()
    s2.table("emp").rows()
    engine_delta = stats.get("locks.acquire_calls") - before
    per_session = (stats.session_get(s1.session_id, "locks.acquire_calls")
                   + stats.session_get(s2.session_id, "locks.acquire_calls"))
    assert engine_delta == per_session > 0
    assert stats.session_get(s1.session_id, "locks.acquire_calls") \
        == 2 * stats.session_get(s2.session_id, "locks.acquire_calls")
    s1.close()
    s2.close()


def test_session_counters_dropped_on_demand():
    db = make_db()
    stats = db.services.stats
    with db.connect() as session:
        session.table("emp").rows()
        sid = session.session_id
        assert stats.session_snapshot(sid)
    stats.drop_session(sid)
    assert stats.session_snapshot(sid) == {}


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_closed_session_rejects_all_work():
    db = make_db()
    session = db.connect()
    session.close()
    for call in (session.begin, lambda: session.table("emp"),
                 lambda: session.execute("SELECT id FROM emp")):
        with pytest.raises(SessionError):
            call()


def test_session_close_is_idempotent_and_aborts_open_txn():
    db = make_db()
    session = db.connect()
    session.begin()
    session.table("emp").update_where("id = 1", {"salary": 0.0})
    session.close()
    session.close()                    # second close is a no-op
    assert db.services.stats.get("sessions.closed") == 1
    assert db.table("emp").rows(where="id = 1")[0][2] == 120000.0


def test_database_close_drains_open_sessions_idempotently():
    db = make_db(group_commit=8)
    s1, s2 = db.connect(), db.connect()
    s1.begin()
    s1.table("emp").update_where("id = 1", {"salary": 0.0})
    with s2.transaction():
        s2.table("emp").update_where("id = 2", {"salary": 1.0})
    assert db.services.transactions.pending_group_commits() > 0
    db.close()
    assert s1.closed and s2.closed
    assert db.sessions() == ()
    # Pending group commits were forced exactly once; nothing is left.
    assert db.services.transactions.pending_group_commits() == 0
    db.close()                         # closing a closed database is safe


def test_restart_invalidates_session_transactions():
    db = make_db()
    session = db.connect()
    session.begin()
    db.restart()
    assert not session.in_transaction   # in-flight txn did not survive
    assert session.table("emp").count("id >= 1") == 3   # session itself did
    session.close()
