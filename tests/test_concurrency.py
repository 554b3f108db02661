"""Concurrency control through the dispatch layer.

The paper requires every extension to use the locking-based concurrency
controller so that interleaved transactions stay serialisable and
"system-wide deadlock detection" works.  These tests interleave two
transactions deterministically through explicit execution contexts.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import Database, DeadlockError, LockConflictError
from repro.core.context import ExecutionContext
from repro.services.locks import LOCK_ESCALATION_THRESHOLD, LockMode


def two_contexts(db):
    txn_a = db.services.transactions.begin()
    txn_b = db.services.transactions.begin()
    return (ExecutionContext(txn_a, db.services, db),
            ExecutionContext(txn_b, db.services, db))


@pytest.fixture
def table(db):
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    table.insert_many([(1, "a"), (2, "b")])
    return table


def test_the_library_runs_on_the_callers_thread():
    """The threading contract (DESIGN.md, "One thread"): sessions
    interleave, they never run concurrently, so nothing in ``src/``
    starts a thread, a process or an event loop — or imports what could."""
    banned = {"threading", "_thread", "concurrent", "multiprocessing",
              "asyncio"}
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            offenders += [(path.name, module) for module in modules
                          if module.split(".")[0] in banned]
    assert offenders == []


def test_writers_conflict_on_the_same_record(db, table):
    handle = db.catalog.handle("t")
    keys = [k for k, __ in table.scan()]
    ctx_a, ctx_b = two_contexts(db)
    db.data.update(ctx_a, handle, keys[0], (1, "a2"))
    with pytest.raises(LockConflictError):
        db.data.update(ctx_b, handle, keys[0], (1, "b-version"))
    # Distinct records are fine (intent locks on the relation coexist).
    db.data.update(ctx_b, handle, keys[1], (2, "b2"))
    db.services.transactions.commit(ctx_a.txn)
    db.services.transactions.commit(ctx_b.txn)
    assert sorted(table.rows()) == [(1, "a2"), (2, "b2")]


def test_reader_blocked_by_uncommitted_writer(db, table):
    handle = db.catalog.handle("t")
    keys = [k for k, __ in table.scan()]
    ctx_a, ctx_b = two_contexts(db)
    db.data.delete(ctx_a, handle, keys[0])
    with pytest.raises(LockConflictError):
        db.data.fetch(ctx_b, handle, keys[0])
    db.services.transactions.abort(ctx_a.txn)
    # After the abort the record is back and readable.
    assert db.data.fetch(ctx_b, handle, keys[0]) == (1, "a")
    db.services.transactions.commit(ctx_b.txn)


def test_readers_share(db, table):
    handle = db.catalog.handle("t")
    keys = [k for k, __ in table.scan()]
    ctx_a, ctx_b = two_contexts(db)
    assert db.data.fetch(ctx_a, handle, keys[0]) is not None
    assert db.data.fetch(ctx_b, handle, keys[0]) is not None
    db.services.transactions.commit(ctx_a.txn)
    db.services.transactions.commit(ctx_b.txn)


def test_deadlock_detected_through_dispatch(db, table):
    handle = db.catalog.handle("t")
    keys = [k for k, __ in table.scan()]
    ctx_a, ctx_b = two_contexts(db)
    db.data.update(ctx_a, handle, keys[0], (1, "a2"))
    db.data.update(ctx_b, handle, keys[1], (2, "b2"))
    with pytest.raises(LockConflictError):
        db.data.update(ctx_a, handle, keys[1], (2, "a-wants-b"))
    with pytest.raises(DeadlockError):
        db.data.update(ctx_b, handle, keys[0], (1, "b-wants-a"))
    # The victim aborts; the survivor can proceed.
    db.services.transactions.abort(ctx_b.txn)
    db.data.update(ctx_a, handle, keys[1], (2, "a-wins"))
    db.services.transactions.commit(ctx_a.txn)
    assert sorted(table.rows()) == [(1, "a2"), (2, "a-wins")]


def test_commit_releases_locks_for_waiters(db, table):
    handle = db.catalog.handle("t")
    keys = [k for k, __ in table.scan()]
    ctx_a, ctx_b = two_contexts(db)
    db.data.update(ctx_a, handle, keys[0], (1, "a2"))
    with pytest.raises(LockConflictError):
        db.data.update(ctx_b, handle, keys[0], (1, "b2"))
    db.services.transactions.commit(ctx_a.txn)
    db.data.update(ctx_b, handle, keys[0], (1, "b2"))  # retry succeeds
    db.services.transactions.commit(ctx_b.txn)
    assert table.fetch(keys[0]) == (1, "b2")


def test_failed_operation_keeps_locks_until_txn_end(db, table):
    """A vetoed operation is undone, but its locks are held to the end of
    the transaction (strict two-phase locking)."""
    from repro import CheckViolation
    db.add_check("v_short", "t", "length(v) < 5")
    handle = db.catalog.handle("t")
    ctx_a, ctx_b = two_contexts(db)
    with pytest.raises(CheckViolation):
        db.data.insert(ctx_a, handle, (3, "toolongvalue"))
    # The key chosen for the vetoed insert stays locked by txn A.
    held = db.services.locks.locks_held(ctx_a.txn.txn_id)
    assert any(r[0] == "rec" for r in held)
    db.services.transactions.abort(ctx_a.txn)
    db.services.transactions.commit(ctx_b.txn)


# ---------------------------------------------------------------------------
# Read-lock escalation: a wide scan trades record locks for relation S
# ---------------------------------------------------------------------------

@pytest.fixture
def wide(db):
    table = db.create_table("w", [("id", "INT"), ("v", "STRING")])
    table.insert_many([(i, "v") for i in range(200)])
    return table


def scan_all(db, ctx, handle, batch=50):
    scan = db.data.open_scan(ctx, handle)
    rows = []
    while True:
        got = scan.next_batch(batch)
        if not got:
            return rows
        rows.extend(got)


def record_locks(db, ctx):
    return {r for r in db.services.locks.locks_held(ctx.txn_id)
            if r[0] == "rec"}


def test_wide_scan_escalates_to_one_relation_lock(db, wide):
    handle = db.catalog.handle("w")
    ctx_a, ctx_b = two_contexts(db)
    rows = scan_all(db, ctx_a, handle)
    assert len(rows) == 200
    locks = db.services.locks
    relation = ("rel", handle.relation_id)
    assert locks.held_mode(ctx_a.txn_id, relation) is LockMode.S
    page_rows = max(sum(1 for key, __ in rows if key[0] == page)
                    for page in {key[0] for key, __ in rows})
    assert len(record_locks(db, ctx_a)) \
        < LOCK_ESCALATION_THRESHOLD + page_rows
    assert db.services.stats.get("locks.read_escalations") == 1
    # Other readers share; a writer now meets the relation lock — which
    # also closes the phantom window record locks never closed.
    assert len(scan_all(db, ctx_b, handle)) == 200
    ctx_c = ExecutionContext(db.services.transactions.begin(),
                             db.services, db)
    with pytest.raises(LockConflictError) as info:
        db.data.insert(ctx_c, handle, (999, "phantom"))
    assert info.value.resource == relation
    for ctx in (ctx_a, ctx_b, ctx_c):
        db.services.transactions.abort(ctx.txn)
    assert len(wide.rows()) == 200


def test_scan_beside_a_writer_keeps_locking_records(db, wide):
    handle = db.catalog.handle("w")
    ctx_a, ctx_b = two_contexts(db)
    ctx_b.lock_relation(handle.relation_id, LockMode.IX)   # a live writer
    rows = scan_all(db, ctx_a, handle)                     # raises nothing
    locks = db.services.locks
    assert locks.held_mode(ctx_a.txn_id, ("rel", handle.relation_id)) \
        is LockMode.IS
    assert record_locks(db, ctx_a) \
        == {("rec", handle.relation_id, key) for key, __ in rows}
    assert len(rows) == 200
    assert locks.waits_for() == {}
    assert db.services.stats.get("locks.read_escalations") == 0
    # The writer is not shut out either: record granularity still holds.
    db.data.insert(ctx_b, handle, (999, "new"))
    db.services.transactions.commit(ctx_b.txn)
    db.services.transactions.commit(ctx_a.txn)


def test_scan_then_write_upgrades_the_escalated_lock(db, wide):
    handle = db.catalog.handle("w")
    ctx = ExecutionContext(db.services.transactions.begin(), db.services, db)
    rows = scan_all(db, ctx, handle)
    locks = db.services.locks
    relation = ("rel", handle.relation_id)
    db.data.update(ctx, handle, rows[0][0], (0, "changed"))
    assert locks.held_mode(ctx.txn_id, relation) is LockMode.SIX
    db.data.delete_batch(ctx, handle, [key for key, __ in rows[100:]])
    assert locks.held_mode(ctx.txn_id, relation) is LockMode.X
    db.services.transactions.commit(ctx.txn)
    assert len(wide.rows()) == 100 and (0, "changed") in wide.rows()


def test_deadlock_between_an_escalated_reader_and_a_writer(db, wide, table):
    """The relation lock takes part in deadlock detection like any other."""
    wide_handle, t_handle = db.catalog.handle("w"), db.catalog.handle("t")
    key = next(k for k, __ in table.scan())
    ctx_a, ctx_b = two_contexts(db)
    scan_all(db, ctx_a, wide_handle)                      # A: S on w
    db.data.update(ctx_b, t_handle, key, (1, "b"))        # B: X in t
    with pytest.raises(LockConflictError):
        db.data.fetch(ctx_a, t_handle, key)               # A waits for B
    with pytest.raises(DeadlockError) as info:
        db.data.insert(ctx_b, wide_handle, (999, "x"))    # B waits for A
    assert info.value.victim == ctx_b.txn_id
    db.services.transactions.abort(ctx_b.txn)
    assert db.data.fetch(ctx_a, t_handle, key) == (1, "a")
    db.services.transactions.commit(ctx_a.txn)


def test_snapshot_scan_takes_no_locks_and_the_same_bypass_total(db, wide):
    reader = db.connect()
    reader.begin(snapshot=True)
    before = db.services.stats.snapshot()
    assert len(reader.table("w").rows()) == 200
    delta = db.services.stats.delta(before)
    assert reader_locks(db, reader) == 0
    # One relation intent by dispatch, then intent + record per row: the
    # total the per-record path always reported.
    assert delta["mvcc.lock_bypasses"] == 401
    assert "locks.read_escalations" not in delta
    reader.commit()


def reader_locks(db, session):
    return db.services.stats.session_get(session.session_id,
                                         "locks.acquire_calls")


# ---------------------------------------------------------------------------
# Granularity decided before a batch is locked
# ---------------------------------------------------------------------------

RANGE = "SELECT id, v FROM r WHERE id >= 100 AND id < 500"


@pytest.fixture
def ranged():
    """8 000 rows under a unique B-tree: a 400-row range takes the index."""
    db = Database()
    table = db.create_table("r", [("id", "INT", False), ("v", "STRING")])
    table.insert_many([(i, f"v{i}") for i in range(8000)])
    db.create_index("r_id", "r", ["id"], unique=True)
    assert "r_id" in db.explain(RANGE)["access"]["route"]
    return db


def lock_counts(db, session, statement):
    """The statement's rows, lock requests and read escalations."""
    before = db.services.stats.snapshot()
    rows = session.execute(statement)
    delta = db.services.stats.delta(before)
    return (rows, delta.get("locks.acquire_calls", 0),
            delta.get("locks.read_escalations", 0))


def test_an_indexed_point_read_makes_two_lock_requests(ranged):
    """The intent lock and the record lock; the fetch behind the index
    entry asks for nothing it already holds."""
    session = ranged.connect()
    session.begin()
    assert lock_counts(ranged, session, "SELECT v FROM r WHERE id = 7") \
        == ([("v7",)], 2, 0)
    session.commit()


def test_a_wide_index_range_takes_relation_s_and_no_record_locks(ranged):
    session = ranged.connect()
    txn = session.begin()
    rows, requests, escalations = lock_counts(ranged, session, RANGE)
    assert sorted(rows) == [(i, f"v{i}") for i in range(100, 500)]
    assert (requests, escalations) == (1, 1)
    locks = ranged.services.locks
    relation = ("rel", ranged.catalog.handle("r").relation_id)
    assert locks.locks_held(txn.txn_id) == {relation}
    assert locks.held_mode(txn.txn_id, relation) is LockMode.S
    session.commit()


def test_a_wide_range_beside_a_writer_locks_records_and_waits_for_none(
        ranged):
    """Relation S is only ever tried: a writer's IX refuses it, and the
    reader locks each record as it always did."""
    writer, reader = ranged.connect(), ranged.connect()
    writer.begin()
    writer.execute("INSERT INTO r VALUES (9000, 'new')")  # outside the range
    txn = reader.begin()
    rows, __, escalations = lock_counts(ranged, reader, RANGE)
    assert sorted(rows) == [(i, f"v{i}") for i in range(100, 500)]
    assert escalations == 0
    locks = ranged.services.locks
    relation_id = ranged.catalog.handle("r").relation_id
    assert locks.held_mode(txn.txn_id, ("rel", relation_id)) is LockMode.IS
    assert len([r for r in locks.locks_held(txn.txn_id)
                if r[0] == "rec"]) == 400
    assert locks.waits_for() == {}
    reader.commit()
    writer.commit()
