"""A relation lock the transaction holds in the requested mode is not
requested again: dispatch's relation lock and the storage method's record
intent behind it are one request."""

from repro.core.context import ExecutionContext
from repro.services.locks import LockMode


def requests(db, call):
    """``call()``'s result and the lock requests it made."""
    stats = db.services.stats
    before = stats.get("locks.acquire_calls")
    out = call()
    return out, stats.get("locks.acquire_calls") - before


def test_a_single_row_write_asks_for_its_relation_intent_once(db):
    table = db.create_table("t", [("v", "INT")])
    with db.autocommit() as ctx:
        key, made = requests(db, lambda: db.data.insert(ctx, table.handle,
                                                        (1,)))
        # Relation IX for the batch, then the record's X under it.
        assert made == 2
        locks = db.services.locks
        assert locks.held_mode(ctx.txn_id, ("rel", table.handle.relation_id)) \
            is LockMode.IX
        assert locks.held_mode(ctx.txn_id,
                               ("rec", table.handle.relation_id, key)) \
            is LockMode.X


def test_a_held_relation_mode_is_not_requested_again(db):
    ctx = ExecutionContext(db.services.transactions.begin(), db.services, db)
    __, made = requests(db, lambda: ctx.lock_relation(7, LockMode.IS))
    assert made == 1
    __, made = requests(db, lambda: ctx.lock_relation(7, LockMode.IS))
    assert made == 0
    # Another mode is requested: the lock manager joins it (IS + IX = IX).
    __, made = requests(db, lambda: ctx.lock_relation(7, LockMode.IX))
    assert made == 1
    assert db.services.locks.held_mode(ctx.txn_id, ("rel", 7)) is LockMode.IX

