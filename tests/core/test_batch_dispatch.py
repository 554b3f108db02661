"""Set-at-a-time dispatch: one savepoint/lock per set, fallbacks.

The generic modification operations run the paper's two-step protocol once
per *set* — a single record is a set of one: one operation savepoint, one
relation lock, one storage-method call, and one attached-procedure call
per attachment type.  Extensions that never heard of batches keep working
through the base-class fallback hooks.  Failures are covered by
``test_batch_fault_matrix.py``.
"""

import pytest

from repro import Database, VetoError
from repro.core.attachment import AttachmentType
from repro.core.storage_method import StorageMethod
from repro.storage.memory import MemoryStorageMethod

ROWS = [(i, f"name{i}", "eng" if i % 2 else "sales", 1000.0 + i)
        for i in range(40)]

SCHEMA = [("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
          ("salary", "FLOAT")]


def build(storage="heap", index=True):
    db = Database(page_size=1024, buffer_capacity=128)
    attributes = {"key": ["id"]} if storage == "btree_file" else None
    table = db.create_table("t", SCHEMA, storage_method=storage,
                            attributes=attributes)
    if index:
        db.create_index("t_name", "t", ["name"])
    return db, table


# ----------------------------------------------------------------------
# One set of N is equivalent to N sets of one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", ["heap", "btree_file", "memory"])
def test_insert_batch_matches_per_record_contents(storage):
    db_one, one = build(storage)
    db_set, batch = build(storage)
    for row in ROWS:
        one.insert(row)
    keys = batch.insert_many(ROWS)
    assert len(keys) == len(ROWS)
    assert sorted(one.rows()) == sorted(batch.rows()) == sorted(ROWS)
    # The index saw every record either way.
    assert sorted(one.rows(where="name = 'name7'")) == \
        sorted(batch.rows(where="name = 'name7'"))


def test_insert_batch_returns_keys_in_input_order():
    db, table = build("btree_file", index=False)
    rows = [(9, "i", "x", 1.0), (2, "b", "x", 2.0), (5, "e", "x", 3.0)]
    keys = table.insert_many(rows)
    # btree_file keys are the key-field values; the batch applies records
    # in key order internally but must report keys in input order.
    assert keys == [(9,), (2,), (5,)]


def test_update_where_and_delete_where_are_set_operations():
    db, table = build()
    table.insert_many(ROWS)
    before = db.services.stats.snapshot()
    updated = table.update_where("dept = 'eng'", {"salary": 0.0})
    assert updated == sum(1 for r in ROWS if r[2] == "eng")
    delta = db.services.stats.delta(before)
    # One operation savepoint for the whole update batch.
    assert delta.get("txn.savepoints_set") == 1
    deleted = table.delete_where("dept = 'sales'")
    assert deleted == sum(1 for r in ROWS if r[2] == "sales")
    assert table.count() == updated
    assert all(s == 0.0 for s in (r[3] for r in table.rows()))


# ----------------------------------------------------------------------
# Fallback hooks: extensions without batch overrides keep working
# ----------------------------------------------------------------------
class RecordingAttachment(AttachmentType):
    """No batch overrides: must be driven record-at-a-time by defaults."""

    name = "recording"
    is_access_path = False

    def __init__(self):
        self.calls = []

    def create_instance(self, ctx, handle, instance_name, attributes):
        return {"name": instance_name}

    def destroy_instance(self, ctx, handle, instance_name, instance):
        pass

    def on_insert(self, ctx, handle, field, key, new_record):
        self.calls.append(("insert", key))

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record):
        self.calls.append(("update", old_key, new_key))

    def on_delete(self, ctx, handle, field, key, old_record):
        self.calls.append(("delete", key))


class PlainMemoryStorage(MemoryStorageMethod):
    """A tuple-at-a-time storage method: per-record bodies only, driven
    by the base-class batch defaults."""

    name = "plainmem"
    insert_batch = StorageMethod.insert_batch
    update_batch = StorageMethod.update_batch
    delete_batch = StorageMethod.delete_batch

    def insert(self, ctx, handle, record):
        return MemoryStorageMethod.insert_batch(self, ctx, handle,
                                                [record])[0]

    def delete(self, ctx, handle, key, old_record):
        MemoryStorageMethod.delete_batch(self, ctx, handle,
                                         [(key, old_record)])


def test_attachment_without_batch_hooks_sees_each_record():
    db = Database(page_size=1024)
    recorder = RecordingAttachment()
    db.registry.register_attachment_type(recorder)
    table = db.create_table("t", SCHEMA)
    db.create_attachment("t", "recording", "rec")
    keys = table.insert_many(ROWS[:10])
    assert [c for c in recorder.calls if c[0] == "insert"] == \
        [("insert", k) for k in keys]
    table.delete_where("dept = 'sales'")
    deletes = [c for c in recorder.calls if c[0] == "delete"]
    assert len(deletes) == sum(1 for r in ROWS[:10] if r[2] == "sales")


def test_storage_method_without_batch_hooks_works_through_defaults():
    db = Database(page_size=1024)
    db.registry.register_storage_method(PlainMemoryStorage(),
                                        recovery=db.services.recovery)
    table = db.create_table("t", SCHEMA, storage_method="plainmem")
    table.insert_many(ROWS[:10])
    assert sorted(table.rows()) == sorted(ROWS[:10])
    # Abort of a batch through the per-record fallback undoes every record.
    db.begin()
    table.insert_many(ROWS[10:20])
    assert table.count() == 20
    db.rollback()
    assert sorted(table.rows()) == sorted(ROWS[:10])
    table.update_where("dept = 'eng'", {"salary": 0.0})
    table.delete_where("salary = 0.0")
    assert table.count() == sum(1 for r in ROWS[:10] if r[2] != "eng")


# ----------------------------------------------------------------------
# One savepoint, one lock call per batch
# ----------------------------------------------------------------------
def test_batch_takes_one_savepoint_and_one_relation_lock_call():
    db, table = build()
    stats = db.services.stats
    before = stats.snapshot()
    table.insert_many(ROWS)
    delta = stats.delta(before)
    assert delta["txn.savepoints_set"] == 1
    # Tuple-at-a-time for comparison: one savepoint per record.
    db_one, one = build()
    before = db_one.services.stats.snapshot()
    for row in ROWS:
        one.insert(row)
    per_record = db_one.services.stats.delta(before)
    assert per_record["txn.savepoints_set"] == len(ROWS)
    assert delta["locks.acquire_calls"] < per_record["locks.acquire_calls"]


def test_empty_batch_is_a_no_op():
    db, table = build()
    before = db.services.stats.snapshot()
    assert table.insert_many([]) == []
    assert table.delete_where("id = 12345") == 0
    assert table.update_where("id = 12345", {"salary": 1.0}) == 0
    delta = db.services.stats.delta(before)
    # No operation savepoint is taken for an empty set.
    assert delta.get("txn.savepoints_set", 0) == 0


# ----------------------------------------------------------------------
# Operation-savepoint naming (regression)
# ----------------------------------------------------------------------
def test_operation_savepoints_named_from_txn_id_and_depth():
    """Names derive from (txn id, per-txn sequence): unique even when a
    cascaded modification nests inside an outer operation in the *same*
    transaction, and across interleaved transactions."""
    db, table = build(index=False)
    names = []
    transactions = db.services.transactions
    original = transactions.savepoint

    def spy(txn, name):
        names.append((txn.txn_id, name))
        return original(txn, name)

    transactions.savepoint = spy
    try:
        txn = db.begin()
        table.insert(ROWS[0])
        table.insert_many(ROWS[1:4])
        db.commit()
    finally:
        transactions.savepoint = original
    op_names = [n for __, n in names if n.startswith("__op_")]
    assert op_names == [f"__op_{txn.txn_id}.1", f"__op_{txn.txn_id}.2"]
    assert len(set(op_names)) == len(op_names)


def test_cascade_nested_inside_vetoed_batch_is_fully_undone():
    """An attachment that performs nested modifications before vetoing:
    rollback to the operation savepoint undoes the nested operations too
    (they were logged under distinct nested savepoint names)."""

    class CascadeThenVeto(AttachmentType):
        name = "cascade_veto"
        is_access_path = False

        def create_instance(self, ctx, handle, instance_name, attributes):
            return {"name": instance_name}

        def destroy_instance(self, ctx, handle, instance_name, instance):
            pass

        def on_insert(self, ctx, handle, field, key, new_record):
            side = ctx.database.catalog.handle("side")
            ctx.database.data.insert(ctx, side, (new_record[0],))
            if new_record[0] == 3:
                raise VetoError(self.name, "third record rejected")

    db = Database(page_size=1024)
    db.registry.register_attachment_type(CascadeThenVeto())
    table = db.create_table("t", SCHEMA)
    side = db.create_table("side", [("id", "INT")])
    db.create_attachment("t", "cascade_veto", "cv")
    with pytest.raises(VetoError):
        table.insert_many(ROWS[:5])
    # Both the batch and its nested side-effects are gone.
    assert table.count() == 0
    assert side.count() == 0
    # The pipeline still works afterwards (no savepoint-name collision).
    table.insert_many([r for r in ROWS[:5] if r[0] != 3])
    assert table.count() == 4
    assert side.count() == 4
