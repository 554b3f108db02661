"""Extension fault barrier: conversion, quarantine, fail-closed rule."""

import pytest

from repro import AccessPath, Database
from repro.core.attachment import AttachmentType
from repro.errors import (ExtensionFault, UniqueViolation,
                          UnknownObjectError, VetoError)


class BuggyAttachment(AttachmentType):
    """An access-path extension whose hooks raise a foreign exception."""

    name = "buggy_path"
    is_access_path = True

    def __init__(self):
        self.fail = False
        self.rebuilds = 0

    def create_instance(self, ctx, handle, instance_name, attributes):
        return {"name": instance_name}

    def destroy_instance(self, ctx, handle, instance_name, instance):
        pass

    def rebuild(self, ctx, handle, field, batches):
        self.rebuilds += 1

    def on_insert(self, ctx, handle, field, key, new_record):
        if self.fail:
            raise RuntimeError("wild pointer dereference")

    def fetch(self, ctx, handle, instance, input_key):
        if self.fail:
            raise RuntimeError("wild pointer dereference")
        return []


class BuggyConstraint(BuggyAttachment):
    """Same bug, but in a constraint: it must fail closed."""

    name = "buggy_constraint"
    is_access_path = False


@pytest.fixture
def buggy_db():
    db = Database(page_size=1024)
    buggy = BuggyAttachment()
    db.registry.register_attachment_type(buggy)
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_attachment("t", "buggy_path", "bp1")
    return db, table, buggy


def test_foreign_exception_becomes_extension_fault(buggy_db):
    db, table, buggy = buggy_db
    buggy.fail = True
    with pytest.raises(ExtensionFault) as excinfo:
        table.insert((1, "a"))
    fault = excinfo.value
    assert isinstance(fault.__cause__, RuntimeError)
    assert fault.relation == "t"
    assert fault.attachment_id == "buggy_path"
    assert fault.operation == "insert"
    assert db.services.stats.get("containment.extension_faults") == 1


def test_fault_rolls_back_like_a_veto(buggy_db):
    db, table, buggy = buggy_db
    table.insert((1, "kept"))
    buggy.fail = True
    with pytest.raises(ExtensionFault):
        table.insert((2, "lost"))
    buggy.fail = False
    assert table.rows() == [(1, "kept")]


def test_repeat_offender_access_path_is_quarantined(buggy_db):
    db, table, buggy = buggy_db
    handle = db.catalog.handle("t")
    field = handle.descriptor.attachment_field(buggy.type_id)
    buggy.fail = True
    for __ in range(db.data.QUARANTINE_THRESHOLD):
        with pytest.raises(ExtensionFault):
            table.insert((1, "a"))
    assert not field["instances"]
    assert "bp1" in field["quarantined"]
    assert db.services.stats.get("containment.quarantine.count") == 1
    # The faulty extension is out of the fan-out: inserts succeed again
    # even though the bug is still live.
    key = table.insert((1, "a"))
    assert table.fetch(key) == (1, "a")


def test_quarantined_instance_not_addressable_until_rebuilt(buggy_db):
    db, table, buggy = buggy_db
    buggy.fail = True
    for __ in range(db.data.QUARANTINE_THRESHOLD):
        with pytest.raises(ExtensionFault):
            table.insert((1, "a"))
    handle = db.catalog.handle("t")
    field = handle.descriptor.attachment_field(buggy.type_id)
    with pytest.raises(UnknownObjectError) as excinfo:
        buggy.instance(field, "bp1")
    assert "rebuild_attachment" in str(excinfo.value)


def test_rebuild_attachment_restores_quarantined_instance(buggy_db):
    db, table, buggy = buggy_db
    buggy.fail = True
    for __ in range(db.data.QUARANTINE_THRESHOLD):
        with pytest.raises(ExtensionFault):
            table.insert((1, "a"))
    buggy.fail = False
    db.rebuild_attachment("bp1")
    handle = db.catalog.handle("t")
    field = handle.descriptor.attachment_field(buggy.type_id)
    assert "bp1" in field["instances"]
    assert not field.get("quarantined")
    assert buggy.rebuilds >= 1
    assert db.data._offenses.get((handle.relation_id, buggy.type_id), 0) == 0
    assert db.services.stats.get("containment.quarantine.rebuilds") == 1


def test_constraints_fail_closed_never_quarantined():
    db = Database(page_size=1024)
    buggy = BuggyConstraint()
    db.registry.register_attachment_type(buggy)
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_attachment("t", "buggy_constraint", "bc1")
    buggy.fail = True
    for __ in range(db.data.QUARANTINE_THRESHOLD * 2):
        with pytest.raises(ExtensionFault):
            table.insert((1, "a"))
    handle = db.catalog.handle("t")
    field = handle.descriptor.attachment_field(buggy.type_id)
    # Still in service, still failing: integrity beats availability.
    assert "bc1" in field["instances"]
    assert db.services.stats.get("containment.fail_closed") == \
        db.data.QUARANTINE_THRESHOLD * 2
    assert table.rows() == []


def test_planner_skips_quarantined_index_and_rebuild_restores_it():
    db = Database(page_size=1024)
    table = db.create_table("big", [("id", "INT"), ("v", "STRING")])
    table.insert_many([(i, "pad" * 20) for i in range(200)])
    db.create_index("big_id", "big", ["id"], unique=True)
    assert "btree_index" in db.explain(
        "SELECT * FROM big WHERE id = 7")["access"]["route"]

    # A persistent bug inside the index's insert hook: three faulted
    # inserts quarantine the index.
    db.services.faults.arm("dispatch.attached.btree_index.insert",
                           error=RuntimeError, nth=1, one_shot=False)
    for __ in range(db.data.QUARANTINE_THRESHOLD):
        with pytest.raises(ExtensionFault):
            table.insert((500, "x"))
    db.services.faults.disarm()

    plan = db.explain("SELECT * FROM big WHERE id = 7")
    assert "storage scan" in plan["access"]["route"]
    # Mutations during quarantine are not maintained in the index ...
    key = table.insert((500, "during-quarantine"))
    assert table.fetch(key) == (500, "during-quarantine")

    # ... but the rebuild reconstructs it from the base relation.
    db.rebuild_attachment("big_id")
    plan = db.explain("SELECT * FROM big WHERE id = 7")
    assert "btree_index" in plan["access"]["route"]
    assert db.execute("SELECT * FROM big WHERE id = 500") == \
        [(500, "during-quarantine")]


def test_veto_error_carries_structured_fields():
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_attachment("t", "unique", "t_uniq", {"columns": ["id"]})
    table.insert((1, "a"))
    with pytest.raises(UniqueViolation) as excinfo:
        table.insert((1, "b"))
    veto = excinfo.value
    assert isinstance(veto, VetoError)
    assert veto.relation == "t"
    assert veto.attachment_id == "unique"
    assert veto.operation == "insert"
    assert veto.batch_index == 0  # a single record is a batch of one


def test_storage_method_fault_converted_too():
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT")])
    db.services.faults.arm("dispatch.storage.insert", error=TypeError, nth=1)
    with pytest.raises(ExtensionFault) as excinfo:
        table.insert((1,))
    assert excinfo.value.relation == "t"
    assert excinfo.value.operation == "insert"
    assert isinstance(excinfo.value.__cause__, TypeError)
    assert table.rows() == []


def test_fetch_many_via_access_path_runs_behind_the_barrier(buggy_db):
    db, table, buggy = buggy_db
    handle = db.catalog.handle("t")
    buggy.fail = True
    with db.autocommit() as ctx:
        with pytest.raises(ExtensionFault) as excinfo:
            db.data.fetch_many(ctx, handle, [(1,), (2,)],
                               access_path=AccessPath(buggy.type_id, "bp1"))
    fault = excinfo.value
    assert isinstance(fault.__cause__, RuntimeError)
    assert (fault.relation, fault.attachment_id, fault.operation) == \
        ("t", "buggy_path", "fetch_many")
    assert db.services.stats.get("containment.extension_faults") == 1
    assert db.data._offenses.get((handle.relation_id, buggy.type_id), 0) == 1


def test_old_record_fetch_runs_behind_the_barrier():
    """The pre-image fetch of update/delete is a storage-vector call like
    any other: a foreign exception from it is converted and counted."""
    from repro.storage.memory import MemoryStorageMethod

    class BuggyStorage(MemoryStorageMethod):
        name = "buggy_store"
        fail = False

        def fetch_many(self, ctx, handle, keys, fields=None,
                       predicate=None):
            if self.fail:
                raise KeyError("dangling directory entry")
            return super().fetch_many(ctx, handle, keys, fields, predicate)

    db = Database(page_size=1024)
    store = BuggyStorage()
    db.registry.register_storage_method(store, db.services.recovery)
    table = db.create_table("t", [("id", "INT")],
                            storage_method="buggy_store")
    key = table.insert((1,))
    store.fail = True
    with pytest.raises(ExtensionFault) as excinfo:
        table.delete(key)
    store.fail = False
    assert isinstance(excinfo.value.__cause__, KeyError)
    assert (excinfo.value.relation, excinfo.value.operation) == ("t", "fetch")
    assert db.services.stats.get("containment.extension_faults") == 1
    assert table.rows() == [(1,)]
