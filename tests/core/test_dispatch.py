"""Dispatch: two-step modification execution, vetoes, access path zero."""

import pytest

from repro import AccessPath, Database, VetoError
from repro.core.attachment import AttachmentType
from repro.errors import ReadOnlyError, StorageError


class RecordingAttachment(AttachmentType):
    """Test attachment that records invocations and can veto on demand."""

    name = "recording"
    is_access_path = False

    def __init__(self):
        self.calls = []
        self.veto_on = None

    def create_instance(self, ctx, handle, instance_name, attributes):
        return {"name": instance_name}

    def destroy_instance(self, ctx, handle, instance_name, instance):
        pass

    def on_insert(self, ctx, handle, field, key, new_record):
        self.calls.append(("insert", key, new_record,
                           len(field["instances"])))
        if self.veto_on == "insert":
            raise VetoError(self.name, "insert rejected")

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record):
        self.calls.append(("update", old_key, new_key, old_record,
                           new_record))
        if self.veto_on == "update":
            raise VetoError(self.name, "update rejected")

    def on_delete(self, ctx, handle, field, key, old_record):
        self.calls.append(("delete", key, old_record))
        if self.veto_on == "delete":
            raise VetoError(self.name, "delete rejected")


@pytest.fixture
def db_with_recorder():
    db = Database(page_size=1024)
    recorder = RecordingAttachment()
    db.registry.register_attachment_type(recorder)
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_attachment("t", "recording", "rec1")
    return db, table, recorder


def test_attached_procedure_called_once_per_modification(db_with_recorder):
    db, table, recorder = db_with_recorder
    key = table.insert((1, "a"))
    assert [c[0] for c in recorder.calls] == ["insert"]
    table.update(key, {"v": "b"})
    table.delete(key)
    assert [c[0] for c in recorder.calls] == ["insert", "update", "delete"]


def test_attachment_type_services_all_instances(db_with_recorder):
    db, table, recorder = db_with_recorder
    db.create_attachment("t", "recording", "rec2")
    table.insert((1, "a"))
    # One call for the type, which sees both instances in its field.
    inserts = [c for c in recorder.calls if c[0] == "insert"]
    assert len(inserts) == 1
    assert inserts[0][3] == 2


def test_old_and_new_values_passed_on_update(db_with_recorder):
    db, table, recorder = db_with_recorder
    key = table.insert((1, "old"))
    table.update(key, {"v": "new"})
    op, old_key, new_key, old_record, new_record = recorder.calls[-1]
    assert old_record == (1, "old")
    assert new_record == (1, "new")
    assert old_key == new_key == key


def test_veto_on_delete_keeps_record(db_with_recorder):
    db, table, recorder = db_with_recorder
    key = table.insert((1, "keep"))
    recorder.veto_on = "delete"
    with pytest.raises(VetoError):
        table.delete(key)
    assert table.fetch(key) == (1, "keep")


def test_veto_undoes_earlier_attachments_work():
    """A veto by the second attachment type must undo the index
    maintenance already performed by the first (B-tree) type."""
    db = Database(page_size=1024)
    recorder = RecordingAttachment()
    db.registry.register_attachment_type(recorder)
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_index("t_id", "t", ["id"])     # type id 1: runs first
    db.create_attachment("t", "recording", "rec")  # later type: runs second
    table.insert((1, "a"))
    recorder.veto_on = "insert"
    with pytest.raises(VetoError):
        table.insert((2, "b"))
    att = db.registry.attachment_type_by_name("btree_index")
    assert table.fetch((2,), access_path=AccessPath(att.type_id, "t_id")) \
        == []
    assert table.fetch((1,), access_path=AccessPath(att.type_id, "t_id"))


def test_update_of_missing_key_fails_cleanly(db_with_recorder):
    db, table, recorder = db_with_recorder
    with pytest.raises(StorageError):
        table.update((999, 0), {"v": "x"})
    with pytest.raises(StorageError):
        table.delete((999, 0))


def test_access_path_zero_is_the_storage_method(employee, db):
    key = employee.scan(where="id = 1")[0][0]
    direct = employee.fetch(key)
    via_zero = employee.fetch(key, access_path=AccessPath(0))
    assert direct == via_zero == (1, "alice", "eng", 120000.0)


def test_readonly_storage_rejects_modification():
    db = Database(page_size=1024)
    db.create_table("pub", [("id", "INT")], storage_method="readonly")
    with pytest.raises(ReadOnlyError):
        db.table("pub").insert((1,))


def test_record_validation_happens_before_dispatch(db_with_recorder):
    db, table, recorder = db_with_recorder
    with pytest.raises(Exception):
        table.insert(("not-an-int", "x"))
    assert recorder.calls == []
