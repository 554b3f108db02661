"""Extension registry: identifier assignment and procedure vectors."""

import pytest

from repro import Database
from repro.core.registry import ExtensionRegistry
from repro.core.storage_method import StorageMethod
from repro.errors import RegistryError
from repro.storage.heap import HeapStorageMethod
from repro.storage.memory import MemoryStorageMethod


def test_temporary_storage_method_gets_identifier_one():
    """The paper's worked example: the temporary relation storage method is
    assigned internal identifier 1."""
    db = Database()
    assert db.registry.storage_method_by_name("memory").method_id == 1
    assert db.registry.storage_method(1).name == "memory"


def test_slot_zero_reserved_for_storage_access():
    registry = ExtensionRegistry()
    with pytest.raises(RegistryError):
        registry.storage_method(0)
    with pytest.raises(RegistryError):
        registry.attachment_type(0)


def test_procedure_vectors_indexed_by_method_id():
    registry = ExtensionRegistry()
    memory = MemoryStorageMethod()
    heap = HeapStorageMethod()
    registry.register_storage_method(memory)
    registry.register_storage_method(heap)
    # Entry N of the insert vector is method N's insert routine.
    assert registry.storage_insert[memory.method_id].__self__ is memory
    assert registry.storage_insert[heap.method_id].__self__ is heap
    assert registry.storage_delete[heap.method_id].__func__ \
        is HeapStorageMethod.delete


BATCH_FORMS = {"insert": "insert_batch", "update": "update_batch",
               "delete": "delete_batch", "fetch": "fetch_many"}


def partial_method(*operations):
    """A storage method that implements the set form of ``operations``
    alone, and neither form of any other."""
    body = {BATCH_FORMS[op]: lambda self, ctx, handle, *args: []
            for op in operations}
    body.update(name="partial", record_count=lambda self, ctx, handle: 0,
                create_instance=lambda self, *args: {},
                destroy_instance=lambda self, *args: None,
                open_scan=lambda self, *args: None)
    return type("Partial", (StorageMethod,), body)()


@pytest.mark.parametrize("missing", sorted(BATCH_FORMS))
def test_a_method_with_neither_form_of_an_operation_is_refused(missing):
    method = partial_method(*(op for op in BATCH_FORMS if op != missing))
    with pytest.raises(RegistryError,
                       match=f"neither {missing} nor {BATCH_FORMS[missing]}"):
        ExtensionRegistry().register_storage_method(method)


def test_a_method_with_set_forms_alone_registers():
    method = partial_method(*BATCH_FORMS)
    ExtensionRegistry().register_storage_method(method)
    assert method.fetch(None, None, 1) is None   # an empty fetch_many


def test_duplicate_names_rejected():
    registry = ExtensionRegistry()
    registry.register_storage_method(MemoryStorageMethod())
    with pytest.raises(RegistryError):
        registry.register_storage_method(MemoryStorageMethod())


def test_unnamed_extension_rejected():
    registry = ExtensionRegistry()
    method = MemoryStorageMethod()
    method.name = ""
    with pytest.raises(RegistryError):
        registry.register_storage_method(method)


def test_unknown_lookups_raise():
    registry = ExtensionRegistry()
    with pytest.raises(RegistryError):
        registry.storage_method(9)
    with pytest.raises(RegistryError):
        registry.storage_method_by_name("nope")
    with pytest.raises(RegistryError):
        registry.attachment_type_by_name("nope")


def test_builtin_attachment_vector_alignment():
    db = Database()
    for attachment in db.registry.attachment_types:
        type_id = attachment.type_id
        assert db.registry.attached_insert[type_id].__self__ is attachment
        assert db.registry.attached_update[type_id].__self__ is attachment
        assert db.registry.attached_delete[type_id].__self__ is attachment


def test_builtin_registration_order_is_stable():
    first = Database()
    second = Database()
    assert [a.name for a in first.registry.attachment_types] \
        == [a.name for a in second.registry.attachment_types]
    assert [m.name for m in first.registry.storage_methods] \
        == ["memory", "heap", "btree_file", "readonly", "foreign",
            "sharded"]
