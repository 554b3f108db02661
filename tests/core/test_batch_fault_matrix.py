"""The modification fault matrix: one set of cases for every batch size.

A single-record ``insert``/``update``/``delete`` is a batch of one, so the
same cases run at batch size 1 (through the single-record API), 3, and 64
(the lock-escalation threshold) against each storage method and each way
a modification can fail — a built-in constraint veto, a veto or a foreign
exception from a tuple-at-a-time third-party attachment, faults
injected into the storage-method and index procedure-vector calls, and a
failed log append inside the storage method.
Whatever failed, rollback must restore storage and every attachment, and
the escaping error must say where it fired.

The per-index cases below the matrix put the failure at every position of
a five-record batch and compare the outcome with the same records applied
one at a time in a rolled-back transaction.
"""

import pytest

from repro import AccessPath, Database, UniqueViolation, VetoError
from repro.core.attachment import AttachmentType
from repro.core.dispatch import LOCK_ESCALATION_THRESHOLD
from repro.errors import ExtensionFault, ReferentialViolation

BATCH_SIZE = 5
POISON = -777         # faults on_insert / on_update
POISON_DELETE = -778  # faults on_delete
VETO = -779           # vetoes on_insert / on_update
VETO_DELETE = -780    # vetoes on_delete


class TripwireAttachment(AttachmentType):
    """A third-party, tuple-at-a-time attachment: it raises a foreign
    exception or a veto when it sees a marked value — in the per-record
    hooks only, so the default batch loops tag the index."""

    name = "tripwire"
    is_access_path = True  # quarantinable, but thresholds aren't hit here

    def create_instance(self, ctx, handle, instance_name, attributes):
        return {"name": instance_name}

    def destroy_instance(self, ctx, handle, instance_name, instance):
        pass

    def _trip(self, value, poison, veto):
        if value == poison:
            raise RuntimeError("tripwire")
        if value == veto:
            raise VetoError(self.name, "tripwire")

    def on_insert(self, ctx, handle, field, key, new_record):
        self._trip(new_record[1], POISON, VETO)

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record):
        self._trip(new_record[1], POISON, VETO)

    def on_delete(self, ctx, handle, field, key, old_record):
        self._trip(old_record[1], POISON_DELETE, VETO_DELETE)


def build(storage="heap", stored=BATCH_SIZE + 1):
    """``stored`` records ``(i, i * 10)``: one more than a batch touches,
    so the last is a stable collision target."""
    db = Database(page_size=1024, buffer_capacity=128)
    db.registry.register_attachment_type(TripwireAttachment())
    table = db.create_table(
        "t", [("id", "INT", False), ("v", "INT")], storage_method=storage,
        attributes={"key": ["id"]} if storage == "btree_file" else None)
    db.create_index("t_id", "t", ["id"])
    db.create_attachment("t", "unique", "t_v", {"columns": ["v"]})
    db.create_attachment("t", "tripwire", "t_trip")
    keys = table.insert_many([(i, i * 10) for i in range(stored)])
    return db, table, keys


def observable_state(db, table, ids=range(BATCH_SIZE * 3)):
    """Storage rows plus the btree index's view of them."""
    att = db.registry.attachment_type_by_name("btree_index")
    index_view = {i: table.fetch((i,),
                                 access_path=AccessPath(att.type_id, "t_id"))
                  for i in ids}
    return sorted(table.rows()), index_view


# ----------------------------------------------------------------------
# The matrix: batch size x storage method x failure x operation
# ----------------------------------------------------------------------
SIZES = [1, 3, LOCK_ESCALATION_THRESHOLD]
STORAGES = ["heap", "btree_file", "memory"]
#: failure -> (value planted for insert/update, value planted for delete)
PLANTED = {"unique": (None, None), "veto": (VETO, VETO_DELETE),
           "fault": (POISON, POISON_DELETE)}
#: failure -> fault point armed inside the procedure-vector call
ARMED = {"storage": "dispatch.storage.{op}",
         "index": "dispatch.attached.btree_index.{op}",
         "log": "wal.append"}  # the storage method's first log record
CASES = [(size, storage, failure, op)
         for size in SIZES for storage in STORAGES
         for failure in list(PLANTED) + list(ARMED)
         for op in ("insert", "update", "delete")
         if (failure, op) != ("unique", "delete")]  # nothing to collide with


def apply(table, op, keys, records):
    """Run one modification of ``len(records)`` records: through the
    single-record API for one record, the set API otherwise."""
    if op == "insert":
        if len(records) == 1:
            return [table.insert(records[0])]
        return table.insert_many(records)
    if op == "update":
        if len(records) == 1:
            return [table.update(keys[0], {"v": records[0][1]})]
        return table.update_many(list(zip(keys, records)))
    if len(keys) == 1:
        return table.delete(keys[0])
    return table.delete_many(keys)


@pytest.mark.parametrize("size,storage,failure,op", CASES)
def test_failed_modification_is_located_and_rolled_back(size, storage,
                                                        failure, op):
    db, table, keys = build(storage, stored=size + 1)
    ids = range(size * 3 + 1)
    at = size // 2  # the record that fails
    target, collision = keys[:size], size * 10
    if op == "insert":
        records = [(size + 1 + i, 10_000 + i) for i in range(size)]
    else:
        records = [(i, 10_000 + i) for i in range(size)]
    if failure in PLANTED:
        planted, planted_delete = PLANTED[failure]
        if op == "delete":
            table.update(target[at], {"v": planted_delete})
        else:
            value = collision if failure == "unique" else planted
            records[at] = (records[at][0], value)
    else:
        db.services.faults.arm(ARMED[failure].format(op=op),
                               error=RuntimeError, nth=1)
    baseline = observable_state(db, table, ids)
    stats = db.services.stats
    before = stats.snapshot()

    expected = UniqueViolation if failure == "unique" else \
        VetoError if failure == "veto" else ExtensionFault
    with pytest.raises(expected) as excinfo:
        apply(table, op, target, records)
    db.services.faults.disarm()
    error = excinfo.value
    assert error.relation == "t"
    assert error.operation == op
    assert error.attachment_id == {
        "unique": "unique", "veto": "tripwire", "fault": "tripwire",
        "storage": None, "index": "btree_index", "log": None}[failure]
    # Planted failures belong to one record; a failed vector call does not.
    assert error.batch_index == (at if failure in PLANTED else None)
    if expected is ExtensionFault:
        assert isinstance(error.__cause__, RuntimeError)

    delta = stats.delta(before)
    assert observable_state(db, table, ids) == baseline
    assert delta["txn.savepoints_set"] == 1
    assert delta["dispatch.vetoed_operations"] == 1
    assert delta.get("containment.extension_faults", 0) == \
        (expected is ExtensionFault)
    if size >= LOCK_ESCALATION_THRESHOLD:
        # One relation-level X lock subsumes every record lock.
        assert delta["locks.acquire_calls"] < size

    # The same modification without the failure goes through.
    if failure in PLANTED:
        if op == "delete":
            table.update(target[at], {"v": 20_000})
        else:
            records[at] = (records[at][0], 20_000)
    apply(table, op, target, records)
    assert table.count() == size + 1 + {"insert": size, "update": 0,
                                        "delete": -size}[op]


# ----------------------------------------------------------------------
# The failure at every position of one batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(BATCH_SIZE))
def test_insert_batch_veto_at_each_index(index):
    db, table, __ = build()
    baseline = observable_state(db, table)
    batch = [(100 + i, 1000 + i) for i in range(BATCH_SIZE)]
    batch[index] = (100 + index, index * 10)  # duplicates a stored value

    with pytest.raises(UniqueViolation) as excinfo:
        table.insert_many(batch)
    assert excinfo.value.batch_index == index
    assert excinfo.value.relation == "t"
    assert excinfo.value.operation == "insert"
    assert observable_state(db, table) == baseline

    # Tuple-at-a-time in one rolled-back transaction ends identically.
    other_db, other_table, __ = build()
    other_db.begin()
    with pytest.raises(UniqueViolation):
        for record in batch:
            other_table.insert(record)
    other_db.rollback()
    assert observable_state(other_db, other_table) == baseline


@pytest.mark.parametrize("index", range(BATCH_SIZE))
def test_insert_batch_fault_at_each_index(index):
    db, table, __ = build()
    baseline = observable_state(db, table)
    batch = [(100 + i, 1000 + i) for i in range(BATCH_SIZE)]
    batch[index] = (100 + index, POISON)

    with pytest.raises(ExtensionFault) as excinfo:
        table.insert_many(batch)
    assert excinfo.value.batch_index == index
    assert excinfo.value.attachment_id == "tripwire"
    assert observable_state(db, table) == baseline


@pytest.mark.parametrize("index", range(BATCH_SIZE))
def test_update_batch_veto_at_each_index(index):
    db, table, keys = build()
    baseline = observable_state(db, table)
    # Every batch record gets a fresh value except the poisoned one, which
    # collides with the extra record the batch never touches.
    items = [(keys[i], (i, 1000 + i)) for i in range(BATCH_SIZE)]
    items[index] = (keys[index], (index, BATCH_SIZE * 10))

    with pytest.raises(UniqueViolation) as excinfo:
        table.update_many(items)
    assert excinfo.value.batch_index == index
    assert excinfo.value.operation == "update"
    assert observable_state(db, table) == baseline

    other_db, other_table, other_keys = build()
    other_db.begin()
    with pytest.raises(UniqueViolation):
        for i, (__, record) in enumerate(items):
            other_table.update(other_keys[i], {"v": record[1]})
    other_db.rollback()
    assert observable_state(other_db, other_table) == baseline


@pytest.mark.parametrize("index", range(BATCH_SIZE))
def test_update_batch_fault_at_each_index(index):
    db, table, keys = build()
    baseline = observable_state(db, table)
    items = [(keys[i], (i, 1000 + i)) for i in range(BATCH_SIZE)]
    items[index] = (keys[index], (index, POISON))

    with pytest.raises(ExtensionFault) as excinfo:
        table.update_many(items)
    assert excinfo.value.batch_index == index
    assert excinfo.value.attachment_id == "tripwire"
    assert observable_state(db, table) == baseline


@pytest.mark.parametrize("index", range(BATCH_SIZE))
def test_delete_batch_fault_at_each_index(index):
    db, table, keys = build()
    table.update(keys[index], {"v": POISON_DELETE})
    baseline = observable_state(db, table)

    with pytest.raises(ExtensionFault) as excinfo:
        table.delete_many(keys[:BATCH_SIZE])
    assert excinfo.value.batch_index == index
    assert excinfo.value.operation == "delete"
    assert observable_state(db, table) == baseline

    other_db, other_table, other_keys = build()
    other_table.update(other_keys[index], {"v": POISON_DELETE})
    other_db.begin()
    with pytest.raises(ExtensionFault):
        for key in other_keys[:BATCH_SIZE]:
            other_table.delete(key)
    other_db.rollback()
    assert observable_state(other_db, other_table) == baseline


@pytest.mark.parametrize("index", range(3))
def test_referential_insert_batch_reports_first_bad_index(index):
    db = Database(page_size=1024)
    parent = db.create_table("dept", [("dname", "STRING")])
    parent.insert_many([("eng",), ("sales",)])
    child = db.create_table("emp", [("id", "INT"), ("dept", "STRING")])
    db.create_attachment("emp", "referential", "emp_fk",
                         {"parent": "dept", "columns": ["dept"],
                          "parent_columns": ["dname"]})
    batch = [(i, "eng") for i in range(3)]
    batch[index] = (index, "ghost")
    with pytest.raises(ReferentialViolation) as excinfo:
        child.insert_many(batch)
    assert excinfo.value.batch_index == index
    assert child.count() == 0
