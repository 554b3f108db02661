"""Crash at every boundary: the hash and heap/btree_file slices of
ROADMAP item 2(b).

One fixed script over a relation with a hash index, on each storage
method of ``STORAGES``, with and without the descriptor-resident
attachments (statistics, aggregates) restart keeps; the ``disk.write`` /
``wal.flush`` / ``buffer.write_back`` fault points it passes are counted,
then it is run again once per point with the crash *there*.  After the
restart: the committed rows are the model's and the stored count agrees,
the index answers every key as the relation does (and its pages hold what
a rebuild puts there), the kept state is what deriving it again from the
rows gives, and a second restart changes nothing.
"""

import pytest

from repro import AccessPath, Database
from repro.errors import CheckViolation, InjectedFault

from .test_hash_index import chain_of, check_hash_file, hash_instance

POINTS = ("disk.write", "wal.flush", "buffer.write_back")
KEYS = range(-1, 41)
#: Storage method -> its DDL attributes.
STORAGES = {"heap": None, "btree_file": {"key": ["id"]}}
#: Aggregate instance -> its DDL attributes (the kept-state axis).
AGGREGATES = {"t_count": {"function": "count"},
              "t_sum": {"function": "sum", "column": "k"},
              "t_max": {"function": "max", "column": "k"}}
#: Every storage method x kept state x point; the heap's without kept
#: state keep the ids they had before the other axes.
CASES = [pytest.param(storage, kept, point, id="-".join(
             ([storage] if storage != "heap" else [])
             + (["kept"] if kept else []) + [point]))
         for storage in STORAGES for kept in (False, True)
         for point in POINTS]


def build(storage, kept=False):
    """A pool of eight 512-byte frames: the script evicts all the time."""
    db = Database(page_size=512, buffer_capacity=8)
    table = db.create_table("t", [("id", "INT"), ("k", "INT")],
                            storage_method=storage,
                            attributes=STORAGES[storage])
    db.create_attachment("t", "hash_index", "t_k",
                         {"columns": ["k"], "buckets": 2})
    db.add_check("k_nonneg", "t", "k >= 0")
    if kept:
        db.create_attachment("t", "statistics", "t_stats")
        for name, attributes in AGGREGATES.items():
            db.create_attachment("t", "aggregate", name, attributes)
    return db, table


def kept_instances(db, relation, type_name):
    attachment = db.registry.attachment_type_by_name(type_name)
    field = db.catalog.handle(relation).descriptor.attachment_field(
        attachment.type_id)
    return attachment, (field["instances"] if field else {})


def check_kept(db, relation):
    """The statistics and aggregate state restart kept is what deriving it
    from the stored rows gives: counts exactly, extremes unless marked
    stale (a repairing read then gives them), the sketch as a superset."""
    handle = db.catalog.handle(relation)
    with db.autocommit() as ctx:
        for type_name in ("statistics", "aggregate"):
            attachment, instances = kept_instances(db, relation, type_name)
            for instance in instances.values():
                fresh = dict(instance)
                attachment._recompute(ctx, handle, fresh,
                                      attachment.stored_batches(ctx, handle))
                if type_name == "aggregate":
                    assert attachment.value(ctx, handle, instance) \
                        == attachment.value(ctx, handle, fresh)
                    continue
                kept, new = instance["state"], fresh["state"]
                assert kept["row_count"] == new["row_count"]
                for index, column in kept["columns"].items():
                    derived = new["columns"][index]
                    assert column["nulls"] == derived["nulls"]
                    if not column["stale"]:
                        assert (column["min"], column["max"]) \
                            == (derived["min"], derived["max"])
                    below = [h for h in derived["kmv"]
                             if not column["kmv"] or h <= column["kmv"][-1]]
                    assert set(below) <= set(column["kmv"])


def vetoed(table):
    with pytest.raises(CheckViolation):
        table.insert_many([(1000 + i, 5) for i in range(30)] + [(1030, -1)])


def under_a_savepoint(db, table):
    db.begin()
    table.insert_many([(2000 + i, i % 4) for i in range(20)])
    db.savepoint("sp")
    table.insert_many([(3000 + i, 3) for i in range(30)])
    table.delete_where("k = 2")
    db.rollback_to("sp")
    db.commit()


#: The script: ``(what to run, what it makes of the model {id: k})``.
#: Keys 0-39 spread and split buckets; key 3 also takes 100 rows, a chain.
STEPS = [
    (lambda db, table: table.insert_many(
        [(i, i % 40 if i < 200 else 3) for i in range(300)]),
     lambda model: {i: i % 40 if i < 200 else 3 for i in range(300)}),
    (lambda db, table: table.delete_where("id >= 50 AND id < 120"),
     lambda model: {i: k for i, k in model.items() if not 50 <= i < 120}),
    (lambda db, table: table.update_where("id = 10", {"k": 39}),
     lambda model: {**model, 10: 39}),
    # one update_multi record on each of four pages
    (lambda db, table: table.update_where("k = 5", {"k": 6}),
     lambda model: {i: 6 if k == 5 else k for i, k in model.items()}),
    (lambda db, table: vetoed(table), dict),
    (under_a_savepoint,
     lambda model: {**model, **{2000 + i: i % 4 for i in range(20)}}),
    (lambda db, table: table.delete_where("k = 3"),
     lambda model: {i: k for i, k in model.items() if k != 3}),
]


def run(db, table):
    """Run the script until it ends or a fault stops it: the model before
    the step that was running, and after it (the same when none was)."""
    model = {}
    for body, effect in STEPS:
        try:
            body(db, table)
        except InjectedFault:
            return model, effect(model)
        model = effect(model)
    return model, model


def hash_file_records(db, instance):
    """What the hash file holds, by directory slot and place in the chain:
    each page's ``(slot, bytes)`` records — page ids left out."""
    buffer = db.services.buffer
    held = []
    for slot, span in enumerate(instance["spans"]):
        for page_id, __ in chain_of(buffer, instance["buckets"][slot]):
            with buffer.pinned(page_id) as page:
                held.append((slot, span, list(page.records())))
    return held


def device_state(db, instance):
    db.services.buffer.flush_all()
    device = db.services.disk
    heap = db.catalog.handle("t").descriptor.storage_descriptor["pages"]
    return ([(page_id, device.read(page_id)) for page_id in heap],
            hash_file_records(db, instance))


def check_recovered(db, table, before, after, kept=False):
    instance = hash_instance(db, "t", "t_k")
    ap = AccessPath(db.registry.attachment_type_by_name("hash_index").type_id,
                    "t_k")
    # 1. committed rows = model: the running step happened or did not; a
    # second (warm) scan and a scan through fields and a predicate agree.
    stored = table.scan()
    assert table.scan() == stored
    assert table.scan("k >= 10", ["k"]) == [
        (key, (record[1],)) for key, record in stored if record[1] >= 10]
    rows = dict(record for __, record in stored)
    assert rows in (before, after)
    assert table.count() == len(stored)
    # 2. the index answers every key as the relation does, from pages that
    # hold what a rebuild of it puts there.
    for k in KEYS:
        assert sorted(table.fetch((k,), access_path=ap)) \
            == sorted(key for key, record in stored if record[1] == k)
    check_hash_file(db, instance,
                    [((record[1],), key) for key, record in stored])
    # 3. kept state = derived state.
    if kept:
        check_kept(db, "t")
    # 4. a second restart is byte-identical.
    first = device_state(db, instance)
    db.restart()
    assert device_state(db, instance) == first
    assert dict(record for __, record in table.scan()) == rows
    return rows


def count_fault_points(storage, kept=False):
    db, table = build(storage, kept)
    for point in POINTS:
        db.services.faults.arm(point)  # no trigger: counts the calls
    before, after = run(db, table)
    assert before == after and len(after) > 100
    return {point: db.services.faults.calls(point) for point in POINTS}


def test_the_script_passes_fault_points_of_every_kind():
    for storage in STORAGES:
        counts = count_fault_points(storage)
        assert all(counts[point] >= 10 for point in POINTS), (storage,
                                                              counts)
        assert counts == count_fault_points(storage)  # deterministic


@pytest.mark.parametrize("storage,kept,point", CASES)
def test_crash_at_every_boundary(storage, kept, point):
    outcomes = set()
    for nth in range(1, count_fault_points(storage, kept)[point] + 1):
        db, table = build(storage, kept)
        db.services.faults.arm(point, nth=nth)
        before, after = run(db, table)
        assert db.services.faults.injected(point) == 1, (point, nth)
        db.services.faults.disarm()
        db.restart()
        rows = check_recovered(db, table, before, after, kept)
        outcomes.add(len(rows))
        # and the database goes on working
        table.insert((9000, 7))
        assert (9000, 7) in table.rows()
        assert (9000, 7) in table.rows()  # warm
    assert len(outcomes) > 3  # crashes landed in different steps


def test_a_reset_relation_derives_its_kept_state_again():
    """A memory relation does not survive a restart: its statistics and
    aggregates read the empty relation, not what it held."""
    db = Database(page_size=512)
    table = db.create_table("m", [("id", "INT"), ("k", "INT")],
                            storage_method="memory")
    db.create_attachment("m", "statistics", "m_stats")
    for name, attributes in AGGREGATES.items():
        db.create_attachment("m", "aggregate", name.replace("t_", "m_"),
                             attributes)
    table.insert_many([(i, i % 7) for i in range(50)])
    db.restart()
    assert table.count() == 0
    __, stats = kept_instances(db, "m", "statistics")
    assert stats["m_stats"]["state"]["row_count"] == 0
    check_kept(db, "m")
