"""Ablations of the design decisions DESIGN.md calls out.

A1 — operation savepoints: every dispatched modification establishes an
     internal savepoint so vetoes can be undone; measure that coordination
     cost against a raw storage-method insert that bypasses the dispatch
     layer (and therefore loses veto/undo coordination).
A2 — descriptor width: the record-oriented descriptor keeps NULL fields
     for absent attachment types; show that many registered-but-unused
     types cost nothing per modification.
A3 — buffer pool capacity: scans under eviction pressure vs a warm pool,
     and the misses of a repeated scan of a relation larger than the pool.
A4 — covering index reads vs index + base-relation fetch.
"""

import pytest

from repro import Database
from repro.core.attachment import AttachmentType


# ---------------------------------------------------------------------------
# A1 — operation-savepoint coordination cost
# ---------------------------------------------------------------------------

def test_a1_insert_through_dispatch(benchmark):
    db = Database()
    table = db.create_table("t", [("id", "INT")])
    counter = iter(range(10**9))
    benchmark(lambda: table.insert((next(counter),)))
    benchmark.extra_info["coordination"] = "op savepoint + attachments"


def test_a1_insert_bypassing_dispatch(benchmark):
    """Raw storage-method call: no savepoint, no attachment driving, no
    veto support.  The delta against A1 is the price of coordination."""
    db = Database()
    db.create_table("t", [("id", "INT")])
    handle = db.catalog.handle("t")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    counter = iter(range(10**9))

    def run():
        with db.autocommit() as ctx:
            method.insert(ctx, handle, (next(counter),))

    benchmark(run)
    benchmark.extra_info["coordination"] = "none (unsafe baseline)"


# ---------------------------------------------------------------------------
# A2 — descriptor width (the "few dozen attachment types" point)
# ---------------------------------------------------------------------------

class _NoopAttachment(AttachmentType):
    is_access_path = False

    def __init__(self, name):
        self.name = name

    def create_instance(self, ctx, handle, instance_name, attributes):
        return {"name": instance_name}

    def destroy_instance(self, ctx, handle, instance_name, instance):
        pass


def test_a2_insert_with_narrow_registry(benchmark):
    db = Database()
    table = db.create_table("t", [("id", "INT")])
    counter = iter(range(10**9))
    benchmark(lambda: table.insert((next(counter),)))
    benchmark.extra_info["registered_attachment_types"] = len(
        db.registry.attachment_types)


def test_a2_insert_with_thirty_extra_types_registered(benchmark):
    db = Database()
    for i in range(30):
        db.registry.register_attachment_type(_NoopAttachment(f"noop_{i}"))
    table = db.create_table("t", [("id", "INT")])
    counter = iter(range(10**9))
    benchmark(lambda: table.insert((next(counter),)))
    benchmark.extra_info["registered_attachment_types"] = len(
        db.registry.attachment_types)
    # NULL descriptor fields for absent types cost a few bytes each.
    handle = db.catalog.handle("t")
    assert handle.descriptor.attachment_count() == 0


# ---------------------------------------------------------------------------
# A3 — buffer pool capacity
# ---------------------------------------------------------------------------

def _scan_db(capacity):
    db = Database(buffer_capacity=capacity)
    table = db.create_table("t", [("id", "INT"), ("pad", "STRING")])
    table.insert_many([(i, "x" * 100) for i in range(4000)])
    return db, table


@pytest.mark.parametrize("capacity", [8, 64, 1024])
def test_a3_scan_under_buffer_pressure(benchmark, capacity):
    db, table = _scan_db(capacity)
    result = benchmark(lambda: table.count(where="id >= 0"))
    assert result == 4000
    benchmark.extra_info["buffer_frames"] = capacity
    benchmark.extra_info["evictions"] = db.services.stats.get(
        "buffer.evictions")


def _scan_misses(db, table):
    stats = db.services.stats
    before = stats.get("buffer.misses")
    assert table.count(where="id >= 0") == 4000
    return stats.get("buffer.misses") - before


@pytest.mark.parametrize("capacity", [8, 64])
def test_a3_repeated_scan_larger_than_the_pool(benchmark, capacity):
    """A looping scan faults each page it finds missing into the pool's
    next victim, so from the second scan on it misses the relation's pages
    less the frames it keeps (at plain LRU it missed every page)."""
    db, table = _scan_db(capacity)
    handle = db.catalog.handle("t")
    pages = len(handle.descriptor.storage_descriptor["pages"])
    assert pages > capacity
    _scan_misses(db, table)
    second = _scan_misses(db, table)
    assert second <= pages - (capacity - 2)
    benchmark(lambda: table.count(where="id >= 0"))
    benchmark.extra_info.update(buffer_frames=capacity, relation_pages=pages,
                                second_scan_misses=second)


# ---------------------------------------------------------------------------
# A4 — covering index reads
# ---------------------------------------------------------------------------

def _covered_db():
    db = Database(buffer_capacity=1024)
    table = db.create_table("t", [("a", "INT"), ("b", "INT"),
                                  ("pad", "STRING")])
    table.insert_many([(i, i * 10, "x" * 80) for i in range(4000)])
    db.create_index("t_ab", "t", ["a", "b"])
    return db


def test_a4_covered_range_read(benchmark):
    db = _covered_db()

    def run():
        return db.execute("SELECT b FROM t WHERE a >= 1000 AND a < 1200")

    result = benchmark(run)
    assert len(result) == 200
    assert db.services.stats.get("executor.covering_scans") > 0
    benchmark.extra_info["strategy"] = "index only (200 rows)"


def test_a4_range_read_with_base_fetches(benchmark):
    db = _covered_db()

    def run():
        return db.execute("SELECT pad FROM t WHERE a >= 1000 AND a < 1200")

    result = benchmark(run)
    assert len(result) == 200
    benchmark.extra_info["strategy"] = "index + 200 base record fetches"
