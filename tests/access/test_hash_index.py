"""Hash index attachment: equality access, resizing, maintenance."""

import pytest

from repro import AccessPath, Database
from repro.errors import BucketOverflowError, StorageError


@pytest.fixture
def hashed(db, employee):
    db.create_attachment("employee", "hash_index", "emp_hash",
                         {"columns": ["id"], "buckets": 4})
    att = db.registry.attachment_type_by_name("hash_index")
    return db, employee, att


def test_probe_returns_record_keys(hashed):
    db, employee, att = hashed
    keys = employee.fetch((3,), access_path=AccessPath(att.type_id,
                                                       "emp_hash"))
    assert [employee.fetch(k)[1] for k in keys] == ["carol"]


def test_probe_miss_returns_empty(hashed):
    db, employee, att = hashed
    assert employee.fetch((99,), access_path=AccessPath(att.type_id,
                                                        "emp_hash")) == []


def test_maintenance_on_modifications(hashed):
    db, employee, att = hashed
    ap = AccessPath(att.type_id, "emp_hash")
    employee.insert((6, "frank", "ops", 1.0))
    assert employee.fetch((6,), access_path=ap)
    key = employee.scan(where="id = 6")[0][0]
    employee.update(key, {"id": 60})
    assert employee.fetch((6,), access_path=ap) == []
    assert employee.fetch((60,), access_path=ap)
    new_key = employee.scan(where="id = 60")[0][0]
    employee.delete(new_key)
    assert employee.fetch((60,), access_path=ap) == []


def test_directory_doubles_under_load(db):
    table = db.create_table("t", [("id", "INT")])
    db.create_attachment("t", "hash_index", "t_hash",
                         {"columns": ["id"], "buckets": 2, "max_load": 2})
    table.insert_many([(i,) for i in range(40)])
    handle = db.catalog.handle("t")
    att = db.registry.attachment_type_by_name("hash_index")
    instance = handle.descriptor.attachment_field(att.type_id)["instances"][
        "t_hash"]
    assert len(instance["buckets"]) > 2
    ap = AccessPath(att.type_id, "t_hash")
    for i in range(40):
        assert table.fetch((i,), access_path=ap)


def test_abort_undoes_hash_maintenance(hashed):
    db, employee, att = hashed
    ap = AccessPath(att.type_id, "emp_hash")
    db.begin()
    employee.insert((7, "gina", "ops", 1.0))
    db.rollback()
    assert employee.fetch((7,), access_path=ap) == []


def test_planner_uses_hash_for_equality_only(db):
    table = db.create_table("t", [("id", "INT"), ("v", "INT")])
    table.insert_many([(i, i) for i in range(500)])
    db.create_attachment("t", "hash_index", "t_hash", {"columns": ["id"]})
    equality = db.explain("SELECT * FROM t WHERE id = 5")
    assert "hash_index" in equality["access"]["route"]
    assert db.execute("SELECT v FROM t WHERE id = 5") == [(5,)]
    ranged = db.explain("SELECT * FROM t WHERE id < 5")
    assert "hash_index" not in ranged["access"]["route"]


def test_rebuild_after_crash(hashed):
    db, employee, att = hashed
    employee.insert((8, "henk", "ops", 1.0))
    db.restart()
    ap = AccessPath(att.type_id, "emp_hash")
    assert employee.fetch((8,), access_path=ap)
    assert employee.fetch((1,), access_path=ap)


def test_multi_column_hash_key(db):
    table = db.create_table("mc", [("a", "INT"), ("b", "STRING")])
    db.create_attachment("mc", "hash_index", "mc_h",
                         {"columns": ["a", "b"]})
    table.insert((1, "x"))
    att = db.registry.attachment_type_by_name("hash_index")
    ap = AccessPath(att.type_id, "mc_h")
    assert table.fetch((1, "x"), access_path=ap)
    assert table.fetch((1, "y"), access_path=ap) == []


def test_bucket_that_outgrows_its_page_raises_a_typed_error():
    """Eight distinct keys: every entry lands in one of eight buckets, so
    a bucket's pickled entry list eventually exceeds the page.  The error
    names the index, fires before any page is touched, and the failed
    operation rolls back leaving relation and index intact."""
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT"), ("k", "INT")])
    db.create_attachment("t", "hash_index", "t_k", {"columns": ["k"]})
    ap = AccessPath(db.registry.attachment_type_by_name("hash_index").type_id,
                    "t_k")
    loaded = 0
    with pytest.raises(BucketOverflowError) as excinfo:
        for __ in range(100):
            table.insert_many([(loaded + j, j % 8) for j in range(40)])
            loaded += 40
    error = excinfo.value
    assert isinstance(error, StorageError)
    assert (error.instance, error.relation, error.attachment_id,
            error.operation) == ("t_k", "t", "hash_index", "insert")
    assert error.key in [(k,) for k in range(8)] and error.entries > 1
    assert "t_k" in str(error)

    def state():
        return (table.count(),
                [len(table.fetch((k,), access_path=ap)) for k in range(8)])

    assert state() == (loaded, [loaded // 8] * 8)
    # A single record into the full bucket fails the same way ...
    with pytest.raises(BucketOverflowError):
        for i in range(40):
            table.insert((loaded + i, error.key[0]))
            loaded += 1
    # ... and so does an update that moves a record into it.
    victim = table.scan(where=f"k = {(error.key[0] + 1) % 8}")[0][0]
    with pytest.raises(BucketOverflowError):
        table.update(victim, {"k": error.key[0]})
    counts = state()
    assert counts[0] == loaded == sum(counts[1])
    # Deletes still work and make room again.
    table.delete_where(f"k = {error.key[0]}")
    table.insert((10_000, error.key[0]))
    assert len(table.fetch(error.key, access_path=ap)) == 1


def test_build_writes_each_bucket_once(db, monkeypatch):
    """``_build`` hands the whole scan to the body ``on_insert_batch``
    uses: the directory grows first, then each bucket page is read and
    written once — it used to be once per record."""
    from repro.access import hash_index
    table = db.create_table("t", [("id", "INT"), ("name", "STRING")])
    table.insert_many([(i, f"n{i}") for i in range(1200)])
    writes = []
    real_write = hash_index._bucket_write
    monkeypatch.setattr(hash_index, "_bucket_write",
                        lambda buffer, page_id, raw:
                        writes.append(page_id) or real_write(buffer, page_id,
                                                             raw))
    db.create_attachment("t", "hash_index", "t_hash", {"columns": ["name"]})
    att = db.registry.attachment_type_by_name("hash_index")
    instance = db.catalog.handle("t").descriptor.attachment_field(
        att.type_id)["instances"]["t_hash"]
    assert instance["nentries"] == 1200
    assert 1200 <= instance["max_load"] * len(instance["buckets"])
    final = [page_id for page_id in writes if page_id in instance["buckets"]]
    assert len(final) == len(set(final)) <= len(instance["buckets"])
    del writes[:]
    db.restart()
    assert len(writes) == len(set(writes)) <= len(instance["buckets"])
    ap = AccessPath(att.type_id, "t_hash")
    assert all(table.fetch((f"n{i}",), access_path=ap) for i in range(1200))
    assert db.services.stats.get("hash_index.builds") == 2
    assert db.services.stats.get("hash_index.rebuilds") == 1
