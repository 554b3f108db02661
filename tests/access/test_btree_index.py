"""B-tree index attachment: maintenance side effects, access, costs."""

import pytest

from repro import AccessPath, Database, UniqueViolation


@pytest.fixture
def indexed(db, employee):
    db.create_index("emp_id", "employee", ["id"], unique=True)
    db.create_index("emp_dept", "employee", ["dept"])
    att = db.registry.attachment_type_by_name("btree_index")
    return db, employee, att


def path(att, name):
    return AccessPath(att.type_id, name)


def test_index_maps_key_to_record_keys(indexed):
    db, employee, att = indexed
    record_keys = employee.fetch((1,), access_path=path(att, "emp_id"))
    assert len(record_keys) == 1
    assert employee.fetch(record_keys[0]) == (1, "alice", "eng", 120000.0)


def test_non_unique_index_returns_all_matches(indexed):
    db, employee, att = indexed
    keys = employee.fetch(("eng",), access_path=path(att, "emp_dept"))
    records = [employee.fetch(k) for k in keys]
    assert sorted(r[0] for r in records) == [1, 3, 5]


def test_insert_maintains_every_instance(indexed):
    db, employee, att = indexed
    employee.insert((6, "frank", "legal", 60000.0))
    assert employee.fetch((6,), access_path=path(att, "emp_id"))
    assert employee.fetch(("legal",), access_path=path(att, "emp_dept"))


def test_delete_removes_entries(indexed):
    db, employee, att = indexed
    key = employee.scan(where="id = 2")[0][0]
    employee.delete(key)
    assert employee.fetch((2,), access_path=path(att, "emp_id")) == []
    assert employee.fetch(("sales",), access_path=path(att, "emp_dept")) == []


def test_update_moves_entry_between_keys(indexed):
    db, employee, att = indexed
    key = employee.scan(where="id = 4")[0][0]
    employee.update(key, {"dept": "eng"})
    assert employee.fetch(("finance",),
                          access_path=path(att, "emp_dept")) == []
    eng_keys = employee.fetch(("eng",), access_path=path(att, "emp_dept"))
    assert len(eng_keys) == 4


def test_update_skips_unmodified_indexes(indexed):
    """The paper: 'the B-tree update operation should be able to detect
    when no indexed fields for a given index are modified.'"""
    db, employee, att = indexed
    key = employee.scan(where="id = 1")[0][0]
    before = db.services.stats.get("btree_index.update_skips")
    employee.update(key, {"salary": 1.0})  # neither id nor dept changed
    assert db.services.stats.get("btree_index.update_skips") - before == 2


def test_unique_index_vetoes_duplicates(indexed):
    db, employee, att = indexed
    with pytest.raises(UniqueViolation):
        employee.insert((1, "dup", "eng", 1.0))
    assert employee.count() == 5
    # The non-unique dept index must not have kept the phantom entry.
    keys = employee.fetch(("eng",), access_path=path(att, "emp_dept"))
    assert len(keys) == 3


def test_unique_index_vetoes_update_collision(indexed):
    db, employee, att = indexed
    key = employee.scan(where="id = 2")[0][0]
    with pytest.raises(UniqueViolation):
        employee.update(key, {"id": 1})
    assert employee.fetch(key)[0] == 2


def test_unique_build_over_duplicates_fails(db):
    table = db.create_table("d", [("v", "INT")])
    table.insert_many([(1,), (1,)])
    with pytest.raises(UniqueViolation):
        db.create_attachment("d", "btree_index", "d_v",
                             {"columns": ["v"], "unique": True})
    assert not db.catalog.attachment_exists("d_v")


def test_partial_key_prefix_fetch(db):
    table = db.create_table("c", [("a", "INT"), ("b", "INT")])
    db.create_index("c_ab", "c", ["a", "b"])
    table.insert_many([(1, 10), (1, 20), (2, 30)])
    att = db.registry.attachment_type_by_name("btree_index")
    keys = table.fetch((1,), access_path=AccessPath(att.type_id, "c_ab"))
    assert len(keys) == 2


def test_abort_undoes_index_maintenance(indexed):
    db, employee, att = indexed
    db.begin()
    employee.insert((7, "gina", "ops", 5.0))
    db.rollback()
    assert employee.fetch((7,), access_path=path(att, "emp_id")) == []


def test_rollback_to_savepoint_undoes_index_entries(indexed):
    db, employee, att = indexed
    db.begin()
    employee.insert((8, "henk", "ops", 5.0))
    db.savepoint("sp")
    employee.insert((9, "ivy", "ops", 5.0))
    db.rollback_to("sp")
    db.commit()
    assert employee.fetch((8,), access_path=path(att, "emp_id"))
    assert employee.fetch((9,), access_path=path(att, "emp_id")) == []


def test_planner_selects_index_for_selective_predicate(db):
    table = db.create_table("big", [("id", "INT"), ("v", "STRING")])
    table.insert_many([(i, "x" * 50) for i in range(500)])
    db.create_index("big_id", "big", ["id"], unique=True)
    plan = db.explain("SELECT * FROM big WHERE id = 250")
    assert "btree_index" in plan["access"]["route"]
    assert db.execute("SELECT v FROM big WHERE id = 250") == [("x" * 50,)]


def test_index_scan_provides_order_without_sort(db):
    table = db.create_table("s", [("id", "INT"), ("v", "INT")])
    table.insert_many([(i, 500 - i) for i in range(500)])
    db.create_index("s_v", "s", ["v"])
    before = db.services.stats.get("executor.sorts")
    rows = db.execute("SELECT v FROM s WHERE v < 10 ORDER BY v")
    assert [r[0] for r in rows] == list(range(1, 10))
    assert db.services.stats.get("executor.sorts") == before


def test_index_rebuilt_after_crash(indexed):
    db, employee, att = indexed
    employee.insert((6, "frank", "legal", 60000.0))
    db.restart()
    assert employee.fetch((6,), access_path=path(att, "emp_id"))
    assert sorted(employee.fetch(("eng",),
                                 access_path=path(att, "emp_dept"))) \
        == sorted(k for k, r in employee.scan() if r[2] == "eng")


def test_range_route_survives_deleting_the_highest_keys():
    """The selectivity interpolation needs the tree's real maximum: with
    the rightmost leaves emptied it used to read ``None``, fall back to
    the default selectivity and send a 5 % range to a full heap scan."""
    db = Database()  # 4 KiB pages: 3 000 narrow rows are a cheap full scan
    table = db.create_table("big", [("id", "INT", False), ("n", "INT")])
    table.insert_many([(i, i % 7) for i in range(3000)])
    db.create_index("big_id", "big", ["id"], unique=True)
    table.delete_many(table.insert_many([(i, 0) for i in range(3000, 3100)]))
    query = "SELECT id, n FROM big WHERE id >= 100 AND id < 250"
    assert "btree_index" in db.explain(query)["access"]["route"]
    before = db.services.stats.get("heap.tuples_scanned")
    assert db.execute(query) == [(i, i % 7) for i in range(100, 250)]
    assert db.services.stats.get("heap.tuples_scanned") == before
