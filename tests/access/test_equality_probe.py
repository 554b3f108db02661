"""One equality probe (``core.attachment.equality_probe``) serves index
nested-loop joins, referential checks and join-index maintenance: an
access path whose equality key is the probed fields, else storage keyed on
them, else a scan.  A probe value of another type than its field finds
nothing, as a scan's comparison does."""

import pytest

from repro import AccessPath, Database, ReferentialViolation


def scanned(db, before) -> int:
    delta = db.services.stats.delta(before)
    return sum(count for name, count in delta.items()
               if name.endswith(".tuples_scanned"))


def test_btree_fetch_of_another_type_finds_nothing_and_keeps_the_index():
    db = Database(page_size=1024, buffer_capacity=128)
    table = db.create_table("t", [("id", "INT", False), ("v", "STRING")])
    table.insert_many([(i, f"v{i}") for i in range(50)])
    db.create_index("t_id", "t", ["id"])
    path = AccessPath(
        db.registry.attachment_type_by_name("btree_index").type_id, "t_id")
    for __ in range(3):
        assert table.fetch(("abc",), access_path=path) == []
    assert table.fetch((None,), access_path=path) == []
    assert len(table.fetch((3,), access_path=path)) == 1
    query = "SELECT v FROM t WHERE id = 3"
    assert "btree_index" in db.explain(query)["access"]["route"]
    before = db.services.stats.snapshot()
    assert db.execute(query) == [("v3",)]
    assert scanned(db, before) == 0


@pytest.mark.parametrize("indexed", [True, False])
def test_referential_check_vetoes_a_value_of_another_type(indexed):
    """Through the parent's B-tree as through its scan: a STRING child
    value finds no INT parent."""
    db = Database(page_size=1024, buffer_capacity=128)
    parent = db.create_table("p", [("id", "INT", False)])
    parent.insert_many([(i,) for i in range(10)])
    if indexed:
        db.create_index("p_id", "p", ["id"], unique=True)
    child = db.create_table("c", [("ref", "STRING")])
    db.create_attachment("c", "referential", "c_fk",
                         {"parent": "p", "columns": ["ref"],
                          "parent_columns": ["id"]})
    with pytest.raises(ReferentialViolation):
        child.insert(("3",))
    assert child.count() == 0
    child.insert((None,))  # NULL is exempt
    assert child.count() == 1


def test_join_index_maintenance_probes_the_other_side():
    db = Database(page_size=1024, buffer_capacity=128)
    cust = db.create_table("cust", [("cid", "INT", False),
                                    ("name", "STRING")])
    cust.insert_many([(i, f"c{i}") for i in range(600)])
    db.create_index("cust_cid", "cust", ["cid"], unique=True)
    orders = db.create_table("ord", [("oid", "INT", False), ("cid", "INT")])
    db.create_attachment("ord", "join_index", "ord_cust",
                         {"other": "cust", "column": "cid",
                          "other_column": "cid"})
    before = db.services.stats.snapshot()
    for oid in range(10):
        orders.insert((oid, oid * 70 if oid != 9 else None))
    assert scanned(db, before) == 0
    attachment = db.registry.attachment_type_by_name("join_index")
    field = orders.handle.descriptor.attachment_field(attachment.type_id)
    instance = field["instances"]["ord_cust"]
    pairs = {(orders.fetch(left)[0], cust.fetch(right)[0])
             for left, right in attachment.pairs(instance)}
    # oid 9 holds NULL and cid 630+ has no customer: neither pairs up.
    assert pairs == {(oid, oid * 70) for oid in range(9) if oid * 70 < 600}
    rows = db.execute("SELECT o.oid, c.cid FROM ord o JOIN cust c "
                      "ON o.cid = c.cid")
    assert sorted(rows) == sorted(pairs)


def test_referential_check_probes_a_keyed_parent():
    """A parent stored in key order on the referenced column is probed by
    its key, not scanned."""
    db = Database(page_size=1024, buffer_capacity=128)
    parent = db.create_table("p", [("id", "INT", False), ("name", "STRING")],
                             storage_method="btree_file",
                             attributes={"key": ["id"]})
    parent.insert_many([(i, f"p{i}") for i in range(500)])
    child = db.create_table("c", [("cid", "INT", False), ("pid", "INT")])
    named = db.create_table("n", [("ref", "STRING")])
    for name, column in (("c", "pid"), ("n", "ref")):
        db.create_attachment(name, "referential", f"{name}_fk",
                             {"parent": "p", "columns": [column],
                              "parent_columns": ["id"]})
    before = db.services.stats.snapshot()
    for cid in range(20):
        child.insert((cid, cid * 25))
    with pytest.raises(ReferentialViolation):
        child.insert((20, 500))
    with pytest.raises(ReferentialViolation):
        named.insert(("7",))  # of another type than the parent key
    assert scanned(db, before) == 0
    assert (child.count(), named.count()) == (20, 0)


def test_hash_probe_of_null_finds_nothing():
    """A hash file keeps an entry for a NULL key, but NULL equals nothing:
    neither a fetch nor a probe route returns it."""
    db = Database(page_size=1024, buffer_capacity=128)
    table = db.create_table("t", [("id", "INT", False), ("tag", "STRING")])
    table.insert_many([(i, None if i % 3 == 0 else f"t{i % 2}")
                       for i in range(30)])
    db.create_index("t_tag", "t", ["tag"], kind="hash_index")
    path = AccessPath(
        db.registry.attachment_type_by_name("hash_index").type_id, "t_tag")
    assert table.fetch((None,), access_path=path) == []
    assert len(table.fetch(("t1",), access_path=path)) == 10
    query = "SELECT id FROM t WHERE tag = :tag"
    assert "hash_index" in db.explain(query)["access"]["route"]
    assert db.execute(query, {"tag": None}) == []
    assert sorted(db.execute(query, {"tag": "t0"})) == [
        (i,) for i in range(30) if i % 3 and i % 2 == 0]
    assert db.execute(query + " AND tag = 't1'", {"tag": "t0"}) == []
