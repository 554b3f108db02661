"""B-tree index attachment: maintenance side effects, access, costs."""

import pytest

from repro import AccessPath, Database, UniqueViolation
from repro.access.btree_core import BTree, _Node
from repro.errors import ReproError
from repro.services.scans import AFTER, ON
from tests import conftest


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


# ---------------------------------------------------------------------------
# The point-statement path: one descent over decoded nodes
# ---------------------------------------------------------------------------

def point_table(db, rows=600, max_entries=8):
    table = db.create_table("pt", [("id", "INT", False), ("v", "STRING")])
    table.insert_many([(i, f"v{i}") for i in range(rows)])
    db.create_index("pt_id", "pt", ["id"], unique=True,
                    max_entries=max_entries)
    att = db.registry.attachment_type_by_name("btree_index")
    handle = db.catalog.handle("pt")
    instance = att.instance(handle.descriptor.attachment_field(att.type_id),
                            "pt_id")
    tree = BTree(db.services.buffer, instance["tree"], max_entries)
    # A key from the middle of its leaf (see test_btree_core: a separator
    # or a leaf's last key costs the probe one more leaf).
    key = next(k for k in range(100, 200)
               if (k,) in tree._descend((k,))[1].keys[:-1])
    return att, handle, instance, tree, key


def test_warm_point_select_pins_one_path_and_decodes_nothing(db, monkeypatch):
    att, handle, instance, tree, key = point_table(db)
    assert tree.height >= 3
    query, params = "SELECT * FROM pt WHERE id = :id", {"id": key}
    assert "btree_index" in db.explain(query)["access"]["route"]
    assert db.execute(query, params) == [(key, f"v{key}")]  # warm
    loads = []
    monkeypatch.setattr(_Node, "load", classmethod(
        lambda cls, page: loads.append(page.page_id)))
    stats = db.services.stats
    before = stats.snapshot()
    assert db.execute(query, params) == [(key, f"v{key}")]
    delta = stats.delta(before)
    # h node pins + 1 heap pin: one descent, the leaf it ends on read once,
    # and nothing at all for the call that only learns the scan is over.
    assert delta["buffer.pins"] == tree.height + 1
    assert delta["buffer.hits"] == tree.height + 1
    assert delta["executor.scan_batches"] == 2
    assert loads == []


def test_exhausted_index_scan_answers_without_a_descent(db):
    att, handle, instance, tree, key = point_table(db)
    route = ("btree_range", (key,), (key + 2,), True, True)
    db.begin()
    with db.autocommit() as ctx:
        scan = att.open_scan(ctx, handle, instance, route=route)
        assert [view[0] for __, view in scan.next_batch(64)] \
            == [key, key + 1, key + 2]
        assert scan.save_position().state == AFTER  # ran off its range
        pins = db.services.stats.get("buffer.pins")
        assert scan.next_batch(64) == [] and scan.next() is None
        assert db.services.stats.get("buffer.pins") == pins
        # Stopped by the count instead, the scan is ON and goes on.
        scan = att.open_scan(ctx, handle, instance, route=route)
        assert len(scan.next_batch(2)) == 2
        assert scan.save_position().state == ON
        assert [view[0] for __, view in scan.next_batch(2)] == [key + 2]
        assert scan.next() is None
    db.commit()


def test_savepoint_rollback_restores_an_exhausted_index_scan(db):
    """AFTER is terminal only until ``restore_position`` says otherwise:
    rolled back to a savepoint taken mid-range, the scan is ON again and
    finds the later entries a second time."""
    att, handle, instance, tree, key = point_table(db)
    route = ("btree_range", (key,), (key + 4,), True, True)
    db.begin()
    with db.autocommit() as ctx:
        scan = att.open_scan(ctx, handle, instance, route=route)
        assert [view[0] for __, view in scan.next_batch(2)] == [key, key + 1]
        db.savepoint("sp")
        assert [view[0] for __, view in scan.next_batch(64)] \
            == [key + 2, key + 3, key + 4]
        assert scan.next_batch(64) == []
        assert scan.save_position().state == AFTER
        db.rollback_to("sp")
        assert scan.save_position().state == ON
        assert scan.next()[1][0] == key + 2
        assert [view[0] for __, view in scan.next_batch(64)] \
            == [key + 3, key + 4]
        assert scan.next() is None
    db.commit()


# ---------------------------------------------------------------------------
# Batches reach the tree as batches
# ---------------------------------------------------------------------------

def tree_pages(db, instance):
    return conftest.tree_pages(db.services.buffer, BTree(
        db.services.buffer, instance["tree"], instance["max_entries"]))


def point_instance(db):
    att = db.registry.attachment_type_by_name("btree_index")
    field = db.catalog.handle("pt").descriptor.attachment_field(att.type_id)
    return field["instances"]["pt_id"]


def test_unique_veto_on_the_last_entry_of_a_batch_writes_no_tree_page(db):
    instance = point_table(db, rows=300)[2]
    table = db.table("pt")
    before = tree_pages(db, instance)
    state = dict(instance["tree"])
    batch = [(1000 + i, f"v{i}") for i in range(199)] + [(7, "taken")]
    with pytest.raises(UniqueViolation):
        table.insert_many(batch)
    assert tree_pages(db, instance) == before and instance["tree"] == state
    # ... and so does a duplicate inside the batch itself.
    with pytest.raises(UniqueViolation):
        table.insert_many(batch[:-1] + [(1000, "twice")])
    assert tree_pages(db, instance) == before and instance["tree"] == state
    assert table.count() == 300


def test_index_maintenance_pickles_leaves_not_entries(db, node_dumps):
    point_table(db, rows=600, max_entries=48)
    table = db.table("pt")
    dumps = node_dumps
    del dumps[:]
    stats = db.services.stats
    builds, rebuilds = (stats.get("btree_index.builds"),
                        stats.get("btree_index.rebuilds"))
    keys = table.insert_many([(1000 + i, f"v{i}") for i in range(400)])
    assert len(dumps) <= 20            # 400 entries: 16 leaves and a parent
    del dumps[:]
    table.delete_many(keys)
    assert len(dumps) <= 17            # the same leaves, once each
    # Builds go through the same body, a scan batch at a time: counters as
    # ever (one build per instance built, one rebuild per restart).
    del dumps[:]
    db.create_index("pt_v", "pt", ["v"])
    assert stats.get("btree_index.builds") == builds + 1
    assert len(dumps) <= 60            # 600 entries in 3 scan batches
    del dumps[:]
    db.restart()
    assert stats.get("btree_index.rebuilds") == rebuilds + 1
    assert stats.get("btree_index.builds") == builds + 3
    assert len(dumps) <= 120
    assert table.count() == 600
    tree = BTree(db.services.buffer, point_instance(db)["tree"], 48)
    tree.validate()
    assert [k[0] for k, __ in tree.range()] == list(range(600))


def test_undo_of_a_batch_is_a_batch(db, node_dumps):
    instance = point_table(db, rows=300, max_entries=48)[2]
    table = db.table("pt")
    db.begin()
    keys = table.insert_many([(1000 + i, f"v{i}") for i in range(200)])
    table.delete_many(keys[:50] + [k for k, __ in table.scan(
        where="id < 40")])
    del node_dumps[:]
    db.rollback()
    assert len(node_dumps) <= 20            # two log records, a few leaves each
    tree = BTree(db.services.buffer, instance["tree"], 48)
    tree.validate()
    assert [k[0] for k, __ in tree.range()] == list(range(300))
    assert tree.entry_count == 300


# ---------------------------------------------------------------------------
# NULL keys: no entry, no route, no uniqueness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("unique", [False, True], ids=["plain", "unique"])
@pytest.mark.parametrize("code", ["INT", "STRING"])
def test_null_keys_stay_out_of_the_tree_routes_and_uniqueness(db, code,
                                                               unique):
    """Built over NULLs, then NULLs inserted and updated to and from: the
    tree holds the non-NULL keys only, ``=`` and ranges still take the
    index and equal a heap scan, ``IS NULL`` never takes it, and a
    restart rebuilds the same."""
    value = (lambda i: i) if code == "INT" else (lambda i: f"k{i:04d}")
    table = db.create_table("n", [("id", "INT", False), ("v", code)])
    table.insert_many([(i, None if i % 3 == 0 else value(i if unique
                                                        else i // 2))
                       for i in range(300)])
    db.create_index("n_v", "n", ["v"], unique=unique)
    table.insert((300, None))
    table.insert_many([(301, None), (302, None)])
    db.execute("UPDATE n SET v = NULL WHERE id = 1")
    top = 300 if unique else 150                # past every stored value
    db.execute("UPDATE n SET v = :v WHERE id = 3", {"v": value(top)})
    if unique:
        with pytest.raises(UniqueViolation):
            table.insert((303, value(10)))
    att = db.registry.attachment_type_by_name("btree_index")
    instance = db.catalog.handle("n").descriptor.attachment_field(
        att.type_id)["instances"]["n_v"]
    a, b, c = value(40), value(46), value(top - 10)
    shapes = {f"v = {a!r}": lambda v: v == a,
              f"v >= {a!r} AND v < {b!r}":
              lambda v: v is not None and a <= v < b,
              f"v > {c!r}": lambda v: v is not None and v > c,
              "v IS NULL": lambda v: v is None}

    def check():
        rows = [record for __, record in table.scan()]
        assert instance["tree"]["nentries"] == sum(r[1] is not None
                                                   for r in rows)
        for where, keep in shapes.items():
            statement = f"SELECT id FROM n WHERE {where}"
            got = sorted(r[0] for r in db.execute(statement))
            assert got == sorted(r[0] for r in rows if keep(r[1])), where
            route = str(db.explain(statement)["access"]["route"])
            # STRING ranges have no interpolation: they scan by cost
            assert ("btree_index" in route) == (
                where.startswith("v =") or code == "INT"
                and where != "v IS NULL"), where
        assert db.execute("SELECT id FROM n WHERE v = :a",
                          {"a": None}) == []

    check()
    db.restart()
    check()


def test_a_null_past_the_leading_field_withdraws_the_range_route(db):
    """A range over ``a`` would miss a record whose ``b`` is NULL: once one
    is stored the index offers no route, and a rebuild that finds none
    gives the route back."""
    table = db.create_table("c", [("a", "INT"), ("b", "INT")])
    table.insert_many([(i, i * 10) for i in range(400)])
    db.create_index("c_ab", "c", ["a", "b"])
    statement = "SELECT a, b FROM c WHERE a >= 100 AND a < 110"
    assert "btree_index" in str(db.explain(statement)["access"]["route"])
    table.insert_many([(105, None), (None, 7)])
    assert "btree_index" not in str(db.explain(statement)["access"]["route"])
    assert set(db.execute(statement)) == {
        *((i, i * 10) for i in range(100, 110)), (105, None)}
    key = next(k for k, r in table.scan() if r == (105, None))
    table.update(key, {"b": 1})
    db.restart()
    assert "btree_index" in str(db.explain(statement)["access"]["route"])
    assert len(db.execute(statement)) == 11


# ---------------------------------------------------------------------------
# A bound of another type: the route answers as the scan does
# ---------------------------------------------------------------------------

MISTYPED = [("SELECT * FROM t WHERE a = 'x'", {}),
            ("SELECT * FROM t WHERE a = :p", {"p": "x"}),
            ("SELECT a FROM t WHERE a = :p", {"p": "x"}),
            ("UPDATE t SET s = 'q' WHERE a = :p", {"p": "x"}),
            ("DELETE FROM t WHERE a = :p", {"p": "x"}),
            ("DELETE FROM t WHERE a = 'x' AND a > 1000", {}),
            ("SELECT * FROM t WHERE a BETWEEN upper('x') AND 0", {}),
            ("SELECT * FROM t WHERE a > 'x'", {}),
            ("SELECT * FROM t WHERE a IN ('x', 3)", {}),
            ("SELECT * FROM t WHERE a IN ('x', 'y')", {}),
            ("SELECT * FROM t WHERE a = :p", {"p": 3})]


def mistyped_answers(kind):
    """Every MISTYPED statement's rows, count or typed error over the same
    20 rows, reached through no index or an index of ``kind``."""
    db = Database(page_size=1024)
    table = db.create_table("t", [("a", "INT"), ("s", "STRING")])
    table.insert_many([(i, f"s{i}") for i in range(20)])
    if kind == "hash":
        db.create_index("t_a", "t", ["a"], kind="hash_index")
    elif kind is not None:
        db.create_index("t_a", "t", ["a"], unique=kind == "unique")
    if kind is not None:
        route = str(db.explain(MISTYPED[0][0])["access"]["route"])
        assert "t_a" in route
    answers = []
    for statement, params in MISTYPED:
        try:
            result = db.execute(statement, params)
        except ReproError as exc:  # a built-in exception fails the test
            result = type(exc)
        answers.append(sorted(result) if isinstance(result, list)
                       else result)
    return answers


@pytest.mark.parametrize("kind", ["plain", "unique", "hash"])
def test_a_bound_of_another_type_answers_as_the_scan_does(kind):
    """``a = 'x'`` over an INT key matches no row and ``a > 'x'`` is a
    PredicateError on a scan; a B-tree route with such a bound (alone,
    beside another bound, or from a parameter) answers the same."""
    assert mistyped_answers(kind) == mistyped_answers(None)
