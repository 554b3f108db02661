"""R-tree attachment: Guttman structure, spatial predicates, planning."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessPath, Box, Database
from repro.access.rtree import RTree
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice
from repro.services.locks import LockMode
from repro.workloads import rectangle_records


def make_rtree(max_entries=6):
    device = BlockDevice(page_size=2048)
    pool = BufferPool(device, capacity=256)
    return RTree.create(pool, max_entries=max_entries), pool


# ---------------------------------------------------------------------------
# Core structure
# ---------------------------------------------------------------------------

def test_insert_and_search_modes():
    tree, __ = make_rtree()
    tree.insert(Box(0, 0, 10, 10), "big")
    tree.insert(Box(2, 2, 4, 4), "small")
    tree.insert(Box(50, 50, 60, 60), "far")
    enclosed = tree.search(Box(0, 0, 20, 20), "ENCLOSED_BY")
    assert {v for __, v in enclosed} == {"big", "small"}
    encloses = tree.search(Box(3, 3, 3.5, 3.5), "ENCLOSES")
    assert {v for __, v in encloses} == {"big", "small"}
    overlaps = tree.search(Box(9, 9, 55, 55), "OVERLAPS")
    assert {v for __, v in overlaps} == {"big", "far"}


def test_split_preserves_entries():
    tree, __ = make_rtree(max_entries=4)
    boxes = [(Box(i, i, i + 1, i + 1), i) for i in range(50)]
    for box, value in boxes:
        tree.insert(box, value)
    found = tree.search(Box(-1, -1, 100, 100), "ENCLOSED_BY")
    assert sorted(v for __, v in found) == list(range(50))
    assert tree.state["height"] > 1


def test_delete_entry():
    tree, __ = make_rtree()
    tree.insert(Box(0, 0, 1, 1), "a")
    tree.insert(Box(0, 0, 1, 1), "b")
    assert tree.delete(Box(0, 0, 1, 1), "a")
    remaining = tree.search(Box(0, 0, 2, 2), "ENCLOSED_BY")
    assert [v for __, v in remaining] == ["b"]
    assert not tree.delete(Box(0, 0, 1, 1), "zz")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100),
                          st.floats(0.1, 10), st.floats(0.1, 10)),
                max_size=120))
def test_property_search_matches_linear_scan(raw_boxes):
    tree, __ = make_rtree(max_entries=5)
    boxes = []
    for i, (x, y, w, h) in enumerate(raw_boxes):
        box = Box(x, y, x + w, y + h)
        boxes.append((box, i))
        tree.insert(box, i)
    query = Box(25, 25, 75, 75)
    for mode, test in (("ENCLOSED_BY", lambda b: query.encloses(b)),
                       ("ENCLOSES", lambda b: b.encloses(query)),
                       ("OVERLAPS", lambda b: b.overlaps(query))):
        expected = sorted(v for b, v in boxes if test(b))
        got = sorted(v for __, v in tree.search(query, mode))
        assert got == expected


# ---------------------------------------------------------------------------
# Attachment behaviour
# ---------------------------------------------------------------------------

@pytest.fixture
def spatial(db):
    table = db.create_table("parcels", [("id", "INT"), ("region", "BOX")])
    table.insert_many(rectangle_records(60, seed=3, world=100.0))
    db.create_attachment("parcels", "rtree", "parcel_rtree",
                         {"column": "region"})
    att = db.registry.attachment_type_by_name("rtree")
    return db, table, att


def test_fetch_with_mode_and_box(spatial):
    db, table, att = spatial
    window = Box(0, 0, 50, 50)
    keys = table.fetch(("enclosed_by", window),
                       access_path=AccessPath(att.type_id, "parcel_rtree"))
    expected = [k for k, r in table.scan() if window.encloses(r[1])]
    assert sorted(keys, key=repr) == sorted(expected, key=repr)


def test_maintenance_on_insert_update_delete(spatial):
    db, table, att = spatial
    ap = AccessPath(att.type_id, "parcel_rtree")
    key = table.insert((999, Box(200, 200, 201, 201)))
    probe = ("overlaps", Box(199, 199, 202, 202))
    assert table.fetch(probe, access_path=ap) == [key]
    table.update(key, {"region": Box(300, 300, 301, 301)})
    assert table.fetch(probe, access_path=ap) == []
    key = table.scan(where="id = 999")[0][0]
    table.delete(key)
    assert table.fetch(("overlaps", Box(299, 299, 302, 302)),
                       access_path=ap) == []


def test_abort_undoes_rtree_maintenance(spatial):
    db, table, att = spatial
    ap = AccessPath(att.type_id, "parcel_rtree")
    db.begin()
    table.insert((999, Box(200, 200, 201, 201)))
    db.rollback()
    assert table.fetch(("overlaps", Box(199, 199, 202, 202)),
                       access_path=ap) == []


def test_planner_recognises_encloses_predicate(spatial):
    """The paper: 'the R-tree access path will recognize the ENCLOSES
    predicate and report a low cost'."""
    db, table, att = spatial
    plan = db.explain(
        "SELECT * FROM parcels WHERE region ENCLOSED_BY box(0,0,50,50)")
    assert "rtree" in plan["access"]["route"]
    rows = db.execute(
        "SELECT id FROM parcels WHERE region ENCLOSED_BY box(0,0,50,50)")
    window = Box(0, 0, 50, 50)
    expected = sorted(r[0] for r in table.rows()
                      if window.encloses(r[1]))
    assert sorted(r[0] for r in rows) == expected


def test_null_boxes_are_not_indexed(db):
    table = db.create_table("n", [("id", "INT"), ("region", "BOX")])
    db.create_attachment("n", "rtree", "n_rtree", {"column": "region"})
    table.insert((1, None))
    table.insert((2, Box(0, 0, 1, 1)))
    att = db.registry.attachment_type_by_name("rtree")
    keys = table.fetch(("enclosed_by", Box(-1, -1, 2, 2)),
                       access_path=AccessPath(att.type_id, "n_rtree"))
    assert len(keys) == 1


def test_rebuild_after_crash(spatial):
    db, table, att = spatial
    db.restart()
    ap = AccessPath(att.type_id, "parcel_rtree")
    window = Box(0, 0, 100, 100)
    keys = table.fetch(("enclosed_by", window), access_path=ap)
    expected = [k for k, r in table.scan() if window.encloses(r[1])]
    assert sorted(keys, key=repr) == sorted(expected, key=repr)


def test_a_wide_spatial_scan_escalates_to_relation_s(db):
    """The R-tree scan locks a batch at a time through ``lock_records``,
    so a window over hundreds of boxes ends on one relation S lock."""
    table = db.create_table("wide", [("id", "INT"), ("region", "BOX")])
    table.insert_many(rectangle_records(240, seed=5, world=100.0))
    db.create_attachment("wide", "rtree", "wide_rtree", {"column": "region"})
    att = db.registry.attachment_type_by_name("rtree")
    handle = db.catalog.handle("wide")
    instance = att.instance(handle.descriptor.attachment_field(att.type_id),
                            "wide_rtree")
    route = ("rtree_search", "OVERLAPS", Box(-1, -1, 101, 101))
    before = db.services.stats.snapshot()
    db.begin()
    with db.autocommit() as ctx:
        scan = att.open_scan(ctx, handle, instance, route=route)
        found = []
        while batch := scan.next_batch(50):
            found.extend(batch)
        locks = db.services.locks
        assert len(found) == 240
        assert locks.held_mode(ctx.txn_id, ("rel", handle.relation_id)) \
            is LockMode.S
        assert len([r for r in locks.locks_held(ctx.txn_id)
                    if r[0] == "rec"]) == 50
    assert db.services.stats.delta(before)["locks.read_escalations"] == 1
    db.commit()
