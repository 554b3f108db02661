"""R-tree attachment: Guttman structure, spatial predicates, planning."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessPath, Box, Database
from repro.access.rtree import PAGE_TYPE_RTREE_NODE, RTree, _Node
from repro.errors import PageError
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice
from repro.services.pages import PageView
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


def test_deletes_give_back_the_pages_they_empty():
    """A node a delete empties leaves its parent and frees its page, so
    ``pages`` stays exact and ``destroy`` finds every page still held."""
    tree, pool = make_rtree(max_entries=4)
    for i in range(50):
        tree.insert(Box(i, i, i + 1, i + 1), i)
    assert tree.state["pages"] == pool.device.allocated_pages > 10
    for i in range(50):
        assert tree.delete(Box(i, i, i + 1, i + 1), i)
        assert tree.state["pages"] == pool.device.allocated_pages
    assert tree.state["pages"] == 1 and tree.state["height"] == 1
    tree.destroy()
    assert pool.device.allocated_pages == 0


def test_a_tree_emptied_after_a_split_takes_entries_again():
    tree, pool = make_rtree(max_entries=4)
    boxes = [(Box(i, 0, i + 1, 1), i) for i in range(30)]
    for box, value in boxes:
        tree.insert(box, value)
    assert tree.state["height"] > 2
    for box, value in boxes:
        tree.delete(box, value)
    tree.insert(Box(5, 5, 6, 6), "again")
    assert tree.search(Box(0, 0, 10, 10), "OVERLAPS") == [
        (Box(5, 5, 6, 6), "again")]


def test_an_entry_that_fits_no_page_is_refused_and_leaves_the_tree_alone():
    pool = BufferPool(BlockDevice(page_size=1024), capacity=64)
    tree = RTree.create(pool, max_entries=4)
    with pytest.raises(PageError):
        tree.insert(Box(0, 0, 1, 1), "k" * 2000)
    assert tree.search(Box(-1, -1, 2, 2), "OVERLAPS") == []
    assert tree.state["nentries"] == 0
    assert tree.state["pages"] == pool.device.allocated_pages == 1


def test_a_split_whose_old_half_fits_no_page_gives_the_new_page_back():
    """The right half goes to a new page first; when the left half then
    fits no page, the new page is freed and the leaf is as it was."""
    pool = BufferPool(BlockDevice(page_size=1024), capacity=64)
    tree = RTree.create(pool, max_entries=4)
    tree.insert(Box(100, 100, 101, 101), "h" * 700)
    for i in range(3):
        tree.insert(Box(i, i, i + 1, i + 1), i)
    with pytest.raises(PageError):
        tree.insert(Box(99.5, 99.5, 100.5, 100.5), "n" * 300)
    assert tree.state["pages"] == pool.device.allocated_pages == 1
    found = tree.search(Box(-1, -1, 200, 200), "ENCLOSED_BY")
    assert sorted(map(repr, (v for __, v in found))) == sorted(
        map(repr, ["h" * 700, 0, 1, 2]))


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


def emptied_relation(db, rows=17):
    """One more row than a node holds (default ``max_entries`` 16), so
    the R-tree splits once."""
    table = db.create_table("e", [("id", "INT"), ("region", "BOX")])
    db.create_attachment("e", "rtree", "e_rtree", {"column": "region"})
    table.insert_many([(i, Box(i, i, i + 1, i + 1)) for i in range(rows)])
    return table, AccessPath(
        db.registry.attachment_type_by_name("rtree").type_id, "e_rtree")


def test_an_rtree_emptied_after_a_split_accepts_inserts(db):
    """Deleting every row used to leave an interior root with no entries,
    on which every insert failed."""
    table, ap = emptied_relation(db)
    for key, __ in table.scan():
        table.delete(key)
    key = table.insert((99, Box(0, 0, 1, 1)))
    assert table.fetch(("overlaps", Box(-1, -1, 2, 2)), access_path=ap) \
        == [key]


def test_rolling_back_the_delete_of_every_row_restores_them(db):
    table, ap = emptied_relation(db)
    db.begin()
    for key, __ in table.scan():
        table.delete(key)
    db.rollback()
    other = db.connect()
    assert other.execute("SELECT COUNT(*) FROM e") == [(17,)]
    assert len(table.fetch(("enclosed_by", Box(-1, -1, 20, 20)),
                           access_path=ap)) == 17


def test_restart_after_a_freed_node_page_went_to_the_heap(db):
    """A delete that empties a leaf frees its page, which the heap takes
    next; the root as stored at the checkpoint still names that page, so
    a free stores every dirty page first and restart's free walk never
    reads the heap's page as a node."""
    table = db.create_table("r", [("id", "INT"), ("region", "BOX")])
    db.create_attachment("r", "rtree", "r_rtree",
                         {"column": "region", "max_entries": 4})
    keys = [table.insert((i, Box(i, i, i + 1, i + 1))) for i in range(12)]
    db.checkpoint(mode="sharp")
    for key in keys[:4]:
        table.delete(key)
    table.insert_many([(100 + i, None) for i in range(60)])
    db.restart()
    assert db.execute("SELECT COUNT(*) FROM r") == [(68,)]
    ap = AccessPath(db.registry.attachment_type_by_name("rtree").type_id,
                    "r_rtree")
    assert sorted(table.fetch(("enclosed_by", Box(-1, -1, 50, 50)),
                              access_path=ap)) == sorted(keys[4:])


def test_restart_rebuilds_after_any_mix_of_frees_and_checkpoints():
    """Splits move children between nodes whose stored copies are older,
    so every dirty page, not only the parent, is stored before a free
    (storing only the parent fails seed 31)."""
    for seed in range(40):
        rng = random.Random(seed)
        db = Database(page_size=1024, buffer_capacity=128)
        table = db.create_table("f", [("id", "INT"), ("region", "BOX")])
        db.create_attachment("f", "rtree", "f_rtree",
                             {"column": "region", "max_entries": 4})
        boxes, serial = {}, 0
        for __ in range(150):
            roll = rng.random()
            if boxes and roll < 0.4:
                key = rng.choice(sorted(boxes, key=repr))
                table.delete(key)
                del boxes[key]
            elif roll < 0.45:
                db.checkpoint(mode="sharp")
            elif roll < 0.55:
                table.insert_many([(-1, None)] * rng.randint(1, 30))
            else:
                x, y = rng.uniform(0, 50), rng.uniform(0, 50)
                box = Box(x, y, x + rng.uniform(0.1, 5),
                          y + rng.uniform(0.1, 5))
                boxes[table.insert((serial, box))] = box
                serial += 1
        db.restart()
        ap = AccessPath(db.registry.attachment_type_by_name("rtree").type_id,
                        "f_rtree")
        found = table.fetch(("enclosed_by", Box(-1, -1, 60, 60)),
                            access_path=ap)
        assert sorted(found, key=repr) == sorted(boxes, key=repr), seed


def rtree_frames(pool):
    return [(page_id, frame) for page_id, frame in pool._frames.items()
            if PageView(page_id, frame.data).page_type
            == PAGE_TYPE_RTREE_NODE]


@pytest.mark.parametrize("seed", range(4))
def test_rtree_images_stay_coherent_under_writes_and_rollbacks(
        db, monkeypatch, seed):
    """A writer changes a copy and hands it to the frame, so after any
    mix of inserts, deletes and rollbacks every resident node's image is
    what its bytes decode to, and a repeated window query decodes none."""
    rng = random.Random(seed)
    table = db.create_table("m", [("id", "INT"), ("region", "BOX")])
    db.create_attachment("m", "rtree", "m_rtree",
                         {"column": "region", "max_entries": 4})
    ap = AccessPath(db.registry.attachment_type_by_name("rtree").type_id,
                    "m_rtree")
    model, serial = {}, 0
    for __ in range(60):
        roll = db.begin() if rng.random() < 0.3 else None
        before = dict(model)
        for ___ in range(rng.randint(1, 6)):
            if model and rng.random() < 0.45:
                key = rng.choice(sorted(model, key=repr))
                table.delete(key)
                del model[key]
            else:
                x, y, w, h = (rng.uniform(0, 50), rng.uniform(0, 50),
                              rng.uniform(0.1, 5), rng.uniform(0.1, 5))
                box = Box(x, y, x + w, y + h)
                model[table.insert((serial, box))] = box
                serial += 1
        if roll is not None:
            if rng.random() < 0.5:
                db.rollback()
                model = before
            else:
                db.commit()
    window = Box(10, 10, 40, 40)
    expected = sorted((k for k, box in model.items()
                       if window.encloses(box)), key=repr)
    probe = ("enclosed_by", window)
    assert sorted(table.fetch(probe, access_path=ap), key=repr) == expected
    pool = db.services.buffer
    frames = rtree_frames(pool)
    assert frames
    for page_id, frame in frames:
        if frame.image is not None:
            fresh = _Node.load(PageView(page_id, frame.data))
            assert (frame.image.leaf, frame.image.entries) \
                == (fresh.leaf, fresh.entries), page_id
    loads = []
    real_load = _Node.load.__func__
    monkeypatch.setattr(_Node, "load", classmethod(
        lambda cls, page: loads.append(page.page_id) or real_load(cls, page)))
    table.fetch(probe, access_path=ap)
    del loads[:]
    assert sorted(table.fetch(probe, access_path=ap), key=repr) == expected
    assert loads == []
