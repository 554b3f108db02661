"""Page-based B+tree: operations, splits, ordering invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.access.btree_core import BTree
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice


def make_tree(max_entries=8, page_size=1024, capacity=128):
    device = BlockDevice(page_size=page_size)
    pool = BufferPool(device, capacity=capacity)
    return BTree.create(pool, max_entries=max_entries), pool


def test_empty_tree_searches_and_ranges():
    tree, __ = make_tree()
    assert tree.search((1,)) == []
    assert list(tree.range()) == []
    assert tree.entry_count == 0


def test_insert_search_roundtrip():
    tree, __ = make_tree()
    for i in range(50):
        tree.insert((i,), f"rid{i}")
    for i in range(50):
        assert tree.search((i,)) == [f"rid{i}"]
    assert tree.entry_count == 50


def test_splits_grow_height_and_keep_order():
    tree, __ = make_tree(max_entries=4)
    for i in range(200):
        tree.insert((i % 97, i), i)
    assert tree.height > 2
    tree.validate()
    keys = [k for k, __ in tree.range()]
    assert keys == sorted(keys)


def test_duplicate_keys_supported():
    tree, __ = make_tree()
    tree.insert((5,), "a")
    tree.insert((5,), "b")
    assert sorted(tree.search((5,))) == ["a", "b"]
    assert tree.delete((5,), "a")
    assert tree.search((5,)) == ["b"]


def test_delete_missing_returns_false():
    tree, __ = make_tree()
    tree.insert((1,), "x")
    assert not tree.delete((1,), "y")
    assert not tree.delete((2,), "x")
    assert tree.entry_count == 1


def test_range_bounds_inclusive_exclusive():
    tree, __ = make_tree()
    for i in range(10):
        tree.insert((i,), i)
    assert [k[0] for k, __ in tree.range((3,), (6,))] == [3, 4, 5, 6]
    assert [k[0] for k, __ in tree.range((3,), (6,), False, False)] == [4, 5]
    assert [k[0] for k, __ in tree.range(None, (2,))] == [0, 1, 2]
    assert [k[0] for k, __ in tree.range((8,), None)] == [8, 9]


def test_entries_after_resumes_scan():
    tree, __ = make_tree(max_entries=4)
    for i in range(30):
        tree.insert((i,), i)
    first = next(iter(tree.entries_after(None)))
    rest = list(tree.entries_after(first))
    assert [k[0] for k, __ in rest] == list(range(1, 30))


def test_destroy_frees_pages():
    tree, pool = make_tree(max_entries=4)
    for i in range(100):
        tree.insert((i,), i)
    allocated = pool.device.allocated_pages
    assert allocated > 3
    tree.destroy()
    assert pool.device.allocated_pages == 0


def test_reset_empties_and_reuses():
    tree, __ = make_tree()
    for i in range(20):
        tree.insert((i,), i)
    tree.reset()
    assert tree.entry_count == 0
    tree.insert((1,), "fresh")
    assert tree.search((1,)) == ["fresh"]


def test_string_and_composite_keys():
    tree, __ = make_tree()
    tree.insert(("alice", 1), "r1")
    tree.insert(("bob", 2), "r2")
    assert tree.search(("alice", 1)) == ["r1"]
    keys = [k for k, __ in tree.range()]
    assert keys == sorted(keys)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(0, 10**6)),
                max_size=300))
def test_property_matches_reference_model(operations):
    """The tree behaves like a sorted multiset of (key, value) pairs."""
    tree, __ = make_tree(max_entries=6)
    reference = []
    for key, value in operations:
        tree.insert((key,), value)
        reference.append(((key,), value))
    tree.validate()
    assert tree.entry_count == len(reference)
    got = [(k, v) for k, v in tree.range()]
    assert sorted(got) == sorted(reference)
    assert [k for k, __ in got] == sorted(k for k, __ in got)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 50), min_size=1, max_size=120),
       st.data())
def test_property_delete_any_subset(inserts, data):
    tree, __ = make_tree(max_entries=5)
    for i, key in enumerate(inserts):
        tree.insert((key,), i)
    victims = data.draw(st.lists(
        st.sampled_from(list(enumerate(inserts))), unique_by=lambda p: p[0],
        max_size=len(inserts)))
    survivors = {(key, i) for i, key in enumerate(inserts)}
    for i, key in victims:
        assert tree.delete((key,), i)
        survivors.discard((key, i))
    tree.validate()
    got = {(k[0], v) for k, v in tree.range()}
    assert got == survivors


def test_max_key_walks_past_leaves_emptied_by_deletes():
    tree, __ = make_tree(max_entries=4)
    for i in range(40):
        tree.insert((i,), i)
    assert tree.height > 2
    # Delete from the top until well past the last leaf's own keys: the
    # rightmost leaves stay in the tree, empty.
    for top in range(39, 7, -1):
        assert tree.delete((top,), top)
        assert tree.max_key() == (top - 1,)
        assert tree.min_key() == (0,)
    for i in range(8):
        tree.delete((i,), i)
    assert tree.max_key() is None and tree.min_key() is None
