"""Page-based B+tree: operations, splits, ordering invariants."""

import bisect
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.access.btree_core import BTree, _Node
from repro.errors import InjectedFault, PageError
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice
from repro.services.faults import FaultInjector
from repro.services.pages import PageView, stamp_checksum


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


# ---------------------------------------------------------------------------
# Decoded-image coherence: nodes are read through the buffer frame's image
# ---------------------------------------------------------------------------

def node_fields(node):
    return (node.leaf, node.keys, node.values, node.children, node.next_leaf)


def assert_images_coherent(pool):
    """Every resident frame's image, if any, is what its bytes decode to."""
    for page_id, frame in pool._frames.items():
        if frame.image is not None:
            fresh = _Node.load(PageView(page_id, frame.data))
            assert node_fields(frame.image) == node_fields(fresh), page_id


def test_a_node_that_fits_no_new_page_gives_the_page_back():
    """The right half of a split that fits no page used to keep the page
    it was refused by: allocated, and owned by nobody."""
    tree, pool = make_tree(page_size=512)
    tree.insert_many([((1, ""), "a"), ((2, ""), "b")])
    allocated = pool.device.allocated_pages
    with pytest.raises(PageError):
        tree.insert((3, "x" * 600), "c")
    assert pool.device.allocated_pages == allocated == tree.page_count
    assert list(tree.range()) == [((1, ""), "a"), ((2, ""), "b")]


def test_failed_node_write_leaves_page_and_image_alone():
    tree, pool = make_tree(page_size=512)
    tree.insert((1, ""), "a")
    root = tree.state["root"]
    assert tree.search((1, "")) == ["a"]  # fills the image
    image, raw = pool._frames[root].image, bytes(pool._frames[root].data)
    pool.flush_all()
    with pytest.raises(PageError):
        tree.insert((2, "x" * 600), "b")  # the grown node fits no page
    frame = pool._frames[root]
    assert frame.image is image and node_fields(image)[1] == [(1, "")]
    assert bytes(frame.data)[28:] == raw[28:] and not frame.dirty
    assert pool.pin_count(root) == 0
    assert list(tree.range()) == [((1, ""), "a")] and tree.entry_count == 1
    tree.validate()


def test_mutators_copy_a_reader_keeps_the_node_it_holds():
    tree, pool = make_tree(max_entries=8)
    for i in range(6):
        tree.insert((i,), i)
    for change, after in ((lambda: tree.delete((3,), 3), [0, 1, 2, 4, 5]),
                          (lambda: tree.insert((1,), "new"),
                           [0, 1, "new", 2, 4, 5])):
        before = [v for __, v in tree.range()]
        entries = tree.range()
        assert next(entries) == ((0,), 0)
        change()                      # same leaf, while the reader holds it
        assert [v for __, v in entries] == before[1:]  # its own snapshot
        assert [v for __, v in tree.range()] == after
        assert_images_coherent(pool)


def test_probe_reads_each_node_on_its_path_once():
    tree, pool = make_tree(max_entries=8)
    for i in range(400):
        tree.insert((i,), i)
    assert tree.height >= 3
    # A key in the middle of its leaf: neither a separator (the descent
    # then starts one leaf to the left, in case duplicates straddle the
    # split) nor the leaf's last key (the end of the run of equal keys is
    # then only known from the next leaf).
    k = next(k for k in range(70, 90)
             if (k,) in tree._descend((k,))[1].keys[:-1])
    for probe in (lambda: tree.search((k,)),
                  lambda: list(tree.range((k,), (k,))),
                  lambda: list(tree.entries_after(((k - 1,), k - 1), (k,))),
                  lambda: tree.delete((k,), "absent")):
        before = pool.stats.get("buffer.pins")
        probe()
        assert pool.stats.get("buffer.pins") - before == tree.height


class CachedTreeMachine(RuleBasedStateMachine):
    """insert/delete/search/range/entries_after/min/max against a sorted
    list, on a pool small enough to evict, interleaved with flushes, a
    crash + rebuild, a suspended generator and node writes made to fail."""

    PAGE_SIZE = 512
    keys = st.tuples(st.integers(0, 40), st.sampled_from(["", "k", "kk"]))

    def __init__(self):
        super().__init__()
        self.device = BlockDevice(page_size=self.PAGE_SIZE)
        self.model = []        # sorted (key, value) pairs, values unique
        self.ever = set()      # every pair ever inserted
        self.serial = 0
        self.suspended = None

    @initialize(capacity=st.integers(4, 8), max_entries=st.integers(4, 6))
    def build(self, capacity, max_entries):
        self.pool = BufferPool(self.device, capacity=capacity)
        self.pool.faults = FaultInjector()
        self.max_entries = max_entries
        self.tree = BTree.create(self.pool, max_entries=max_entries)

    def rebuild(self):
        """Attachment structures recover by rebuild: a new tree, reloaded."""
        self.suspended = None
        self.tree = BTree.create(self.pool, max_entries=self.max_entries)
        for key, value in self.model:
            self.tree.insert(key, value)

    # -- mutations ----------------------------------------------------------
    def mutate(self, change, evict_fault):
        """``change()``, with the next write-back made to fail when asked;
        returns ``(it completed, its result)``."""
        if evict_fault:
            self.pool.faults.arm("buffer.write_back", nth=1)
        try:
            return True, change()
        except InjectedFault:
            # An eviction failed somewhere between the descent and the last
            # node write: whatever was written, no image may lie about it.
            assert_images_coherent(self.pool)
            self.rebuild()
            return False, None
        finally:
            self.pool.faults.disarm()

    @rule(key=keys, evict_fault=st.booleans())
    def insert(self, key, evict_fault):
        self.serial += 1
        entry = (key, self.serial)
        if self.mutate(lambda: self.tree.insert(*entry), evict_fault)[0]:
            self.ever.add(entry)
            bisect.insort(self.model, entry)

    @rule(data=st.data(), present=st.booleans(), evict_fault=st.booleans())
    def delete(self, data, present, evict_fault):
        if present and self.model:
            entry = data.draw(st.sampled_from(self.model))
        else:
            entry = (data.draw(self.keys), -1)
        done, found = self.mutate(lambda: self.tree.delete(*entry),
                                  evict_fault)
        if done:
            assert found == (entry in self.model)
            if found:
                self.model.remove(entry)

    @rule(number=st.integers(0, 40))
    def oversized_key_fails_the_node_write(self, number):
        before = self.tree.entry_count
        with pytest.raises(PageError):
            self.tree.insert((number, "x" * 2 * self.PAGE_SIZE), 0)
        assert self.tree.entry_count == before

    # -- reads (through the images) -------------------------------------------
    @rule(key=keys)
    def search(self, key):
        assert sorted(self.tree.search(key)) == [
            v for k, v in self.model if k == key]

    @rule(low=st.none() | st.integers(0, 40), high=st.none() | st.integers(0, 40),
          low_inclusive=st.booleans(), high_inclusive=st.booleans())
    def range(self, low, high, low_inclusive, high_inclusive):
        def inside(key):
            return ((low is None or key[0] > low
                     or (low_inclusive and key[0] == low))
                    and (high is None or key[0] < high
                         or (high_inclusive and key[0] == high)))
        got = list(self.tree.range(None if low is None else (low,),
                                   None if high is None else (high,),
                                   low_inclusive, high_inclusive))
        assert [k for k, __ in got] == sorted(k for k, __ in got)
        assert sorted(got) == [e for e in self.model if inside(e[0])]

    @rule(data=st.data(), high=st.none() | st.integers(0, 40))
    def entries_after(self, data, high):
        listing = list(self.tree.range())
        assert sorted(listing) == self.model
        position = (data.draw(st.sampled_from(listing)) if listing else None)
        rest = listing[listing.index(position) + 1:] if listing else []
        assert list(self.tree.entries_after(
            position, None if high is None else (high,))) == [
                e for e in rest if high is None or e[0][0] <= high]

    @rule()
    def min_and_max(self):
        assert self.tree.min_key() == (self.model[0][0] if self.model else None)
        assert self.tree.max_key() == (self.model[-1][0] if self.model
                                       else None)

    # -- a generator left suspended across whatever comes next ----------------
    @rule(low=st.integers(0, 40), take=st.integers(0, 5))
    def suspend(self, low, take):
        entries = self.tree.range((low,))
        list(itertools.islice(entries, take))
        self.suspended = entries

    @precondition(lambda self: self.suspended is not None)
    @rule()
    def resume(self):
        rest, self.suspended = list(self.suspended), None
        assert [k for k, __ in rest] == sorted(k for k, __ in rest)
        assert self.ever.issuperset(rest)

    # -- the pool underneath ------------------------------------------------
    @rule()
    def flush_all(self):
        self.pool.flush_all()

    @rule()
    def crash_and_rebuild(self):
        self.pool.crash()
        assert self.pool.cached_pages == 0
        self.rebuild()

    @invariant()
    def images_equal_bytes_and_tree_is_valid(self):
        if not hasattr(self, "pool"):
            return
        assert_images_coherent(self.pool)
        assert all(self.pool.pin_count(p) == 0 for p in self.pool._frames)
        # Validate from the bytes alone — the device overlaid with the
        # resident frames — on a pool of its own, so checking disturbs
        # neither this pool's LRU order nor its images.
        shadow = BlockDevice(page_size=self.PAGE_SIZE)
        shadow._pages = dict(self.device._pages)
        for page_id, frame in self.pool._frames.items():
            data = bytearray(frame.data)
            stamp_checksum(data)
            shadow._pages[page_id] = bytes(data)
        copy = BTree(BufferPool(shadow, capacity=64), dict(self.tree.state),
                     self.max_entries)
        copy.validate()
        assert sorted(copy.range()) == self.model
        assert copy.entry_count == len(self.model)


CachedTreeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=list(HealthCheck))
test_property_cached_images_stay_coherent = CachedTreeMachine.TestCase


# ---------------------------------------------------------------------------
# Batches: a sorted batch is applied a leaf at a time
# ---------------------------------------------------------------------------

def key_sorted(batch):
    return sorted(batch, key=lambda entry: entry[0])  # stable, by key only


class FlatModel:
    """The tree as one list of entries in key order: an insert goes after
    the entries already under its key, a delete takes the first match —
    what single ``insert``/``delete`` calls have always done."""

    def __init__(self):
        self.keys, self.entries = [], []

    def insert(self, key, value):
        at = bisect.bisect_right(self.keys, key)
        self.keys.insert(at, key)
        self.entries.insert(at, (key, value))

    def delete(self, key, value):
        if (key, value) not in self.entries:
            return False
        at = self.entries.index((key, value))
        del self.keys[at], self.entries[at]
        return True


LONG = "x" * 90  # five of these overflow a 1 KiB node before 48 entries do

batch_keys = st.tuples(st.integers(0, 40),
                       st.sampled_from(["", "", "", "k", LONG]))
insert_batches = st.one_of(
    st.lists(st.tuples(batch_keys, st.integers(0, 3)), min_size=1,
             max_size=300),
    # A monotone run, as a load in key order produces.
    st.builds(lambda start, count, value: [((start + i, ""), value)
                                           for i in range(count)],
              st.integers(0, 400), st.integers(1, 300), st.integers(0, 3)),
    # One pair many times over.
    st.builds(lambda key, value, count: [(key, value)] * count,
              batch_keys, st.integers(0, 3), st.integers(1, 40)))


@settings(max_examples=220, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.sampled_from([4, 6, 48]),
       st.lists(st.tuples(st.booleans(), insert_batches, st.randoms()),
                min_size=1, max_size=8))
def test_batches_equal_single_operations_in_key_order(max_entries, steps):
    """Random interleavings of ``insert_many`` / ``delete_many`` against a
    twin tree driven one entry at a time and the flat model of both.
    (Page counts are not compared: two trees with different histories
    have different leaves to fill, and the totals cross either way —
    what a batch promises about space is the fill invariant below.)"""
    batched, __ = make_tree(max_entries=max_entries, capacity=512)
    twin, __ = make_tree(max_entries=max_entries, capacity=512)
    model = FlatModel()
    for inserting, batch, random in steps:
        if inserting:
            batched.insert_many(batch)
            for key, value in key_sorted(batch):
                twin.insert(key, value)
                model.insert(key, value)
        else:
            # Victims: entries that are there (some asked for twice), the
            # batch's own entries (there or not), and one that never was.
            stored = model.entries
            victims = [random.choice(stored) for __ in range(
                min(len(stored), random.randint(1, 300)))]
            victims += batch[:20] + [((999, "absent"), -1)]
            random.shuffle(victims)
            found = sum([twin.delete(key, value)
                         for key, value in key_sorted(victims)])
            assert [model.delete(key, value)
                    for key, value in key_sorted(victims)].count(True) == found
            assert batched.delete_many(victims) == found
        for tree in (batched, twin):
            tree.validate()
            assert list(tree.range()) == model.entries
            assert tree.entry_count == len(model.entries)
    # The unique probe: the first key, in batch order, that is stored or
    # came earlier in the batch.
    probe = [(17, "nowhere"), (-1, "")] + model.keys[::3][:50] + [(-1, "")]
    assert batched.first_duplicate(probe[:2]) is None
    assert batched.first_duplicate(probe) == 2  # stored, or (-1, "") again


@settings(max_examples=150, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.sampled_from([4, 5, 6, 48]),
       st.lists(st.lists(st.integers(0, 600), min_size=1, max_size=400),
                min_size=1, max_size=6))
def test_batches_keep_every_node_at_least_half_full(max_entries, batches):
    """The B-tree invariant single inserts keep: a tree that only grew has
    at least ``max_entries // 2`` keys in every node but the root — a
    batch halves an overfull node until the pieces fit, never further —
    so it takes at most twice the pages its entries need."""
    tree, __ = make_tree(max_entries=max_entries, page_size=4096,
                         capacity=512)
    total = 0
    for batch in batches:
        tree.insert_many([((key,), 0) for key in batch])
        tree.validate()
        total += len(batch)
        leaves = []

        def visit(page_id):
            node = tree._read(page_id)
            if page_id != tree.state["root"]:
                assert max_entries // 2 <= len(node.keys) <= max_entries
            for child in () if node.leaf else node.children:
                visit(child)
            leaves.extend([page_id] if node.leaf else [])

        visit(tree.state["root"])
        assert tree.entry_count == total
        assert len(leaves) <= max(1, total // (max_entries // 2))


def test_unique_probe_sees_runs_that_straddle_leaves_and_emptied_leaves():
    tree, __ = make_tree(max_entries=4)
    tree.insert_many([((5,), i) for i in range(30)]
                     + [((i,), 0) for i in range(20) if i != 5])
    assert tree.height > 2
    absent = [(99,), (4, "x"), (-3,), (5, ""), (21,)]
    assert tree.first_duplicate(absent) is None
    assert tree.first_duplicate([]) is None
    for stored in ((4,), (5,), (6,), (0,), (19,)):
        assert tree.first_duplicate(absent + [stored, (4,)]) == len(absent)
    assert tree.first_duplicate([(99,), (50,), (99,), (5,)]) == 2  # in-batch
    tree.delete_many([((5,), i) for i in range(30)])  # leaves now empty
    assert tree.first_duplicate(absent + [(5,)]) is None
    assert tree.first_duplicate(absent + [(5,), (6,)]) == len(absent) + 1
    tree.validate()


def test_a_batch_writes_the_leaves_it_touches_not_one_node_per_entry(
        node_dumps):
    tree, pool = make_tree(max_entries=48, page_size=4096, capacity=1024)
    twin, twin_pool = make_tree(max_entries=48, page_size=4096, capacity=1024)
    base = [((i,), i) for i in range(5000)]
    batch = [((i,), i) for i in range(5000, 5400)]
    tree.insert_many(base)
    twin.insert_many(base)
    dumps = node_dumps

    def cost(pool, work):
        del dumps[:]
        pins, pages = pool.stats.get("buffer.pins"), tree.page_count
        work()
        return (len(dumps), pool.stats.get("buffer.pins") - pins,
                tree.page_count - pages)

    one_by_one = cost(twin_pool, lambda: [twin.insert(*e) for e in batch])
    at_once = cost(pool, lambda: tree.insert_many(batch))
    assert one_by_one[0] >= 400           # a node pickled per entry, at least
    # The touched leaf, the pages it was cut into and their ancestors.
    assert at_once[0] <= 1 + at_once[2] + tree.height <= 45
    assert at_once[1] * 4 <= one_by_one[1]
    tree.validate()
    assert list(tree.range()) == list(twin.range())
    # The matching delete: each leaf of the 400 written once.
    removed = cost(pool, lambda: tree.delete_many(batch))
    assert removed[0] <= at_once[2] + 1 and removed[2] == 0
    assert removed[1] * 4 <= cost(
        twin_pool, lambda: [twin.delete(*e) for e in batch])[1]
    assert list(tree.range()) == list(twin.range()) == base


def test_a_batch_too_big_for_one_new_root_grows_more_than_one_level():
    tree, __ = make_tree(max_entries=4)
    tree.insert_many([((i,), i) for i in range(500)])
    assert tree.height >= 4
    tree.validate()
    assert [k for k, __ in tree.range()] == [(i,) for i in range(500)]
    assert tree.entry_count == 500


def test_delete_many_finds_duplicates_that_straddle_leaves():
    """A run of one key over several leaves, victims on both sides of it:
    an entry equal to a separator may lie in the leaf *left* of it."""
    import random
    for seed in range(300):
        rng = random.Random(seed)
        tree, __ = make_tree(max_entries=4)
        model = FlatModel()
        entries = [((rng.choice([3, 7, 7, 7, 7, 9, 12]),), rng.randrange(3))
                   for __ in range(rng.randrange(10, 60))]
        for key, value in entries:  # one at a time: splits inside the runs
            tree.insert(key, value)
            model.insert(key, value)
        victims = rng.sample(entries, rng.randrange(1, len(entries)))
        victims += [((7,), 5), ((8,), 0)]  # absent
        found = [model.delete(key, value) for key, value in
                 key_sorted(victims)].count(True)
        assert tree.delete_many(victims) == found, seed
        tree.validate()
        assert list(tree.range()) == model.entries, seed
        assert tree.entry_count == len(model.entries)


def test_the_node_a_writer_wrote_becomes_its_frames_image(monkeypatch):
    """A write used to drop the frame's image, so the next visit unpickled
    the node the writer had just pickled."""
    tree, pool = make_tree(max_entries=8)
    tree.insert_many([((i,), i) for i in range(100)])
    loads = []
    real_load = _Node.load.__func__
    monkeypatch.setattr(_Node, "load", classmethod(
        lambda cls, page: loads.append(page.page_id) or real_load(cls, page)))
    tree.insert((41,), "new")
    tree.delete((7,), 7)
    tree.insert_many([((200 + i,), i) for i in range(30)])  # cuts, new pages
    del loads[:]
    assert tree.search((41,)) == [41, "new"] and tree.search((7,)) == []
    assert [k for k, __ in tree.range((195,))] == [(200 + i,)
                                                    for i in range(30)]
    tree.validate()
    assert loads == []
    assert_images_coherent(pool)
