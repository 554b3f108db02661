"""Page-based B+tree used by access-path attachments.

A classic B+tree over buffer-pool pages: interior nodes route by key, leaf
nodes hold ``(key, value)`` entries and are chained for key-sequential
access.  Keys are tuples of field values; values are opaque record keys
("access paths maintain mappings from access path keys to record keys").
Duplicate keys are allowed — the index stores one entry per (key, value)
pair.

Crash recovery for attachment structures is *rebuild-based* (see
DESIGN.md): the tree never writes log records itself; transactional undo
is provided one level up by the attachment's logical undo handler issuing
inverse ``insert``/``delete`` calls, and after a restart the owning
attachment rebuilds the tree from its base relation.

Each node occupies one page (a single slotted-page record holding the
pickled node).  Splits keep both an entry-count bound and a byte bound so
pickled nodes always fit their page.

Nodes are read through the buffer frame's decoded image
(``BufferPool.decoded``): unpickled once per resident frame, a visit still
a pin, each node on a probe's path read once.  The image is shared, so
nobody changes what ``_read`` returns: ``insert`` and ``delete`` change a
``copy()``, and only a page write that succeeded makes it visible.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from ..errors import PageError, StorageError
from ..services.buffer import BufferPool
from ..services.pages import HEADER_SIZE, SLOT_SIZE, PageView

__all__ = ["BTree"]

PAGE_TYPE_BTREE_NODE = 4

#: Default maximum entries per node before a split.
DEFAULT_MAX_ENTRIES = 48


class _Node:
    __slots__ = ("leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.keys: List[tuple] = []
        self.values: List = []        # leaf: one value per key
        self.children: List[int] = []  # interior: len(keys) + 1 page ids
        self.next_leaf: int = -1

    def dump(self) -> bytes:
        return pickle.dumps(
            (self.leaf, self.keys, self.values, self.children,
             self.next_leaf), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, page: PageView) -> "_Node":
        node = cls(True)
        (node.leaf, node.keys, node.values, node.children,
         node.next_leaf) = pickle.loads(page.read(0))
        return node

    def copy(self) -> "_Node":
        """A private copy a mutator may change (the lists are new, the
        entries shared)."""
        node = _Node(self.leaf)
        node.keys = list(self.keys)
        node.values = list(self.values)
        node.children = list(self.children)
        node.next_leaf = self.next_leaf
        return node


class BTree:
    """A B+tree bound to a buffer pool and a mutable state dict.

    ``state`` (normally part of an attachment instance descriptor) carries
    ``root`` (page id), ``height``, ``nentries``, and ``pages`` (count).
    """

    def __init__(self, buffer: BufferPool, state: dict,
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        self.buffer = buffer
        self.state = state
        self.max_entries = max_entries
        self._byte_capacity = (buffer.device.page_size - HEADER_SIZE
                               - 2 * SLOT_SIZE - 8)

    # -- construction -----------------------------------------------------------
    @classmethod
    def create(cls, buffer: BufferPool, state: Optional[dict] = None,
               max_entries: int = DEFAULT_MAX_ENTRIES) -> "BTree":
        """Allocate an empty tree; fills and returns ``state``."""
        if state is None:
            state = {}
        tree = cls(buffer, state, max_entries)
        root = _Node(leaf=True)
        state["root"] = tree._allocate(root)
        state["height"] = 1
        state["nentries"] = 0
        state["pages"] = 1
        return tree

    def destroy(self) -> None:
        """Free every page of the tree."""
        self._free_subtree(self.state["root"])
        self.state["root"] = -1
        self.state["height"] = 0
        self.state["nentries"] = 0
        self.state["pages"] = 0

    def reset(self) -> None:
        """Destroy and recreate empty (used by rebuild-on-restart)."""
        if self.state.get("root", -1) != -1:
            self._free_subtree(self.state["root"])
        root = _Node(leaf=True)
        self.state["root"] = self._allocate(root)
        self.state["height"] = 1
        self.state["nentries"] = 0
        self.state["pages"] = 1

    def _free_subtree(self, page_id: int) -> None:
        node = self._read(page_id)
        if not node.leaf:
            for child in node.children:
                self._free_subtree(child)
        self.buffer.free_page(page_id)

    # -- entry operations ---------------------------------------------------------
    def insert(self, key: tuple, value) -> None:
        """Add one (key, value) entry; duplicates of the pair are allowed."""
        key = tuple(key)
        split = self._insert_into(self.state["root"], key, value)
        if split is not None:
            middle_key, right_page = split
            new_root = _Node(leaf=False)
            new_root.keys = [middle_key]
            new_root.children = [self.state["root"], right_page]
            self.state["root"] = self._allocate(new_root)
            self.state["height"] += 1
        self.state["nentries"] += 1

    def delete(self, key: tuple, value) -> bool:
        """Remove one entry matching (key, value); returns True if found.

        Underflow is tolerated (nodes may become sparse); the tree never
        merges — acceptable for an access path that is rebuilt on restart
        and dropped/recreated under reorganisation.
        """
        key = tuple(key)
        page_id, node = self._descend(key)
        while True:
            for i in range(bisect_left(node.keys, key), len(node.keys)):
                if node.keys[i] != key:
                    return False
                if node.values[i] == value:
                    node = node.copy()
                    del node.keys[i]
                    del node.values[i]
                    self._write(page_id, node.dump())
                    self.state["nentries"] -= 1
                    return True
            page_id = node.next_leaf
            if page_id == -1:
                return False
            node = self._read(page_id)

    def search(self, key: tuple) -> List:
        """All values stored under exactly ``key``."""
        key = tuple(key)
        out: List = []
        node = self._descend(key)[1]
        while node is not None:
            keys = node.keys
            for i in range(bisect_left(keys, key), len(keys)):
                if keys[i] != key:
                    return out
                out.append(node.values[i])
            node = self._next(node)
        return out

    def range(self, low: Optional[tuple] = None, high: Optional[tuple] = None,
              low_inclusive: bool = True, high_inclusive: bool = True
              ) -> Iterator[Tuple[tuple, object]]:
        """Yield (key, value) in key order within the bounds.

        Bounds may be *prefixes* of the stored composite keys: a bound of
        ``(7,)`` against two-field keys matches every key whose first field
        compares accordingly (so an equality on the leading index column
        selects the whole duplicate run).
        """
        low_t = tuple(low) if low is not None else None
        high_t = tuple(high) if high is not None else None
        node = self._descend(low_t)[1]
        # Everything left of this position sorts below ``low``.
        start = 0 if low_t is None else bisect_left(node.keys, low_t)
        skip_low = low_t is not None and not low_inclusive
        while node is not None:
            for k, v in islice(zip(node.keys, node.values), start, None):
                if skip_low:
                    if k[:len(low_t)] == low_t:
                        continue
                    skip_low = False  # past the run equal to the bound
                if high_t is not None:
                    prefix = k[:len(high_t)]
                    if prefix > high_t or (not high_inclusive
                                           and prefix == high_t):
                        return
                yield k, v
            node, start = self._next(node), 0

    def entries_after(self, position: Optional[Tuple[tuple, object]],
                      high: Optional[tuple] = None,
                      high_inclusive: bool = True
                      ) -> Iterator[Tuple[tuple, object]]:
        """Entries strictly after ``position`` ((key, value) pair), in key
        order — the scan-resumption primitive.  ``position=None`` starts at
        the beginning."""
        if position is None:
            yield from self.range(None, high, True, high_inclusive)
            return
        pos_key, pos_value = tuple(position[0]), position[1]
        node = self._descend(pos_key)[1]
        start = bisect_left(node.keys, pos_key)
        passed = False
        high_t = tuple(high) if high is not None else None
        while node is not None:
            for k, v in islice(zip(node.keys, node.values), start, None):
                if not passed:
                    if k == pos_key:
                        if v == pos_value:
                            passed = True
                            continue
                        # Same key, different value: only emit entries not
                        # yet seen; ordering within a key run is stable, so
                        # skip until we pass the position pair.
                        continue
                    passed = True
                if high_t is not None:
                    prefix = k[:len(high_t)]
                    if prefix > high_t or (not high_inclusive
                                           and prefix == high_t):
                        return
                yield k, v
            node, start = self._next(node), 0

    # -- stats ------------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self.state["nentries"]

    @property
    def height(self) -> int:
        return self.state["height"]

    @property
    def page_count(self) -> int:
        return self.state["pages"]

    def validate(self) -> None:
        """Walk the tree checking ordering invariants (tests/property use)."""
        last = [None]

        def visit(page_id: int, depth: int) -> None:
            node = self._read(page_id)
            if node.leaf:
                if depth != self.state["height"]:
                    raise StorageError("uneven leaf depth in B-tree")
                for k in node.keys:
                    if last[0] is not None and k < last[0]:
                        raise StorageError("B-tree keys out of order")
                    last[0] = k
            else:
                if sorted(node.keys) != node.keys:
                    raise StorageError("interior keys out of order")
                if len(node.children) != len(node.keys) + 1:
                    raise StorageError("interior fanout mismatch")
                for child in node.children:
                    visit(child, depth + 1)

        visit(self.state["root"], 1)

    # -- internals -----------------------------------------------------------------------
    def _insert_into(self, page_id: int, key: tuple, value
                     ) -> Optional[Tuple[tuple, int]]:
        node = self._read(page_id)
        if node.leaf:
            node = node.copy()
            index = bisect_right(node.keys, key)
            node.keys.insert(index, key)
            node.values.insert(index, value)
            return self._store(page_id, node)
        index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        middle_key, right_page = split
        node = node.copy()
        node.keys.insert(index, middle_key)
        node.children.insert(index + 1, right_page)
        return self._store(page_id, node)

    def _store(self, page_id: int, node: _Node
               ) -> Optional[Tuple[tuple, int]]:
        """Write a grown node back, or split it when it overflows its
        entry bound or its page (the ``dump`` that decides is the one
        written)."""
        if len(node.keys) <= self.max_entries:
            raw = node.dump()
            if len(raw) <= self._byte_capacity or len(node.keys) <= 2:
                self._write(page_id, raw)
                return None
        if node.leaf:
            return self._split_leaf(page_id, node)
        return self._split_interior(page_id, node)

    def _split_leaf(self, page_id: int, node: _Node) -> Tuple[tuple, int]:
        half = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[half:]
        right.values = node.values[half:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:half]
        node.values = node.values[:half]
        right_page = self._allocate(right)
        node.next_leaf = right_page
        self._write(page_id, node.dump())
        return right.keys[0], right_page

    def _split_interior(self, page_id: int, node: _Node) -> Tuple[tuple, int]:
        half = len(node.keys) // 2
        middle_key = node.keys[half]
        right = _Node(leaf=False)
        right.keys = node.keys[half + 1:]
        right.children = node.children[half + 1:]
        node.keys = node.keys[:half]
        node.children = node.children[:half + 1]
        right_page = self._allocate(right)
        self._write(page_id, node.dump())
        return middle_key, right_page

    def _descend(self, key: Optional[tuple]) -> Tuple[int, _Node]:
        """``(page id, node)`` of the left-most leaf that can contain
        ``key`` (of the first leaf for ``None``), reading each node on the
        way exactly once.

        Descends with ``bisect_left`` so that, when duplicates of ``key``
        straddle a split boundary, the scan starts at the first occurrence
        and walks right through the leaf chain.
        """
        page_id = self.state["root"]
        node = self._read(page_id)
        while not node.leaf:
            page_id = node.children[
                0 if key is None else bisect_left(node.keys, key)]
            node = self._read(page_id)
        return page_id, node

    def _next(self, node: _Node) -> Optional[_Node]:
        """The leaf after ``node`` in the chain, or None at its end."""
        return None if node.next_leaf == -1 else self._read(node.next_leaf)

    def min_key(self) -> Optional[tuple]:
        """Smallest key stored, or None when empty (for cost estimation)."""
        node = self._descend(None)[1]
        while node is not None:
            if node.keys:
                return node.keys[0]
            node = self._next(node)
        return None

    def max_key(self) -> Optional[tuple]:
        """Largest key stored, or None when empty (for cost estimation)."""
        def largest(page_id: int) -> Optional[tuple]:
            node = self._read(page_id)
            if node.leaf:
                return node.keys[-1] if node.keys else None
            # Deletes leave emptied leaves in place: look left past them.
            for child in reversed(node.children):
                key = largest(child)
                if key is not None:
                    return key
            return None

        return largest(self.state["root"])

    def _read(self, page_id: int) -> _Node:
        """The node on ``page_id`` — the buffer frame's decoded image,
        shared with every other reader: never mutate it, ``copy()`` first."""
        return self.buffer.decoded(page_id, _Node.load)

    def _write(self, page_id: int, raw: bytes) -> None:
        page = self.buffer.fetch(page_id)
        changed = True
        try:
            page.update(0, raw)
        except PageError:
            # ``update`` put the old record back: the frame stays as clean
            # as it was and keeps its image.
            changed = False
            raise
        finally:
            self.buffer.unpin(page_id, dirty=changed)

    def _allocate(self, node: _Node) -> int:
        page = self.buffer.new_page(PAGE_TYPE_BTREE_NODE)
        try:
            page.insert(node.dump())
        finally:
            self.buffer.unpin(page.page_id, dirty=True)
        self.state["pages"] = self.state.get("pages", 0) + 1
        return page.page_id
