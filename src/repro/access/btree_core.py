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
"""

from __future__ import annotations

import pickle
from typing import Iterator, List, Optional, Tuple

from ..errors import StorageError
from ..services.buffer import BufferPool
from ..services.pages import HEADER_SIZE, SLOT_SIZE

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
    def load(cls, raw: bytes) -> "_Node":
        node = cls(True)
        (node.leaf, node.keys, node.values, node.children,
         node.next_leaf) = pickle.loads(raw)
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
        page_id = self._descend_to_leaf(key)
        while page_id != -1:
            node = self._read(page_id)
            changed = False
            for i in range(len(node.keys)):
                if node.keys[i] == key and node.values[i] == value:
                    del node.keys[i]
                    del node.values[i]
                    changed = True
                    break
            if changed:
                self._write(page_id, node)
                self.state["nentries"] -= 1
                return True
            if node.keys and node.keys[0] > key:
                break
            page_id = node.next_leaf
        return False

    def search(self, key: tuple) -> List:
        """All values stored under exactly ``key``."""
        key = tuple(key)
        out: List = []
        page_id = self._descend_to_leaf(key)
        while page_id != -1:
            node = self._read(page_id)
            past = False
            for k, v in zip(node.keys, node.values):
                if k == key:
                    out.append(v)
                elif k > key:
                    past = True
                    break
            if past:
                break
            page_id = node.next_leaf
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
        page_id = (self._leftmost_leaf() if low is None
                   else self._descend_to_leaf(tuple(low)))
        low_t = tuple(low) if low is not None else None
        high_t = tuple(high) if high is not None else None
        while page_id != -1:
            node = self._read(page_id)
            for k, v in zip(node.keys, node.values):
                if low_t is not None:
                    prefix = k[:len(low_t)]
                    if prefix < low_t or (not low_inclusive
                                          and prefix == low_t):
                        continue
                if high_t is not None:
                    prefix = k[:len(high_t)]
                    if prefix > high_t or (not high_inclusive
                                           and prefix == high_t):
                        return
                yield k, v
            page_id = node.next_leaf

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
        page_id = self._descend_to_leaf(pos_key)
        passed = False
        high_t = tuple(high) if high is not None else None
        while page_id != -1:
            node = self._read(page_id)
            for k, v in zip(node.keys, node.values):
                if not passed:
                    if k < pos_key:
                        continue
                    if k == pos_key and not passed:
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
            page_id = node.next_leaf

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
            index = self._position(node.keys, key)
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if self._overflowing(node):
                return self._split_leaf(page_id, node)
            self._write(page_id, node)
            return None
        index = self._child_index(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        middle_key, right_page = split
        node.keys.insert(index, middle_key)
        node.children.insert(index + 1, right_page)
        if self._overflowing(node):
            return self._split_interior(page_id, node)
        self._write(page_id, node)
        return None

    def _overflowing(self, node: _Node) -> bool:
        if len(node.keys) > self.max_entries:
            return True
        return len(node.dump()) > self._byte_capacity and len(node.keys) > 2

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
        self._write(page_id, node)
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
        self._write(page_id, node)
        return middle_key, right_page

    def _descend_to_leaf(self, key: tuple) -> int:
        """Left-most leaf that can contain ``key``.

        Descends with ``bisect_left`` so that, when duplicates of ``key``
        straddle a split boundary, the scan starts at the first occurrence
        and walks right through the leaf chain.
        """
        import bisect
        page_id = self.state["root"]
        node = self._read(page_id)
        while not node.leaf:
            page_id = node.children[bisect.bisect_left(node.keys, key)]
            node = self._read(page_id)
        return page_id

    def min_key(self) -> Optional[tuple]:
        """Smallest key stored, or None when empty (for cost estimation)."""
        node = self._read(self._leftmost_leaf())
        while node is not None:
            if node.keys:
                return node.keys[0]
            if node.next_leaf == -1:
                return None
            node = self._read(node.next_leaf)
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

    def _leftmost_leaf(self) -> int:
        page_id = self.state["root"]
        node = self._read(page_id)
        while not node.leaf:
            page_id = node.children[0]
            node = self._read(page_id)
        return page_id

    @staticmethod
    def _position(keys: List[tuple], key: tuple) -> int:
        import bisect
        return bisect.bisect_right(keys, key)

    @staticmethod
    def _child_index(keys: List[tuple], key: tuple) -> int:
        import bisect
        return bisect.bisect_right(keys, key)

    def _read(self, page_id: int) -> _Node:
        page = self.buffer.fetch(page_id)
        try:
            return _Node.load(page.read(0))
        finally:
            self.buffer.unpin(page_id)

    def _write(self, page_id: int, node: _Node) -> None:
        raw = node.dump()
        page = self.buffer.fetch(page_id)
        try:
            page.update(0, raw)
        finally:
            self.buffer.unpin(page_id, dirty=True)

    def _allocate(self, node: _Node) -> int:
        from ..services.pages import PageView
        page = self.buffer.new_page(PAGE_TYPE_BTREE_NODE)
        try:
            page.insert(node.dump())
        finally:
            self.buffer.unpin(page.page_id, dirty=True)
        self.state["pages"] = self.state.get("pages", 0) + 1
        return page.page_id
