"""Page-based B+tree used by access-path attachments.

A classic B+tree over buffer-pool pages: interior nodes route by key, leaf
nodes hold ``(key, value)`` entries and are chained for key-sequential
access.  Keys are tuples of field values; values are opaque record keys
("access paths maintain mappings from access path keys to record keys").
Duplicate keys are allowed — the index stores one entry per (key, value)
pair.

Each node is one page of :class:`~repro.access.page_tree.PageTree`,
which keeps the page discipline.  The tree logs nothing: undo is the
attachment's inverse ``insert`` / ``delete``, restart a rebuild.
Splits keep an entry-count and a byte bound, so a node fits its page.

Writes are set-at-a-time: ``insert_many`` / ``delete_many`` / ``first_duplicate``
sort their batch by key and work it a leaf at a time (``_run``) — a leaf
is descended to, copied, pickled and written once however many entries of
the batch land in it; ``insert`` and ``delete`` are the batch of one.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter, le, lt
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..errors import StorageError
from ..services.pages import PageView
from .page_tree import PageTree

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
        node = cls.__new__(cls)  # every slot is assigned below
        (node.leaf, node.keys, node.values, node.children,
         node.next_leaf) = pickle.loads(page.read(0))
        return node

    def copy(self) -> "_Node":
        """A private copy a mutator may change (the lists are new, the
        entries shared)."""
        node = _Node.__new__(_Node)  # every slot is assigned below
        node.leaf = self.leaf
        node.keys = list(self.keys)
        node.values = list(self.values)
        node.children = list(self.children)
        node.next_leaf = self.next_leaf
        return node


class BTree(PageTree):
    """A B+tree bound to a buffer pool and a mutable state dict
    (:class:`~repro.access.page_tree.PageTree`)."""

    node_type = _Node
    page_type = PAGE_TYPE_BTREE_NODE
    max_entries = DEFAULT_MAX_ENTRIES

    # -- entry operations ---------------------------------------------------------
    def insert(self, key: tuple, value) -> None:
        """Add one (key, value) entry; duplicates of the pair are allowed."""
        self.insert_many(((key, value),))

    def insert_many(self, entries: Iterable[Tuple[tuple, object]]) -> None:
        """Add every ``(key, value)`` entry (keys are tuples).

        Placement is what one :meth:`insert` per entry, in key order,
        would give: after the entries already stored under its key, batch
        order kept among equal keys.  A leaf the batch overfills is halved
        until every piece fits (:meth:`_store`).
        """
        entries = sorted(entries, key=itemgetter(0))  # stable: batch order
        state, lo, count = self.state, 0, len(entries)
        while lo < count:
            path, page_id, node, hi = self._run(entries, lo, bisect_right)
            node = node.copy()
            keys, values, at = node.keys, node.values, 0
            for key, value in entries[lo:hi]:
                at = bisect_right(keys, key, at)
                keys.insert(at, key)
                values.insert(at, value)
            pieces = self._store(page_id, node)
            while len(pieces) > 1:
                # Cut: the node above takes the new pieces in, and may be
                # cut in turn; above the root there is a new root.
                if path:
                    page_id, above, index = path.pop()
                    above = above.copy()
                else:
                    page_id, above, index = None, _Node(leaf=False), 0
                    above.children = [pieces[0][1]]
                    state["height"] += 1
                above.keys[index:index] = [sep for sep, __ in pieces[1:]]
                above.children[index + 1:index + 1] = [
                    page for __, page in pieces[1:]]
                pieces = self._store(page_id, above)
                if page_id is None:
                    state["root"] = pieces[0][1]
            state["nentries"] += hi - lo
            lo = hi

    def delete(self, key: tuple, value) -> bool:
        """Remove one entry matching (key, value); returns True if found."""
        return self.delete_many(((key, value),)) == 1

    def delete_many(self, entries: Iterable[Tuple[tuple, object]]) -> int:
        """Remove, for each ``(key, value)`` given, one entry matching it
        (the first in key order); returns how many were found.

        Underflow is tolerated (nodes may become sparse); the tree never
        merges — acceptable for an access path that is rebuilt on restart
        and dropped/recreated under reorganisation.
        """
        entries = sorted(entries, key=itemgetter(0))
        removed, lo, count = 0, 0, len(entries)
        try:
            while lo < count:
                __, page_id, node, hi = self._run(entries, lo, bisect_left)
                pending, lo = entries[lo:hi], hi
                while pending:
                    keys, values = node.keys, node.values
                    changed, carried = None, []
                    for entry in pending:
                        key, value = entry
                        start = bisect_left(keys, key)
                        end = bisect_right(keys, key, start)
                        try:
                            at = values.index(value, start, end)
                        except ValueError:
                            if end == len(keys):
                                # The run of equal keys reaches the end of
                                # the leaf: it may go on in the next one.
                                carried.append(entry)
                            continue
                        if changed is None:
                            changed = node.copy()
                            keys, values = changed.keys, changed.values
                        del keys[at], values[at]
                    if changed is not None:
                        self._write(page_id, changed, changed.dump())
                        removed += len(node.keys) - len(keys)
                    page_id, pending = node.next_leaf, carried
                    if not pending or page_id == -1:
                        break
                    node = self._read(page_id)
                    # The entries to come that this leaf's keys cover go
                    # with the ones carried into it: one write for both.
                    while lo < count and node.keys \
                            and entries[lo][0] <= node.keys[-1]:
                        pending.append(entries[lo])
                        lo += 1
        finally:
            self.state["nentries"] -= removed
        return removed

    def undo_logged(self, payload: dict) -> None:
        """Reverse the ``add_many`` / ``remove_many`` an attachment logged."""
        entries = [(tuple(key), value) for key, value in payload["entries"]]
        if payload["op"] == "add_many":
            self.delete_many(entries)
        elif payload["op"] == "remove_many":
            self.insert_many(entries)
        else:
            raise StorageError(f"B-tree cannot undo {payload['op']!r}")

    def first_duplicate(self, keys: Sequence[tuple]) -> Optional[int]:
        """Position of the first of ``keys`` that is stored already or
        came earlier among them — None when a unique rule lets the whole
        batch in.  One probe, reading each leaf the batch touches once."""
        entries = sorted(zip(keys, range(len(keys))))
        taken, previous, lo = [], None, 0
        while lo < len(entries):
            __, ___, node, hi = self._run(entries, lo, bisect_left)
            for key, at in entries[lo:hi]:
                i = bisect_left(node.keys, key)
                while i == len(node.keys) and node.next_leaf != -1:
                    # It, and so every later key, sorts past this leaf.
                    node = self._read(node.next_leaf)
                    i = bisect_left(node.keys, key)
                if key == previous or (i < len(node.keys)
                                       and node.keys[i] == key):
                    taken.append(at)
                previous = key
            lo = hi
        return min(taken) if taken else None

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
    def _run(self, entries: List[tuple], lo: int, side: Callable):
        """Descend for the key of ``entries[lo]`` under ``side``
        (``bisect_right`` to place an entry, ``bisect_left`` to find one):
        ``(path, page id, leaf, hi)``, where the key-sorted
        ``entries[lo:hi]`` all reach that leaf — one descent per leaf a
        batch touches — and ``path`` lists the interior nodes passed as
        ``(page id, node, index of the child taken)``.
        """
        key, path = entries[lo][0], []
        page_id = self.state["root"]
        decoded, load = self.buffer.decoded, _Node.load  # _read, unrolled
        node = decoded(page_id, load)
        while not node.leaf:
            index = side(node.keys, key)
            path.append((page_id, node, index))
            page_id = node.children[index]
            node = decoded(page_id, load)
        hi = lo + 1
        if hi < len(entries):
            # The deepest separator to the right of the way taken bounds the
            # keys that go the same way — itself included under
            # ``bisect_left`` (``delete_many`` relies on it: what follows a
            # run cannot lie in its leaf).
            bound = next((above.keys[index] for __, above, index
                          in reversed(path) if index < len(above.keys)), None)
            below = lt if side is bisect_right else le
            while hi < len(entries) and (bound is None
                                         or below(entries[hi][0], bound)):
                hi += 1
        return path, page_id, node, hi

    def _store(self, page_id: Optional[int], node: _Node,
               separator: Optional[tuple] = None
               ) -> List[Tuple[Optional[tuple], int]]:
        """Write a changed node — the caller's own copy — back to
        ``page_id`` (None: to a new page), halved until every piece fits a
        page: ``(separator, page id)`` per piece, left to right, the first
        under ``separator``.

        A piece fits with at most ``max_entries`` keys and a pickle within
        the byte capacity (or two keys: it cannot get smaller) — one entry
        too many splits where it always did, a batch leaves pieces more
        than half full.  The right half is stored first: a leaf is pickled
        once, with its final chain link (the dump that decides is the one
        written), and the old page is written last — until that succeeds
        the tree does not reach the new pages.
        """
        count = len(node.keys)
        if count <= self.max_entries:
            raw = node.dump()
            if len(raw) <= self._byte_capacity or count <= 2:
                if page_id is None:
                    page_id = self._allocate(node, raw)
                else:
                    self._write(page_id, node, raw)
                return [(separator, page_id)]
        half = count // 2
        right = _Node(node.leaf)
        middle = node.keys[half]  # a leaf keeps it; between interiors it moves up
        if node.leaf:
            right.keys, right.values = node.keys[half:], node.values[half:]
            right.next_leaf = node.next_leaf
            del node.keys[half:], node.values[half:]
        else:
            right.keys = node.keys[half + 1:]
            right.children = node.children[half + 1:]
            del node.keys[half:], node.children[half + 1:]
        pieces = self._store(None, right, middle)
        if node.leaf:
            node.next_leaf = pieces[0][1]
        return self._store(page_id, node, separator) + pieces

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
