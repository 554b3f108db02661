"""R-tree spatial access-path attachment.

The paper's motivating example for application-specific access paths:
"spatial database applications can make use of an R-tree access path
[GUTTMAN 84] to efficiently compute certain spatial predicates", and in
cost estimation "the R-tree access path will recognize the ENCLOSES
predicate and report a low cost".

The structure is a Guttman R-tree with quadratic node split, one
pickled node per page of :class:`~repro.access.page_tree.PageTree`; a
delete that empties a node gives its page back.  Indexed values are the
bounding :class:`~repro.core.records.Box` of a BOX column; supported query
modes are the spatial predicates of the common evaluator: ``ENCLOSED_BY``
(entries lying inside a query window), ``ENCLOSES`` (entries covering the
query box), and ``OVERLAPS``.

Crash recovery follows the rebuild-on-restart strategy shared by all
access-path attachments; transactional undo is logical (inverse insert /
delete).

DDL attributes: ``column`` (a BOX column, required), ``max_entries``
(node capacity, default 16).
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Tuple

from ..core.attachment import AttachmentType
from ..core.context import ExecutionContext
from ..core.records import Box, RecordView
from ..core.storage_method import RelationHandle
from ..errors import PageError, ScanError, StorageError
from ..query.cost import AccessCost, DEFAULT_SELECTIVITY
from ..services.locks import LockMode
from ..services.scans import AFTER, ON, Scan
from .page_tree import PageTree

__all__ = ["RTreeAttachment", "RTree", "RTreeScan"]

PAGE_TYPE_RTREE_NODE = 6

_SPATIAL_MODES = ("ENCLOSED_BY", "ENCLOSES", "OVERLAPS")


def _box_tuple(box: Box) -> tuple:
    return (box.x_lo, box.y_lo, box.x_hi, box.y_hi)


def _tuple_box(t: tuple) -> Box:
    return Box(*t)


def _growth(mbr: Box, box: Box) -> tuple:
    """Guttman's preference among the rectangles ``box`` may join: the
    least enlargement of ``mbr``, ties by the smaller area."""
    return mbr.enlargement(box), mbr.area()


class _Node:
    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        # leaf: [(box tuple, record key)]; interior: [(mbr tuple, child page)]
        self.entries: List[Tuple[tuple, object]] = []

    def dump(self) -> bytes:
        return pickle.dumps((self.leaf, self.entries),
                            protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, page) -> "_Node":
        node = cls.__new__(cls)  # every slot is assigned below
        node.leaf, node.entries = pickle.loads(page.read(0))
        return node

    def copy(self) -> "_Node":
        """A private copy a mutator may change (the entries are shared)."""
        node = _Node(self.leaf)
        node.entries = list(self.entries)
        return node

    @property
    def children(self) -> List[int]:
        return [child for __, child in self.entries]

    def mbr(self) -> Optional[Box]:
        if not self.entries:
            return None
        box = _tuple_box(self.entries[0][0])
        for t, __ in self.entries[1:]:
            box = box.union(_tuple_box(t))
        return box


class RTree(PageTree):
    """A Guttman R-tree bound to a buffer pool and a state dict
    (:class:`~repro.access.page_tree.PageTree`)."""

    node_type = _Node
    page_type = PAGE_TYPE_RTREE_NODE
    max_entries = 16

    # -- operations -------------------------------------------------------------
    def insert(self, box: Box, value) -> None:
        split = self._insert_into(self.state["root"], _box_tuple(box), value)
        if split is not None:
            root = _Node(leaf=False)
            root.entries = split
            self.state["root"] = self._allocate(root, root.dump())
            self.state["height"] += 1
        self.state["nentries"] += 1

    def delete(self, box: Box, value) -> bool:
        """Remove one (box, value) entry, with no re-insertion compaction.
        A node the delete empties leaves its parent and gives its page
        back; an emptied root is an empty leaf again."""
        target = _box_tuple(box)

        def remove(page_id: int) -> Optional[_Node]:
            """The node on ``page_id`` as written once one matching entry
            below it is gone (None: there is none)."""
            node = self._read(page_id)
            if node.leaf:
                at = next((i for i, (t, v) in enumerate(node.entries)
                           if t == target and v == value), None)
                if at is None:
                    return None
                node = node.copy()
                del node.entries[at]
                self._write(page_id, node, node.dump())
                return node
            for at, (t, child) in enumerate(node.entries):
                if _tuple_box(t).encloses(box):
                    below = remove(child)
                    if below is not None:
                        break
            else:
                return None
            # Tighten the child's bounding rectangle, or drop the child.
            node, mbr = node.copy(), below.mbr()
            if mbr is None:
                del node.entries[at]
            else:
                node.entries[at] = (_box_tuple(mbr), child)
            self._write(page_id, node, node.dump())
            if mbr is None:
                self._free(child)
            return node

        root = remove(self.state["root"])
        if root is None:
            return False
        if not root.leaf and not root.entries:
            root = _Node(leaf=True)
            self._write(self.state["root"], root, root.dump())
            self.state["height"] = 1
        self.state["nentries"] -= 1
        return True

    def search(self, query: Box, mode: str) -> List[Tuple[Box, object]]:
        """All (box, value) entries satisfying ``entry.box <mode> query``."""
        if mode not in _SPATIAL_MODES:
            raise StorageError(f"unknown spatial search mode {mode!r}")
        out: List[Tuple[Box, object]] = []

        def visit(page_id: int) -> None:
            node = self._read(page_id)
            for t, payload in node.entries:
                box = _tuple_box(t)
                if node.leaf:
                    if self._matches(box, query, mode):
                        out.append((box, payload))
                else:
                    # Prune: the subtree MBR must overlap the query for any
                    # mode to be satisfiable below (and must enclose it for
                    # ENCLOSES).
                    if mode == "ENCLOSES":
                        if box.encloses(query):
                            visit(payload)
                    elif box.overlaps(query):
                        visit(payload)

        visit(self.state["root"])
        return out

    @staticmethod
    def _matches(box: Box, query: Box, mode: str) -> bool:
        if mode == "ENCLOSED_BY":
            return query.encloses(box)
        if mode == "ENCLOSES":
            return box.encloses(query)
        return box.overlaps(query)

    # -- internals ------------------------------------------------------------------
    def _insert_into(self, page_id: int, box_t: tuple, value
                     ) -> Optional[List[Tuple[tuple, int]]]:
        """Add the entry below ``page_id``: None, or the ``(mbr, page)``
        entries of the two nodes it split into."""
        node = self._read(page_id).copy()
        if node.leaf:
            node.entries.append((box_t, value))
        else:
            index = self._choose_child(node, box_t)
            child_mbr, child_page = node.entries[index]
            split = self._insert_into(child_page, box_t, value)
            if split is None:
                # Grow the child's bounding rectangle.
                grown = _tuple_box(child_mbr).union(_tuple_box(box_t))
                node.entries[index] = (_box_tuple(grown), child_page)
            else:
                del node.entries[index]
                node.entries.extend(split)
        if len(node.entries) <= self.max_entries:
            self._write(page_id, node, node.dump())
            return None
        return self._split(page_id, node)

    def _choose_child(self, node: _Node, box_t: tuple) -> int:
        """Guttman: the child needing least enlargement (ties by area)."""
        box = _tuple_box(box_t)
        return min(range(len(node.entries)),
                   key=lambda i: _growth(_tuple_box(node.entries[i][0]), box))

    def _split(self, page_id: int, node: _Node) -> List[Tuple[tuple, int]]:
        """Guttman quadratic split of the caller's copy ``node``, which has
        one entry too many: the ``(mbr, page)`` entries of its two halves,
        the right one on a new page, stored first so that the old page is
        written last (or the new one given back)."""
        entries = node.entries
        # Pick the pair of seeds wasting the most area together.
        worst = None
        seeds = (0, 1)
        for i in range(len(entries)):
            box_i = _tuple_box(entries[i][0])
            for j in range(i + 1, len(entries)):
                box_j = _tuple_box(entries[j][0])
                waste = (box_i.union(box_j).area() - box_i.area()
                         - box_j.area())
                if worst is None or waste > worst:
                    worst = waste
                    seeds = (i, j)
        groups = ([entries[seeds[0]]], [entries[seeds[1]]])
        mbrs = [_tuple_box(group[0][0]) for group in groups]
        rest = [e for k, e in enumerate(entries) if k not in seeds]
        minimum = max(1, self.max_entries // 3)
        for index, entry in enumerate(rest):
            box = _tuple_box(entry[0])
            remaining = len(rest) - index
            # Force-assign when one group must take all remaining entries
            # to reach the minimum fill.
            if len(groups[0]) + remaining <= minimum:
                side = 0
            elif len(groups[1]) + remaining <= minimum:
                side = 1
            else:
                side = min((0, 1), key=lambda s: _growth(mbrs[s], box))
            groups[side].append(entry)
            mbrs[side] = mbrs[side].union(box)
        right = _Node(leaf=node.leaf)
        right.entries = groups[1]
        right_page = self._allocate(right, right.dump())
        node.entries = groups[0]
        try:
            self._write(page_id, node, node.dump())
        except PageError:
            self._free(right_page)
            raise
        return [(_box_tuple(mbrs[0]), page_id),
                (_box_tuple(mbrs[1]), right_page)]


class RTreeScan(Scan):
    """Scan over the result set of one spatial search.

    The R-tree materialises the qualifying entries at open (a spatial
    search is not a key-sequential order), then plays them back under the
    common scan protocol.
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 instance: dict, matches: List[Tuple[Box, object]]):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.field_index = instance["field_index"]
        self.matches = matches

    def next_batch(self, n: int) -> list:
        """Slice the materialised match list — the spatial search already
        paid its page reads at open time."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        index = 0 if self.position is None else self.position + 1
        chunk = self.matches[index:index + n]
        if not chunk:
            self.state = AFTER
            return []
        # One lock call for the batch; a conflict leaves the scan where it
        # was, so a retry sees these entries again.
        self.ctx.lock_records(self.handle.relation_id,
                              [value for __, value in chunk], LockMode.S)
        self.position = index + len(chunk) - 1
        self.state = ON
        self.ctx.stats.bump("rtree.entries_scanned", len(chunk))
        return [(value, RecordView.from_fields((self.field_index,), (box,)))
                for box, value in chunk]


class RTreeAttachment(AttachmentType):
    """Spatial access path recognising ENCLOSES / ENCLOSED_BY / OVERLAPS."""

    name = "rtree"
    is_access_path = True
    recoverable = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        # Accept "columns": [col] for uniformity with create_index().
        column = attributes.pop("column", None)
        columns = attributes.pop("columns", None)
        max_entries = attributes.pop("max_entries", 16)
        if attributes:
            raise StorageError(
                f"rtree: unknown attributes {sorted(attributes)}")
        if column is None:
            if not columns or len(columns) != 1:
                raise StorageError(
                    "rtree requires a single BOX column ('column' or a "
                    "one-element 'columns')")
            column = columns[0]
        if schema.field(column).type_code != "BOX":
            raise StorageError(
                f"rtree column {column!r} must be BOX, is "
                f"{schema.field(column).type_code}")
        if not isinstance(max_entries, int) or max_entries < 4:
            raise StorageError(
                f"rtree: max_entries must be an int >= 4, got {max_entries!r}")
        return {"column": column, "max_entries": max_entries}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        field_index = handle.schema.field_index(attributes["column"])
        instance = {"name": instance_name, "column": attributes["column"],
                    "field_index": field_index,
                    "max_entries": attributes["max_entries"], "tree": {}}
        RTree.create(ctx.buffer, instance["tree"], attributes["max_entries"])
        self._build(ctx, handle, instance, self.stored_batches(ctx, handle))
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        RTree.of(ctx.buffer, instance).destroy()

    def undo_logged(self, services, instance: dict, payload: dict) -> None:
        tree = RTree.of(services.buffer, instance)
        box = Box(*payload["box"])
        if payload["op"] == "add":
            tree.delete(box, payload["value"])
        elif payload["op"] == "remove":
            tree.insert(box, payload["value"])
        else:
            raise StorageError(f"rtree cannot undo {payload['op']!r}")

    def _build(self, ctx, handle, instance, batches) -> None:
        tree = RTree.of(ctx.buffer, instance)
        for batch in batches:
            for record_key, record in batch:
                box = record[instance["field_index"]]
                if box is not None:
                    tree.insert(box, record_key)
        ctx.stats.bump("rtree.builds")

    def rebuild(self, ctx, handle, field, batches) -> None:
        for instance in field["instances"].values():
            RTree.of(ctx.buffer, instance).reset()
            self._build(ctx, handle, instance, batches)
        ctx.stats.bump("rtree.rebuilds")

    # -- attached procedures -------------------------------------------------------------
    def _apply(self, ctx, handle, instance, op, box, key) -> bool:
        """Add (``op`` "add") or remove ("remove") the entry of the record
        at ``key`` and log it for undo; False for a NULL box, which has no
        entry."""
        if box is None:
            return False
        tree = RTree.of(ctx.buffer, instance)
        (tree.insert if op == "add" else tree.delete)(box, key)
        ctx.log(self.resource, {
            "op": op, "relation_id": handle.relation_id,
            "instance": instance["name"], "box": _box_tuple(box),
            "value": key})
        return True

    def on_insert(self, ctx, handle, field, key, new_record) -> None:
        for instance in field["instances"].values():
            if self._apply(ctx, handle, instance, "add",
                           new_record[instance["field_index"]], key):
                ctx.stats.bump("rtree.maintenance_ops")

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            old_box = old_record[instance["field_index"]]
            new_box = new_record[instance["field_index"]]
            if old_box == new_box and old_key == new_key:
                ctx.stats.bump("rtree.update_skips")
                continue
            self._apply(ctx, handle, instance, "remove", old_box, old_key)
            self._apply(ctx, handle, instance, "add", new_box, new_key)
            ctx.stats.bump("rtree.maintenance_ops")

    def on_delete(self, ctx, handle, field, key, old_record) -> None:
        for instance in field["instances"].values():
            if self._apply(ctx, handle, instance, "remove",
                           old_record[instance["field_index"]], key):
                ctx.stats.bump("rtree.maintenance_ops")

    # -- direct access operations ------------------------------------------------------
    def fetch(self, ctx, handle, instance, input_key) -> List:
        """Input key: ``(mode, Box)``; returns matching record keys."""
        mode, box = input_key
        tree = RTree.of(ctx.buffer, instance)
        ctx.stats.bump("rtree.searches")
        return [value for __, value in tree.search(box, mode.upper())]

    def open_scan(self, ctx, handle, instance, predicate=None,
                  route=None) -> Scan:
        if route is None or route[0] != "rtree_search":
            raise StorageError(
                "rtree scans need an ('rtree_search', mode, box) route")
        __, mode, box = route
        tree = RTree.of(ctx.buffer, instance)
        ctx.stats.bump("rtree.searches")
        matches = tree.search(box, mode.upper())
        scan = RTreeScan(ctx, handle, instance, matches)
        ctx.services.scans.register(scan)
        return scan

    def bind_route(self, handle, instance, relevant, values):
        """A search by the first relevant box, which consumes nothing."""
        return ("rtree_search", relevant[0].op, values[0]), False

    # -- cost estimation ------------------------------------------------------------------
    def estimate_cost(self, ctx, handle, instance_name, instance, eligible
                      ) -> Optional[AccessCost]:
        """Recognises the spatial predicates and reports a low cost."""
        relevant = [p for p in eligible
                    if p.is_simple and p.op in _SPATIAL_MODES
                    and p.field_index == instance["field_index"]]
        if not relevant:
            return None
        method = ctx.database.registry.storage_method(
            handle.descriptor.storage_method_id)
        tuples = max(1, method.record_count(ctx, handle))
        selectivity = 1.0
        for pred in relevant:
            selectivity *= DEFAULT_SELECTIVITY.get(pred.op, 0.05)
        expected = max(1.0, tuples * selectivity)
        tree_state = instance["tree"]
        height = max(1, tree_state.get("height", 1))
        touched = height + expected / 4.0 + expected  # search + base fetches
        chosen = relevant[0]
        return AccessCost(io_pages=touched, cpu_tuples=expected,
                          expected_tuples=expected,
                          relevant=(chosen,))
