"""B-tree index attachment.

The paper's running example of a procedural attachment:

  "After a record is inserted into a relation having B-tree indexes
  defined on it, the B-tree attached procedure for insert will be invoked
  passing a copy of the inserted record along with the newly assigned
  tuple identifier or record key.  For each B-tree index defined on the
  relation being modified, the B-tree insert procedure will form an index
  key by projecting fields from the inserted record, and then insert the
  index key plus tuple identifier or record key into the B-tree index.
  On update, the old record and record key will be used to determine
  which key to delete from the B-tree index and the new record and record
  key will be used to form the key to be inserted into the index.  Of
  course, the B-tree update operation should be able to detect when no
  indexed fields for a given index are modified."

One attachment *type* services all B-tree instances on the relation; each
instance descriptor carries its indexed columns and its page-based
:class:`~repro.access.btree_core.BTree` state.  The instance can also
"return record fields when the access path key is a multi-field value" —
a scan's batch holds the index keys (:class:`~repro.services.scans.KeyScan`),
so a key filter runs once per batch before any base record is fetched.  A
route is the intersection of its bounds, which the filter never re-tests.

A record whose key holds a NULL has no entry: NULL is outside every range
and every uniqueness rule, so the routes and probes that the planner and
executor take never need it, and ``IS NULL`` is answered by a scan.  A
NaN key field is read as NULL (``scans.keys_of``): it orders against
nothing, so an entry for it would sit in no range and unsort its leaf.  A record NULL past
the leading key field would be missed by a range over the leading one,
so it marks the instance ``partial``, which offers no route until a
rebuild finds no such record.

A unique instance probes a whole batch (stored keys and the batch's own)
before it adds an entry, and its :class:`~repro.errors.UniqueViolation`
names the instance and the offending row's position in batch order.  The
``unique`` constraint is this type with uniqueness always on and no
access path; counters are named by the type (``btree_index.*``,
``unique.*``).

DDL attributes: ``columns`` (list of column names, required),
``unique`` (bool, default False), ``max_entries`` (node fanout bound).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.attachment import AttachmentType, tag_batch_index
from ..core.context import ExecutionContext
from ..core.storage_method import RelationHandle
from ..errors import StorageError, UniqueViolation
from ..query.cost import (AccessCost, default_selectivity,
                          implied_conjuncts)
from ..services.predicate import Const, Predicate
from ..services.scans import AFTER, KeyScan, Scan, changed_keys, keys_of
from .btree_core import BTree, DEFAULT_MAX_ENTRIES

__all__ = ["BTreeIndexAttachment", "BTreeIndexScan"]


class BTreeIndexScan(KeyScan):
    """Key-sequential access over one B-tree index instance, within the
    route's bounds: one root-to-leaf descent per batch.  The position is
    the last (index key, record key) pair read, so a deletion at the
    position leaves the scan just after it."""

    counter = "btree_index.entries_scanned"

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 instance: dict, predicate: Optional[Predicate],
                 low: Optional[tuple], high: Optional[tuple],
                 low_inclusive: bool = True, high_inclusive: bool = True):
        super().__init__(ctx, handle, instance, predicate)
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self._tree = BTree.of(ctx.buffer, instance)
        if None in (low or ()) or None in (high or ()):
            self.state = AFTER  # a NULL bound matches no entry

    def _entries(self):
        """The tree's entries after the current position, within the range
        (one descent when the first of them is asked for)."""
        if self.position is None:
            return self._tree.range(self.low, self.high, self.low_inclusive,
                                    self.high_inclusive)
        return self._tree.entries_after(self.position, self.high,
                                        self.high_inclusive)


class BTreeIndexAttachment(AttachmentType):
    """Multi-instance B-tree access path."""

    name = "btree_index"
    is_access_path = True
    recoverable = True
    returns_key_columns = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        columns = attributes.pop("columns", None)
        unique = attributes.pop("unique", False)
        max_entries = attributes.pop("max_entries", DEFAULT_MAX_ENTRIES)
        if attributes:
            raise StorageError(
                f"{self.name}: unknown attributes {sorted(attributes)}")
        if not columns:
            raise StorageError(f"{self.name} requires a 'columns' attribute")
        for column in columns:
            if not schema.orderable(column):
                raise StorageError(
                    f"{self.name} column {column!r} has unorderable type "
                    f"{schema.field(column).type_code}")
        if not isinstance(max_entries, int) or max_entries < 4:
            raise StorageError(
                f"{self.name}: max_entries must be an int >= 4, got "
                f"{max_entries!r}")
        return {"columns": list(columns), "unique": bool(unique),
                "max_entries": max_entries}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        key_fields = list(handle.schema.indexes_of(attributes["columns"]))
        instance = {"name": instance_name,
                    "columns": list(attributes["columns"]),
                    "key_fields": key_fields,
                    "unique": attributes["unique"],
                    "max_entries": attributes["max_entries"],
                    "tree": {}}
        BTree.create(ctx.buffer, instance["tree"], attributes["max_entries"])
        self._build(ctx, handle, instance, self.stored_batches(ctx, handle))
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        BTree.of(ctx.buffer, instance).destroy()

    def undo_logged(self, services, instance: dict, payload: dict) -> None:
        BTree.of(services.buffer, instance).undo_logged(payload)

    def _build(self, ctx, handle, instance, batches) -> None:
        """Bulk-build from the relation's stored records, ``batches``."""
        tree = BTree.of(ctx.buffer, instance)
        instance["partial"] = False
        for batch in batches:
            self._add(tree, instance, self._pairs(handle, instance, batch))
        ctx.stats.bump(self.name + ".builds")

    def rebuild(self, ctx, handle, field, batches) -> None:
        """Reconstruct every instance from the relation's ``batches``."""
        partial = any(i.get("partial") for i in field["instances"].values())
        for instance in field["instances"].values():
            BTree.of(ctx.buffer, instance).reset()
            self._build(ctx, handle, instance, batches)
        if partial:
            handle.descriptor.version += 1  # a withheld route may be back
        ctx.stats.bump(self.name + ".rebuilds")

    # -- attached procedures -----------------------------------------------------
    def _entries(self, handle, instance: dict, keys, records) -> list:
        """The ``(index key, record key)`` entries, in batch order, of the
        ``records`` at ``keys`` whose index key holds no NULL."""
        entries = list(zip(keys_of(instance, records), keys))
        kept = [entry for entry in entries if None not in entry[0]]
        if len(kept) < len(entries) and not instance.get("partial") \
                and any(None in index_key[1:] for index_key, __ in entries):
            instance["partial"] = True
            handle.descriptor.version += 1  # cached plans hold its routes
        return kept

    def _pairs(self, handle, instance: dict, items) -> list:
        """:meth:`_entries` of ``(record key, record)`` ``items``."""
        return self._entries(handle, instance, [key for key, __ in items],
                             [record for __, record in items])

    @staticmethod
    def _veto(instance: dict, index_key: tuple, batch_index=None):
        return UniqueViolation(
            instance["name"], f"duplicate key {index_key!r} for UNIQUE "
            f"({', '.join(instance['columns'])})", batch_index=batch_index)

    def _add(self, tree: BTree, instance: dict, entries: list,
             keys=None) -> None:
        """Add ``entries``; under a unique rule, veto the lot first if one
        would duplicate a key, stored or earlier in the batch, naming its
        position among the batch's record ``keys`` when they are given."""
        if instance["unique"]:
            taken = tree.first_duplicate([key for key, __ in entries])
            if taken is not None:
                index_key, record_key = entries[taken]
                raise self._veto(instance, index_key, None if keys is None
                                 else list(keys).index(record_key))
        tree.insert_many(entries)

    def _move(self, ctx, handle, instance: dict, old_key, new_key,
              new_record, old_index_key: tuple, new_index_key: tuple) -> None:
        """Move one updated record's entry (the old out, the new in)."""
        tree = BTree.of(ctx.buffer, instance)
        if None in new_index_key:
            # No entry to add, but the record may mark the tree partial.
            self._entries(handle, instance, (new_key,), (new_record,))
        elif instance["unique"] and old_index_key != new_index_key \
                and tree.search(new_index_key):
            raise self._veto(instance, new_index_key)
        for op, apply, index_key, key in (
                ("remove_many", tree.delete, old_index_key, old_key),
                ("add_many", tree.insert, new_index_key, new_key)):
            if None not in index_key:
                apply(index_key, key)
                ctx.log(self.resource, {
                    "op": op, "relation_id": handle.relation_id,
                    "instance": instance["name"],
                    "entries": [[list(index_key), key]]})

    # -- set-at-a-time attached procedures ---------------------------------------
    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        """One tree instantiation, one key-sorted bulk apply (each leaf
        the batch touches is written once) and one log record per instance
        per *batch* instead of per record."""
        for instance in field["instances"].values():
            tree = BTree.of(ctx.buffer, instance)
            entries = self._entries(handle, instance, keys, new_records)
            if not entries:
                continue  # every key held a NULL
            self._add(tree, instance, entries, keys)
            ctx.log(self.resource, {
                "op": "add_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(k), v] for k, v in entries]})
            ctx.stats.bump(self.name + ".maintenance_ops", len(entries))

    def on_update_batch(self, ctx, handle, field, items) -> None:
        """Only the rows whose key or record key changed touch a tree, row
        by row and, within a row, instance by instance; a veto names its
        row, and the counters hold what that walk reached."""
        instances = list(field["instances"].values())
        moves: dict = {}
        for position, instance in enumerate(instances):
            for index, old, new in changed_keys(instance, items):
                moves.setdefault(index, []).append(
                    (position, instance, old, new))
        if not moves:
            ctx.stats.bump(self.name + ".update_skips",
                           len(items) * len(instances))
            return
        done, reached = 0, len(items) * len(instances)
        try:
            for index in sorted(moves):
                old_key, new_key, __, new_record = items[index]
                for position, instance, old, new in moves[index]:
                    reached = index * len(instances) + position
                    self._move(ctx, handle, instance, old_key, new_key,
                               new_record, old, new)
                    done += 1
            reached = len(items) * len(instances)
        except Exception as exc:
            tag_batch_index(exc, index)
            raise
        finally:
            ctx.stats.bump_many({name: amount for name, amount in (
                (self.name + ".update_skips", reached - done),
                (self.name + ".maintenance_ops", done)) if amount})

    def on_delete_batch(self, ctx, handle, field, items) -> None:
        for instance in field["instances"].values():
            tree = BTree.of(ctx.buffer, instance)
            entries = self._pairs(handle, instance, items)
            if not entries:
                continue  # every key held a NULL
            tree.delete_many(entries)
            ctx.log(self.resource, {
                "op": "remove_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(k), v] for k, v in entries]})
            ctx.stats.bump(self.name + ".maintenance_ops", len(entries))

    # -- direct access operations ------------------------------------------------------
    def fetch(self, ctx, handle, instance, input_key) -> List:
        """Map an index key (full or tuple) to the matching record keys."""
        if not isinstance(input_key, tuple):
            input_key = (input_key,)
        tree = BTree.of(ctx.buffer, instance)
        ctx.stats.bump(self.name + ".fetches")
        if not all(map(handle.schema.comparable, instance["key_fields"],
                       input_key)):
            return []  # NULL equals nothing; another type orders nowhere
        if len(input_key) == len(instance["key_fields"]):
            return tree.search(input_key)
        # Partial key: all entries whose key has this prefix.
        out = []
        for key, value in tree.range(low=input_key):
            if tuple(key[:len(input_key)]) != tuple(input_key):
                break
            out.append(value)
        return out

    def open_scan(self, ctx, handle, instance, predicate=None,
                  route=None) -> Scan:
        low = high = None
        low_inclusive = high_inclusive = True
        if route is not None and route[0] == "btree_range":
            __, low, high, low_inclusive, high_inclusive = route
        scan = BTreeIndexScan(ctx, handle, instance, predicate, low, high,
                              low_inclusive, high_inclusive)
        ctx.services.scans.register(scan)
        return scan

    def bind_route(self, handle, instance, relevant, values):
        """``("btree_range", low, high, low_inclusive, high_inclusive)``,
        the intersection of the relevant bounds, exact: an ``=`` bounds
        both ends and on a tie the exclusive bound wins, so each holds for
        every entry in it.  Not exact: a bound of another type than the key
        (every entry, and the whole filter answers as a scan's does) or a
        NULL or NaN one (no entry)."""
        low = high = None
        low_inclusive = high_inclusive = exact = True
        for pred, value in zip(relevant, values):
            if value is not None \
                    and not handle.schema.comparable(pred.field_index, value):
                return ("btree_range", None, None, True, True), False
            exact = exact and value is not None and value == value
            if not exact:
                continue
            op, bound = pred.op, (value,)
            if op != "<" and op != "<=" and (low is None or bound > low
                                             or bound == low and op == ">"):
                low, low_inclusive = bound, op != ">"
            if op != ">" and op != ">=" and (high is None or bound < high
                                             or bound == high and op == "<"):
                high, high_inclusive = bound, op != "<"
        if not exact:
            return ("btree_range", (None,), None, True, True), False
        return ("btree_range", low, high, low_inclusive, high_inclusive), True

    def equality_key(self, instance):
        return tuple(instance["key_fields"])

    # -- cost estimation ------------------------------------------------------------------
    def estimate_cost(self, ctx, handle, instance_name, instance, eligible
                      ) -> Optional[AccessCost]:
        """Low cost when there is a predicate on the key of the B-tree."""
        key_fields = instance["key_fields"]
        leading = key_fields[0]
        if instance.get("partial"):
            return None  # a record NULL past the leading field is missing
        relevant = [p for p in eligible
                    if p.is_simple and p.field_index == leading
                    and p.op in ("=", "<", "<=", ">", ">=")]
        if not relevant:
            return None
        database = ctx.database
        method = database.registry.storage_method(
            handle.descriptor.storage_method_id)
        tuples = max(1, method.record_count(ctx, handle))
        selectivity = default_selectivity(relevant)
        equality = any(pred.op == "=" for pred in relevant)
        literals = [pred for pred in relevant
                    if isinstance(pred.operand, Const)]
        route, exact = self.bind_route(
            handle, instance, literals,
            [pred.operand.value for pred in literals])
        low, high = route[1], route[2]
        interpolated = self._interpolate_selectivity(ctx, instance, low, high)
        if interpolated is not None:
            selectivity = interpolated
        if equality:
            # Interpolation degenerates for equality (a point "range"),
            # so a distinct-count estimate from an installed statistics
            # attachment takes precedence: expected = rows / ndv.
            from .statistics import statistics_for
            table_stats = statistics_for(ctx, handle)
            if table_stats is not None:
                ndv_selectivity = table_stats.selectivity(leading, "=", None)
                if ndv_selectivity is not None:
                    selectivity = ndv_selectivity
        if instance["unique"] and equality and len(key_fields) == 1:
            expected = 1.0
        else:
            expected = max(1.0, tuples * selectivity)
        tree_state = instance["tree"]
        height = max(1, tree_state.get("height", 1))
        leaf_fraction = (expected / max(1.0, tree_state.get("nentries", 1))
                         * max(1, tree_state.get("pages", 1)))
        # Each qualifying entry costs one base-relation fetch.
        io = height + min(leaf_fraction, tree_state.get("pages", 1)) + expected
        return AccessCost(io_pages=io, cpu_tuples=expected,
                          expected_tuples=expected,
                          relevant=tuple(relevant),
                          ordered_by=tuple(key_fields), route=route,
                          consumed=implied_conjuncts(relevant, eligible)
                          if exact else ())

    def _interpolate_selectivity(self, ctx, instance: dict,
                                 low: Optional[tuple],
                                 high: Optional[tuple]) -> Optional[float]:
        """Range selectivity from the index's actual key span.

        The index *is* a statistic: when the range bounds are numeric
        constants, interpolating against the stored minimum/maximum key
        beats the fixed System-R guesses by an order of magnitude.  Costs
        two root-to-leaf descents.
        """
        if low is None and high is None:
            return None
        tree = BTree.of(ctx.buffer, instance)
        min_key = tree.min_key()
        max_key = tree.max_key()
        if min_key is None or max_key is None:
            return None
        lo_value = min_key[0]
        hi_value = max_key[0]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (lo_value, hi_value)):
            return None
        span = hi_value - lo_value
        if span <= 0:
            return None
        want_lo = low[0] if low is not None else lo_value
        want_hi = high[0] if high is not None else hi_value
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (want_lo, want_hi)):
            return None
        fraction = (min(want_hi, hi_value) - max(want_lo, lo_value)) / span
        return min(1.0, max(0.0, fraction))
