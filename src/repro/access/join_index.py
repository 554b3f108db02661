"""Join index attachment.

The paper: "Access paths need not be limited to a single table (e.g., join
indexes [VALDURIEZ 85])" and, on descriptors, "more elaborate extensions
would have correspondingly more complex descriptors, including embedded
references to descriptors for other relations whenever the extension
involves multiple tables (e.g. referential integrity constraints or join
indexes)".

A join index instance is created on the *left* relation with attributes
naming the *right* relation and the equi-join columns.  It maintains the
set of matching ``(left record key, right record key)`` pairs.  Creating
the instance installs a **mirror instance** on the right relation's
descriptor (sharing the same pair store) so that modifications of either
relation keep the pairs current — the attached procedure of this type is
invoked on both relations.

Pair storage is a two-directional map in the descriptor (the paper's
point that attachments "may have associated storage"); undo is logical,
and restart keeps the pairs unless the crash lost or undid a change: every
pair change, whichever side logged it, stamps the left instance.

DDL attributes: ``other`` (right relation name), ``column`` (left join
column), ``other_column`` (right join column).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.attachment import AttachmentType, matching_keys
from ..errors import StorageError
from ..query.cost import AccessCost
from ..services.locks import LockMode

__all__ = ["JoinIndexAttachment"]


def _add_pair(pairs: dict, left_key, right_key) -> None:
    pairs["by_left"].setdefault(left_key, set()).add(right_key)
    pairs["by_right"].setdefault(right_key, set()).add(left_key)
    pairs["count"] += 1


def _remove_pair(pairs: dict, left_key, right_key) -> None:
    lefts = pairs["by_left"].get(left_key)
    if lefts and right_key in lefts:
        lefts.discard(right_key)
        if not lefts:
            del pairs["by_left"][left_key]
        rights = pairs["by_right"].get(right_key)
        if rights is not None:
            rights.discard(left_key)
            if not rights:
                del pairs["by_right"][right_key]
        pairs["count"] -= 1


class JoinIndexAttachment(AttachmentType):
    """Maintains (left key, right key) pairs for one equi-join predicate."""

    name = "join_index"
    is_access_path = True
    recoverable = True
    descriptor_resident = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        other = attributes.pop("other", None)
        column = attributes.pop("column", None)
        other_column = attributes.pop("other_column", None)
        if attributes:
            raise StorageError(
                f"join_index: unknown attributes {sorted(attributes)}")
        if not other or not column or not other_column:
            raise StorageError(
                "join_index requires 'other', 'column', and 'other_column' "
                "attributes")
        schema.field(column)
        return {"other": other.lower(), "column": column,
                "other_column": other_column}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        database = ctx.database
        other_handle = database.catalog.handle(attributes["other"])
        other_handle.schema.field(attributes["other_column"])
        pairs = {"by_left": {}, "by_right": {}, "count": 0}
        instance = {
            "name": instance_name, "role": "left",
            "relation": handle.name, "other": other_handle.name,
            "column": attributes["column"],
            "other_column": attributes["other_column"],
            "field_index": handle.schema.field_index(attributes["column"]),
            "other_field_index":
                other_handle.schema.field_index(attributes["other_column"]),
            "pairs": pairs,
        }
        # Embedded reference to the other relation: install the mirror so
        # the attached procedure fires on modifications of either side.
        mirror = dict(instance, role="right", name=instance_name + "@right")
        other_field = other_handle.descriptor.attachment_field(self.type_id)
        if other_field is None:
            other_field = self.new_field_descriptor()
            other_handle.descriptor.set_attachment_field(self.type_id,
                                                         other_field)
        other_field["instances"][mirror["name"]] = mirror
        self._build(ctx, handle, other_handle, instance,
                    self.stored_batches(ctx, handle))
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        if instance["role"] != "left":
            return
        database = ctx.database
        try:
            other_handle = database.catalog.handle(instance["other"])
        except Exception:
            return  # the other relation is already gone
        other_field = other_handle.descriptor.attachment_field(self.type_id)
        if other_field is not None:
            other_field["instances"].pop(instance["name"] + "@right", None)
            if not other_field["instances"]:
                other_handle.descriptor.set_attachment_field(self.type_id,
                                                             None)
        instance["pairs"]["by_left"].clear()
        instance["pairs"]["by_right"].clear()

    def undo_logged(self, services, instance: dict, payload: dict) -> None:
        pairs = instance["pairs"]
        left_key, right_key = payload["left_key"], payload["right_key"]
        if payload["op"] == "add_pair":
            _remove_pair(pairs, left_key, right_key)
        elif payload["op"] == "remove_pair":
            _add_pair(pairs, left_key, right_key)
        else:
            raise StorageError(f"join_index cannot undo {payload['op']!r}")

    def _build(self, ctx, handle, other_handle, instance, batches) -> None:
        """Derive the left ``instance``'s pair set again from the left
        relation's ``batches`` and one scan of the right relation."""
        pairs = instance["pairs"]  # shared with the mirror: emptied in place
        pairs["by_left"].clear()
        pairs["by_right"].clear()
        pairs["count"] = 0
        rights: Dict[object, List] = {}
        for batch in self.stored_batches(ctx, other_handle):
            for right_key, record in batch:
                value = record[instance["other_field_index"]]
                # NULL and NaN join nothing
                if value is not None and value == value:
                    rights.setdefault(value, []).append(right_key)
        for batch in batches:
            for left_key, record in batch:
                value = record[instance["field_index"]]
                for right_key in rights.get(value, ()):
                    _add_pair(pairs, left_key, right_key)
        instance["derived_lsn"] = ctx.services.wal.current_lsn
        ctx.stats.bump("join_index.builds")

    def rebuild(self, ctx, handle, field, batches) -> None:
        catalog = ctx.database.catalog
        for instance in field["instances"].values():
            left, lefts = handle, batches
            if instance["role"] != "left":
                # The right relation was reset: its pairs are gone.
                left = catalog.handle(instance["relation"])
                instance = self._left(left, instance)
                lefts = self.stored_batches(ctx, left)
            self._build(ctx, left, catalog.handle(instance["other"]),
                        instance, lefts)
        ctx.stats.bump("join_index.rebuilds")

    def _left(self, left_handle, instance) -> dict:
        """The left instance of ``instance`` (itself, or its mirror's)."""
        return left_handle.descriptor.attachment_field(self.type_id)[
            "instances"][instance["name"].replace("@right", "")]

    # -- attached procedures -------------------------------------------------------------
    def on_insert(self, ctx, handle, field, key, new_record) -> None:
        for instance in field["instances"].values():
            self._pair_up(ctx, handle, instance, key, new_record, add=True)

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            side_index = (instance["field_index"]
                          if instance["role"] == "left"
                          else instance["other_field_index"])
            if old_record[side_index] == new_record[side_index] \
                    and old_key == new_key:
                ctx.stats.bump("join_index.update_skips")
                continue
            self._pair_up(ctx, handle, instance, old_key, old_record,
                          add=False)
            self._pair_up(ctx, handle, instance, new_key, new_record,
                          add=True)

    def on_delete(self, ctx, handle, field, key, old_record) -> None:
        for instance in field["instances"].values():
            self._pair_up(ctx, handle, instance, key, old_record, add=False)

    def _pair_up(self, ctx, handle, instance, key, record, add: bool) -> None:
        """Add or remove the pairs this record participates in: the other
        side's records that match it, found by its equality probe when it
        has one, S-locked as a scan of them locks them."""
        database = ctx.database
        on_left = instance["role"] == "left"
        own, other = "field_index", "other_field_index"
        if not on_left:
            own, other = other, own
        other_handle = database.catalog.handle(
            instance["other" if on_left else "relation"])
        matches = list(matching_keys(ctx, other_handle, (instance[other],),
                                     (record[instance[own]],)))
        ctx.lock_records(other_handle.relation_id, matches, LockMode.S)
        pair_list = [(key, m) if on_left else (m, key) for m in matches]
        owner = database.catalog.handle(instance["relation"])
        left = self._left(owner, instance)
        for left_key, right_key in pair_list:
            if add:
                _add_pair(instance["pairs"], left_key, right_key)
                op = "add_pair"
            else:
                _remove_pair(instance["pairs"], left_key, right_key)
                op = "remove_pair"
            self.log_kept(ctx, owner.relation_id, left, {
                "op": op, "left_key": left_key, "right_key": right_key})
            ctx.stats.bump("join_index.maintenance_ops")

    # -- direct access operations ------------------------------------------------------
    def fetch(self, ctx, handle, instance, input_key) -> List:
        """Map a record key of this side to the joined keys of the other."""
        ctx.stats.bump("join_index.fetches")
        if instance["role"] == "left":
            return sorted(instance["pairs"]["by_left"].get(input_key, ()),
                          key=repr)
        return sorted(instance["pairs"]["by_right"].get(input_key, ()),
                      key=repr)

    def pairs(self, instance) -> List[Tuple[object, object]]:
        """All (left key, right key) pairs (the join result's key set)."""
        out = []
        for left_key, rights in instance["pairs"]["by_left"].items():
            for right_key in rights:
                out.append((left_key, right_key))
        return out

    # -- cost estimation ------------------------------------------------------------------
    def estimate_cost(self, ctx, handle, instance_name, instance, eligible
                      ) -> Optional[AccessCost]:
        """Join indexes answer join queries, not single-relation filters."""
        return None

    def join_cost(self, instance) -> AccessCost:
        """Cost of producing the join's key pairs via the index."""
        count = instance["pairs"]["count"]
        # The pair store is memory-resident; fetching both records per pair
        # costs two page reads.
        return AccessCost(io_pages=2.0 * count, cpu_tuples=count,
                          expected_tuples=count, route=("join_pairs",))
