"""Precomputed aggregate / statistics attachment.

The paper distinguishes its attachments from plain triggers because "they
may have associated storage.  This storage can be used to maintain access
structures, and even to maintain statistics about relations or precomputed
function values for data stored in relations."

An aggregate instance maintains one function over one column (or the
record count) incrementally as a side effect of relation modifications:

* ``count`` and ``sum`` are exactly maintainable;
* ``min`` and ``max`` are maintained incrementally on insert and marked
  *stale* when the current extreme value is deleted; the next read
  recomputes them with one scan (lazy repair).

The current value is served in O(1) by :meth:`value` — the query engine
uses it to answer ``SELECT COUNT(*)`` without touching the relation.

DDL attributes: ``function`` ("count" | "sum" | "min" | "max"),
``column`` (required except for count).
"""

from __future__ import annotations

from ..core.attachment import STALE, AttachmentType
from ..errors import StorageError

__all__ = ["AggregateAttachment"]

_FUNCTIONS = ("count", "sum", "min", "max")
_EMPTY = {"count": 0, "sum": 0, "extreme": None, "stale": False}


class AggregateAttachment(AttachmentType):
    """Incrementally maintained aggregate values with lazy min/max repair."""

    name = "aggregate"
    is_access_path = False   # it answers values, not record keys
    recoverable = True
    descriptor_resident = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        function = attributes.pop("function", None)
        column = attributes.pop("column", None)
        if attributes:
            raise StorageError(
                f"aggregate: unknown attributes {sorted(attributes)}")
        if function not in _FUNCTIONS:
            raise StorageError(
                f"aggregate: function must be one of {_FUNCTIONS}, got "
                f"{function!r}")
        if function != "count":
            if not column:
                raise StorageError(
                    f"aggregate {function!r} requires a 'column' attribute")
            type_code = schema.field(column).type_code
            if function == "sum" and type_code not in ("INT", "FLOAT"):
                raise StorageError(
                    f"aggregate sum needs a numeric column, {column!r} is "
                    f"{type_code}")
        return {"function": function, "column": column}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        instance = {"name": instance_name,
                    "function": attributes["function"],
                    "column": attributes["column"],
                    "field_index": (handle.schema.field_index(
                        attributes["column"])
                        if attributes["column"] else None)}
        self._recompute(ctx, handle, instance)
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        instance["state"] = dict(_EMPTY)

    def rebuild(self, ctx, handle, field, batches) -> None:
        for instance in field["instances"].values():
            self._recompute(ctx, handle, instance, batches)
        ctx.stats.bump("aggregate.rebuilds")

    def _recompute(self, ctx, handle, instance, batches=None) -> None:
        """Fold the relation's ``batches`` (default: a scan) into an empty
        state: the aggregate state derived again."""
        instance["state"] = dict(_EMPTY)
        for batch in batches or self.stored_batches(ctx, handle):
            for __, record in batch:
                self._apply(instance, record, +1)
        instance["derived_lsn"] = ctx.services.wal.current_lsn
        ctx.stats.bump("aggregate.recomputations")

    # -- attached procedures -------------------------------------------------------------
    def on_insert(self, ctx, handle, field, key, new_record) -> None:
        for instance in field["instances"].values():
            self._log_old(ctx, handle, instance)
            self._apply(instance, new_record, +1)
            ctx.stats.bump("aggregate.maintenance_ops")

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            index = instance["field_index"]
            if index is not None \
                    and old_record[index] == new_record[index]:
                ctx.stats.bump("aggregate.update_skips")
                continue
            self._log_old(ctx, handle, instance)
            self._apply(instance, old_record, -1)
            self._apply(instance, new_record, +1)
            ctx.stats.bump("aggregate.maintenance_ops")

    def on_delete(self, ctx, handle, field, key, old_record) -> None:
        for instance in field["instances"].values():
            self._log_old(ctx, handle, instance)
            self._apply(instance, old_record, -1)
            ctx.stats.bump("aggregate.maintenance_ops")

    def _log_old(self, ctx, handle, instance) -> None:
        self.log_kept(ctx, handle.relation_id, instance,
                      {"old_state": dict(instance["state"])})

    def _apply(self, instance: dict, record, direction: int) -> None:
        state = instance["state"]
        function = instance["function"]
        index = instance["field_index"]
        value = record[index] if index is not None else None
        if index is not None and value is None:
            return  # NULLs do not contribute
        state["count"] += direction
        if function == "sum":
            state["sum"] += direction * value
        elif function in ("min", "max"):
            if direction > 0:
                if state["extreme"] is None:
                    state["extreme"] = value
                elif function == "min":
                    state["extreme"] = min(state["extreme"], value)
                else:
                    state["extreme"] = max(state["extreme"], value)
            else:
                # Removing the current extreme invalidates it lazily.
                if value == state["extreme"]:
                    state["stale"] = True
                if state["count"] == 0:
                    state["extreme"] = None
                    state["stale"] = False

    # -- reading -------------------------------------------------------------------------
    def value(self, ctx, handle, instance):
        """Current aggregate value (repairing a stale state, or a stale
        min/max, lazily)."""
        function = instance["function"]
        if instance["derived_lsn"] == STALE or (
                instance["state"]["stale"] and function in ("min", "max")):
            self._recompute(ctx, handle, instance)
        state = instance["state"]
        if function == "count":
            return state["count"]
        if function == "sum":
            return state["sum"] if state["count"] else None
        return state["extreme"]
