"""Precomputed per-column statistics attachment.

The paper lists precomputed statistics as a first-class use of
attachment storage: attachments "may have associated storage.  This
storage can be used to maintain access structures, and even to maintain
statistics about relations or precomputed function values".  This type
maintains, per tracked column, as a side effect of every insert/update/
delete through the standard batched attachment hooks:

* the relation **row count** (exact);
* the **null count** (exact);
* **min/max** — incremental on insert, marked *stale* when the current
  extreme is deleted and lazily repaired by one scan on the next read
  (the same discipline as the aggregate attachment);
* a **distinct-value estimate** via a KMV (k-minimum-values) sketch:
  the :data:`_KMV_K` smallest 32-bit value hashes seen.  With fewer
  than k entries the sketch is exact; at k the estimator
  ``(k-1) * 2^32 / kth_smallest`` applies.  Deletions do not shrink the
  sketch (it can only overestimate after heavy deletion;
  ``rebuild_attachment`` re-derives it exactly).

Consumers reach the numbers through :func:`statistics_for`, which wraps
the first live instance on a relation in a :class:`TableStatistics`
view.  The planner uses it for real selectivities in place of the
System R ``DEFAULT_SELECTIVITY`` constants; the executor uses the row
count for row↔columnar path selection and (via the plan's expected
cardinality) batch sizing.

DDL attributes: ``columns`` — optional list of column names to track
(default: every column).
"""

from __future__ import annotations

from typing import Optional

from ..core.attachment import STALE, AttachmentType
from ..core.hashing import HASH_SPACE, stable_hashes
from ..errors import StorageError

__all__ = ["StatisticsAttachment", "TableStatistics", "statistics_for",
           "kmv_union", "kmv_union_estimate", "sketch_state"]

#: KMV sketch size: exact distinct counts up to this many values, an
#: unbiased estimate beyond.
_KMV_K = 64

_HASH_SPACE = float(HASH_SPACE)


def _kmv_estimate(kmv: list) -> int:
    if len(kmv) < _KMV_K:
        return len(kmv)
    return max(len(kmv), int((_KMV_K - 1) * _HASH_SPACE / kmv[-1]))


def kmv_union(sketches) -> list:
    """The union of several KMV sketches — itself a valid KMV sketch.

    The hash function is shared and salt-free, so the same value hashes
    identically on every shard; keeping the K smallest hashes of the
    merged distinct set yields exactly the sketch a single pass over the
    union of the inputs would have built.  This is how the sharded
    method estimates a *global* distinct count from per-shard
    statistics without moving any data.
    """
    if not sketches:
        return []
    return sorted(set().union(*sketches))[:_KMV_K]


def kmv_union_estimate(sketches) -> int:
    """Distinct-count estimate for the union of per-shard sketches."""
    return _kmv_estimate(kmv_union(sketches))


def sketch_state(database, handle, index: int):
    """The raw per-column statistics state for ``handle`` inside
    ``database`` (``{"nulls", "min", "max", "stale", "kmv"}``), or
    ``None`` when no statistics instance tracks the column.

    Unlike :func:`statistics_for` this needs no execution context — the
    sharded coordinator reads child sketches directly when gating
    pushdown, without opening a child transaction.
    """
    try:
        attachment = database.registry.attachment_type_by_name("statistics")
    except Exception:
        return None
    field = handle.descriptor.attachment_field(attachment.type_id)
    if field is None:
        return None
    for instance in field["instances"].values():
        return instance["state"]["columns"].get(index)
    return None


def _copy_state(state: dict) -> dict:
    """Deep-enough copy for undo logging: maintenance changes the
    per-column dicts in place, and replaces a sketch list, never changes
    one."""
    return {"row_count": state["row_count"],
            "columns": {index: dict(column)
                        for index, column in state["columns"].items()}}


def _absorb(column: dict, values) -> None:
    """Fold one column's ``values`` into its state — NULL count, extremes,
    sketch — as a fold a value at a time would."""
    nulls = values.count(None)
    if nulls:
        column["nulls"] += nulls
        values = [value for value in values if value is not None]
        if not values:
            return
    column["min"], column["max"] = _extremes(
        column["min"], column["max"], values)
    kmv, hashes = column["kmv"], stable_hashes(values)
    # A full sketch takes only a hash below its k-th; one not full, any new.
    if min(hashes) < kmv[-1] if len(kmv) == _KMV_K \
            else not hashes.issubset(kmv):
        column["kmv"] = kmv_union([kmv, hashes])


def _extremes(low, high, present: list) -> tuple:
    """The extremes with the non-NULL ``present`` values folded in: builtin
    ``min`` / ``max`` seeded with the current one is that fold.  A column
    of unorderable values (boxes) keeps the first it saw as both."""
    try:
        if low is None:
            return min(present), max(present)
        return min(low, *present), max(high, *present)
    except TypeError:
        return (present[0], present[0]) if low is None else (low, high)


def _meets(values, low, high) -> bool:
    """Whether a retired value equals an extreme (then re-derived)."""
    return any(value is not None and (value == low or value == high)
               for value in values)


class StatisticsAttachment(AttachmentType):
    """Per-column row-count/null/min/max/distinct statistics."""

    name = "statistics"
    is_access_path = False   # it answers estimates, not record keys
    recoverable = True
    descriptor_resident = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        columns = attributes.pop("columns", None)
        if attributes:
            raise StorageError(
                f"statistics: unknown attributes {sorted(attributes)}")
        if columns is None:
            columns = [field.name for field in schema.fields]
        else:
            columns = list(columns)
            if not columns:
                raise StorageError(
                    "statistics: 'columns' must name at least one column")
            for column in columns:
                schema.field(column)  # raises on unknown names
        return {"columns": columns}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        indexes = [handle.schema.field_index(name)
                   for name in attributes["columns"]]
        instance = {"name": instance_name,
                    "columns": list(attributes["columns"]),
                    "field_indexes": indexes,
                    "state": self._empty_state(indexes)}
        self._recompute(ctx, handle, instance)
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        instance["state"] = self._empty_state(instance["field_indexes"])

    @staticmethod
    def _empty_state(indexes) -> dict:
        return {"row_count": 0,
                "columns": {index: {"nulls": 0, "min": None, "max": None,
                                    "stale": False, "kmv": []}
                            for index in indexes}}

    def rebuild(self, ctx, handle, field, batches) -> None:
        for instance in field["instances"].values():
            self._recompute(ctx, handle, instance, batches)
        ctx.stats.bump("statistics.rebuilds")

    def _recompute(self, ctx, handle, instance, batches=None) -> None:
        """One pass over the relation's ``batches`` (default: a scan)
        re-derives every tracked column's statistics."""
        state = self._empty_state(instance["field_indexes"])
        for batch in batches or self.stored_batches(ctx, handle):
            columns = list(zip(*[record for __, record in batch]))
            state["row_count"] += len(batch)
            for index, column in state["columns"].items() if columns else ():
                _absorb(column, columns[index])
        instance["state"] = state
        instance["derived_lsn"] = ctx.services.wal.current_lsn
        ctx.stats.bump("statistics.recomputations")

    # -- attached procedures ---------------------------------------------------
    # The batch hooks log one before-image per batch and fold the batch
    # into the state a column at a time (see :func:`_absorb`).

    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        columns = list(zip(*new_records))
        for instance in field["instances"].values():
            self._log_old(ctx, handle, instance)
            state = instance["state"]
            state["row_count"] += len(new_records)
            for index, column in state["columns"].items():
                _absorb(column, columns[index])
        self._bump_batch(ctx, field, len(new_records))

    def on_update_batch(self, ctx, handle, field, items) -> None:
        """A changed value retires the old one and absorbs the new; an old
        value equal to an extreme as it stood at its row makes it stale."""
        olds = list(zip(*[item[2] for item in items]))
        news = list(zip(*[item[3] for item in items]))
        for instance in field["instances"].values():
            self._log_old(ctx, handle, instance)
            for index, column in instance["state"]["columns"].items():
                # Values all equal, or the same objects (a NaN kept as it
                # was would retire and absorb itself: no change), skip.
                if olds[index] == news[index]:
                    continue
                pairs = [(old, new) for old, new
                         in zip(olds[index], news[index]) if old != new]
                retired = [old for old, __ in pairs]
                low, high = column["min"], column["max"]
                column["nulls"] -= retired.count(None)
                _absorb(column, [new for __, new in pairs])
                if column["stale"]:
                    continue
                if column["min"] is low and column["max"] is high:
                    column["stale"] = _meets(retired, low, high)
                    continue
                for old, new in pairs:  # the extremes moved in the batch
                    if _meets((old,), low, high):
                        column["stale"] = True
                        break
                    if new is not None:
                        low, high = _extremes(low, high, [new])
        self._bump_batch(ctx, field, len(items))

    def on_delete_batch(self, ctx, handle, field, items) -> None:
        olds = list(zip(*[old for __, old in items]))
        for instance in field["instances"].values():
            self._log_old(ctx, handle, instance)
            state = instance["state"]
            state["row_count"] -= len(items)
            for index, column in state["columns"].items():
                column["nulls"] -= olds[index].count(None)
                # The sketch cannot forget; the extremes invalidate lazily.
                column["stale"] = column["stale"] or _meets(
                    olds[index], column["min"], column["max"])
        self._bump_batch(ctx, field, len(items))

    @staticmethod
    def _bump_batch(ctx, field, nrecords: int) -> None:
        ctx.stats.bump_many({
            "statistics.maintenance_batches": len(field["instances"]),
            "statistics.maintenance_ops":
                nrecords * len(field["instances"])})

    def _log_old(self, ctx, handle, instance) -> None:
        self.log_kept(ctx, handle.relation_id, instance,
                      {"old_state": _copy_state(instance["state"])})

    # -- reading ---------------------------------------------------------------
    def view(self, ctx, handle, instance) -> "TableStatistics":
        if instance["derived_lsn"] == STALE:
            self._recompute(ctx, handle, instance)
        return TableStatistics(self, ctx, handle, instance)


class TableStatistics:
    """Read view over one statistics instance, as consumed by the
    planner's cost estimators and the executor's path selection."""

    __slots__ = ("_attachment", "_ctx", "_handle", "_instance")

    def __init__(self, attachment, ctx, handle, instance):
        self._attachment = attachment
        self._ctx = ctx
        self._handle = handle
        self._instance = instance

    @property
    def row_count(self) -> Optional[int]:
        return self._instance["state"]["row_count"]

    def tracks(self, index: int) -> bool:
        return index in self._instance["state"]["columns"]

    def column(self, index: int, repair: bool = False) -> Optional[dict]:
        """The column's state dict, repairing stale extremes when the
        caller needs min/max (one scan, same lazy discipline as the
        aggregate attachment)."""
        column = self._instance["state"]["columns"].get(index)
        if column is None:
            return None
        if repair and column["stale"]:
            self._attachment._recompute(self._ctx, self._handle,
                                        self._instance)
            column = self._instance["state"]["columns"].get(index)
        return column

    def distinct(self, index: int) -> Optional[int]:
        column = self.column(index)
        if column is None:
            return None
        return _kmv_estimate(column["kmv"])

    def selectivity(self, index: int, op: str, value) -> Optional[float]:
        """Estimated fraction of rows satisfying ``column <op> value``,
        or ``None`` when these statistics cannot say (untracked column,
        unorderable range, empty relation)."""
        column = self.column(index, repair=op in ("<", "<=", ">", ">="))
        rows = self.row_count
        if column is None or not rows:
            return None
        self._ctx.stats.bump("statistics.consultations")
        nonnull = max(0, rows - column["nulls"])
        if not nonnull:
            return 0.0
        available = nonnull / rows
        if op == "=":
            distinct = _kmv_estimate(column["kmv"])
            if not distinct:
                return 0.0
            return min(1.0, available / distinct)
        if op == "!=":
            distinct = _kmv_estimate(column["kmv"])
            if not distinct:
                return 0.0
            return available * (1.0 - 1.0 / distinct)
        if op in ("<", "<=", ">", ">="):
            low, high = column["min"], column["max"]
            if low is None or high is None:
                return None
            try:
                if high == low:
                    fraction = 1.0 if (
                        (op in ("<=", ">=") and value == low)
                        or (op in ("<", "<=") and low < value)
                        or (op in (">", ">=") and low > value)) else 0.0
                elif op in ("<", "<="):
                    fraction = (value - low) / (high - low)
                else:
                    fraction = (high - value) / (high - low)
            except TypeError:
                return None  # non-numeric range (strings order, not space)
            return available * min(1.0, max(0.0, fraction))
        return None


def predicate_selectivity(table_stats: Optional[TableStatistics],
                          pred) -> Optional[float]:
    """Selectivity of one eligible predicate from the statistics, or
    ``None`` when they cannot say.

    Equality and inequality need only the distinct count, so they work
    even when the comparison value is a bound parameter; range
    interpolation needs a literal bound at planning time.
    """
    if table_stats is None or not getattr(pred, "is_simple", False):
        return None
    if pred.op in ("=", "!="):
        return table_stats.selectivity(pred.field_index, pred.op, None)
    if pred.op not in ("<", "<=", ">", ">="):
        return None
    from ..services.predicate import Const
    if not isinstance(pred.operand, Const):
        return None
    return table_stats.selectivity(pred.field_index, pred.op,
                                   pred.operand.value)


def statistics_for(ctx, handle) -> Optional[TableStatistics]:
    """The relation's statistics view, or ``None`` when no live
    statistics instance is installed."""
    database = getattr(ctx, "database", None)
    if database is None:
        return None
    try:
        attachment = database.registry.attachment_type_by_name("statistics")
    except Exception:
        return None
    field = handle.descriptor.attachment_field(attachment.type_id)
    if field is None:
        return None
    for instance in field["instances"].values():
        return attachment.view(ctx, handle, instance)
    return None
