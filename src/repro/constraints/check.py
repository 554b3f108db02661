"""Single-record (intra-record) integrity constraint attachment.

Figure 1's EMPLOYEE relation carries an "intra-record consistency
constraint" attachment.  The instance descriptor contains "a (common
service) encoding of the predicate to be tested when records of the
relation are inserted or updated" — here the predicate text compiled
through the common predicate evaluator.

SQL semantics: the constraint is violated only when the predicate
evaluates to FALSE; TRUE and unknown (NULL) pass.  A violation raises
:class:`~repro.errors.CheckViolation`, vetoing the relation modification
(the dispatch layer then drives the partial rollback).

A constraint may be **deferred** ("certain integrity constraints cannot be
evaluated when a single modification occurs but must be evaluated after
all of the modifications have been made in the transaction"): instead of
checking immediately, the attachment places an entry on the deferred
action queue for the "before transaction enters prepared state" event;
the queued routine re-fetches the record and tests it at commit.

DDL attributes: ``predicate`` (expression text, required),
``deferred`` (bool, default False).
"""

from __future__ import annotations


from ..core.attachment import AttachmentType, tag_batch_index
from ..core.records import RecordView
from ..errors import CheckViolation, StorageError
from ..services import events as ev
from ..services.predicate import Predicate, evaluate
from ..services.vectors import ColumnBatch

__all__ = ["CheckConstraintAttachment"]


class CheckConstraintAttachment(AttachmentType):
    """Predicate checks on insert and update, immediate or deferred."""

    name = "check"
    is_access_path = False
    recoverable = False   # pure checks: nothing to log or rebuild

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        text = attributes.pop("predicate", None)
        deferred = attributes.pop("deferred", False)
        if attributes:
            raise StorageError(
                f"check: unknown attributes {sorted(attributes)}")
        if not text or not isinstance(text, str):
            raise StorageError("check requires a 'predicate' attribute")
        Predicate.parse(text, schema)  # validate at DDL time
        return {"predicate": text, "deferred": bool(deferred)}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        instance = {"name": instance_name,
                    "predicate": attributes["predicate"],
                    "deferred": attributes["deferred"]}
        # Existing records must already satisfy an immediate constraint.
        predicate = self._compiled(handle, instance)
        for batch in self.stored_batches(ctx, handle):
            failure = self._failure(instance, predicate,
                                    [record for __, record in batch],
                                    ctx.stats)
            if failure is not None:
                raise failure[1]
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        instance.pop("_compiled", None)

    @staticmethod
    def _compiled(handle, instance: dict) -> Predicate:
        predicate = instance.get("_compiled")
        if predicate is None:
            predicate = Predicate.parse(instance["predicate"], handle.schema)
            instance["_compiled"] = predicate
        return predicate

    @staticmethod
    def _failure(instance: dict, predicate: Predicate, records, stats):
        """``(row, exception)`` of the first of ``records`` whose value is
        FALSE, or whose test raises, or ``None``.  When the batch raises,
        the rows are walked again one at a time: a FALSE row may come
        before the one that raised."""
        expr, params = predicate.expr, predicate.params
        batch = ColumnBatch.from_columns(
            {i: [record[i] for record in records]
             for i in predicate.fields_needed},
            len(records), len(predicate.schema))
        try:
            values = evaluate(expr, batch, params, stats)
        except Exception:
            values = None
        for row, record in enumerate(records):
            try:
                value = values[row] if values is not None else \
                    expr.eval(RecordView.from_record(record), params)
            except Exception as exc:
                return row, exc
            if value is False:
                return row, CheckViolation(
                    instance["name"], f"record {record!r} violates CHECK "
                    f"({instance['predicate']})")
        return None

    # -- attached procedures -------------------------------------------------------------
    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        self._check(ctx, handle, field, keys, new_records)

    def on_update_batch(self, ctx, handle, field, items) -> None:
        self._check(ctx, handle, field, [item[1] for item in items],
                    [item[3] for item in items])

    # Deletes cannot violate an intra-record constraint.

    def _check(self, ctx, handle, field, keys, records) -> None:
        """Test every immediate instance, queue a recheck per key for every
        deferred one: the first failing (row, instance) vetoes, and only
        what a walk in that order did before it is queued and counted."""
        instances = list(field["instances"].values())
        stop, failure = (len(records), 0), None
        for position, instance in enumerate(instances):
            if not instance["deferred"]:
                found = self._failure(instance,
                                      self._compiled(handle, instance),
                                      records[:stop[0]], ctx.stats)
                if found is not None:
                    stop, failure = (found[0], position), found[1]
        deferred = [(position, instance)
                    for position, instance in enumerate(instances)
                    if instance["deferred"]]
        for row, key in enumerate(keys[:stop[0] + 1] if deferred else ()):
            for position, instance in deferred:
                if (row, position) < stop:
                    self._defer(ctx, handle, instance, key)
        evaluations = stop[0] * len(instances) + stop[1]
        if evaluations:
            ctx.stats.bump("check.evaluations", evaluations)
        if failure is not None:
            tag_batch_index(failure, stop[0])
            raise failure

    def _defer(self, ctx, handle, instance, key) -> None:
        """Queue the re-check for "before transaction enters prepared
        state"; the entry carries the routine and its data, per the paper."""
        database = ctx.database

        def recheck(txn_id: int, data) -> None:
            relation_name, record_key, instance_name = data
            entry = database.catalog.entry(relation_name)
            inner_field = entry.handle.descriptor.attachment_field(
                self.type_id)
            if inner_field is None:
                return
            inner = inner_field["instances"].get(instance_name)
            if inner is None:
                return  # constraint dropped later in the transaction
            method = database.registry.storage_method(
                entry.handle.descriptor.storage_method_id)
            txn = database.services.transactions.get(txn_id)
            from ..core.context import ExecutionContext
            inner_ctx = ExecutionContext(txn, database.services, database)
            record = method.fetch(inner_ctx, entry.handle, record_key)
            if record is None:
                return  # the record was deleted again before commit
            failure = self._failure(inner, self._compiled(entry.handle, inner),
                                    [record], inner_ctx.stats)
            if failure is not None:
                raise failure[1]
            database.services.stats.bump("check.deferred_evaluations")

        ctx.defer(ev.BEFORE_PREPARE, recheck,
                  (handle.name, key, instance["name"]))
