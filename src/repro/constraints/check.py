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


from ..core.attachment import AttachmentType
from ..errors import CheckViolation, StorageError
from ..services import events as ev
from ..services.predicate import Predicate
from ..services.scans import SCAN_BATCH

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
        method = ctx.database.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle)
        try:
            while True:
                batch = scan.next_batch(SCAN_BATCH)
                if not batch:
                    break
                for __, record in batch:
                    self._test(instance, predicate, record)
        finally:
            scan.close()
            ctx.services.scans.unregister(scan)
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

    def _test(self, instance: dict, predicate: Predicate, record) -> None:
        from ..core.records import RecordView
        view = RecordView.from_record(record)
        result = predicate.expr.eval(view, predicate.params)
        if result is False:
            raise CheckViolation(
                instance["name"],
                f"record {record!r} violates CHECK ({instance['predicate']})")

    # -- attached procedures -------------------------------------------------------------
    def on_insert(self, ctx, handle, field, key, new_record) -> None:
        for instance in field["instances"].values():
            if instance["deferred"]:
                self._defer(ctx, handle, instance, key)
            else:
                self._test(instance, self._compiled(handle, instance),
                           new_record)
            ctx.stats.bump("check.evaluations")

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            if instance["deferred"]:
                self._defer(ctx, handle, instance, new_key)
            else:
                self._test(instance, self._compiled(handle, instance),
                           new_record)
            ctx.stats.bump("check.evaluations")

    # Deletes cannot violate an intra-record constraint.

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
            self._test(inner, self._compiled(entry.handle, inner), record)
            database.services.stats.bump("check.deferred_evaluations")

        ctx.defer(ev.BEFORE_PREPARE, recheck,
                  (handle.name, key, instance["name"]))
