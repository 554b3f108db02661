"""Data definition with extension-specific attribute lists.

The paper: "the data definition language of the DBMS has been extended to
allow specification of a storage method or attachment type and an
attribute / value list for extension-specific parameters.  Storage method
and attachment implementations supply generic operations to validate and
process the attribute lists during parsing and execution of the data
definition operations."

Two further protocol points from the paper are implemented here:

* **Deferred destroy** — "In order to make storage method and attachment
  drop (destroy) operations undoable without logging the entire state of
  the relation or access path, the actual release of the relation or
  access path state is deferred until the transaction commits."  DROP
  removes the catalog entry immediately (so the object disappears from the
  transaction's view) but queues the storage release on the at-commit
  deferred-action queue; the logical undo record restores the catalog
  entry if the transaction aborts.
* **Plan invalidation** — creating or dropping relations and attachments
  invalidates dependent bound plans through the dependency tracker.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import DuplicateObjectError, StorageError
from ..services import events as ev
from ..services.recovery import ResourceHandler
from .attachment import instances_of
from .authorization import CONTROL
from .catalog import CatalogEntry
from .context import ExecutionContext
from .descriptor import RelationDescriptor
from .dependency import attachment_token, relation_token
from .storage_method import RelationHandle

__all__ = ["DataDefinition", "DDL_RESOURCE"]

DDL_RESOURCE = "ddl"


class _DdlHandler(ResourceHandler):
    """Logical undo for catalog changes; redo is a no-op because the
    catalog resides in non-volatile system storage (DESIGN.md)."""

    def __init__(self, database):
        self.database = database

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        action = payload["action"]
        db = self.database
        if action == "create_relation":
            # Undo create: destroy the just-created storage immediately and
            # remove the catalog entry.
            entry = db.catalog.entry(payload["name"])
            method = db.registry.storage_method(
                entry.handle.descriptor.storage_method_id)
            ctx = ExecutionContext(_RecoveryTxn(payload["txn_id"]),
                                   services, db)
            method.destroy_instance(ctx,
                                    entry.handle.descriptor.storage_descriptor)
            db.catalog.remove(payload["name"])
            db.authorization.forget_relation(payload["name"])
            db.dependencies.invalidate(relation_token(payload["name"]))
        elif action == "drop_relation":
            # Idempotent: restart's before_redo may have provisionally
            # reinstalled the entry so page redo could find it.
            if not db.catalog.exists(payload["entry"].handle.name):
                db.catalog.reinstall(payload["entry"])
        elif action == "create_attachment":
            entry = db.catalog.entry(payload["relation"])
            attachment = db.registry.attachment_type_by_name(payload["type"])
            field = entry.handle.descriptor.attachment_field(attachment.type_id)
            if field is not None:
                instance = field["instances"].pop(payload["instance"], None)
                if instance is not None:
                    ctx = ExecutionContext(_RecoveryTxn(payload["txn_id"]),
                                           services, db)
                    attachment.destroy_instance(ctx, entry.handle,
                                                payload["instance"], instance)
                if not field["instances"]:
                    entry.handle.descriptor.set_attachment_field(
                        attachment.type_id, None)
            if db.catalog.attachment_exists(payload["instance"]):
                db.catalog.unregister_attachment(payload["instance"])
            db.dependencies.invalidate(relation_token(payload["relation"]))
        elif action == "drop_attachment":
            entry = db.catalog.entry(payload["relation"])
            attachment = db.registry.attachment_type_by_name(payload["type"])
            field = entry.handle.descriptor.attachment_field(attachment.type_id)
            if field is None:
                field = attachment.new_field_descriptor()
                entry.handle.descriptor.set_attachment_field(
                    attachment.type_id, field)
            field["instances"][payload["instance"]] = payload["instance_data"]
            db.catalog.register_attachment(payload["relation"],
                                           payload["instance"],
                                           payload["type"])
            db.dependencies.invalidate(relation_token(payload["relation"]))
        else:
            raise StorageError(f"ddl cannot undo action {action!r}")

    def redo(self, services, lsn: int, payload: dict) -> None:
        """Catalog state is non-volatile; nothing to redo."""

    def before_redo(self, services, record) -> None:
        """A loser DROP hid the relation's catalog entry before the
        crash; put it back so page-based redo of the relation's data can
        resolve the descriptor.  Undo later reinstalls idempotently."""
        payload = record.payload
        if payload.get("action") == "drop_relation":
            entry = payload["entry"]
            if not self.database.catalog.exists(entry.handle.name):
                self.database.catalog.reinstall(entry)


class _RecoveryTxn:
    """Minimal transaction stand-in for undo-time extension calls."""

    __slots__ = ("txn_id",)

    def __init__(self, txn_id: int):
        self.txn_id = txn_id


class DataDefinition:
    """Executes DDL through the generic creation/destroy operations."""

    def __init__(self, database):
        self.database = database
        database.services.recovery.register_handler(
            DDL_RESOURCE, _DdlHandler(database))

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def create_relation(self, ctx: ExecutionContext, name: str, schema,
                        storage_method: str = "heap",
                        attributes: Optional[Dict[str, object]] = None,
                        owner: Optional[str] = None) -> RelationHandle:
        db = self.database
        name = name.lower()
        if db.catalog.exists(name):
            raise DuplicateObjectError(f"relation {name!r} already exists")
        method = db.registry.storage_method_by_name(storage_method)
        validated = method.validate_attributes(schema, attributes or {})
        relation_id = db.catalog.allocate_relation_id()
        storage_descriptor = method.create_instance(
            ctx, relation_id, schema, validated)
        descriptor = RelationDescriptor(method.method_id, storage_descriptor)
        handle = RelationHandle(relation_id, name, schema, descriptor)
        entry = CatalogEntry(handle, owner or db.principal, method.name)
        db.catalog.install(entry)
        db.authorization.set_owner(name, entry.owner)
        ctx.log(DDL_RESOURCE, {"action": "create_relation", "name": name,
                               "txn_id": ctx.txn_id})
        ctx.stats.bump("ddl.create_relation")
        return handle

    def drop_relation(self, ctx: ExecutionContext, name: str) -> None:
        db = self.database
        name = name.lower()
        entry = db.catalog.entry(name)
        db.authorization.check(db.principal, name, CONTROL)
        db.catalog.remove(name)
        ctx.log(DDL_RESOURCE, {"action": "drop_relation", "name": name,
                               "entry": entry, "txn_id": ctx.txn_id})
        # The actual release of relation and attachment state is deferred
        # until commit, keeping DROP undoable without logging the state.
        ctx.defer(ev.AT_COMMIT, self._release_relation, entry)
        db.dependencies.invalidate(relation_token(name))
        for instance_name in entry.attachments:
            db.dependencies.invalidate(attachment_token(instance_name))
        ctx.stats.bump("ddl.drop_relation")

    def _release_relation(self, txn_id: int, entry: CatalogEntry) -> None:
        db = self.database
        services = db.services
        ctx = ExecutionContext(_RecoveryTxn(txn_id), services, db)
        descriptor = entry.handle.descriptor
        for type_id, field in descriptor.present_attachments():
            attachment = db.registry.attachment_type(type_id)
            instances = dict(instances_of(field))
            instances.update(field.get("disabled", {}))
            instances.update(field.get("quarantined", {}))
            for instance_name, instance in instances.items():
                attachment.destroy_instance(ctx, entry.handle, instance_name,
                                            instance)
        method = db.registry.storage_method(descriptor.storage_method_id)
        method.destroy_instance(ctx, descriptor.storage_descriptor)
        db.authorization.forget_relation(entry.handle.name)
        services.stats.bump("ddl.deferred_releases")

    # ------------------------------------------------------------------
    # Attachments
    # ------------------------------------------------------------------
    def create_attachment(self, ctx: ExecutionContext, relation: str,
                          type_name: str, instance_name: str,
                          attributes: Optional[Dict[str, object]] = None
                          ) -> dict:
        db = self.database
        relation = relation.lower()
        instance_name = instance_name.lower()
        entry = db.catalog.entry(relation)
        db.authorization.check(db.principal, relation, CONTROL)
        if db.catalog.attachment_exists(instance_name):
            raise DuplicateObjectError(
                f"attachment instance {instance_name!r} already exists")
        attachment = db.registry.attachment_type_by_name(type_name)
        handle = entry.handle
        validated = attachment.validate_attributes(handle.schema,
                                                   attributes or {})
        field = handle.descriptor.attachment_field(attachment.type_id)
        installed_field = field is not None
        if field is None:
            field = attachment.new_field_descriptor()
            handle.descriptor.set_attachment_field(attachment.type_id, field)
        try:
            instance = attachment.create_instance(ctx, handle, instance_name,
                                                  validated)
        except Exception:
            if not installed_field:
                handle.descriptor.set_attachment_field(attachment.type_id, None)
            raise
        field["instances"][instance_name] = instance
        db.catalog.register_attachment(relation, instance_name,
                                       attachment.name)
        ctx.log(DDL_RESOURCE, {"action": "create_attachment",
                               "relation": relation, "type": attachment.name,
                               "instance": instance_name,
                               "txn_id": ctx.txn_id})
        db.dependencies.invalidate(relation_token(relation))
        ctx.stats.bump("ddl.create_attachment")
        return instance

    def drop_attachment(self, ctx: ExecutionContext, instance_name: str) -> None:
        db = self.database
        instance_name = instance_name.lower()
        relation = db.catalog.find_attachment(instance_name)
        db.authorization.check(db.principal, relation, CONTROL)
        entry = db.catalog.entry(relation)
        __, type_name = db.catalog.unregister_attachment(instance_name)
        attachment = db.registry.attachment_type_by_name(type_name)
        handle = entry.handle
        field = handle.descriptor.attachment_field(attachment.type_id)
        # A disabled or quarantined instance can be dropped directly.
        disabled = field.get("disabled", {})
        if instance_name in disabled:
            field["instances"][instance_name] = disabled.pop(instance_name)
        quarantined = field.get("quarantined", {})
        if instance_name in quarantined:
            field["instances"][instance_name] = quarantined.pop(instance_name)
        instance = field["instances"].pop(instance_name)
        if not field["instances"] and not field.get("disabled") \
                and not field.get("quarantined"):
            # Field N becomes NULL again when the last instance goes.
            handle.descriptor.set_attachment_field(attachment.type_id, None)
        ctx.log(DDL_RESOURCE, {"action": "drop_attachment",
                               "relation": relation, "type": type_name,
                               "instance": instance_name,
                               "instance_data": instance,
                               "txn_id": ctx.txn_id})
        ctx.defer(ev.AT_COMMIT, self._release_attachment,
                  (handle, type_name, instance_name, instance))
        db.dependencies.invalidate(attachment_token(instance_name))
        db.dependencies.invalidate(relation_token(relation))
        ctx.stats.bump("ddl.drop_attachment")

    # ------------------------------------------------------------------
    # Status changes ("change mode or status of ... attachment instances")
    # ------------------------------------------------------------------
    def set_attachment_status(self, ctx: ExecutionContext,
                              instance_name: str, enabled: bool) -> None:
        """Disable or re-enable an attachment instance.

        A disabled instance is moved out of the active instance set, so it
        is neither maintained by attached procedures nor considered by the
        planner.  Re-enabling an access-path instance rebuilds its
        structure from the base relation (the data may have drifted while
        it was disabled); constraint instances without a rebuild operation
        resume enforcement for *future* modifications only.
        """
        db = self.database
        instance_name = instance_name.lower()
        relation = db.catalog.find_attachment(instance_name)
        db.authorization.check(db.principal, relation, CONTROL)
        entry = db.catalog.entry(relation)
        type_name = entry.attachments[instance_name]
        attachment = db.registry.attachment_type_by_name(type_name)
        handle = entry.handle
        field = handle.descriptor.attachment_field(attachment.type_id)
        disabled = field.setdefault("disabled", {})
        if enabled:
            if instance_name not in disabled:
                return  # already enabled
            field["instances"][instance_name] = disabled.pop(instance_name)
            rebuild = getattr(attachment, "rebuild", None)
            if rebuild is not None:
                rebuild(ctx, handle, field,
                        list(attachment.stored_batches(ctx, handle)))
        else:
            if instance_name not in field["instances"]:
                return  # already disabled
            disabled[instance_name] = field["instances"].pop(instance_name)
        handle.descriptor.version += 1
        db.dependencies.invalidate(relation_token(relation))
        db.dependencies.invalidate(attachment_token(instance_name))
        ctx.stats.bump("ddl.status_changes")

    def rebuild_attachment(self, ctx: ExecutionContext,
                           instance_name: str) -> None:
        """Bring a quarantined attachment instance back into service.

        The instance's structure is rebuilt from the base relation (the
        data drifted while it was offline — quarantined instances are
        excluded from modification fan-out), the offense count against its
        type on this relation is forgiven, and dependent plans are
        invalidated so the planner sees the restored access path.  Also
        accepts an in-service instance, in which case it is simply rebuilt
        (media recovery for a damaged index).
        """
        db = self.database
        instance_name = instance_name.lower()
        relation = db.catalog.find_attachment(instance_name)
        db.authorization.check(db.principal, relation, CONTROL)
        entry = db.catalog.entry(relation)
        type_name = entry.attachments[instance_name]
        attachment = db.registry.attachment_type_by_name(type_name)
        handle = entry.handle
        field = handle.descriptor.attachment_field(attachment.type_id)
        quarantined = field.get("quarantined", {})
        if instance_name in quarantined:
            field["instances"][instance_name] = quarantined.pop(instance_name)
        rebuild = getattr(attachment, "rebuild", None)
        if rebuild is not None:
            rebuild(ctx, handle, field,
                    list(attachment.stored_batches(ctx, handle)))
        db.data.forgive(handle.relation_id, attachment.type_id)
        handle.descriptor.version += 1
        db.dependencies.invalidate(relation_token(relation))
        db.dependencies.invalidate(attachment_token(instance_name))
        ctx.stats.bump("containment.quarantine.rebuilds")

    def _release_attachment(self, txn_id: int, data) -> None:
        handle, type_name, instance_name, instance = data
        db = self.database
        attachment = db.registry.attachment_type_by_name(type_name)
        ctx = ExecutionContext(_RecoveryTxn(txn_id), db.services, db)
        attachment.destroy_instance(ctx, handle, instance_name, instance)
        db.services.stats.bump("ddl.deferred_releases")
