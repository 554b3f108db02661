"""Referential integrity attachment.

The paper's example of cascaded modifications through attached procedures:

  "the referential integrity attachment to a 'parent' relation would
  perform record delete operations on the 'child' relation when a
  'parent' record is deleted.  If the 'child' relation also has a
  referential integrity attachment, it would perform record delete
  operations on its 'child' relation.  Thus, cascaded deletes can be
  supported.  On insert, the same attachment type on the 'child' relation
  would test the 'parent' relation for a record with matching referential
  integrity fields."

The instance is created on the **child** relation; creation installs a
mirror instance on the parent's descriptor (the paper's "embedded
references to descriptors for other relations"), so parent-side deletes
and key updates drive the child-side actions:

* child insert / foreign-key update → parent-existence check (veto with
  :class:`~repro.errors.ReferentialViolation` when missing, or deferred to
  commit when the constraint is deferred);
* parent delete → ``restrict`` vetoes while matching children exist;
  ``cascade`` deletes the children *through the full dispatch layer*, so
  grand-child constraints fire recursively and everything is undone
  together if anything vetoes;
* parent key update → restrict while matching children exist.

DDL attributes: ``parent`` (relation name), ``columns`` (child FK
columns), ``parent_columns`` (referenced columns), ``on_delete``
("restrict" | "cascade", default restrict), ``deferred`` (bool).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional

from ..core.attachment import AttachmentType, matching_keys
from ..errors import ReferentialViolation, StorageError
from ..services import events as ev

__all__ = ["ReferentialIntegrityAttachment"]

_ACTIONS = ("restrict", "cascade")


class ReferentialIntegrityAttachment(AttachmentType):
    """Parent/child consistency with restrict or cascade delete rules."""

    name = "referential"
    is_access_path = False
    recoverable = False   # no own storage; cascades log via their own ops

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        parent = attributes.pop("parent", None)
        columns = attributes.pop("columns", None)
        parent_columns = attributes.pop("parent_columns", None)
        on_delete = attributes.pop("on_delete", "restrict")
        deferred = attributes.pop("deferred", False)
        if attributes:
            raise StorageError(
                f"referential: unknown attributes {sorted(attributes)}")
        if not parent or not columns or not parent_columns:
            raise StorageError(
                "referential requires 'parent', 'columns', and "
                "'parent_columns' attributes")
        if len(columns) != len(parent_columns):
            raise StorageError(
                "referential: 'columns' and 'parent_columns' must have the "
                "same length")
        for column in columns:
            schema.field(column)
        if on_delete not in _ACTIONS:
            raise StorageError(
                f"referential: on_delete must be one of {_ACTIONS}, got "
                f"{on_delete!r}")
        return {"parent": parent.lower(), "columns": list(columns),
                "parent_columns": list(parent_columns),
                "on_delete": on_delete, "deferred": bool(deferred)}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        database = ctx.database
        parent_handle = database.catalog.handle(attributes["parent"])
        for column in attributes["parent_columns"]:
            parent_handle.schema.field(column)
        instance = {
            "name": instance_name, "role": "child",
            "child": handle.name, "parent": parent_handle.name,
            "columns": list(attributes["columns"]),
            "parent_columns": list(attributes["parent_columns"]),
            "child_fields": list(handle.schema.indexes_of(
                attributes["columns"])),
            "parent_fields": list(parent_handle.schema.indexes_of(
                attributes["parent_columns"])),
            "on_delete": attributes["on_delete"],
            "deferred": attributes["deferred"],
        }
        # Existing children must already satisfy the constraint.
        for __, record in chain.from_iterable(
                self.stored_batches(ctx, handle)):
            values = self._values(record, instance["child_fields"])
            if values is not None and not self._parent_exists(
                    ctx, instance, values):
                raise ReferentialViolation(
                    instance_name,
                    f"existing record references missing parent {values!r}")
        mirror = dict(instance, role="parent",
                      name=instance_name + "@parent")
        parent_field = parent_handle.descriptor.attachment_field(self.type_id)
        if parent_field is None:
            parent_field = self.new_field_descriptor()
            parent_handle.descriptor.set_attachment_field(self.type_id,
                                                          parent_field)
        parent_field["instances"][mirror["name"]] = mirror
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        if instance["role"] != "child":
            return
        database = ctx.database
        try:
            parent_handle = database.catalog.handle(instance["parent"])
        except Exception:
            return
        parent_field = parent_handle.descriptor.attachment_field(self.type_id)
        if parent_field is not None:
            parent_field["instances"].pop(instance["name"] + "@parent", None)
            if not parent_field["instances"]:
                parent_handle.descriptor.set_attachment_field(self.type_id,
                                                              None)

    # -- attached procedures -------------------------------------------------------------
    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            if instance["role"] == "child":
                old_values = self._values(old_record,
                                          instance["child_fields"])
                new_values = self._values(new_record,
                                          instance["child_fields"])
                if old_values != new_values:
                    self._check_child(ctx, instance, new_record)
                    ctx.stats.bump("referential.child_checks")
            else:
                old_values = self._values(old_record,
                                          instance["parent_fields"])
                new_values = self._values(new_record,
                                          instance["parent_fields"])
                if old_values != new_values and old_values is not None:
                    children = self._matching_children(ctx, instance,
                                                       old_values)
                    if children:
                        raise ReferentialViolation(
                            instance["name"],
                            f"cannot change referenced key {old_values!r}: "
                            f"{len(children)} child record(s) reference it")
                ctx.stats.bump("referential.parent_checks")

    # -- set-at-a-time attached procedures ---------------------------------------
    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        """One parent-existence probe per *distinct* foreign-key value and,
        for deferred constraints, one deferred-queue entry carrying the
        whole distinct value set (not one entry per record)."""
        for instance in field["instances"].values():
            if instance["role"] != "child":
                continue
            # value -> first batch index carrying it (for veto reporting)
            distinct = {}
            for index, record in enumerate(new_records):
                values = self._values(record, instance["child_fields"])
                if values is not None and values not in distinct:
                    distinct[values] = index
            if instance["deferred"]:
                if distinct:
                    self._defer_check(ctx, instance, list(distinct))
            else:
                for values, index in distinct.items():
                    if not self._parent_exists(ctx, instance, values):
                        raise ReferentialViolation(
                            instance["name"],
                            f"no parent record in {instance['parent']!r} "
                            f"with "
                            f"{list(zip(instance['parent_columns'], values))}",
                            batch_index=index)
            ctx.stats.bump("referential.child_checks", len(new_records))

    def on_delete_batch(self, ctx, handle, field, items) -> None:
        """Restrict vetoes on the first referenced value; cascade collects
        every matching child and deletes them in one batch operation
        through the dispatch layer, so their own attachments (including
        further referential instances) fire — "modifications may cascade
        in the database"."""
        for instance in field["instances"].values():
            if instance["role"] != "parent":
                continue
            # value -> first batch index carrying it (for veto reporting)
            distinct = {}
            for index, (__, old) in enumerate(items):
                values = self._values(old, instance["parent_fields"])
                if values is not None and values not in distinct:
                    distinct[values] = index
            all_children: list = []
            for values, index in distinct.items():
                children = self._matching_children(ctx, instance, values)
                if not children:
                    continue
                if instance["on_delete"] == "restrict":
                    raise ReferentialViolation(
                        instance["name"],
                        f"cannot delete parent {values!r}: {len(children)} "
                        f"child record(s) reference it",
                        batch_index=index)
                all_children.extend(children)
            if all_children:
                database = ctx.database
                child_handle = database.catalog.handle(instance["child"])
                database.data.delete_batch(ctx, child_handle,
                                           list(dict.fromkeys(all_children)))
                ctx.stats.bump("referential.cascaded_deletes",
                               len(all_children))

    # -- checking helpers ---------------------------------------------------------------
    @staticmethod
    def _values(record, fields: List[int]) -> Optional[tuple]:
        values = tuple(record[i] for i in fields)
        if any(v is None for v in values):
            return None  # NULL FK values are exempt (SQL MATCH SIMPLE)
        return values

    def _check_child(self, ctx, instance: dict, record) -> None:
        values = self._values(record, instance["child_fields"])
        if values is None:
            return
        if instance["deferred"]:
            self._defer_check(ctx, instance, [values])
            return
        if not self._parent_exists(ctx, instance, values):
            raise ReferentialViolation(
                instance["name"],
                f"no parent record in {instance['parent']!r} with "
                f"{list(zip(instance['parent_columns'], values))}")

    def _defer_check(self, ctx, instance: dict, values_list: list) -> None:
        """Queue the parent-existence test for just before prepare: one
        deferred-queue entry testing a whole set of FK values."""
        database = ctx.database
        instance_name = instance["name"]
        child_name = instance["child"]

        def recheck(txn_id: int, data) -> None:
            entry = database.catalog.entry(child_name)
            inner_field = entry.handle.descriptor.attachment_field(
                self.type_id)
            if inner_field is None:
                return
            inner = inner_field["instances"].get(instance_name)
            if inner is None:
                return
            txn = database.services.transactions.get(txn_id)
            from ..core.context import ExecutionContext
            inner_ctx = ExecutionContext(txn, database.services, database)
            for values in data:
                if not self._parent_exists(inner_ctx, inner, values):
                    raise ReferentialViolation(
                        instance_name,
                        f"deferred check failed: no parent record in "
                        f"{inner['parent']!r} with "
                        f"{list(zip(inner['parent_columns'], values))}")
                database.services.stats.bump("referential.deferred_checks")

        ctx.defer(ev.BEFORE_PREPARE, recheck, values_list)

    def _parent_exists(self, ctx, instance: dict, values: tuple) -> bool:
        """Test the parent relation, by its equality probe when it has one
        (a scan stops at the first match)."""
        parent_handle = ctx.database.catalog.handle(instance["parent"])
        return next(matching_keys(ctx, parent_handle,
                                  instance["parent_fields"], values),
                    None) is not None

    def _matching_children(self, ctx, instance: dict, values: tuple) -> List:
        child_handle = ctx.database.catalog.handle(instance["child"])
        return list(matching_keys(ctx, child_handle, instance["child_fields"],
                                  values))
