"""Uniqueness constraint attachment (a constraint *with storage*).

The paper stresses that attachments differ from plain triggers "because
they may have associated storage".  The unique constraint demonstrates
exactly that: it maintains its own page-based B-tree keyed by the
constrained columns purely to enforce uniqueness in O(log n), vetoing the
modification with :class:`~repro.errors.UniqueViolation` on duplicates.

SQL semantics: records with a NULL in any constrained column are exempt.

DDL attributes: ``columns`` (list of column names, required).
"""

from __future__ import annotations

from typing import Optional

from ..access.btree_core import BTree
from ..core.attachment import AttachmentType
from ..errors import PageError, StorageError, UniqueViolation

__all__ = ["UniqueConstraintAttachment"]


class UniqueConstraintAttachment(AttachmentType):
    """Vetoes modifications that would duplicate the constrained columns."""

    name = "unique"
    is_access_path = False
    recoverable = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        columns = attributes.pop("columns", None)
        if attributes:
            raise StorageError(
                f"unique: unknown attributes {sorted(attributes)}")
        if not columns:
            raise StorageError("unique requires a 'columns' attribute")
        for column in columns:
            if not schema.orderable(column):
                raise StorageError(
                    f"unique column {column!r} has unorderable type "
                    f"{schema.field(column).type_code}")
        return {"columns": list(columns)}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        key_fields = list(handle.schema.indexes_of(attributes["columns"]))
        instance = {"name": instance_name,
                    "columns": list(attributes["columns"]),
                    "key_fields": key_fields, "tree": {}}
        BTree.create(ctx.buffer, instance["tree"])
        self._build(ctx, handle, instance, self.stored_batches(ctx, handle))
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        tree = BTree(ctx.buffer, instance["tree"])
        try:
            tree.destroy()
        except PageError:
            pass

    def undo_logged(self, services, instance: dict, payload: dict) -> None:
        BTree(services.buffer, instance["tree"]).undo_logged(payload)

    def _build(self, ctx, handle, instance, batches) -> None:
        tree = BTree(ctx.buffer, instance["tree"])
        for batch in batches:
            entries = [(self._key_of(instance, record), record_key)
                       for record_key, record in batch]
            entries = [entry for entry in entries if entry[0] is not None]
            taken = tree.first_duplicate([key for key, __ in entries])
            if taken is not None:
                raise UniqueViolation(
                    self.name,
                    f"existing records duplicate {instance['columns']} "
                    f"= {entries[taken][0]!r}")
            tree.insert_many(entries)

    def rebuild(self, ctx, handle, field, batches) -> None:
        for instance in field["instances"].values():
            self.reset_tree(BTree, ctx.buffer, instance["tree"])
            self._build(ctx, handle, instance, batches)
        ctx.stats.bump("unique.rebuilds")

    # -- attached procedures -------------------------------------------------------------
    @staticmethod
    def _key_of(instance: dict, record) -> Optional[tuple]:
        key = tuple(record[i] for i in instance["key_fields"])
        if any(v is None for v in key):
            return None  # NULLs are exempt from uniqueness
        return key

    def on_insert(self, ctx, handle, field, key, new_record) -> None:
        self.on_insert_batch(ctx, handle, field, (key,), (new_record,))

    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        """Batch existence probes: one tree per instance, the whole set
        checked (against stored keys *and* within the batch) before any
        entry is added, and one log record per instance."""
        for instance in field["instances"].values():
            entries = []
            for index, (key, record) in enumerate(zip(keys, new_records)):
                unique_key = self._key_of(instance, record)
                if unique_key is not None:
                    entries.append((unique_key, key, index))
            if not entries:
                continue
            tree = BTree(ctx.buffer, instance["tree"])
            taken = tree.first_duplicate([entry[0] for entry in entries])
            if taken is not None:
                unique_key, __, index = entries[taken]
                raise UniqueViolation(
                    instance["name"],
                    f"duplicate value {unique_key!r} for UNIQUE "
                    f"({', '.join(instance['columns'])})",
                    batch_index=index)
            tree.insert_many((k, v) for k, v, __ in entries)
            ctx.log(self.resource, {
                "op": "add_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(k), v] for k, v, __ in entries]})
            ctx.stats.bump("unique.maintenance_ops", len(entries))

    def on_delete_batch(self, ctx, handle, field, items) -> None:
        for instance in field["instances"].values():
            entries = []
            for key, old in items:
                unique_key = self._key_of(instance, old)
                if unique_key is not None:
                    entries.append((unique_key, key))
            if not entries:
                continue
            tree = BTree(ctx.buffer, instance["tree"])
            tree.delete_many(entries)
            ctx.log(self.resource, {
                "op": "remove_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(k), v] for k, v in entries]})
            ctx.stats.bump("unique.maintenance_ops", len(entries))

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            old_unique = self._key_of(instance, old_record)
            new_unique = self._key_of(instance, new_record)
            if old_unique == new_unique and old_key == new_key:
                ctx.stats.bump("unique.update_skips")
                continue
            tree = BTree(ctx.buffer, instance["tree"])
            if new_unique is not None and new_unique != old_unique \
                    and tree.search(new_unique):
                raise UniqueViolation(
                    instance["name"],
                    f"duplicate value {new_unique!r} for UNIQUE "
                    f"({', '.join(instance['columns'])})")
            if old_unique is not None:
                tree.delete(old_unique, old_key)
                ctx.log(self.resource, {
                    "op": "remove_many", "relation_id": handle.relation_id,
                    "instance": instance["name"],
                    "entries": [[list(old_unique), old_key]]})
            if new_unique is not None:
                tree.insert(new_unique, new_key)
                ctx.log(self.resource, {
                    "op": "add_many", "relation_id": handle.relation_id,
                    "instance": instance["name"],
                    "entries": [[list(new_unique), new_key]]})
            ctx.stats.bump("unique.maintenance_ops")

    def on_delete(self, ctx, handle, field, key, old_record) -> None:
        self.on_delete_batch(ctx, handle, field, ((key, old_record),))
