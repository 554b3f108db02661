"""User-level relation facade.

Applications manipulate relations through :class:`Relation`, which routes
every operation through the uniform authorization facility and the
dispatch layer's direct generic operations.  The facade adds the
conveniences a library user expects (field names instead of indexes,
predicate strings, autocommit) without bypassing any architecture layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..services.predicate import Predicate
from .authorization import DELETE, INSERT, SELECT, UPDATE
from .dispatch import AccessPath

__all__ = ["Relation"]


class Relation:
    """A bound, authorized view of one relation for the current principal."""

    def __init__(self, database, name: str):
        self.database = database
        self.name = name.lower()

    @property
    def handle(self):
        return self.database.catalog.handle(self.name)

    @property
    def schema(self):
        return self.handle.schema

    # ------------------------------------------------------------------
    # Modification
    # ------------------------------------------------------------------
    def insert(self, record: Sequence):
        """Insert one record (values in schema order); returns its key."""
        db = self.database
        db.authorization.check(db.principal, self.name, INSERT)
        with db.autocommit() as ctx:
            return db.data.insert(ctx, self.handle, tuple(record))

    def insert_many(self, records: Sequence[Sequence]) -> List:
        """Insert several records as one set-at-a-time operation (one
        transaction, one operation savepoint); returns their keys."""
        db = self.database
        db.authorization.check(db.principal, self.name, INSERT)
        with db.autocommit() as ctx:
            return db.data.insert_batch(ctx, self.handle,
                                        [tuple(r) for r in records])

    def update(self, key, changes: Dict[str, object]):
        """Update named fields of the record at ``key``; returns its
        (possibly new) key."""
        db = self.database
        db.authorization.check(db.principal, self.name, UPDATE)
        handle = self.handle
        updates = handle.schema.check_partial(changes)
        with db.autocommit() as ctx:
            old = db.data.fetch(ctx, handle, key)
            if old is None:
                raise StorageError(
                    f"relation {self.name!r} has no record with key {key!r}")
            new_record = handle.schema.apply_update(old, updates)
            return db.data.update(ctx, handle, key, new_record)

    def update_many(self, items: Sequence) -> List:
        """Replace several records as one set-at-a-time operation.

        ``items`` holds ``(key, new_record)`` pairs with full records in
        schema order; returns the (possibly changed) keys in order.
        """
        db = self.database
        db.authorization.check(db.principal, self.name, UPDATE)
        with db.autocommit() as ctx:
            return db.data.update_batch(
                ctx, self.handle,
                [(key, tuple(record)) for key, record in items])

    def delete(self, key) -> None:
        db = self.database
        db.authorization.check(db.principal, self.name, DELETE)
        with db.autocommit() as ctx:
            db.data.delete(ctx, self.handle, key)

    def delete_many(self, keys: Sequence) -> None:
        """Delete the records at ``keys`` as one set-at-a-time operation."""
        db = self.database
        db.authorization.check(db.principal, self.name, DELETE)
        with db.autocommit() as ctx:
            db.data.delete_batch(ctx, self.handle, list(keys))

    def delete_where(self, where: str, params: Optional[dict] = None) -> int:
        """Delete all records matching a predicate; returns how many.

        Authorization is checked before anything is read, and the victim
        scan and the deletes run in the *same* transaction, so no other
        transaction can slip between finding a record and deleting it.
        """
        db = self.database
        db.authorization.check(db.principal, self.name, DELETE)
        handle = self.handle
        predicate = self._predicate(where, params)
        with db.autocommit() as ctx:
            # Keys only: the delete reads the records it removes.
            victims = [key for key, __
                       in self._scan_in(ctx, handle, predicate, ())]
            db.data.delete_batch(ctx, handle, victims)
        return len(victims)

    def update_where(self, where: str, changes: Dict[str, object],
                     params: Optional[dict] = None) -> int:
        """Update named fields of every record matching a predicate, as
        one set-at-a-time operation; returns how many were updated."""
        db = self.database
        db.authorization.check(db.principal, self.name, UPDATE)
        handle = self.handle
        updates = handle.schema.check_partial(changes)
        predicate = self._predicate(where, params)
        with db.autocommit() as ctx:
            items = [(key, handle.schema.apply_update(record, updates))
                     for key, record in self._scan_in(ctx, handle, predicate)]
            db.data.update_batch(ctx, handle, items)
        return len(items)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def fetch(self, key, fields: Optional[Sequence[str]] = None,
              access_path: Optional[AccessPath] = None,
              with_report: bool = False):
        """Direct-by-key access; returns the record tuple (or selected
        fields), or None.

        With ``with_report=True`` returns ``(record, report)`` where
        ``report`` is the storage method's structured read outcome (which
        shards were skipped or served stale, and the staleness bound) —
        or None for methods that always read complete and current data.
        """
        db = self.database
        db.authorization.check(db.principal, self.name, SELECT)
        handle = self.handle
        indexes = handle.schema.indexes_of(fields) if fields else None
        with db.autocommit() as ctx:
            record = db.data.fetch(ctx, handle, key, indexes,
                                   access_path=access_path)
            if with_report:
                return record, ctx.read_report
            return record

    def scan(self, where=None, fields: Optional[Sequence[str]] = None,
             params: Optional[dict] = None, with_report: bool = False):
        """Key-sequential access; returns ``[(key, values), ...]``.

        ``where`` may be a predicate string (parsed and evaluated by the
        common predicate service, inside the storage method, while records
        are still in the buffer pool) or a pre-built
        :class:`~repro.services.predicate.Predicate`.

        With ``with_report=True`` returns ``(rows, report)`` where
        ``report`` is the storage method's structured read outcome (which
        shards were skipped or served stale, and the staleness bound) —
        or None for methods that always read complete and current data.
        """
        db = self.database
        db.authorization.check(db.principal, self.name, SELECT)
        handle = self.handle
        predicate = self._predicate(where, params)
        indexes = handle.schema.indexes_of(fields) if fields else None
        with db.autocommit() as ctx:
            scan = db.data.open_scan(ctx, handle, indexes, predicate)
            report = ctx.read_report
            out = db.services.scans.drain(scan)
        if with_report:
            return out, report
        return out

    def rows(self, where=None, fields: Optional[Sequence[str]] = None,
             params: Optional[dict] = None) -> List[Tuple]:
        """Like :meth:`scan` but returns just the value tuples."""
        return [values for __, values in self.scan(where, fields, params)]

    def count(self, where=None, params: Optional[dict] = None) -> int:
        if where is None:
            db = self.database
            db.authorization.check(db.principal, self.name, SELECT)
            method = db.registry.storage_method(
                self.handle.descriptor.storage_method_id)
            with db.autocommit() as ctx:
                # The stored count is current state; a snapshot reader
                # counts what its scan sees.
                if ctx.txn.snapshot is None:
                    return method.record_count(ctx, self.handle)
        return len(self.scan(where=where, params=params))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _scan_in(self, ctx, handle, predicate, fields=None) -> List[Tuple]:
        """Collect ``(key, fields)`` pairs inside an existing transaction."""
        db = self.database
        return db.services.scans.drain(
            db.data.open_scan(ctx, handle, fields, predicate))

    def _predicate(self, where, params) -> Optional[Predicate]:
        if where is None:
            return None
        if isinstance(where, Predicate):
            return where.with_params(params) if params else where
        return Predicate.parse(where, self.schema, params)

    def __repr__(self) -> str:
        return f"Relation({self.name!r})"
