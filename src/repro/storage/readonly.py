"""Read-only publishing storage method.

The paper motivates "special facilities to support (read-only) optical
disk database publishing applications".  This storage method models a
write-once medium as the heap with one declared difference — it is
written once and never logged:

* a relation is *published* exactly once with :meth:`publish` (a bulk
  load that packs records onto heap pages and flushes them to the device
  — the mastering step);
* afterwards the relation is immutable: the method reports
  ``updatable = False`` and the dispatch layer rejects modification
  operations before they reach the storage method;
* nothing is ever logged — there is nothing to recover, the "platter"
  is stable storage by construction.

Everything else is the heap's: record keys are ``(page_id, slot)``
addresses, a scan returns records in publication order, and reads lock
records as the heap's do (no writer ever waits for them).

DDL attributes: ``records_hint`` (int, advisory expected cardinality).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.records import encode_record
from ..core.storage_method import RelationHandle
from ..errors import PageError, ReadOnlyError, StorageError
from ..services.locks import LockMode
from .heap import PAGE_TYPE_HEAP, HeapStorageMethod

__all__ = ["ReadOnlyStorageMethod"]


class ReadOnlyStorageMethod(HeapStorageMethod):
    """Write-once, read-many relation storage: the heap, never logged."""

    name = "readonly"
    updatable = False

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        hint = attributes.pop("records_hint", 0)
        if attributes:
            raise StorageError(
                f"readonly storage: unknown attributes {sorted(attributes)}")
        if not isinstance(hint, int) or hint < 0:
            raise StorageError(
                f"readonly storage: records_hint must be a non-negative int, "
                f"got {hint!r}")
        return {"records_hint": hint}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        instance = super().create_instance(ctx, relation_id, schema,
                                           attributes)
        instance["published"] = False
        return instance

    # -- publishing (the mastering step) ---------------------------------------------
    def publish(self, ctx: ExecutionContext, handle: RelationHandle,
                records: Sequence[Tuple]) -> int:
        """Bulk-load the relation once; returns the record count.

        Every record is checked and encoded before a page is allocated;
        pages are then packed full and written straight through to the
        device — the published relation is durable immediately and no log
        records are ever needed for it.  A publish that fails part-way
        gives back every page it took and leaves the relation unpublished.
        """
        descriptor = handle.descriptor.storage_descriptor
        if descriptor["published"]:
            raise ReadOnlyError(
                f"relation {handle.name!r} has already been published")
        ctx.lock_relation(handle.relation_id, LockMode.X)
        schema, buffer = handle.schema, ctx.buffer
        raws = [encode_record(schema, schema.check_record(record))
                for record in records]
        pages, placed = [], 0
        try:
            while placed < len(raws):
                page = buffer.new_page(PAGE_TYPE_HEAP)
                pages.append(page.page_id)
                try:
                    slots = page.insert_many(raws[placed:])
                finally:
                    buffer.unpin(page.page_id, dirty=True)
                if not slots:
                    raise PageError(f"record of {len(raws[placed])} bytes "
                                    f"exceeds page capacity")
                placed += len(slots)
                buffer.flush_page(page.page_id)
        except BaseException:
            for page_id in pages:
                buffer.free_page(page_id)
            raise
        descriptor["pages"] += pages
        descriptor["ntuples"] = len(raws)
        descriptor["published"] = True
        ctx.stats.bump("readonly.publications")
        return len(raws)

    # -- modification: refused ---------------------------------------------------------
    # The dispatch layer already blocks non-updatable methods; direct callers
    # get the same error, even for an empty batch (the single-record
    # operations are the heap's batches of one).
    def insert_batch(self, ctx, handle, records):
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    def update_batch(self, ctx, handle, items):
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    def delete_batch(self, ctx, handle, items) -> None:
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")
