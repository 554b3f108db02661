"""Read-only publishing storage method.

The paper motivates "special facilities to support (read-only) optical
disk database publishing applications".  This storage method models a
write-once medium:

* a relation is *published* exactly once with :meth:`publish` (a bulk
  load that packs records onto pages and flushes them to the device — the
  mastering step);
* afterwards the relation is immutable: the method reports
  ``updatable = False`` and the dispatch layer rejects modification
  operations before they reach the storage method;
* nothing is ever logged — there is nothing to recover, the "platter"
  is stable storage by construction;
* record keys are ordinals (position on the platter), so direct-by-key
  access costs one page read via the pre-computed address directory.

DDL attributes: ``records_hint`` (int, advisory expected cardinality).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.records import decode_record, encode_record
from ..core.storage_method import RelationHandle, StorageMethod
from ..errors import ReadOnlyError, ScanError, StorageError
from ..services.locks import LockMode
from ..services.predicate import Predicate
from ..services.scans import AFTER, BEFORE, ON, Scan, ScanPosition
from ..services.vectors import ColumnBatch
from .heap import PageImage, PageLeaf

__all__ = ["ReadOnlyStorageMethod", "ReadOnlyScan"]

PAGE_TYPE_READONLY = 3


class ReadOnlyScan(Scan):
    """Sequential scan in ordinal order over the published records."""

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 fields: Optional[Sequence[int]],
                 predicate: Optional[Predicate]):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.fields = tuple(fields) if fields is not None else None
        self.predicate = predicate
        self.state = BEFORE
        self.position: Optional[int] = None  # last ordinal returned

    #: Pages prefetched ahead of the one being extracted during a batch.
    _PREFETCH_PAGES = 4

    def next_batch(self, n: int) -> ColumnBatch:
        """Extract up to ``n`` records with one pin per platter page —
        ordinals are packed page by page, so each page yields a run, read
        by the heap's page leaf."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        descriptor = self.handle.descriptor.storage_descriptor
        addresses = descriptor["addresses"]
        pages = descriptor["pages"]
        ordinal = 0 if self.position is None else self.position + 1
        buffer, stats = self.ctx.buffer, self.ctx.stats
        leaf = PageLeaf(self.handle.schema, self.fields, self.predicate, stats)
        if ordinal < len(addresses):
            # Runs are packed onto the pages in page-list order.
            page_index = pages.index(addresses[ordinal][0])
        while ordinal < len(addresses) and len(leaf.keys) < n:
            page_id, end = pages[page_index], ordinal + 1
            while end < len(addresses) and addresses[end][0] == page_id:
                end += 1
            page_index += 1
            buffer.prefetch(pages[page_index:
                                  page_index + self._PREFETCH_PAGES])
            data, image = buffer.fetch_image(page_id, PageImage)
            try:
                room = n - len(leaf.keys)
                chosen = leaf.read(data, image, [
                    slot for __, slot in addresses[ordinal:end]], room)
            finally:
                buffer.unpin(page_id)
            self.state = ON
            leaf.keys += [ordinal + i for i in chosen]
            if len(chosen) == room:
                self.position = ordinal + chosen[-1]
                stats.bump("readonly.tuples_scanned", chosen[-1] + 1)
                break
            self.position = end - 1
            stats.bump("readonly.tuples_scanned", end - ordinal)
            ordinal = end
        if not leaf.keys:
            self.state = AFTER
        return leaf.batch()

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, saved: ScanPosition) -> None:
        self.state = saved.state
        self.position = saved.item


class ReadOnlyStorageMethod(StorageMethod):
    """Write-once, read-many relation storage."""

    name = "readonly"
    recoverable = True   # survives restart (the platter is stable storage)
    updatable = False
    ordered_by_key = True  # ordinal order is the publication order

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
        return {"relation_id": relation_id, "pages": [], "addresses": [],
                "published": False, "attributes": dict(attributes)}

    def destroy_instance(self, ctx, descriptor) -> None:
        for page_id in descriptor["pages"]:
            ctx.buffer.free_page(page_id)
        descriptor["pages"] = []
        descriptor["addresses"] = []

    # -- publishing (the mastering step) ---------------------------------------------
    def publish(self, ctx: ExecutionContext, handle: RelationHandle,
                records: Sequence[Tuple]) -> int:
        """Bulk-load the relation once; returns the record count.

        Pages are packed full and written straight through to the device —
        the published relation is durable immediately and no log records
        are ever needed for it.
        """
        descriptor = handle.descriptor.storage_descriptor
        if descriptor["published"]:
            raise ReadOnlyError(
                f"relation {handle.name!r} has already been published")
        ctx.lock_relation(handle.relation_id, LockMode.X)
        buffer = ctx.buffer
        page = None
        page_id = None
        for record in records:
            record = handle.schema.check_record(record)
            raw = encode_record(handle.schema, record)
            if page is None or not page.fits(len(raw)):
                if page is not None:
                    buffer.unpin(page_id, dirty=True)
                    buffer.flush_page(page_id)
                page = buffer.new_page(PAGE_TYPE_READONLY)
                page_id = page.page_id
                descriptor["pages"].append(page_id)
            slot = page.insert(raw)
            descriptor["addresses"].append((page_id, slot))
        if page is not None:
            buffer.unpin(page_id, dirty=True)
            buffer.flush_page(page_id)
        descriptor["published"] = True
        ctx.stats.bump("readonly.publications")
        return len(descriptor["addresses"])

    # -- modification: rejected -------------------------------------------------------
    def insert(self, ctx, handle, record):
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    def update(self, ctx, handle, key, old_record, new_record):
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    def delete(self, ctx, handle, key, old_record) -> None:
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    # Batch modification is refused explicitly too (the dispatch layer
    # already blocks non-updatable methods, but direct callers get the
    # same error either way, even for an empty batch).
    def insert_batch(self, ctx, handle, records):
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    def update_batch(self, ctx, handle, items):
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    def delete_batch(self, ctx, handle, items) -> None:
        raise ReadOnlyError(f"relation {handle.name!r} is read-only")

    # -- access -------------------------------------------------------------------------
    def fetch(self, ctx, handle, key, fields=None, predicate=None):
        descriptor = handle.descriptor.storage_descriptor
        addresses = descriptor["addresses"]
        if not isinstance(key, int) or not 0 <= key < len(addresses):
            return None
        page_id, slot = addresses[key]
        page = ctx.buffer.fetch(page_id)
        try:
            record = decode_record(handle.schema, page.read(slot))
        finally:
            ctx.buffer.unpin(page_id)
        ctx.stats.bump("readonly.fetches")
        if predicate is not None and not predicate.matches(record):
            return None
        if fields is None:
            return record
        return tuple(record[i] for i in fields)

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Group the requested ordinals by platter page, one pin each."""
        descriptor = handle.descriptor.storage_descriptor
        addresses = descriptor["addresses"]
        by_page = {}
        for key in keys:
            if not isinstance(key, int) or not 0 <= key < len(addresses):
                continue
            page_id, slot = addresses[key]
            by_page.setdefault(page_id, []).append((key, slot))
        found = {}
        for page_id, entries in by_page.items():
            page = ctx.buffer.fetch(page_id)
            try:
                for key, slot in entries:
                    record = decode_record(handle.schema, page.read(slot))
                    if predicate is not None and not predicate.matches(record):
                        continue
                    if fields is None:
                        found[key] = record
                    else:
                        found[key] = tuple(record[i] for i in fields)
            finally:
                ctx.buffer.unpin(page_id)
        ctx.stats.bump("readonly.fetches", len(found))
        return [(key, found[key]) for key in keys if key in found]

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        scan = ReadOnlyScan(ctx, handle, fields, predicate)
        ctx.services.scans.register(scan)
        return scan

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        return len(handle.descriptor.storage_descriptor["addresses"])

    def page_count(self, ctx, handle) -> int:
        return len(handle.descriptor.storage_descriptor["pages"])
