"""B-tree-organised relation storage.

The paper's second storage-method example: "the records of the relation
... may be stored in the leaves of a B-tree index".  Record keys here are
"composed from some subset of the fields of the records" — the DDL
attribute list names the key columns, and the storage method enforces that
key values are non-null and unique (the key must identify the record).

Implementation: record bytes live in slotted pages exactly like the heap;
the B-tree ordering layer is an ordered directory (key tuple → page, slot)
kept in the storage descriptor, which resides in non-volatile catalog
storage (see DESIGN.md).  This preserves every architecturally relevant
behaviour — field-composed keys, key-ordered key-sequential access,
cheap direct-by-key access, key changes on update — while reusing the
heap's page-level crash recovery: page operations are logged and
LSN-stamped, and the directory is maintained by the undo path (it survives
crashes with the catalog, so redo leaves it alone).

DDL attributes: ``key`` (list of column names, required), ``fill_hint``.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.records import decode_record, encode_record
from ..core.storage_method import RelationHandle, StorageMethod
from ..errors import (PageError, RecordNotFoundError, ScanError,
                      StorageError, UniqueViolation)
from ..query.cost import AccessCost, DEFAULT_SELECTIVITY
from ..services.locks import LockMode
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.scans import AFTER, BEFORE, ON, Scan, ScanPosition
from ..services.vectors import ColumnBatch
from .heap import _ensure_formatted

__all__ = ["BTreeFileStorageMethod", "BTreeFileScan"]

PAGE_TYPE_BTREE_LEAF = 2


def _descriptor_for(services, payload: dict):
    """Storage descriptor, or None when the relation has been dropped."""
    database = getattr(services, "database", None)
    if database is None:
        raise StorageError("recovery handler needs services.database wired")
    from ..errors import UnknownObjectError
    try:
        entry = database.catalog.entry_by_id(payload["relation_id"])
    except UnknownObjectError:
        return None
    return entry.handle.descriptor.storage_descriptor


def _dir_insert(directory: List[list], key: tuple, page: int, slot: int) -> None:
    index = bisect.bisect_left(directory, [list(key)])
    directory.insert(index, [list(key), page, slot])


def _dir_find(directory: List[list], key: tuple) -> Optional[int]:
    index = bisect.bisect_left(directory, [list(key)])
    if index < len(directory) and tuple(directory[index][0]) == tuple(key):
        return index
    return None


def _dir_remove(directory: List[list], key: tuple) -> Tuple[int, int]:
    index = _dir_find(directory, key)
    if index is None:
        raise RecordNotFoundError(f"no directory entry for key {key!r}")
    __, page, slot = directory.pop(index)
    return page, slot


class _BTreeFileHandler(ResourceHandler):
    """Undo/redo: pages are LSN-guarded; the directory is undo-only
    (it lives in non-volatile catalog storage and survives the crash)."""

    def locked_records(self, payload: dict):
        op = payload.get("op")
        relation_id = payload["relation_id"]
        if op == "update":
            return [(relation_id, tuple(payload["key"]))]
        if op in ("insert_multi", "delete_multi"):
            return [(relation_id, tuple(key)) for key in payload["keys"]]
        return ()  # new_page: physical allocation, no record lock

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        descriptor = _descriptor_for(services, payload)
        if descriptor is None:
            return  # the relation was dropped; nothing left to undo
        op = payload["op"]
        if op == "new_page":
            page_id = payload["page"]
            if page_id in descriptor["pages"]:
                descriptor["pages"].remove(page_id)
                services.buffer.free_page(page_id)
            return
        buffer = services.buffer
        page = buffer.fetch(payload["page"])
        try:
            if op == "update":
                page.update(payload["slot"], payload["old_raw"])
            elif op == "insert_multi":
                for slot, key in zip(payload["slots"], payload["keys"]):
                    page.delete(slot)
                    _dir_remove(descriptor["directory"], tuple(key))
                descriptor["ntuples"] -= len(payload["slots"])
            elif op == "delete_multi":
                for slot, raw, key in zip(payload["slots"],
                                          payload["old_raws"],
                                          payload["keys"]):
                    page.insert(raw, slot=slot)
                    _dir_insert(descriptor["directory"], tuple(key),
                                payload["page"], slot)
                descriptor["ntuples"] += len(payload["slots"])
            else:
                raise StorageError(f"btree_file cannot undo op {op!r}")
            page.page_lsn = clr_lsn
        finally:
            buffer.unpin(payload["page"], dirty=True)

    def redo(self, services, lsn: int, payload: dict) -> None:
        op = payload["op"]
        descriptor = _descriptor_for(services, payload)
        if descriptor is None:
            return  # the relation was dropped; its pages are gone
        if op == "new_page":
            if payload.get("compensates") is not None:
                return
            page_id = payload["page"]
            if page_id in descriptor["pages"] and services.disk.exists(page_id):
                page = services.buffer.fetch(page_id)
                try:
                    _ensure_formatted(page)
                finally:
                    services.buffer.unpin(page_id, dirty=True)
            return
        if not services.disk.exists(payload["page"]):
            return
        buffer = services.buffer
        page = buffer.fetch(payload["page"])
        dirty = False
        try:
            _ensure_formatted(page)
            if page.page_lsn >= lsn:
                # Already on the device at or past this record.
                services.stats.bump("recovery.redo.skipped_page_lsn",
                                    len(payload.get("slots", ())) or 1)
                return
            if payload.get("compensates") is not None:
                if op == "update":
                    page.update(payload["slot"], payload["old_raw"])
                elif op == "insert_multi":
                    for slot in payload["slots"]:
                        page.delete(slot)
                elif op == "delete_multi":
                    for slot, raw in zip(payload["slots"],
                                         payload["old_raws"]):
                        page.insert(raw, slot=slot)
            elif op == "update":
                page.update(payload["slot"], payload["new_raw"])
            elif op == "insert_multi":
                for slot, raw in zip(payload["slots"], payload["new_raws"]):
                    page.insert(raw, slot=slot)
            elif op == "delete_multi":
                for slot in payload["slots"]:
                    page.delete(slot)
            else:
                raise StorageError(f"btree_file cannot redo op {op!r}")
            page.page_lsn = lsn
            dirty = True
            # A multi record redoes one logical operation per slot.
            services.stats.bump("recovery.redo.applied",
                                len(payload.get("slots", ())) or 1)
        finally:
            buffer.unpin(payload["page"], dirty=dirty)


class BTreeFileScan(Scan):
    """Key-sequential access in key order.

    The position is the last key returned; a deletion at the position
    leaves the scan just after it, because the next call advances to the
    smallest stored key strictly greater than the position.
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 fields: Optional[Sequence[int]],
                 predicate: Optional[Predicate],
                 low: Optional[tuple] = None, high: Optional[tuple] = None):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.fields = tuple(fields) if fields is not None else None
        self.predicate = predicate
        self.low = low
        self.high = high
        self.state = BEFORE
        self.position: Optional[tuple] = None  # last key returned

    def next(self):
        self._check_open()
        descriptor = self.handle.descriptor.storage_descriptor
        directory = descriptor["directory"]
        if self.position is None:
            index = 0 if self.low is None else bisect.bisect_left(
                directory, [list(self.low)])
        else:
            index = bisect.bisect_right(directory, [list(self.position),
                                                    float("inf"), 0])
        buffer = self.ctx.buffer
        while index < len(directory):
            key_list, page_id, slot = directory[index]
            key = tuple(key_list)
            if self.high is not None and key > self.high:
                break
            index += 1
            self.position = key
            self.state = ON
            self.ctx.stats.bump("btree_file.tuples_scanned")
            page = buffer.fetch(page_id)
            try:
                record = decode_record(self.handle.schema, page.read(slot))
                if self.predicate is not None \
                        and not self.predicate.matches(record):
                    continue
                self.ctx.lock_record(self.handle.relation_id, key, LockMode.S)
                if self.fields is None:
                    return key, record
                return key, tuple(record[i] for i in self.fields)
            finally:
                buffer.unpin(page_id)
        self.state = AFTER
        return None

    def next_batch(self, n: int) -> list:
        """Extract up to ``n`` records in key order, pinning each leaf page
        once for its whole run of consecutive directory entries (bulk
        loads fill pages in key order, so runs are long)."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        descriptor = self.handle.descriptor.storage_descriptor
        directory = descriptor["directory"]
        if self.position is None:
            index = 0 if self.low is None else bisect.bisect_left(
                directory, [list(self.low)])
        else:
            index = bisect.bisect_right(directory, [list(self.position),
                                                    float("inf"), 0])
        buffer = self.ctx.buffer
        stats = self.ctx.stats
        decode = self.handle.schema.decoder
        batch: list = []
        past_high = False
        while index < len(directory) and len(batch) < n and not past_high:
            run_page = directory[index][1]
            # Gather the run of consecutive entries on this leaf (bounded
            # by the high key), decode it under one pin, then filter the
            # whole run at once, column-at-a-time.
            run: list = []  # (key, slot) in key order
            run_end = index
            while run_end < len(directory):
                key_list, page_id, slot = directory[run_end]
                if page_id != run_page:
                    break
                key = tuple(key_list)
                if self.high is not None and key > self.high:
                    past_high = True
                    break
                run.append((key, slot))
                run_end += 1
            if not run:
                break  # the very next key is already past the high bound
            page = buffer.fetch(run_page)
            try:
                offsets, data = page.directory()[0], page.data
                records = [decode(data, offsets[slot]) for _, slot in run]
            finally:
                buffer.unpin(run_page)
            self.state = ON
            if self.predicate is None:
                selected = range(len(records))
            else:
                selected = self.predicate.select(
                    ColumnBatch(records, len(self.handle.schema)), stats)
            room = n - len(batch)
            chosen = selected[:room] if len(selected) > room else selected
            keys = [run[i][0] for i in chosen]
            self.ctx.lock_records(self.handle.relation_id, keys, LockMode.S)
            rows = [records[i] for i in chosen]
            if self.fields is not None:
                rows = [tuple([row[f] for f in self.fields]) for row in rows]
            batch.extend(zip(keys, rows))
            if len(selected) >= room and selected:
                # Batch filled mid-run: stop at the last consumed key so
                # the entries past it are re-examined (and only then
                # counted) by the next call — same totals as the old
                # entry-at-a-time loop, which never looked past the cut.
                last = selected[room - 1] if len(selected) > room \
                    else selected[-1]
                self.position = run[last][0]
                stats.bump_many({"btree_file.tuples_scanned": last + 1})
                break
            self.position = run[-1][0]
            stats.bump_many({"btree_file.tuples_scanned": len(run)})
            index = run_end
        if not batch:
            self.state = AFTER
        return batch

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, saved: ScanPosition) -> None:
        self.state = saved.state
        self.position = saved.item


class BTreeFileStorageMethod(StorageMethod):
    """Records stored in the leaves of a B-tree, keyed by chosen fields."""

    name = "btree_file"
    recoverable = True
    updatable = True
    ordered_by_key = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        key_columns = attributes.pop("key", None)
        fill = attributes.pop("fill_hint", 1.0)
        if attributes:
            raise StorageError(
                f"btree_file storage: unknown attributes {sorted(attributes)}")
        if not key_columns:
            raise StorageError(
                "btree_file storage requires a 'key' attribute listing the "
                "key columns")
        for column in key_columns:
            if not schema.orderable(column):
                raise StorageError(
                    f"btree_file key column {column!r} has unorderable type "
                    f"{schema.field(column).type_code}")
        return {"key": list(key_columns), "fill_hint": float(fill)}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        key_fields = list(schema.indexes_of(attributes["key"]))
        return {"relation_id": relation_id, "pages": [], "ntuples": 0,
                "key_fields": key_fields, "directory": [],
                "attributes": dict(attributes)}

    def destroy_instance(self, ctx, descriptor) -> None:
        for page_id in descriptor["pages"]:
            ctx.buffer.free_page(page_id)
        descriptor["pages"] = []
        descriptor["directory"] = []
        descriptor["ntuples"] = 0

    def recovery_handler(self) -> ResourceHandler:
        return _BTreeFileHandler()

    def key_fields(self, handle) -> Tuple[int, ...]:
        return tuple(handle.descriptor.storage_descriptor["key_fields"])

    def key_of(self, handle, record: Tuple) -> tuple:
        key = tuple(record[i]
                    for i in handle.descriptor.storage_descriptor["key_fields"])
        if any(v is None for v in key):
            raise StorageError(
                f"btree_file key fields must be non-null, got {key!r}")
        return key

    # -- modification ---------------------------------------------------------------
    def insert(self, ctx, handle, record):
        return self.insert_batch(ctx, handle, (record,))[0]

    def update(self, ctx, handle, key, old_record, new_record):
        new_key = self.key_of(handle, new_record)
        if tuple(new_key) != tuple(key):
            # Key fields changed: the record moves within the key space.
            self.delete(ctx, handle, key, old_record)
            return self.insert(ctx, handle, new_record)
        descriptor = handle.descriptor.storage_descriptor
        index = _dir_find(descriptor["directory"], tuple(key))
        if index is None:
            raise RecordNotFoundError(
                f"relation {handle.name!r} has no record with key {key!r}")
        __, page_id, slot = descriptor["directory"][index]
        ctx.lock_record(handle.relation_id, tuple(key), LockMode.X)
        new_raw = encode_record(handle.schema, new_record)
        page = ctx.buffer.fetch(page_id)
        try:
            old_raw = page.update(slot, new_raw)
        except PageError:
            ctx.buffer.unpin(page_id)
            self.delete(ctx, handle, key, old_record)
            return self.insert(ctx, handle, new_record)
        try:
            log = ctx.log(self.resource, {
                "op": "update", "relation_id": descriptor["relation_id"],
                "page": page_id, "slot": slot,
                "old_raw": old_raw, "new_raw": new_raw, "key": list(key)})
            page.page_lsn = log.lsn
            ctx.stats.bump("btree_file.updates")
            return tuple(key)
        finally:
            ctx.buffer.unpin(page_id, dirty=True)

    def delete(self, ctx, handle, key, old_record) -> None:
        self.delete_batch(ctx, handle, ((key, old_record),))

    # -- set-at-a-time modification -------------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Apply the set in storage-key order: check uniqueness (against
        the directory *and* within the batch) up front, then fill pages
        with one log record per page."""
        descriptor = handle.descriptor.storage_descriptor
        directory = descriptor["directory"]
        keys = [self.key_of(handle, record) for record in records]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        previous = None
        for position in order:
            key = keys[position]
            if key == previous or _dir_find(directory, key) is not None:
                raise UniqueViolation(
                    self.name, f"duplicate storage key {key!r} in relation "
                               f"{handle.name!r}")
            previous = key
            ctx.lock_record(handle.relation_id, key, LockMode.X)
        raws = [encode_record(handle.schema, records[position])
                for position in order]
        i = 0
        while i < len(order):
            page_id, page = self._page_with_room(ctx, descriptor,
                                                 len(raws[i]))
            slots, page_raws, page_keys = [], [], []
            try:
                while i < len(order):
                    raw = raws[i]
                    if slots and not page.fits(len(raw)):
                        break
                    key = keys[order[i]]
                    slot = page.insert(raw)
                    slots.append(slot)
                    page_raws.append(raw)
                    page_keys.append(list(key))
                    _dir_insert(directory, key, page_id, slot)
                    i += 1
                log = ctx.log(self.resource, {
                    "op": "insert_multi",
                    "relation_id": descriptor["relation_id"],
                    "page": page_id, "slots": slots, "new_raws": page_raws,
                    "keys": page_keys})
                page.page_lsn = log.lsn
                descriptor["ntuples"] += len(slots)
            finally:
                ctx.buffer.unpin(page_id, dirty=True)
        ctx.stats.bump("btree_file.inserts", len(records))
        return keys

    def delete_batch(self, ctx, handle, items) -> None:
        """Remove directory entries first, then group victims by page for
        one pin and one log record per page."""
        descriptor = handle.descriptor.storage_descriptor
        by_page = {}
        for key, __ in items:
            key = tuple(key)
            ctx.lock_record(handle.relation_id, key, LockMode.X)
            page_id, slot = _dir_remove(descriptor["directory"], key)
            by_page.setdefault(page_id, []).append((slot, key))
        for page_id, victims in by_page.items():
            page = ctx.buffer.fetch(page_id)
            try:
                slots = [slot for slot, __ in victims]
                old_raws = [page.delete(slot) for slot in slots]
                log = ctx.log(self.resource, {
                    "op": "delete_multi",
                    "relation_id": descriptor["relation_id"],
                    "page": page_id, "slots": slots, "old_raws": old_raws,
                    "keys": [list(key) for __, key in victims]})
                page.page_lsn = log.lsn
            finally:
                ctx.buffer.unpin(page_id, dirty=True)
        descriptor["ntuples"] -= len(items)
        ctx.stats.bump("btree_file.deletes", len(items))

    # -- access -------------------------------------------------------------------------
    def fetch(self, ctx, handle, key, fields=None, predicate=None):
        descriptor = handle.descriptor.storage_descriptor
        index = _dir_find(descriptor["directory"], tuple(key))
        if index is None:
            return None
        __, page_id, slot = descriptor["directory"][index]
        ctx.lock_record(handle.relation_id, tuple(key), LockMode.S)
        page = ctx.buffer.fetch(page_id)
        try:
            record = decode_record(handle.schema, page.read(slot))
        finally:
            ctx.buffer.unpin(page_id)
        ctx.stats.bump("btree_file.fetches")
        if predicate is not None and not predicate.matches(record):
            return None
        if fields is None:
            return record
        return tuple(record[i] for i in fields)

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Resolve all keys through the directory first, then pin each
        leaf page once for all its requested records."""
        descriptor = handle.descriptor.storage_descriptor
        directory = descriptor["directory"]
        by_page = {}
        for key in keys:
            key = tuple(key)
            index = _dir_find(directory, key)
            if index is None:
                continue
            __, page_id, slot = directory[index]
            by_page.setdefault(page_id, []).append((key, slot))
        found = {}
        decode = handle.schema.decoder
        for page_id, entries in by_page.items():
            page = ctx.buffer.fetch(page_id)
            try:
                ctx.lock_records(handle.relation_id,
                                 [key for key, __ in entries], LockMode.S)
                offsets = page.directory()[0]
                for key, slot in entries:
                    record = decode(page.data, offsets[slot])
                    if predicate is not None and not predicate.matches(record):
                        continue
                    if fields is None:
                        found[key] = record
                    else:
                        found[key] = tuple(record[i] for i in fields)
            finally:
                ctx.buffer.unpin(page_id)
        ctx.stats.bump("btree_file.fetches", len(found))
        return [(key, found[tuple(key)]) for key in keys
                if tuple(key) in found]

    def open_scan(self, ctx, handle, fields=None, predicate=None,
                  low: Optional[tuple] = None,
                  high: Optional[tuple] = None) -> Scan:
        scan = BTreeFileScan(ctx, handle, fields, predicate, low, high)
        ctx.services.scans.register(scan)
        return scan

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        return handle.descriptor.storage_descriptor["ntuples"]

    def page_count(self, ctx, handle) -> int:
        return len(handle.descriptor.storage_descriptor["pages"])

    def estimate_cost(self, ctx, handle, eligible) -> AccessCost:
        """Reports a low cost when predicates constrain the leading key
        field (records are clustered in key order)."""
        base = super().estimate_cost(ctx, handle, eligible)
        key_fields = self.key_fields(handle)
        if not key_fields:
            return base
        leading = key_fields[0]
        constrained = [p for p in eligible
                       if p.is_simple and p.field_index == leading
                       and p.op in ("=", "<", "<=", ">", ">=")]
        if not constrained:
            return base
        tuples = max(1, self.record_count(ctx, handle))
        pages = max(1, self.page_count(ctx, handle))
        selectivity = 1.0
        for pred in constrained:
            selectivity *= DEFAULT_SELECTIVITY.get(pred.op, 0.5)
        expected = max(1.0, tuples * selectivity)
        touched_pages = max(1.0, pages * expected / tuples)
        return AccessCost(io_pages=touched_pages, cpu_tuples=expected,
                          expected_tuples=expected,
                          relevant=tuple(eligible),
                          ordered_by=tuple(key_fields),
                          route=("keyed_scan",))

    # -- internals -----------------------------------------------------------------------------
    def _page_with_room(self, ctx, descriptor: dict, length: int):
        pages = descriptor["pages"]
        if pages:
            page_id = pages[-1]
            page = ctx.buffer.fetch(page_id)
            if page.fits(length):
                return page_id, page
            ctx.buffer.unpin(page_id)
        page = ctx.buffer.new_page(PAGE_TYPE_BTREE_LEAF)
        pages.append(page.page_id)
        log = ctx.log(self.resource, {
            "op": "new_page", "relation_id": descriptor["relation_id"],
            "page": page.page_id})
        page.page_lsn = log.lsn
        ctx.stats.bump("btree_file.page_allocations")
        return page.page_id, page
