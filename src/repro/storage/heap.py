"""Recoverable heap storage method.

The paper's canonical example: "the records of the relation may be stored
sequentially in a disk file" (Figure 1's EMPLOYEE relation uses the heap
storage method).  Records live in slotted pages; the record key is the
record's address, a ``(page_id, slot)`` pair — "record keys may be record
addresses".

Recovery: every modification writes a logical log record carrying the page,
slot, and record images needed to undo and redo it.  Pages are stamped with
the log record's LSN; the redo handler skips pages whose ``page_lsn`` is
already at or past the record's LSN, making restart redo idempotent.  The
page list lives in the storage descriptor (non-volatile catalog storage,
see DESIGN.md), so structural recovery reduces to re-formatting pages that
never reached the device.

DDL attributes: ``fill_hint`` (float in (0, 1], advisory page fill target).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.records import decode_record, encode_record
from ..core.storage_method import RelationHandle, StorageMethod
from ..errors import PageError, RecordNotFoundError, ScanError, StorageError
from ..services.locks import LockMode
from ..services.pages import HEADER_SIZE, TOMBSTONE, PageView
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.scans import AFTER, BEFORE, ON, Scan, ScanPosition
from ..services.vectors import ColumnBatch

__all__ = ["HeapStorageMethod", "HeapScan", "PAGE_TYPE_HEAP"]

PAGE_TYPE_HEAP = 1


def _descriptor_for(services, payload: dict):
    """The relation's storage descriptor, or None when the relation no
    longer exists (its operations are replayed after a committed DROP —
    the pages are gone with it, so the op is skipped)."""
    database = getattr(services, "database", None)
    if database is None:
        raise StorageError("recovery handler needs services.database wired")
    from ..errors import UnknownObjectError
    try:
        entry = database.catalog.entry_by_id(payload["relation_id"])
    except UnknownObjectError:
        return None
    return entry.handle.descriptor.storage_descriptor


def _ensure_formatted(page: PageView) -> None:
    """Format a page that never reached the device before the crash."""
    if page.free_offset < HEADER_SIZE:
        PageView.format(page.page_id, page.data, PAGE_TYPE_HEAP)


class _HeapHandler(ResourceHandler):
    """Page-stamped undo/redo for heap operations."""

    def locked_records(self, payload: dict):
        op = payload.get("op")
        relation_id = payload["relation_id"]
        if op == "update":
            return [(relation_id, (payload["page"], payload["slot"]))]
        if op in ("insert_multi", "delete_multi"):
            return [(relation_id, (payload["page"], slot))
                    for slot in payload["slots"]]
        return ()  # new_page: physical allocation, no record lock

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        op = payload["op"]
        descriptor = _descriptor_for(services, payload)
        if descriptor is None:
            return  # the relation was dropped; nothing left to undo
        if op == "new_page":
            page_id = payload["page"]
            if page_id in descriptor["pages"]:
                descriptor["pages"].remove(page_id)
                services.buffer.free_page(page_id)
            return
        if payload["page"] not in descriptor["pages"]:
            return  # given back by a rollback whose CLRs the crash lost
        buffer = services.buffer
        page = buffer.fetch(payload["page"])
        try:
            if op == "update":
                page.update(payload["slot"], payload["old_raw"])
            elif op == "insert_multi":
                for slot in payload["slots"]:
                    page.delete(slot)
                descriptor["ntuples"] -= len(payload["slots"])
            elif op == "delete_multi":
                page.insert_at(payload["slots"], payload["old_raws"])
                descriptor["ntuples"] += len(payload["slots"])
            else:
                raise StorageError(f"heap cannot undo op {op!r}")
            page.page_lsn = clr_lsn
        finally:
            buffer.unpin(payload["page"], dirty=True)

    def redo(self, services, lsn: int, payload: dict) -> None:
        op = payload["op"]
        descriptor = _descriptor_for(services, payload)
        if descriptor is None:
            return  # the relation was dropped; its pages are gone
        # Undo of new_page during rollback is compensated by a CLR whose
        # redo must also be the page removal; both directions are handled
        # by replaying against the (non-volatile) descriptor page list.
        if op == "new_page":
            if payload.get("compensates") is not None:
                return  # CLR for new_page: removal already reflected
            page_id = payload["page"]
            if page_id in descriptor["pages"] and services.disk.exists(page_id):
                page = services.buffer.fetch(page_id)
                try:
                    # The allocation record is the incarnation boundary: a
                    # page image stamped before it belongs to a prior tenant
                    # of this (reused) page id — or was zero-filled by the
                    # torn-page sweep — and must be wiped before this
                    # incarnation's updates replay onto it.
                    if page.page_lsn < lsn:
                        PageView.format(page.page_id, page.data,
                                        PAGE_TYPE_HEAP)
                        page.page_lsn = lsn
                finally:
                    services.buffer.unpin(page_id, dirty=True)
            return
        if not services.disk.exists(payload["page"]):
            return  # page was freed by a later (replayed) compensation
        buffer = services.buffer
        page = buffer.fetch(payload["page"])
        dirty = False
        try:
            _ensure_formatted(page)
            if page.page_lsn >= lsn:
                # Already applied before the crash: the page reached the
                # device at or past this record.  Count the skip so
                # restart work stays observable.
                services.stats.bump("recovery.redo.skipped_page_lsn",
                                    len(payload.get("slots", ())) or 1)
                return
            try:
                if payload.get("compensates") is not None:
                    self._redo_compensation(page, payload)
                elif op == "update":
                    page.update(payload["slot"], payload["new_raw"])
                elif op == "insert_multi":
                    page.insert_at(payload["slots"], payload["new_raws"])
                elif op == "delete_multi":
                    for slot in payload["slots"]:
                        page.delete(slot)
                else:
                    raise StorageError(f"heap cannot redo op {op!r}")
            except PageError:
                # The record targets a prior incarnation of a reused page
                # id whose image was repaired (zero-filled) at restart, so
                # its slots no longer exist.  The incarnation's later
                # new_page redo wipes any partial replay; skipping here is
                # safe because the final image never includes this tenant.
                services.stats.bump("recovery.redo.stale_incarnation")
                return
            page.page_lsn = lsn
            dirty = True
            # A multi record redoes one logical operation per slot.
            services.stats.bump("recovery.redo.applied",
                                len(payload.get("slots", ())) or 1)
        finally:
            buffer.unpin(payload["page"], dirty=dirty)

    @staticmethod
    def _redo_compensation(page: PageView, payload: dict) -> None:
        """A CLR's redo applies the *inverse* of the compensated operation."""
        op = payload["op"]
        if op == "update":
            page.update(payload["slot"], payload["old_raw"])
        elif op == "insert_multi":
            for slot in payload["slots"]:
                page.delete(slot)
        elif op == "delete_multi":
            page.insert_at(payload["slots"], payload["old_raws"])


class HeapScan(Scan):
    """Key-sequential scan in physical (page list, slot) order.

    The position is the (page index, slot) last returned; records deleted
    at the position are skipped on the next call, leaving the scan "just
    after the deleted item".
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 fields: Optional[Sequence[int]],
                 predicate: Optional[Predicate]):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.fields = tuple(fields) if fields is not None else None
        self.predicate = predicate
        self.state = BEFORE
        self.position: Optional[Tuple[int, int]] = None  # (page index, slot)

    def next(self):
        self._check_open()
        descriptor = self.handle.descriptor.storage_descriptor
        pages: List[int] = descriptor["pages"]
        page_index, slot = (0, -1) if self.position is None else self.position
        buffer = self.ctx.buffer
        while page_index < len(pages):
            page_id = pages[page_index]
            page = buffer.fetch(page_id)
            try:
                for next_slot in range(slot + 1, page.slot_count):
                    if not page.slot_in_use(next_slot):
                        continue
                    self.position = (page_index, next_slot)
                    self.state = ON
                    self.ctx.stats.bump("heap.tuples_scanned")
                    raw = page.read(next_slot)
                    record = decode_record(self.handle.schema, raw)
                    # Filter while the record is still in the buffer pool.
                    if self.predicate is not None \
                            and not self.predicate.matches(record):
                        continue
                    key = (page_id, next_slot)
                    self.ctx.lock_record(self.handle.relation_id, key,
                                         LockMode.S)
                    if self.fields is None:
                        return key, record
                    return key, tuple(record[i] for i in self.fields)
            finally:
                buffer.unpin(page_id)
            page_index += 1
            slot = -1
            self.position = (page_index, -1)
        self.state = AFTER
        return None

    #: Pages prefetched ahead of the one being extracted during a batch.
    _PREFETCH_PAGES = 4

    def next_batch(self, n: int) -> ColumnBatch:
        """Extract up to ``n`` qualifying records page-at-a-time, as a
        batch that carries their keys.  Each page is pinned once: under
        the pin the fields the predicate reads are decoded for every live
        record and filtered as columns, then the output fields of the
        *selected* records alone — whole records by the row decoder,
        ``fields`` by the page decoder, so no row exists for those.  The
        pages about to be crossed are pre-installed in the buffer pool."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        descriptor = self.handle.descriptor.storage_descriptor
        pages: List[int] = descriptor["pages"]
        page_index, slot = (0, -1) if self.position is None else self.position
        buffer = self.ctx.buffer
        stats = self.ctx.stats
        schema, fields, predicate = self.handle.schema, self.fields, \
            self.predicate
        width = len(schema)
        if predicate is not None:
            needed = tuple(sorted(predicate.fields_needed))
            decode_needed = schema.page_decoder(needed)
        decode = schema.decoder if fields is None \
            else schema.page_decoder(fields)
        keys: list = []
        rows: list = []                           # whole records, or
        columns = [[] for __ in fields or ()]     # one list per field
        while page_index < len(pages) and len(keys) < n:
            page_id = pages[page_index]
            page = buffer.fetch(page_id)
            try:
                offsets = page.directory()[0]
                slots = [s for s in range(slot + 1, len(offsets))
                         if offsets[s] != TOMBSTONE]
                live = [offsets[s] for s in slots]
                data = page.data
                # Filter while the field values are still in the buffer
                # pool: the predicate sees columns, never a record.
                if predicate is None:
                    selected = range(len(live))
                else:
                    selected = predicate.select(ColumnBatch.from_columns(
                        dict(zip(needed, decode_needed(data, live))),
                        len(live), width), stats)
                room = n - len(keys)
                chosen = selected[:room] if len(selected) > room else selected
                if len(chosen) < len(live):
                    live = [live[i] for i in chosen]
                if fields is None:
                    rows += [decode(data, offset) for offset in live]
                else:
                    for column, values in zip(columns, decode(data, live)):
                        column += values
            finally:
                buffer.unpin(page_id)
            if slots:
                self.state = ON
            page_keys = [(page_id, slots[i]) for i in chosen]
            self.ctx.lock_records(self.handle.relation_id, page_keys,
                                  LockMode.S)
            keys += page_keys
            if len(selected) >= room and selected:
                # The batch filled on this page: stop at the last consumed
                # slot.  Tuples past it are only accounted for when the
                # next call re-examines them (same totals as the old
                # slot-at-a-time loop, which never looked past the cut).
                last = selected[room - 1] if len(selected) > room \
                    else selected[-1]
                self.position = (page_index, slots[last])
                stats.bump_many({"heap.tuples_scanned": last + 1})
                break
            if slots:
                stats.bump_many({"heap.tuples_scanned": len(slots)})
            page_index += 1
            slot = -1
            self.position = (page_index, -1)
            if len(keys) < n and page_index < len(pages):
                # The batch crosses into the next page: read ahead of it.
                buffer.prefetch(pages[page_index:
                                      page_index + self._PREFETCH_PAGES])
        if not keys:
            self.state = AFTER
        if fields is None:
            return ColumnBatch(rows, width, keys)
        return ColumnBatch.from_columns(dict(zip(fields, columns)),
                                        len(keys), width, keys, fields)

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, saved: ScanPosition) -> None:
        self.state = saved.state
        self.position = saved.item


class HeapStorageMethod(StorageMethod):
    """Slotted-page heap with address record keys."""

    name = "heap"
    recoverable = True
    updatable = True
    ordered_by_key = False

    def __init__(self):
        #: relation id -> {page id: index in the relation's page list when
        #: last seen}.  A hint only: an answer is always re-checked against
        #: the list itself, and nothing here is persisted.
        self._page_index: Dict[int, Dict[int, int]] = {}

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        fill = attributes.pop("fill_hint", 1.0)
        if attributes:
            raise StorageError(
                f"heap storage: unknown attributes {sorted(attributes)}")
        if not isinstance(fill, (int, float)) or not 0 < fill <= 1:
            raise StorageError(
                f"heap storage: fill_hint must be in (0, 1], got {fill!r}")
        return {"fill_hint": float(fill)}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        return {"relation_id": relation_id, "pages": [], "ntuples": 0,
                "attributes": dict(attributes)}

    def destroy_instance(self, ctx, descriptor) -> None:
        for page_id in descriptor["pages"]:
            ctx.buffer.free_page(page_id)
        descriptor["pages"] = []
        descriptor["ntuples"] = 0
        self._page_index.pop(descriptor["relation_id"], None)

    def recovery_handler(self) -> ResourceHandler:
        return _HeapHandler()

    # -- modification ---------------------------------------------------------------
    def insert(self, ctx, handle, record):
        return self.insert_batch(ctx, handle, (record,))[0]

    def update(self, ctx, handle, key, old_record, new_record):
        descriptor = handle.descriptor.storage_descriptor
        page_id, slot = key
        ctx.lock_record(handle.relation_id, key, LockMode.X)
        new_raw = encode_record(handle.schema, new_record)
        page = ctx.buffer.fetch(page_id)
        try:
            old_raw = page.update(slot, new_raw)
        except PageError:
            # Grown record that no longer fits: delete + reinsert, which
            # moves the record and changes its address key.
            ctx.buffer.unpin(page_id)
            self.delete(ctx, handle, key, old_record)
            new_key = self.insert(ctx, handle, new_record)
            ctx.stats.bump("heap.relocating_updates")
            return new_key
        try:
            try:
                log = ctx.log(self.resource, {
                    "op": "update", "relation_id": descriptor["relation_id"],
                    "page": page_id, "slot": slot,
                    "old_raw": old_raw, "new_raw": new_raw})
            except BaseException:
                page.update(slot, old_raw)  # unlogged change must not stay
                raise
            page.page_lsn = log.lsn
            ctx.stats.bump("heap.updates")
            return key
        finally:
            ctx.buffer.unpin(page_id, dirty=True)

    def delete(self, ctx, handle, key, old_record) -> None:
        self.delete_batch(ctx, handle, ((key, old_record),))

    # -- set-at-a-time modification -------------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Fill each page in one pass: its slots chosen from one directory
        read, their record keys X-locked before a byte is placed, then one
        log record and one LSN stamp per *page*."""
        descriptor = handle.descriptor.storage_descriptor
        raws = [encode_record(handle.schema, record) for record in records]
        fill_hint = descriptor.get("attributes", {}).get("fill_hint", 1.0)
        relation_id = handle.relation_id
        keys = []

        def fill(page: PageView, fresh: bool) -> list:
            """Place what the pinned ``page`` takes of the records still
            to go, log it and unpin; returns the slots taken."""
            page_id, slots = page.page_id, []

            def lock(slots):
                # A slot freed by a delete that has not committed is still
                # locked by the deleter: the conflict must surface while
                # the slot is empty, or the deleter could not roll back.
                ctx.lock_records(relation_id,
                                 [(page_id, slot) for slot in slots],
                                 LockMode.X)
            try:
                rest = raws[len(keys):] if keys else raws
                slots = page.insert_many(rest, fill_hint, lock)
                if fresh and not slots:
                    # The hint never keeps a record out of an empty page.
                    slots = page.insert_many(rest[:1], None, lock)
                    if not slots:
                        raise PageError(f"record of {len(rest[0])} bytes "
                                        f"exceeds page capacity")
                if slots:
                    page_raws = rest[:len(slots)]
                    try:
                        log = ctx.log(self.resource, {
                            "op": "insert_multi",
                            "relation_id": descriptor["relation_id"],
                            "page": page_id, "slots": slots,
                            "new_raws": page_raws})
                    except BaseException:
                        for slot in slots:  # unlogged changes must not stay
                            page.delete(slot)
                        raise
                    page.page_lsn = log.lsn
                    descriptor["ntuples"] += len(slots)
                    keys.extend((page_id, slot) for slot in slots)
                return slots
            finally:
                ctx.buffer.unpin(page_id, dirty=fresh or bool(slots))

        while len(keys) < len(raws):
            if not (descriptor["pages"]
                    and fill(self._last_page(ctx, descriptor), False)):
                fill(self._new_page(ctx, descriptor), True)
        ctx.stats.bump("heap.inserts", len(records))
        return keys

    def delete_batch(self, ctx, handle, items) -> None:
        """Group victims by page: one pin and one log record per page."""
        descriptor = handle.descriptor.storage_descriptor
        by_page = {}
        for key, __ in items:
            page_id, slot = key
            ctx.lock_record(handle.relation_id, key, LockMode.X)
            by_page.setdefault(page_id, []).append(slot)
        for page_id, slots in by_page.items():
            page = ctx.buffer.fetch(page_id)
            try:
                old_raws = [page.delete(slot) for slot in slots]
                try:
                    log = ctx.log(self.resource, {
                        "op": "delete_multi",
                        "relation_id": descriptor["relation_id"],
                        "page": page_id, "slots": slots,
                        "old_raws": old_raws})
                except BaseException:
                    # Unlogged deletions must not stay: put them back.
                    for slot, raw in zip(slots, old_raws):
                        page.insert(raw, slot=slot)
                    raise
                page.page_lsn = log.lsn
                descriptor["ntuples"] -= len(slots)
            finally:
                ctx.buffer.unpin(page_id, dirty=True)
        ctx.stats.bump("heap.deletes", len(items))

    # -- access -------------------------------------------------------------------------
    def fetch(self, ctx, handle, key, fields=None, predicate=None):
        try:
            page_id, slot = key
        except (TypeError, ValueError):
            raise RecordNotFoundError(f"bad heap record key {key!r}") from None
        descriptor = handle.descriptor.storage_descriptor
        if not self._owns_page(descriptor, page_id):
            return None
        ctx.lock_record(handle.relation_id, key, LockMode.S)
        page = ctx.buffer.fetch(page_id)
        try:
            if slot >= page.slot_count or not page.slot_in_use(slot):
                return None
            record = decode_record(handle.schema, page.read(slot))
            ctx.stats.bump("heap.fetches")
            if predicate is not None and not predicate.matches(record):
                return None
            if fields is None:
                return record
            return tuple(record[i] for i in fields)
        finally:
            ctx.buffer.unpin(page_id)

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Direct fetch of many record addresses with one pin per page."""
        descriptor = handle.descriptor.storage_descriptor
        by_page = {}
        for key in keys:
            try:
                page_id, slot = key
            except (TypeError, ValueError):
                raise RecordNotFoundError(
                    f"bad heap record key {key!r}") from None
            if page_id in by_page:
                by_page[page_id].append((page_id, slot))
            elif self._owns_page(descriptor, page_id):
                by_page[page_id] = [(page_id, slot)]
        found = {}
        decode = handle.schema.decoder
        for page_id, page_keys in by_page.items():
            page = ctx.buffer.fetch(page_id)
            try:
                offsets = page.directory()[0]
                present = [key for key in page_keys
                           if 0 <= key[1] < len(offsets)
                           and offsets[key[1]] != TOMBSTONE]
                ctx.lock_records(handle.relation_id, present, LockMode.S)
                for key in present:
                    record = decode(page.data, offsets[key[1]])
                    if predicate is not None and not predicate.matches(record):
                        continue
                    if fields is None:
                        found[key] = record
                    else:
                        found[key] = tuple(record[i] for i in fields)
            finally:
                ctx.buffer.unpin(page_id)
        ctx.stats.bump("heap.fetches", len(found))
        return [(key, found[key]) for key in keys if key in found]

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        scan = HeapScan(ctx, handle, fields, predicate)
        ctx.services.scans.register(scan)
        return scan

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        return handle.descriptor.storage_descriptor["ntuples"]

    def page_count(self, ctx, handle) -> int:
        return len(handle.descriptor.storage_descriptor["pages"])

    # -- internals -----------------------------------------------------------------------------
    def _owns_page(self, descriptor: dict, page_id) -> bool:
        """Whether ``page_id`` is in the relation's page list — for a page
        that is, at a cost independent of how many pages there are."""
        pages = descriptor["pages"]
        index = self._page_index.setdefault(descriptor["relation_id"], {})
        at = index.get(page_id, -1)
        if 0 <= at < len(pages) and pages[at] == page_id:
            return True
        # Not where it was last seen, or never seen: relearn the list.
        index.clear()
        index.update((page, i) for i, page in enumerate(pages))
        return page_id in index

    @staticmethod
    def _last_page(ctx, descriptor: dict) -> PageView:
        """Pin the relation's last page, the one inserts try first."""
        page = ctx.buffer.fetch(descriptor["pages"][-1])
        # The page list is non-volatile but the log is not: a crash can
        # lose an uncommitted allocation's record and leave its page in the
        # list, all zeros on the device.  Restart meets no record that
        # names it, so it is formatted here, where the forward path first
        # picks it.
        _ensure_formatted(page)
        return page

    def _new_page(self, ctx, descriptor: dict) -> PageView:
        """Allocate, log and pin a page at the end of the relation.

        (The ``fill_hint`` attribute reserves free space on each page for
        in-place record growth: ``insert_batch`` treats a page as full
        once its used fraction would exceed the hint.)
        """
        page = ctx.buffer.new_page(PAGE_TYPE_HEAP)
        try:
            log = ctx.log(self.resource, {
                "op": "new_page", "relation_id": descriptor["relation_id"],
                "page": page.page_id})
        except BaseException:
            # The allocation was never logged: without this the pin (and
            # an unrecorded page) would leak past the operation rollback.
            ctx.buffer.unpin(page.page_id, dirty=True)
            ctx.buffer.free_page(page.page_id)
            raise
        descriptor["pages"].append(page.page_id)
        page.page_lsn = log.lsn
        ctx.stats.bump("heap.page_allocations")
        return page
