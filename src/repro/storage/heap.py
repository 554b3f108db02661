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
never reached the device; redo of an allocation also materialises a page
the device lacks, which is all a standby (a restart that never ends) needs
to build the relation from the log.  The tuple count kept beside it is
derived from the pages: the forward path, undo and redo outside restart
keep it in step (``_keep``), and restart counts the pages again when the
crash may have left it wrong.
The read-only publishing method is this one as a subclass, written once
and never logged; the page bodies, by address, and the scan leaf
(:class:`PageLeaf`) are also the B-tree-organised method's.  The leaf
keeps what it decodes off a resident page in the frame's
:class:`PageImage`, which a page's first visit since it was installed
does not keep.  A forward update or delete marks the slots it touched on
the image the frame holds, and the next read decodes just those again;
an insert, undo, redo and formatting drop the image.

DDL attributes: ``fill_hint`` (float in (0, 1], advisory page fill target).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.records import encode_record
from ..core.storage_method import RelationHandle, StorageMethod, \
    logged_relation
from ..errors import PageError, RecordNotFoundError, ScanError, StorageError
from ..services.locks import LockMode
from ..services.pages import HEADER_SIZE, TOMBSTONE, PageView
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.scans import AFTER, ON, Scan
from ..services.vectors import ColumnBatch

__all__ = ["HeapStorageMethod", "HeapScan", "PageImage", "PageLeaf",
           "PAGE_TYPE_HEAP"]

PAGE_TYPE_HEAP = 1


def _ensure_formatted(page: PageView) -> None:
    """Format a page that never reached the device before the crash."""
    if page.free_offset < HEADER_SIZE:
        PageView.format(page.page_id, page.data, PAGE_TYPE_HEAP)


def _no_image(page: PageView, keep: bool) -> None:
    """A writer's ``make``: it never creates a page image."""


def _pin_changing(buffer, page_id: int, slots: list):
    """Pin ``page_id`` to rewrite or empty ``slots``: the page, and the
    frame's image with them marked ``stale`` for the dirty unpin to keep
    (``None`` when the frame holds none)."""
    data, image = buffer.fetch_image(page_id, _no_image)
    if image is not None:
        image.stale.update(slots)
    return PageView(page_id, data), image


def _slots_and_images(payload: dict):
    """The slots a ``*_multi`` record names and the image it carries for
    each (an update's after-image, whose key is its before-image's)."""
    return payload["slots"], payload.get("new_raws") or payload["old_raws"]


def _apply(page: PageView, payload: dict, inverse: bool) -> None:
    """Do to ``page`` what a ``*_multi`` record did, or undo it: old images
    go back last slot first, through states the forward pass held."""
    op, slots = payload["op"], payload["slots"]
    if op == "update_multi":
        raws = payload["old_raws"][::-1] if inverse else payload["new_raws"]
        for slot, raw in zip(slots[::-1] if inverse else slots, raws):
            page.update(slot, raw)
    elif op not in ("insert_multi", "delete_multi"):
        raise StorageError(f"heap storage cannot apply op {op!r}")
    elif (op == "insert_multi") != inverse:
        page.insert_at(slots, _slots_and_images(payload)[1])
    else:
        for slot in slots:
            page.delete(slot)


class _HeapHandler(ResourceHandler):
    """Page-stamped undo/redo for heap operations.  Undo and redo keep what
    the descriptor derives from the pages in step through the method's
    ``_keep`` — except during restart, after which it is derived afresh."""

    def __init__(self, method: "HeapStorageMethod"):
        self.method = method

    def locked_records(self, services, payload: dict):
        if payload.get("op") == "new_page":
            return ()  # a physical allocation takes no record lock
        page_id, slots = payload["page"], _slots_and_images(payload)[0]
        return [(payload["relation_id"], name) for name in
                self.method._slot_locks([(page_id, s) for s in slots])]

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        op = payload["op"]
        relation = logged_relation(services, payload)
        if relation is None:
            return  # the relation was dropped; nothing left to undo
        descriptor = relation.descriptor.storage_descriptor
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
            _apply(page, payload, True)
            page.page_lsn = clr_lsn
        finally:
            buffer.unpin(payload["page"], dirty=True)
        if services.in_restart:
            descriptor["derived_lsn"] = clr_lsn  # derived again afterwards
        elif op != "update_multi":
            self.method._keep(relation, payload["page"],
                              *_slots_and_images(payload), clr_lsn,
                              op == "delete_multi")

    def redo(self, services, lsn: int, payload: dict) -> None:
        op = payload["op"]
        relation = logged_relation(services, payload)
        if relation is None:
            return  # the relation was dropped; its pages are gone
        descriptor = relation.descriptor.storage_descriptor
        if op == "new_page":
            self._redo_new_page(services, lsn, payload, descriptor["pages"])
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
                # A CLR's redo applies the inverse of what it compensates.
                _apply(page, payload, payload.get("compensates") is not None)
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
        if op != "update_multi" and not services.in_restart:
            # Redo outside restart (a standby's apply) keeps the derived
            # state as undo does; restart derives it afterwards instead.
            self.method._keep(relation, payload["page"],
                              *_slots_and_images(payload), lsn,
                              (op == "insert_multi")
                              == (payload.get("compensates") is None))

    @staticmethod
    def _redo_new_page(services, lsn: int, payload: dict,
                       pages: list) -> None:
        """Redo of a page allocation materialises what is missing: a page
        absent from the device is allocated under its id, listed and
        formatted (a standby's first sight of it, or a page that a later
        compensation freed).  A listed page is formatted again when its
        image is older than the allocation: the record is the incarnation
        boundary, so an image stamped before it belongs to a prior tenant
        of the reused id, or was zero-filled by the torn-page sweep.  A
        page present but not listed belongs to a later tenant now.  The
        compensation of an allocation gives a listed page back."""
        page_id = payload["page"]
        if payload.get("compensates") is not None:
            if page_id in pages:
                pages.remove(page_id)
                services.buffer.free_page(page_id)
            return
        if not services.disk.exists(page_id):
            services.disk.ensure_allocated(page_id)
            if page_id not in pages:
                pages.append(page_id)
        elif page_id not in pages:
            return
        page = services.buffer.fetch(page_id)
        try:
            if page.page_lsn < lsn:
                page.data[:] = bytes(len(page.data))  # as allocated: zeros
                PageView.format(page_id, page.data, PAGE_TYPE_HEAP)
                page.page_lsn = lsn
        finally:
            services.buffer.unpin(page_id, dirty=True)


class PageImage:
    """What the scan leaf decoded off one page (``BufferPool.fetch_image``):
    the slot directory, whole columns and records, by slot.  It grows under
    a pin of the bytes it mirrors.  A writer that rewrites or empties slots
    adds them to ``stale`` (``_pin_changing``), and the next reader's
    :meth:`refresh` decodes those slots again before it reads; nothing
    else in it changes.  One the frame does not keep decodes what its one
    read asks for."""

    __slots__ = ("offsets", "live", "keep", "columns", "rows", "stale")

    def __init__(self, page: PageView, keep: bool):
        offsets = self.offsets = page.directory()[0]
        self.live = [s for s in range(len(offsets))
                     if offsets[s] != TOMBSTONE] \
            if TOMBSTONE in offsets else list(range(len(offsets)))
        self.keep, self.columns, self.rows, self.stale = keep, {}, {}, set()

    def refresh(self, schema, page: PageView) -> None:
        """Read the directory again (a rewrite may have compacted the
        page) and decode the ``stale`` slots still live again, for the
        columns and records held.  Only a slot marked stale can have been
        emptied."""
        offsets = self.offsets = page.directory()[0]
        stale, self.stale = self.stale, set()
        slots = [s for s in stale if offsets[s] != TOMBSTONE]
        if len(slots) < len(stale):  # what an emptied slot held goes unread
            self.live = [s for s in self.live if offsets[s] != TOMBSTONE]
        decode, rows = schema.decoder, self.rows
        for s in slots:
            record = decode(page.data, offsets[s])
            if s in rows:
                rows[s] = record
            for field, column in self.columns.items():
                column[s] = record[field]

    def values(self, decode, fields, data, slots: list, fill: bool) -> list:
        """``decode``'s columns of ``fields`` at ``slots``, new lists; with
        ``fill`` a missing column is decoded for every live slot and kept."""
        columns, offsets, live = self.columns, self.offsets, self.live
        if not columns or not all(field in columns for field in fields):
            if not fill:
                return decode(data, [offsets[s] for s in slots])
            for field, values in zip(fields, decode(
                    data, [offsets[s] for s in live])):
                # By slot: the list itself, a dict where tombstones are.
                columns.setdefault(field, values if len(live) == len(offsets)
                                   else dict(zip(live, values)))
        if len(slots) == len(offsets) and slots == live:
            return [columns[field][:] for field in fields]
        return [[column[s] for s in slots]
                for column in map(columns.__getitem__, fields)]

    def records(self, decode, data, slots: list) -> list:
        """The whole records at ``slots``; a kept image decodes each once."""
        rows, offsets = self.rows, self.offsets
        missing = [s for s in slots if s not in rows] if rows else slots
        found = [decode(data, offsets[s]) for s in missing]
        if self.keep:
            rows.update(zip(missing, found))
        return found if missing is slots else [rows[s] for s in slots]


class PageLeaf:
    """The page scan leaf: one batch read off slotted pages, a page at a
    time under one pin (:meth:`visit`), through its :class:`PageImage`.
    :meth:`read` filters the predicate's fields as columns while the values
    are still in the buffer pool, then takes the output fields of the
    records it keeps only, whole records or ``fields`` columns.  The caller
    appends their keys to :attr:`keys`."""

    def __init__(self, schema, fields: Optional[Tuple[int, ...]],
                 predicate: Optional[Predicate], stats):
        self.schema, self.width, self.fields = schema, len(schema), fields
        self.predicate, self.stats = predicate, stats
        if predicate is not None:
            self.needed = tuple(sorted(predicate.fields_needed))
            self.decode_needed = schema.page_decoder(self.needed)
        self.decode = schema.decoder if fields is None \
            else schema.page_decoder(fields)
        self.keys: list = []
        self.rows: list = []                           # whole records, or
        self.columns = [[] for __ in fields or ()]     # one list per field

    def visit(self, buffer, page_id: int, room: int, slots=None,
              after: int = -1, looping: bool = False):
        """Pin ``page_id``, bring the frame's image up to date, :meth:`read`
        ``slots`` (by default the live slots past ``after``) and unpin;
        returns the slots and the indexes :meth:`read` chose."""
        data, image = buffer.fetch_image(page_id, PageImage, looping)
        try:
            if image.stale:
                image.refresh(self.schema, PageView(page_id, data))
            if slots is None:
                slots = image.live if after < 0 \
                    else [s for s in image.live if s > after]
            return slots, self.read(data, image, slots, room)
        finally:
            buffer.unpin(page_id)

    def read(self, data, image: PageImage, slots: list, room: int):
        """Keep the first ``room`` of the records at ``slots`` of the
        pinned page's bytes ``data`` that pass the predicate; returns
        their indexes in ``slots``."""
        fill = image.keep and len(slots) == len(image.live)  # the whole page
        if self.predicate is None:
            selected = range(len(slots))
        else:
            selected = self.predicate.select(ColumnBatch.from_columns(
                dict(zip(self.needed, image.values(
                    self.decode_needed, self.needed, data, slots, fill))),
                len(slots), self.width), self.stats)
        chosen = selected[:room] if len(selected) > room else selected
        if len(chosen) < len(slots):
            slots = [slots[i] for i in chosen]
        if self.fields is None:
            self.rows += image.records(self.decode, data, slots)
        else:
            for column, values in zip(self.columns, image.values(
                    self.decode, self.fields, data, slots, fill)):
                column += values
        return chosen

    def batch(self) -> ColumnBatch:
        if self.fields is None:
            return ColumnBatch(self.rows, self.width, self.keys)
        return ColumnBatch.from_columns(dict(zip(self.fields, self.columns)),
                                        len(self.keys), self.width,
                                        self.keys, self.fields)


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

    def next_batch(self, n: int) -> ColumnBatch:
        """Extract up to ``n`` qualifying records page-at-a-time, as a
        batch that carries their keys: each page pinned once and read by
        the :class:`PageLeaf`, the returned keys locked per page.  Over a
        relation larger than the buffer pool the pins are ``looping``: a
        page this scan faults in is the pool's next victim."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        pages: List[int] = self.handle.descriptor.storage_descriptor["pages"]
        page_index, slot = (0, -1) if self.position is None else self.position
        buffer, stats = self.ctx.buffer, self.ctx.stats
        looping = len(pages) > buffer.capacity
        leaf = PageLeaf(self.handle.schema, self.fields, self.predicate, stats)
        keys = leaf.keys
        while page_index < len(pages) and len(keys) < n:
            page_id, room = pages[page_index], n - len(keys)
            slots, chosen = leaf.visit(buffer, page_id, room, None, slot,
                                       looping)
            if slots:
                self.state = ON
            page_keys = [(page_id, slots[i]) for i in chosen]
            self.ctx.lock_records(self.handle.relation_id, page_keys,
                                  LockMode.S)
            keys += page_keys
            if len(chosen) == room:
                # The batch filled on this page: stop at the last consumed
                # slot.  Tuples past it are only accounted for when the
                # next call re-examines them (same totals as the old
                # slot-at-a-time loop, which never looked past the cut).
                self.position = (page_index, slots[chosen[-1]])
                stats.bump_many({"heap.tuples_scanned": chosen[-1] + 1})
                break
            if slots:
                stats.bump_many({"heap.tuples_scanned": len(slots)})
            page_index += 1
            slot = -1
            self.position = (page_index, -1)
        if not keys:
            self.state = AFTER
        return leaf.batch()


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
                f"{self.name} storage: unknown attributes {sorted(attributes)}")
        if not isinstance(fill, (int, float)) or not 0 < fill <= 1:
            raise StorageError(
                f"{self.name} storage: fill_hint must be in (0, 1], got "
                f"{fill!r}")
        return {"fill_hint": float(fill)}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        return {"relation_id": relation_id, "pages": [], "ntuples": 0,
                "derived_lsn": 0, "attributes": dict(attributes)}

    def destroy_instance(self, ctx, descriptor) -> None:
        for page_id in descriptor["pages"]:
            ctx.buffer.free_page(page_id)
        descriptor["pages"] = []
        descriptor["ntuples"] = 0
        self._page_index.pop(descriptor["relation_id"], None)

    def recovery_handler(self) -> ResourceHandler:
        return _HeapHandler(self)

    def recover_instance(self, ctx, handle, stable_lsn: int) -> None:
        """Derive the page-derived state again when it reflects a change
        the crash lost (logged past ``stable_lsn``) or restart undid one."""
        if handle.descriptor.storage_descriptor["derived_lsn"] > stable_lsn:
            self._derive(ctx, handle)

    # -- set-at-a-time modification -------------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Fill each page in one pass: its slots chosen from one directory
        read, locked (:meth:`_slot_locks`) before a byte is placed, then
        one log record and one LSN stamp per *page* — the last page, then
        new ones.  Returns the records' addresses."""
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
                ctx.lock_records(relation_id, self._slot_locks(
                    [(page_id, slot) for slot in slots]), LockMode.X)
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
                    self._keep(handle, page_id, slots, page_raws, log.lsn,
                               True)
                    keys.extend((page_id, slot) for slot in slots)
                return slots
            finally:
                ctx.buffer.unpin(page_id, dirty=fresh or bool(slots))

        while len(keys) < len(raws):
            if not (descriptor["pages"]
                    and fill(self._last_page(ctx, descriptor), False)):
                fill(self._new_page(ctx, descriptor), True)
        ctx.stats.bump(self.name + ".inserts", len(records))
        return keys

    def update_batch(self, ctx, handle, items):
        keys = [key for key, __, __ in items]
        ctx.lock_records(handle.relation_id, keys, LockMode.X)
        # One list twice: the addresses are all read before a key moves.
        return self._rewrite(ctx, handle, items, keys, keys)

    def delete_batch(self, ctx, handle, items) -> None:
        for key, __ in items:
            ctx.lock_record(handle.relation_id, key, LockMode.X)
        self._remove(ctx, handle, [key for key, __ in items])

    # -- access -------------------------------------------------------------------------
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
            if page_id in by_page or self._owns_page(descriptor, page_id):
                page_keys, slots = by_page.setdefault(page_id, ([], []))
                page_keys.append(key)
                slots.append(slot)
        return self._read_at(ctx, handle, keys, by_page, fields, predicate)

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        scan = HeapScan(ctx, handle, fields, predicate)
        ctx.services.scans.register(scan)
        return scan

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        return handle.descriptor.storage_descriptor["ntuples"]

    def page_count(self, ctx, handle) -> int:
        return len(handle.descriptor.storage_descriptor["pages"])

    # -- the page bodies, by address -------------------------------------------------------
    def _slot_locks(self, addresses: list) -> list:
        """The record lock names that hold the slots at ``addresses``:
        a heap record's key is its address."""
        return addresses

    def _keep(self, handle, page_id, slots, raws, lsn: int,
              added: bool) -> None:
        """Keep what the descriptor derives from the pages in step with
        the change logged at ``lsn``: the records ``raws`` placed in
        ``slots`` of ``page_id`` (``added``) or removed from them."""
        descriptor = handle.descriptor.storage_descriptor
        descriptor["ntuples"] += len(slots) if added else -len(slots)
        descriptor["derived_lsn"] = lsn

    def _derive(self, ctx, handle) -> None:
        """Derive the page-derived state from the pages."""
        descriptor = handle.descriptor.storage_descriptor
        count = 0
        for page_id in descriptor["pages"]:
            with ctx.buffer.pinned(page_id) as page:
                count += page.live_count()
        descriptor["ntuples"] = count

    def _rewrite(self, ctx, handle, items, addresses, keys: list,
                 moving=()) -> list:
        """Rewrite the ``(key, old, new)`` ``items`` (keys locked) at
        ``addresses``: a pin and an ``update_multi`` record a page.  Those
        at the indexes ``moving`` and a grown record its page no longer
        holds move (delete + insert); ``keys`` gets their new keys."""
        moved, by_page, schema = sorted(moving), {}, handle.schema
        if moved:
            self._remove(ctx, handle, [addresses[i] for i in moved])
        for index, (page_id, slot) in enumerate(addresses):
            if index not in moving:
                by_page.setdefault(page_id, []).append((index, slot))
        for page_id, writes in by_page.items():
            page, image = _pin_changing(ctx.buffer, page_id,
                                        [slot for __, slot in writes])
            slots, olds, news = [], [], []
            try:
                for index, slot in writes:
                    raw = encode_record(schema, items[index][2])
                    try:
                        olds.append(page.update(slot, raw))
                    except PageError:
                        # No longer fits: the rewrites before it are logged
                        # and it is deleted in its turn, so the records
                        # after it use its room and redo replays the page
                        # as it was written.
                        self._log_update(ctx, handle, page, slots, olds, news)
                        slots, olds, news = [], [], []
                        self._delete_on(ctx, handle, page, [slot])
                        moved.append(index)
                        continue
                    slots.append(slot)
                    news.append(raw)
                self._log_update(ctx, handle, page, slots, olds, news)
            except BaseException:
                _apply(page, {"op": "update_multi", "slots": slots,
                              "old_raws": olds}, True)  # unlogged: undone
                raise
            finally:
                ctx.buffer.unpin(page_id, dirty=True, image=image)
        if len(moved) < len(items):
            ctx.stats.bump(self.name + ".updates", len(items) - len(moved))
        if len(moved) > len(moving):
            ctx.stats.bump(self.name + ".relocating_updates",
                           len(moved) - len(moving))
        if moved:
            moved.sort()
            for index, key in zip(moved, self.insert_batch(
                    ctx, handle, [items[i][2] for i in moved])):
                keys[index] = key
        return keys

    def _log_update(self, ctx, handle, page, slots, olds, news) -> None:
        """Log the rewrites of ``page``, if any."""
        # Tuples, not lists: the log then holds nothing the collector traces.
        if slots:
            page.page_lsn = ctx.log(self.resource, {
                "op": "update_multi", "relation_id": handle.relation_id,
                "page": page.page_id, "slots": tuple(slots),
                "old_raws": tuple(olds), "new_raws": tuple(news)}).lsn

    def _remove(self, ctx, handle, addresses: list) -> None:
        """Remove the records at ``addresses`` (locked), a pin a page."""
        by_page = {}
        for page_id, slot in addresses:
            by_page.setdefault(page_id, []).append(slot)
        for page_id, slots in by_page.items():
            page, image = _pin_changing(ctx.buffer, page_id, slots)
            try:
                self._delete_on(ctx, handle, page, slots)
            finally:
                ctx.buffer.unpin(page_id, dirty=True, image=image)

    def _delete_on(self, ctx, handle, page: PageView, slots: list) -> None:
        """Remove ``slots`` of the pinned ``page``: a ``delete_multi``."""
        old_raws = []
        try:
            for slot in slots:
                old_raws.append(page.delete(slot))
            log = ctx.log(self.resource, {
                "op": "delete_multi", "relation_id": handle.relation_id,
                "page": page.page_id, "slots": tuple(slots),
                "old_raws": tuple(old_raws)})
        except BaseException:
            # Unlogged deletions must not stay: put them back.
            page.insert_at(slots[:len(old_raws)], old_raws)
            raise
        page.page_lsn = log.lsn
        self._keep(handle, page.page_id, slots, old_raws, log.lsn, False)
        ctx.stats.bump(self.name + ".deletes", len(slots))

    def _read_at(self, ctx, handle, keys, by_page: dict, fields, predicate):
        """``(key, values)``, in ``keys`` order, for each key ``by_page``
        (page id → ``(keys, slots)``) places in a live slot whose record
        passes ``predicate``: per page one S ``lock_records``, one pin and
        one ``select`` over the page's records."""
        # Locked before the slot is read: a slot a writer emptied and has
        # not committed conflicts, rather than reading as no record.
        found = []
        decode = handle.schema.decoder
        for page_id, (page_keys, slots) in by_page.items():
            ctx.lock_records(handle.relation_id, page_keys, LockMode.S)
            page = ctx.buffer.fetch(page_id)
            try:
                live = [(key, decode(page.data, offset)) for key, offset
                        in zip(page_keys, page.offsets(slots))
                        if offset != TOMBSTONE]
                if predicate is not None and live:
                    live = [live[i] for i in predicate.select(ColumnBatch(
                        [record for __, record in live], len(handle.schema)),
                        ctx.stats)]
            finally:
                ctx.buffer.unpin(page_id)
            found += live if fields is None else [
                (key, tuple(record[i] for i in fields))
                for key, record in live]
        ctx.stats.bump(self.name + ".fetches", len(found))
        if len(by_page) < 2:  # one page's keys are in ``keys`` order
            return found
        found = dict(found)
        return [(key, found[key]) for key in keys if key in found]

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
        ctx.stats.bump(self.name + ".page_allocations")
        return page
