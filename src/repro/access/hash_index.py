"""Hash table access-path attachment.

The paper lists "hash tables" among attachment types.  Buckets are
page-resident (one pickled entry list per bucket page); lookups hash the
full key, so only equality predicates are relevant — the cost estimator
returns ``None`` for anything else, letting the planner fall back to other
access paths.  The directory doubles when the load factor passes the
configured bound.

DDL attributes: ``columns`` (required), ``buckets`` (initial count,
default 8), ``max_load`` (entries per bucket before doubling, default 4).
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Tuple

from ..core.attachment import AttachmentType
from ..core.context import ExecutionContext
from ..core.records import RecordView
from ..core.storage_method import RelationHandle
from ..errors import (BucketOverflowError, PageError, ScanError,
                      StorageError)
from ..query.cost import AccessCost
from ..services.locks import LockMode
from ..services.pages import HEADER_SIZE, SLOT_SIZE
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.scans import AFTER, BEFORE, ON, Scan, ScanPosition

__all__ = ["HashIndexAttachment", "HashIndexScan"]

PAGE_TYPE_HASH_BUCKET = 5


def _bucket_read(buffer, page_id: int) -> List[Tuple[tuple, object]]:
    page = buffer.fetch(page_id)
    try:
        return pickle.loads(page.read(0))
    finally:
        buffer.unpin(page_id)


def _pickle(entries) -> bytes:
    return pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_grown(buffer, instance: dict, entries) -> bytes:
    """Pickle a bucket that just gained entries, refusing one that no
    longer fits its page's single slot — checked before any page is
    touched, so the caller's structure is intact when this raises."""
    raw = _pickle(entries)
    if len(raw) > buffer.device.page_size - HEADER_SIZE - 2 * SLOT_SIZE:
        raise BucketOverflowError(instance["name"], entries[-1][0],
                                  len(entries))
    return raw


def _bucket_write(buffer, page_id: int, raw: bytes) -> None:
    page = buffer.fetch(page_id)
    try:
        page.update(0, raw)
    finally:
        buffer.unpin(page_id, dirty=True)


def _bucket_new(buffer) -> int:
    page = buffer.new_page(PAGE_TYPE_HASH_BUCKET)
    try:
        page.insert(_pickle([]))
    finally:
        buffer.unpin(page.page_id, dirty=True)
    return page.page_id


def _hash_key(key: tuple, nbuckets: int) -> int:
    return hash(key) % nbuckets


class _HashIndexHandler(ResourceHandler):
    def __init__(self, attachment: "HashIndexAttachment"):
        self.attachment = attachment

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        if getattr(services, "in_restart", False):
            return
        database = services.database
        entry = database.catalog.entry_by_id(payload["relation_id"])
        field = entry.handle.descriptor.attachment_field(
            self.attachment.type_id)
        if field is None:
            return
        instance = field["instances"].get(payload["instance"])
        if instance is None:
            return
        op = payload["op"]
        if op == "add_many":
            for key, value in reversed(payload["entries"]):
                self.attachment._remove(services.buffer, instance,
                                        tuple(key), value)
        elif op == "remove_many":
            self.attachment._add_many(
                services.buffer, instance,
                [(tuple(key), value) for key, value in payload["entries"]])
        else:
            raise StorageError(f"hash_index cannot undo {op!r}")

    def redo(self, services, lsn: int, payload: dict) -> None:
        """No redo: rebuilt from the base relation after restart."""


class HashIndexScan(Scan):
    """Key-sequential access in (bucket, entry) order.

    Hash order is not a key order, so this scan exists for completeness
    (enumerating the mapping); the planner only routes equality lookups
    here.
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 instance: dict, predicate: Optional[Predicate]):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.instance = instance
        self.predicate = predicate
        self.key_fields = tuple(instance["key_fields"])
        self.state = BEFORE
        self.position: Optional[Tuple[int, int]] = None  # (bucket, entry idx)
        self._filter_here = (predicate is not None
                             and predicate.evaluable_on(self.key_fields))

    def next(self):
        self._check_open()
        buckets = self.instance["buckets"]
        bucket, index = (0, -1) if self.position is None else self.position
        while bucket < len(buckets):
            entries = _bucket_read(self.ctx.buffer, buckets[bucket])
            for i in range(index + 1, len(entries)):
                key, value = entries[i]
                self.position = (bucket, i)
                self.state = ON
                self.ctx.stats.bump("hash_index.entries_scanned")
                view = RecordView.from_fields(self.key_fields, key)
                if self._filter_here and not self.predicate.matches(view):
                    continue
                self.ctx.lock_record(self.handle.relation_id, value,
                                     LockMode.S)
                return value, view
            bucket += 1
            index = -1
            self.position = (bucket, -1)
        self.state = AFTER
        return None

    def next_batch(self, n: int) -> list:
        """Extract bucket-at-a-time: each bucket page is read and
        unpickled once for all its entries instead of once per entry."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        buckets = self.instance["buckets"]
        bucket, index = (0, -1) if self.position is None else self.position
        batch: list = []
        scanned = 0
        while bucket < len(buckets) and len(batch) < n:
            entries = _bucket_read(self.ctx.buffer, buckets[bucket])
            i = index + 1
            while i < len(entries) and len(batch) < n:
                key, value = entries[i]
                i += 1
                scanned += 1
                view = RecordView.from_fields(self.key_fields, key)
                if self._filter_here and not self.predicate.matches(view):
                    continue
                batch.append((value, view))
            if i >= len(entries):
                bucket, index = bucket + 1, -1
            else:
                index = i - 1
        if scanned:
            self.ctx.stats.bump("hash_index.entries_scanned", scanned)
        # One lock call for the batch; a conflict leaves the scan where it
        # was, so a retry sees these entries again.
        self.ctx.lock_records(self.handle.relation_id,
                              [value for value, __ in batch], LockMode.S)
        self.position = (bucket, index)
        self.state = ON if batch else AFTER
        return batch

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, saved: ScanPosition) -> None:
        self.state = saved.state
        self.position = saved.item


class HashIndexAttachment(AttachmentType):
    """Equality-lookup access path over page-resident buckets."""

    name = "hash_index"
    is_access_path = True
    recoverable = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        columns = attributes.pop("columns", None)
        buckets = attributes.pop("buckets", 8)
        max_load = attributes.pop("max_load", 4.0)
        if attributes:
            raise StorageError(
                f"hash_index: unknown attributes {sorted(attributes)}")
        if not columns:
            raise StorageError("hash_index requires a 'columns' attribute")
        for column in columns:
            schema.field(column)  # existence check; any hashable type works
        if not isinstance(buckets, int) or buckets < 1:
            raise StorageError(
                f"hash_index: buckets must be a positive int, got {buckets!r}")
        if not isinstance(max_load, (int, float)) or max_load <= 0:
            raise StorageError(
                f"hash_index: max_load must be positive, got {max_load!r}")
        return {"columns": list(columns), "buckets": buckets,
                "max_load": float(max_load)}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        key_fields = list(handle.schema.indexes_of(attributes["columns"]))
        instance = {"name": instance_name,
                    "columns": list(attributes["columns"]),
                    "key_fields": key_fields,
                    "max_load": attributes["max_load"],
                    "buckets": [_bucket_new(ctx.buffer)
                                for __ in range(attributes["buckets"])],
                    "nentries": 0}
        self._build(ctx, handle, instance)
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        for page_id in instance["buckets"]:
            try:
                ctx.buffer.free_page(page_id)
            except PageError:
                pass
        instance["buckets"] = []
        instance["nentries"] = 0

    def recovery_handler(self) -> ResourceHandler:
        return _HashIndexHandler(self)

    def _build(self, ctx, handle, instance) -> None:
        self._add_many(ctx.buffer, instance, [
            (self._key_of(instance, record), record_key)
            for batch in self.stored_batches(ctx, handle)
            for record_key, record in batch])
        ctx.stats.bump("hash_index.builds")

    def rebuild(self, ctx, handle, field) -> None:
        for instance in field["instances"].values():
            old_pages = list(instance["buckets"])
            nbuckets = max(8, len(old_pages))
            instance["buckets"] = [_bucket_new(ctx.buffer)
                                   for __ in range(nbuckets)]
            instance["nentries"] = 0
            for page_id in old_pages:
                try:
                    ctx.buffer.free_page(page_id)
                except PageError:
                    pass  # lost to the crash
            self._build(ctx, handle, instance)
        ctx.stats.bump("hash_index.rebuilds")

    # -- bucket maintenance ----------------------------------------------------------
    @staticmethod
    def _key_of(instance: dict, record: Tuple) -> tuple:
        return tuple(record[i] for i in instance["key_fields"])

    def _add_many(self, buffer, instance: dict, entries: list) -> None:
        """Add ``(key, value)`` entries: pre-grow the directory for the
        whole set, then touch each bucket page once (one read + one write
        per bucket, not per entry)."""
        while instance["nentries"] + len(entries) \
                > instance["max_load"] * len(instance["buckets"]):
            self._double(buffer, instance)
        buckets = instance["buckets"]
        grouped: dict = {}
        for key, value in entries:
            page_id = buckets[_hash_key(key, len(buckets))]
            grouped.setdefault(page_id, []).append((key, value))
        grown = []
        for page_id, additions in grouped.items():
            bucket = _bucket_read(buffer, page_id)
            bucket.extend(additions)
            grown.append((page_id, _pickle_grown(buffer, instance, bucket)))
        for page_id, raw in grown:
            _bucket_write(buffer, page_id, raw)
        instance["nentries"] += len(entries)

    def _remove(self, buffer, instance: dict, key: tuple, value) -> bool:
        buckets = instance["buckets"]
        page_id = buckets[_hash_key(key, len(buckets))]
        entries = _bucket_read(buffer, page_id)
        for i, (k, v) in enumerate(entries):
            if k == key and v == value:
                del entries[i]
                _bucket_write(buffer, page_id, _pickle(entries))
                instance["nentries"] -= 1
                return True
        return False

    def _double(self, buffer, instance: dict) -> None:
        old_pages = instance["buckets"]
        all_entries = []
        for page_id in old_pages:
            all_entries.extend(_bucket_read(buffer, page_id))
        nbuckets = len(old_pages) * 2
        new_pages = [_bucket_new(buffer) for __ in range(nbuckets)]
        grouped: dict = {i: [] for i in range(nbuckets)}
        for key, value in all_entries:
            grouped[_hash_key(key, nbuckets)].append((key, value))
        for i, page_id in enumerate(new_pages):
            if grouped[i]:
                _bucket_write(buffer, page_id, _pickle(grouped[i]))
        for page_id in old_pages:
            buffer.free_page(page_id)
        instance["buckets"] = new_pages

    # -- attached procedures -------------------------------------------------------------
    def on_insert(self, ctx, handle, field, key, new_record) -> None:
        self.on_insert_batch(ctx, handle, field, (key,), (new_record,))

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record) -> None:
        for instance in field["instances"].values():
            old_hash_key = self._key_of(instance, old_record)
            new_hash_key = self._key_of(instance, new_record)
            if old_hash_key == new_hash_key and old_key == new_key:
                ctx.stats.bump("hash_index.update_skips")
                continue
            self._remove(ctx.buffer, instance, old_hash_key, old_key)
            ctx.log(self.resource, {
                "op": "remove_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(old_hash_key), old_key]]})
            self._add_many(ctx.buffer, instance, [(new_hash_key, new_key)])
            ctx.log(self.resource, {
                "op": "add_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(new_hash_key), new_key]]})
            ctx.stats.bump("hash_index.maintenance_ops")

    def on_delete(self, ctx, handle, field, key, old_record) -> None:
        self.on_delete_batch(ctx, handle, field, ((key, old_record),))

    # -- set-at-a-time attached procedures ---------------------------------------
    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        """One :meth:`_add_many` and one log record per instance."""
        for instance in field["instances"].values():
            entries = [(self._key_of(instance, record), key)
                       for key, record in zip(keys, new_records)]
            self._add_many(ctx.buffer, instance, entries)
            ctx.log(self.resource, {
                "op": "add_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(k), v] for k, v in entries]})
            ctx.stats.bump("hash_index.maintenance_ops", len(entries))

    def on_delete_batch(self, ctx, handle, field, items) -> None:
        for instance in field["instances"].values():
            entries = [(self._key_of(instance, old), key)
                       for key, old in items]
            buckets = instance["buckets"]
            grouped: dict = {}
            for hash_key, value in entries:
                page_id = buckets[_hash_key(hash_key, len(buckets))]
                grouped.setdefault(page_id, []).append((hash_key, value))
            removed = 0
            for page_id, removals in grouped.items():
                bucket = _bucket_read(ctx.buffer, page_id)
                for hash_key, value in removals:
                    for i, (k, v) in enumerate(bucket):
                        if k == hash_key and v == value:
                            del bucket[i]
                            removed += 1
                            break
                _bucket_write(ctx.buffer, page_id, _pickle(bucket))
            instance["nentries"] -= removed
            ctx.log(self.resource, {
                "op": "remove_many", "relation_id": handle.relation_id,
                "instance": instance["name"],
                "entries": [[list(k), v] for k, v in entries]})
            ctx.stats.bump("hash_index.maintenance_ops", len(entries))

    # -- direct access operations ------------------------------------------------------
    def fetch(self, ctx, handle, instance, input_key) -> List:
        if not isinstance(input_key, tuple):
            input_key = (input_key,)
        buckets = instance["buckets"]
        page_id = buckets[_hash_key(tuple(input_key), len(buckets))]
        entries = _bucket_read(ctx.buffer, page_id)
        ctx.stats.bump("hash_index.fetches")
        return [value for key, value in entries if key == tuple(input_key)]

    def open_scan(self, ctx, handle, instance, predicate=None,
                  route=None) -> Scan:
        scan = HashIndexScan(ctx, handle, instance, predicate)
        ctx.services.scans.register(scan)
        return scan

    # -- cost estimation ------------------------------------------------------------------
    def estimate_cost(self, ctx, handle, instance_name, instance, eligible
                      ) -> Optional[AccessCost]:
        """Relevant only for equality predicates covering the whole key."""
        key_fields = set(instance["key_fields"])
        relevant = [p for p in eligible
                    if p.is_simple and p.op == "=" and
                    p.field_index in key_fields]
        if {p.field_index for p in relevant} != key_fields:
            return None
        database = ctx.database
        method = database.registry.storage_method(
            handle.descriptor.storage_method_id)
        tuples = max(1, method.record_count(ctx, handle))
        expected = max(1.0, instance["nentries"]
                       / max(1, len(instance["buckets"])) / 4.0)
        if len(instance["key_fields"]) == 1:
            # Precomputed statistics beat the bucket-load heuristic:
            # an equality probe returns rows / ndv matches.
            from .statistics import statistics_for
            table_stats = statistics_for(ctx, handle)
            if table_stats is not None:
                selectivity = table_stats.selectivity(
                    instance["key_fields"][0], "=", None)
                if selectivity is not None:
                    expected = max(1.0, tuples * selectivity)
        expected = min(expected, float(tuples))
        # One bucket page + one base fetch per match.
        return AccessCost(io_pages=1 + expected, cpu_tuples=expected,
                          expected_tuples=expected,
                          relevant=tuple(relevant), route=("hash_probe",))
    # NOTE: the executor probes via fetch() when the route is hash_probe.
