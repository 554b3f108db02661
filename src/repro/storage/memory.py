"""Temporary main-memory storage method.

The paper assigns "a storage method for implementing temporary relations
... the internal identifier 1", and separately motivates "main memory data
storage methods for selected high traffic relations".  This method plays
both roles:

* records live in a Python dict keyed by a surrogate integer record key —
  the storage method controls key definition and interpretation;
* modifications are *undoable* (they write logical undo records to the
  common log so vetoed operations and transaction aborts coordinate
  correctly with attachments), but **nothing survives a restart**: the redo
  handler is a no-op and :meth:`reset_instance` empties the relation, which
  is the temporary-relation contract.

DDL attributes: ``initial_capacity`` (int, advisory, validated only).
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.storage_method import RelationHandle, StorageMethod, \
    logged_relation, read_pairs
from ..errors import RecordNotFoundError, ScanError, StorageError
from ..services.locks import LockMode
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.scans import AFTER, ON, Scan
from ..services.vectors import ColumnBatch

__all__ = ["MemoryStorageMethod", "MemoryScan"]


class MemoryScan(Scan):
    """Key-sequential scan over a memory relation, in record-key order.

    Record keys are monotonically assigned integers, so key order is
    insertion order.  The scan snapshots the key sequence at open time and
    tracks a *position* (the last key returned); deleting the record at the
    position leaves the scan "just after the deleted item" because the next
    call skips keys that no longer exist.
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 rows: Dict[int, Tuple],
                 fields: Optional[Sequence[int]],
                 predicate: Optional[Predicate]):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.rows = rows
        self.fields = tuple(fields) if fields is not None else None
        self.predicate = predicate
        self._keys = sorted(rows)

    def next_batch(self, n: int) -> list:
        """Slice the snapshotted key sequence: one bisect for the whole
        batch instead of one per record."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        floor = self.position if self.position is not None else -1
        index = bisect.bisect_right(self._keys, floor)
        batch: list = []
        stats = self.ctx.stats
        keys = self._keys
        rows = self.rows
        while index < len(keys) and len(batch) < n:
            # Gather a window of live rows, then filter the window in one
            # pass, column-at-a-time.
            chunk_keys: list = []
            chunk_records: list = []
            while index < len(keys) and len(chunk_records) < n:
                key = keys[index]
                index += 1
                record = rows.get(key)
                if record is None:
                    continue  # deleted after the scan opened
                chunk_keys.append(key)
                chunk_records.append(record)
            if not chunk_records:
                break
            self.state = ON
            if self.predicate is None:
                selected = range(len(chunk_records))
            else:
                selected = self.predicate.select(
                    ColumnBatch(chunk_records, len(self.handle.schema)), stats)
            room = n - len(batch)
            chosen = selected[:room] if len(selected) > room else selected
            picked = [chunk_keys[i] for i in chosen]
            self.ctx.lock_records(self.handle.relation_id, picked, LockMode.S)
            found = [chunk_records[i] for i in chosen]
            if self.fields is not None:
                found = [tuple([row[f] for f in self.fields]) for row in found]
            batch.extend(zip(picked, found))
            if len(selected) >= room and selected:
                # Batch filled mid-window: stop at the last consumed key;
                # rows past it are re-examined (and only then counted) by
                # the next call, keeping totals identical to the old
                # row-at-a-time loop.
                last = selected[room - 1] if len(selected) > room \
                    else selected[-1]
                self.position = chunk_keys[last]
                stats.bump("memory.tuples_scanned", last + 1)
                break
            self.position = chunk_keys[-1]
            stats.bump("memory.tuples_scanned", len(chunk_records))
        if not batch:
            self.state = AFTER
        return batch


class _MemoryHandler(ResourceHandler):
    """Undo-only recovery: temporary relations do not survive restart."""

    def locked_records(self, services, payload: dict):
        op = payload.get("op")
        relation_id = payload["relation_id"]
        if op == "update":
            return [(relation_id, payload["key"])]
        if op in ("insert_multi", "delete_multi"):
            return [(relation_id, key) for key in payload["keys"]]
        return ()

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        relation = logged_relation(services, payload)
        if relation is None:
            return  # the relation was dropped; nothing left to undo
        rows = relation.descriptor.storage_descriptor["rows"]
        op = payload["op"]
        if op == "update":
            rows[payload["key"]] = tuple(payload["old"])
        elif op == "insert_multi":
            for key in payload["keys"]:
                rows.pop(key, None)
        elif op == "delete_multi":
            for key, old in zip(payload["keys"], payload["olds"]):
                rows[key] = tuple(old)
        else:
            raise StorageError(f"memory storage cannot undo op {op!r}")

    def redo(self, services, lsn: int, payload: dict) -> None:
        """No redo: the temporary relation's contents are volatile."""


class MemoryStorageMethod(StorageMethod):
    """Dict-backed temporary relations (paper's storage method 1)."""

    name = "memory"
    recoverable = False   # does not survive restart
    updatable = True
    ordered_by_key = False

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        capacity = attributes.pop("initial_capacity", 0)
        if attributes:
            raise StorageError(
                f"memory storage: unknown attributes {sorted(attributes)}")
        if not isinstance(capacity, int) or capacity < 0:
            raise StorageError(
                f"memory storage: initial_capacity must be a non-negative "
                f"int, got {capacity!r}")
        return {"initial_capacity": capacity}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        return {"relation_id": relation_id, "rows": {}, "next_key": 1,
                "attributes": dict(attributes)}

    def destroy_instance(self, ctx, descriptor) -> None:
        descriptor["rows"].clear()

    def reset_instance(self, descriptor: dict) -> None:
        """Called at restart: temporary contents vanish."""
        descriptor["rows"].clear()
        descriptor["next_key"] = 1

    def recovery_handler(self) -> ResourceHandler:
        return _MemoryHandler()

    # -- modification ---------------------------------------------------------------
    def update(self, ctx, handle, key, old_record, new_record):
        descriptor = handle.descriptor.storage_descriptor
        self._require(descriptor, key)
        ctx.lock_record(handle.relation_id, key, LockMode.X)
        ctx.log(self.resource, {"op": "update", "key": key,
                                "old": old_record,
                                "relation_id": descriptor["relation_id"]})
        descriptor["rows"][key] = new_record
        ctx.stats.bump("memory.updates")
        return key

    # -- set-at-a-time modification -------------------------------------------------
    # Every change is locked, checked and logged before the dict moves: a
    # refused lock or a failed log append leaves nothing applied.
    def insert_batch(self, ctx, handle, records):
        """Assign all surrogate keys and write one grouped log record."""
        descriptor = handle.descriptor.storage_descriptor
        start = descriptor["next_key"]
        keys = list(range(start, start + len(records)))
        descriptor["next_key"] = start + len(records)
        for key in keys:
            ctx.lock_record(handle.relation_id, key, LockMode.X)
        ctx.log(self.resource, {"op": "insert_multi", "keys": keys,
                                "relation_id": descriptor["relation_id"]})
        descriptor["rows"].update(zip(keys, records))
        ctx.stats.bump("memory.inserts", len(keys))
        return keys

    def delete_batch(self, ctx, handle, items) -> None:
        descriptor = handle.descriptor.storage_descriptor
        keys = [key for key, __ in items]
        for key in keys:
            self._require(descriptor, key)
            ctx.lock_record(handle.relation_id, key, LockMode.X)
        ctx.log(self.resource, {"op": "delete_multi", "keys": keys,
                                "olds": [old for __, old in items],
                                "relation_id": descriptor["relation_id"]})
        for key in keys:
            del descriptor["rows"][key]
        ctx.stats.bump("memory.deletes", len(keys))

    # -- access -------------------------------------------------------------------------
    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Direct dict lookups for the whole key set; one stats bump."""
        rows = handle.descriptor.storage_descriptor["rows"]
        present = [(key, rows[key]) for key in keys if key in rows]
        ctx.lock_records(handle.relation_id, [key for key, __ in present],
                         LockMode.S)
        pairs = read_pairs(present, len(handle.schema), fields, predicate,
                           ctx.stats)
        ctx.stats.bump("memory.fetches", len(pairs))
        return pairs

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        descriptor = handle.descriptor.storage_descriptor
        scan = MemoryScan(ctx, handle, descriptor["rows"], fields, predicate)
        ctx.services.scans.register(scan)
        return scan

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        return len(handle.descriptor.storage_descriptor["rows"])

    def page_count(self, ctx, handle) -> int:
        return 0  # main memory: no page I/O

    def _require(self, descriptor, key) -> None:
        if key not in descriptor["rows"]:
            raise RecordNotFoundError(
                f"memory relation {descriptor['relation_id']} has no record "
                f"{key!r}")
