"""B-tree-organised relation storage.

The paper's second storage-method example: "the records of the relation
... may be stored in the leaves of a B-tree index".  Record keys here are
"composed from some subset of the fields of the records" — the DDL
attribute list names the key columns, and the storage method enforces that
key values are non-null and unique (the key must identify the record).

Implementation: the heap's pages under a sorted key directory.  Records,
pages, log payloads and page undo/redo are the heap's — this method *is*
the heap (a subclass) plus the ordering layer, a directory of
``[key, page, slot]`` entries in key order kept in the storage
descriptor.  Inserts check uniqueness and lock their keys, then go through
the heap's placement body; deletes, updates and fetches resolve a key
through the directory, then run the heap's body on the address; a scan
reads the directory's runs of entries on one page through the heap's
page leaf.  The directory is derived from the pages: it follows every
logged page change and every undo (``_keep``, keys decoded from the
record images), and restart derives it again from the pages when the
crash may have left it wrong — it is not non-volatile state.  A slot is
locked under its own name beside the key, so a slot freed by an
uncommitted delete is not taken from under its undo.

DDL attributes: ``key`` (list of column names, required), ``fill_hint``
(as the heap's).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.storage_method import RelationHandle, logged_relation
from ..errors import RecordNotFoundError, ScanError, StorageError, \
    UniqueViolation
from ..query.cost import AccessCost, default_selectivity
from ..services.locks import LockMode
from ..services.pages import TOMBSTONE
from ..services.predicate import Predicate
from ..services.scans import AFTER, ON, Scan
from ..services.vectors import ColumnBatch
from .heap import HeapStorageMethod, PageLeaf, _HeapHandler, \
    _slots_and_images

__all__ = ["BTreeFileStorageMethod", "BTreeFileScan"]

#: Sorts after every ``[key, page, slot]`` entry with the same key.
_PAST = float("inf")


def _find(directory: List[list], key: tuple) -> Optional[int]:
    index = bisect.bisect_left(directory, [list(key)])
    if index < len(directory) and tuple(directory[index][0]) == tuple(key):
        return index
    return None


class _BTreeFileHandler(_HeapHandler):
    """The heap's handler; a btree_file change also held the key locks of
    its records, read off the images it logged."""

    def locked_records(self, services, payload: dict):
        held = super().locked_records(services, payload)
        relation = logged_relation(services, payload)
        if not held or relation is None:
            return held
        raws = _slots_and_images(payload)[1]
        return held + [(relation.relation_id, key)
                       for key in self.method._keys(relation, raws)]


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

    def next_batch(self, n: int) -> ColumnBatch:
        """Up to ``n`` records in key order: each run of consecutive
        directory entries on one page (bulk loads fill pages in key order,
        so runs are long) is read by the heap's page leaf under one pin."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        directory = self.handle.descriptor.storage_descriptor["directory"]
        if self.position is not None:
            index = bisect.bisect_right(directory,
                                        [list(self.position), _PAST])
        else:
            index = 0 if self.low is None else bisect.bisect_left(
                directory, [list(self.low)])
        stop = len(directory) if self.high is None else bisect.bisect_right(
            directory, [list(self.high), _PAST])
        buffer, stats = self.ctx.buffer, self.ctx.stats
        leaf = PageLeaf(self.handle.schema, self.fields, self.predicate, stats)
        keys = leaf.keys
        while index < stop and len(keys) < n:
            page_id, end = directory[index][1], index + 1
            while end < stop and directory[end][1] == page_id:
                end += 1
            run, room = directory[index:end], n - len(keys)
            __, chosen = leaf.visit(buffer, page_id, room,
                                    [slot for __, __, slot in run])
            self.state = ON
            run_keys = [tuple(run[i][0]) for i in chosen]
            self.ctx.lock_records(self.handle.relation_id, run_keys,
                                  LockMode.S)
            keys += run_keys
            if len(chosen) == room:
                # Filled mid-run: stop at the last consumed key; the
                # entries past it are counted when the next call reads them.
                self.position = tuple(run[chosen[-1]][0])
                stats.bump("btree_file.tuples_scanned", chosen[-1] + 1)
                break
            self.position = tuple(run[-1][0])
            stats.bump("btree_file.tuples_scanned", len(run))
            index = end
        if not keys:
            self.state = AFTER
        return leaf.batch()


class BTreeFileStorageMethod(HeapStorageMethod):
    """Records stored in the leaves of a B-tree, keyed by chosen fields."""

    name = "btree_file"
    ordered_by_key = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        key_columns = attributes.pop("key", None)
        if not key_columns:
            raise StorageError(
                "btree_file storage requires a 'key' attribute listing the "
                "key columns")
        for column in key_columns:
            if not schema.orderable(column):
                raise StorageError(
                    f"btree_file key column {column!r} has unorderable type "
                    f"{schema.field(column).type_code}")
        return {"key": list(key_columns),
                **super().validate_attributes(schema, attributes)}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        return {**super().create_instance(ctx, relation_id, schema,
                                          attributes),
                "key_fields": list(schema.indexes_of(attributes["key"])),
                "directory": []}

    def destroy_instance(self, ctx, descriptor) -> None:
        super().destroy_instance(ctx, descriptor)
        descriptor["directory"] = []

    def recovery_handler(self) -> _BTreeFileHandler:
        return _BTreeFileHandler(self)

    def key_fields(self, handle) -> Tuple[int, ...]:
        return tuple(handle.descriptor.storage_descriptor["key_fields"])

    def key_of(self, handle, record: Tuple) -> tuple:
        key = tuple(record[i]
                    for i in handle.descriptor.storage_descriptor["key_fields"])
        if any(v is None or v != v for v in key):  # NaN reads as NULL
            raise StorageError(f"btree_file key fields must be non-null "
                               f"and not NaN, got {key!r}")
        return key

    # -- modification ---------------------------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Check uniqueness (against the directory *and* within the set)
        and lock the keys up front, then place the records in key order
        by the heap's body."""
        directory = handle.descriptor.storage_descriptor["directory"]
        keys = [self.key_of(handle, record) for record in records]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        previous = None
        for position in order:
            key = keys[position]
            if key == previous or _find(directory, key) is not None:
                raise UniqueViolation(
                    self.name, f"duplicate storage key {key!r} in relation "
                               f"{handle.name!r}")
            previous = key
        ctx.lock_records(handle.relation_id, [keys[p] for p in order],
                         LockMode.X)
        super().insert_batch(ctx, handle, [records[p] for p in order])
        return keys

    def update_batch(self, ctx, handle, items):
        """Lock each key and the slot it names, then rewrite by the heap's
        body; a record whose key fields change moves (delete + insert)."""
        keys = [key for key, __, __ in items]
        ctx.lock_records(handle.relation_id, keys, LockMode.X)
        addresses = [self._address(handle, key) for key in keys]
        ctx.lock_records(handle.relation_id, self._slot_locks(addresses),
                         LockMode.X)
        return self._rewrite(ctx, handle, items, addresses, keys, {
            i for i, (key, __, new) in enumerate(items)
            if self.key_of(handle, new) != tuple(key)})

    def delete_batch(self, ctx, handle, items) -> None:
        """Lock each key and the slot it names (a slot freed here stays
        held until the transaction ends), then the heap's body removes
        the records."""
        addresses = []
        for key, __ in items:
            key = tuple(key)
            ctx.lock_record(handle.relation_id, key, LockMode.X)
            addresses.append(self._address(handle, key))
        ctx.lock_records(handle.relation_id, self._slot_locks(addresses),
                         LockMode.X)
        self._remove(ctx, handle, addresses)

    # -- access -------------------------------------------------------------------------
    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Resolve the keys through the directory, then read them by the
        heap's body, one pin per page."""
        directory = handle.descriptor.storage_descriptor["directory"]
        keys = [tuple(key) for key in keys]
        by_page = {}
        for key in keys:
            index = _find(directory, key)
            if index is not None:
                __, page_id, slot = directory[index]
                page_keys, slots = by_page.setdefault(page_id, ([], []))
                page_keys.append(key)
                slots.append(slot)
        return self._read_at(ctx, handle, keys, by_page, fields, predicate)

    def open_scan(self, ctx, handle, fields=None, predicate=None,
                  low: Optional[tuple] = None,
                  high: Optional[tuple] = None) -> Scan:
        scan = BTreeFileScan(ctx, handle, fields, predicate, low, high)
        ctx.services.scans.register(scan)
        return scan

    # -- planning ---------------------------------------------------------------------------
    def estimate_cost(self, ctx, handle, eligible) -> AccessCost:
        """Reports a low cost when predicates constrain the leading key
        field (records are clustered in key order)."""
        base = super().estimate_cost(ctx, handle, eligible)
        key_fields = self.key_fields(handle)
        constrained = [p for p in eligible
                       if p.is_simple and p.field_index == key_fields[0]
                       and p.op in ("=", "<", "<=", ">", ">=")]
        if not constrained:
            return base
        tuples = max(1, self.record_count(ctx, handle))
        pages = max(1, self.page_count(ctx, handle))
        expected = max(1.0, tuples * default_selectivity(constrained))
        touched_pages = max(1.0, pages * expected / tuples)
        return AccessCost(io_pages=touched_pages, cpu_tuples=expected,
                          expected_tuples=expected,
                          relevant=tuple(eligible),
                          ordered_by=tuple(key_fields),
                          route=("keyed_scan",))

    # -- the directory over the heap's pages ----------------------------------------------
    def _address(self, handle, key: tuple) -> Tuple[int, int]:
        directory = handle.descriptor.storage_descriptor["directory"]
        index = _find(directory, key)
        if index is None:
            raise RecordNotFoundError(
                f"relation {handle.name!r} has no record with key {key!r}")
        return directory[index][1], directory[index][2]

    def _slot_locks(self, addresses: list) -> list:
        # A record key is a tuple: a string never equals one, so holding
        # a slot holds no key of the relation.
        return [f"slot {page_id}.{slot}" for page_id, slot in addresses]

    def _keys(self, handle, raws) -> list:
        decode = handle.schema.decoder
        return [self.key_of(handle, decode(raw)) for raw in raws]

    def _keep(self, handle, page_id, slots, raws, lsn: int,
              added: bool) -> None:
        super()._keep(handle, page_id, slots, raws, lsn, added)
        directory = handle.descriptor.storage_descriptor["directory"]
        for slot, key in zip(slots, self._keys(handle, raws)):
            entry = [list(key), page_id, slot]
            index = bisect.bisect_left(directory, entry)
            if added:
                directory.insert(index, entry)
            elif directory[index:index + 1] == [entry]:
                del directory[index]
            else:
                raise RecordNotFoundError(f"no directory entry for {entry!r}")

    def _derive(self, ctx, handle) -> None:
        """The directory (and the count) read off the pages."""
        descriptor = handle.descriptor.storage_descriptor
        decode = handle.schema.page_decoder(tuple(descriptor["key_fields"]))
        directory = []
        for page_id in descriptor["pages"]:
            with ctx.buffer.pinned(page_id) as page:
                offsets = page.directory()[0]
                slots = [slot for slot, offset in enumerate(offsets)
                         if offset != TOMBSTONE]
                columns = decode(page.data, [offsets[slot] for slot in slots])
            directory += [[list(key), page_id, slot]
                          for key, slot in zip(zip(*columns), slots)]
        directory.sort()
        descriptor["directory"] = directory
        descriptor["ntuples"] = len(directory)
