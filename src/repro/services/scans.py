"""Scan position bookkeeping.

The paper introduces the term *scan* for a key-sequential access position:
"A scan may be *on*, *after*, or *before* an item of the relation or access
path.  After a successful return from a key-sequential access, the scan is
*on* the returned item.  If an item at the scan position is deleted, the
scan will be positioned just *after* the deleted item."

Two common-service obligations follow:

* **End of transaction** — all key-sequential accesses must be terminated
  when the transaction ends (locks protecting the positions are released),
  so the service closes every scan the transaction still has open.
* **Partial rollback** — scan position changes are *not logged* (for
  performance), so when a savepoint is established the service asks every
  open scan for its position, retains it, and restores it if the
  transaction later rolls back to that savepoint.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter
from typing import Dict, List, Tuple

from ..errors import ScanError
from . import events as ev
from .events import EventService
from .locks import LockMode
from .vectors import ColumnBatch

__all__ = ["ScanPosition", "Scan", "KeyScan", "keys_of", "changed_keys",
           "index_key", "ScanService", "SnapshotScan",
           "ShippedRows", "ShippedScan",
           "ABSENT", "BEFORE", "ON", "AFTER", "SCAN_BATCH", "key_ordered"]

BEFORE = "before"
ON = "on"
AFTER = "after"

#: Items a caller that reads a whole scan asks for per ``next_batch``.
SCAN_BATCH = 256

#: Sentinel: under a snapshot, this record key must not be seen at all
#: (the version store's "the record did not exist" image).  Defined here
#: (the scan boundary) so both the transaction service's version store
#: and the dispatch layer's snapshot reads share it without an import
#: cycle.
ABSENT = object()


def key_ordered(pairs: list) -> list:
    """Sort ``(record key, image)`` pairs by key, in place — the order in
    which a snapshot reader meets images that come from the version
    store rather than from storage.  Keys are distinct, so the images are
    never compared."""
    try:
        pairs.sort(key=itemgetter(0))
    except TypeError:  # heterogeneous keys: still deterministic
        pairs.sort(key=repr)
    return pairs


class ScanPosition:
    """An opaque (to the common system) saved scan position.

    ``state`` is one of BEFORE / ON / AFTER relative to ``item``, whose
    interpretation belongs to the scan's storage method or attachment.
    """

    __slots__ = ("state", "item")

    def __init__(self, state: str, item):
        if state not in (BEFORE, ON, AFTER):
            raise ScanError(f"bad scan position state {state!r}")
        self.state = state
        self.item = item

    def __eq__(self, other):
        return (isinstance(other, ScanPosition)
                and (self.state, self.item) == (other.state, other.item))

    def __repr__(self) -> str:
        return f"ScanPosition({self.state}, {self.item!r})"


class Scan:
    """Base protocol for key-sequential accesses.

    Concrete scans are produced by storage methods and access-path
    attachments.  The common system only relies on this protocol; the
    *meaning* of positions stays inside the extension.
    """

    #: The predicate the scan tests on its entries' keys before any record
    #: is read; ``None`` when it tests none.
    key_filter = None

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.closed = False
        #: BEFORE, ON or AFTER ``position``: an item whose meaning is the
        #: extension's, which the default save and restore keep as it is.
        self.state, self.position = BEFORE, None

    def next(self):
        """Return the next item after the current position, or ``None`` at
        the end of the key sequence (the scan is then *after* the last
        item): the batch of one.  A scan implements one of the two —
        every built-in, :meth:`next_batch`; a scan written tuple-at-a-time,
        this one, and inherits the batch loop."""
        batch = self.next_batch(1)
        return batch[0] if batch else None

    def next_batch(self, n: int) -> list:
        """Return up to ``n`` items following the current position.

        An empty list means the scan is *after* the last item.  After a
        non-empty return the scan is *on* the last item of the batch, so
        ``save_position`` / ``restore_position`` keep their tuple-at-a-time
        meaning at batch boundaries — or already *after* it, when the scan
        saw its key sequence end while filling the batch: *after* is
        terminal until ``restore_position`` moves the scan back, so the
        next call may answer without looking.  The default loops over
        :meth:`next`; extensions override it to extract a whole page of
        records under a single buffer pin.
        """
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        batch = []
        while len(batch) < n:
            item = self.next()
            if item is None:
                break
            batch.append(item)
        return batch

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, position: ScanPosition) -> None:
        self.state, self.position = position.state, position.item

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise ScanError("scan used after close")


def keys_of(instance: dict, records) -> list:
    """Each of ``records``' keys in a B-tree or hash file ``instance``
    (read as :func:`index_key` reads a probe), a key field at a time."""
    return list(zip(*[_plain([record[i] for record in records])
                      for i in instance["key_fields"]]))


def changed_keys(instance: dict, items) -> list:
    """``(batch index, old key, new key)`` of each update item whose key
    in ``instance`` or record key changed.  Key fields equal as stored are
    equal as read, so only the other items' keys are read."""
    fields = itemgetter(*instance["key_fields"])
    moved = [(index, item) for index, item in enumerate(items)
             if item[0] != item[1] or fields(item[2]) != fields(item[3])]
    if not moved:
        return moved
    olds = keys_of(instance, [item[2] for __, item in moved])
    news = keys_of(instance, [item[3] for __, item in moved])
    return [(index, old, new) for (index, item), old, new
            in zip(moved, olds, news) if old != new or item[0] != item[1]]


def index_key(values) -> tuple:
    """An index key or probe.  A NaN is NULL: it equals and orders
    against nothing, so no probe wants it and its entry could never be
    found again to be removed.  A ``bytearray`` probe is the ``bytes`` it
    equals (``Schema.check_record`` stores it so)."""
    return tuple(_plain(values))


def _plain(values) -> list:
    return [None if value != value else bytes(value)
            if isinstance(value, bytearray) else value for value in values]


class KeyScan(Scan):
    """An access path's scan over ``(index key, record key)`` entries
    (B-tree, hash file).  A batch is a :class:`ColumnBatch` of index keys
    laid out as ``key_fields`` that carries the record keys, so it reads
    as ``(record key, index key)`` pairs; a predicate on key fields alone
    tests a chunk of entries in one ``select``.  A subclass gives
    :meth:`_entries` (those after the position: the last one read, as
    :meth:`_position_of` puts it) and the ``counter`` of entries read."""

    counter = ""

    def __init__(self, ctx, handle, instance: dict, predicate):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.instance = instance
        self.key_fields = tuple(instance["key_fields"])
        self.key_filter = predicate if predicate is not None \
            and predicate.evaluable_on(self.key_fields) else None

    def _entries(self):
        raise NotImplementedError

    def _position_of(self, entry):
        return entry

    def next_batch(self, n: int):
        """Up to ``n`` entries that pass, from one walk; a chunk the filter
        empties is followed by the next.  A batch that ends the entries
        leaves the scan *after* them: the next call walks nowhere."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        if self.state is AFTER:
            return []
        width = len(self.handle.schema)
        entries, scanned, last = self._entries(), 0, None
        while True:
            chunk = list(islice(entries, n))
            scanned += len(chunk)
            if chunk:
                last = chunk[-1]
            keys, values = zip(*chunk) if chunk else ((), ())
            if self.key_filter is not None and keys:
                chosen = self.key_filter.select(ColumnBatch(
                    keys, width, fields=self.key_fields), self.ctx.stats)
                if len(chosen) < len(keys):
                    keys = [keys[i] for i in chosen]
                    values = [values[i] for i in chosen]
            if keys or len(chunk) < n:
                break
        if scanned:
            self.ctx.stats.bump(self.counter, scanned)
        # One lock call for the batch; a conflict leaves the scan where it
        # was, so a retry sees these entries again.
        self.ctx.lock_records(self.handle.relation_id, values, LockMode.S)
        if last is not None:
            self.position = self._position_of(last)
        self.state = ON if len(chunk) == n else AFTER
        return ColumnBatch(keys, width, values, self.key_fields)


class SnapshotScan(Scan):
    """A locking reader's storage scan, less the keys of a snapshot's
    rewind patch, then the snapshot's images of those keys.

    ``patch_fn`` returns the relation's patch.  It is re-read per batch,
    so a write committed after the snapshot mid-scan is still patched
    back out: a batch that holds no patched key passes untouched, any
    other is narrowed to its unpatched rows.  Once the base scan is
    exhausted, ``images`` (which filters and projects key-ordered patch
    items; given ``None``, those of the one patch version read) answers
    every key a patch held during the scan that the scan did not return
    as current — the ones it dropped, and the ones a writer deleted or
    moved.
    """

    def __init__(self, base: Scan, patch_fn, images):
        super().__init__(base.txn_id)
        self.base = base
        self._patch_fn = patch_fn
        self._images = images
        self._patch = (None, 0)  # the patch last read, and its size then
        self._items: Dict = {}  # every patch item read, by key
        self._patches = 0  # distinct patches read
        self._returned: List = []  # the key lists returned as current
        self._tail = None  # the images still owed, once the base is done

    # -- the Scan protocol ------------------------------------------------------
    def next_batch(self, n: int):
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        self._check_open()
        while self._tail is None:
            batch = self.base.next_batch(n)
            patch = self._patch_fn()
            if patch is not self._patch[0] or len(patch) != self._patch[1]:
                # A patch only grows until the version store's epoch moves
                # and the store builds a new one, so the same patch at the
                # same size holds nothing unread.  A key's image never
                # changes while the snapshot lives.
                self._patch = (patch, len(patch))
                self._items.update(patch)
                self._patches += 1
            if not batch:
                self._tail = self._owed()
                break
            keys = batch.keys if isinstance(batch, ColumnBatch) \
                else [key for key, __ in batch]
            patched = patch.keys() & keys
            if patched:
                keep = [i for i, key in enumerate(keys) if key not in patched]
                if not keep:
                    continue
                if isinstance(batch, ColumnBatch):
                    batch = batch.narrow(keep)
                    keys = batch.keys
                else:
                    batch = [batch[i] for i in keep]
                    keys = [keys[i] for i in keep]
            self._returned.append(keys)
            return batch
        out, self._tail = self._tail[:n], self._tail[n:]
        return out

    def save_position(self) -> ScanPosition:
        return self.base.save_position()

    def restore_position(self, position: ScanPosition) -> None:
        self.base.restore_position(position)

    def close(self) -> None:
        if not self.base.closed:
            self.base.close()
        super().close()

    def _owed(self) -> list:
        # Under one patch no key it holds was returned as current.  A key
        # enters (a commit after the scan returned it) or leaves (its
        # writer rolled back after the scan passed it) only as it moves.
        if self._patches == 1:
            return self._images(None)
        returned = set(chain.from_iterable(self._returned))
        return self._images(key_ordered([
            item for item in self._items.items()
            if item[1] is not ABSENT and item[0] not in returned]))


class ShippedRows:
    """A :class:`ShippedScan` source over rows that are already flat."""

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows

    def read(self, start: int, n: int) -> list:
        return self.rows[start:start + n]


class ShippedScan(Scan):
    """A local scan over rows a remote peer shipped when it was opened
    (the block-fetch protocol of the foreign and sharded methods).

    It pulls from a *source* — ``read(start, n)`` returns up to ``n``
    ``(key, record)`` pairs from logical position ``start`` — and the
    position is the index of the last pair returned, so save/restore
    under partial rollback is an assignment.  ``counter`` is bumped by
    the number of pairs handed out.
    """

    def __init__(self, ctx, source, counter: str):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.source = source
        self.counter = counter

    def next_batch(self, n: int) -> list:
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        index = 0 if self.position is None else self.position + 1
        chunk = self.source.read(index, n)
        if not chunk:
            self.state = AFTER
            return []
        self.position = index + len(chunk) - 1
        self.state = ON
        self.ctx.stats.bump(self.counter, len(chunk))
        return chunk


class ScanService:
    """Tracks open scans per transaction; wires them to transaction events."""

    def __init__(self, events: EventService):
        # txn_id -> {id(scan): scan}; keyed by identity so wide queries
        # opening many scans register/unregister in O(1) (insertion order
        # is preserved, so event handlers still see scans oldest-first).
        self._open: Dict[int, Dict[int, Scan]] = {}
        # (txn_id, savepoint name) -> [(scan, position)]
        self._saved: Dict[Tuple[int, str], List[Tuple[Scan, ScanPosition]]] = {}
        events.subscribe(ev.AT_END, self._on_txn_end)
        events.subscribe(ev.SAVEPOINT_SET, self._on_savepoint_set)
        events.subscribe(ev.SAVEPOINT_ROLLBACK, self._on_savepoint_rollback)

    # -- registration (called by extensions when opening/closing scans) -------
    def register(self, scan: Scan) -> Scan:
        self._open.setdefault(scan.txn_id, {})[id(scan)] = scan
        return scan

    def unregister(self, scan: Scan) -> None:
        scans = self._open.get(scan.txn_id)
        if scans is not None:
            scans.pop(id(scan), None)

    def open_scans(self, txn_id: int) -> Tuple[Scan, ...]:
        return tuple(self._open.get(txn_id, {}).values())

    def drain(self, scan: Scan) -> list:
        """Every item from the scan's position on; the scan is then
        closed and unregistered."""
        try:
            items = []
            while True:
                batch = scan.next_batch(SCAN_BATCH)
                if not batch:
                    return items
                items.extend(batch)
        finally:
            scan.close()
            self.unregister(scan)

    # -- event reactions ------------------------------------------------------------
    def _on_txn_end(self, txn_id: int, info: dict) -> None:
        for scan in self._open.pop(txn_id, {}).values():
            if not scan.closed:
                scan.close()
        for key in [k for k in self._saved if k[0] == txn_id]:
            del self._saved[key]

    def _on_savepoint_set(self, txn_id: int, info: dict) -> None:
        name = info["name"]
        captured = [(scan, scan.save_position())
                    for scan in self._open.get(txn_id, {}).values()
                    if not scan.closed]
        self._saved[(txn_id, name)] = captured

    def _on_savepoint_rollback(self, txn_id: int, info: dict) -> None:
        name = info["name"]
        key = (txn_id, name)
        if key not in self._saved:
            return
        for scan, position in self._saved[key]:
            if not scan.closed:
                scan.restore_position(position)
        # Positions are retained until the savepoint is cancelled or used;
        # a rollback *uses* it (and implicitly cancels deeper savepoints,
        # which the transaction manager reports separately).

    def cancel_savepoint(self, txn_id: int, name: str) -> None:
        self._saved.pop((txn_id, name), None)
