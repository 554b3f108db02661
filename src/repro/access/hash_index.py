"""Hash table access-path attachment: a paged hash file.

The paper lists "hash tables" among attachment types.  Lookups hash the
full key, so only equality predicates are relevant — the cost estimator
returns ``None`` for anything else.  DESIGN.md "The hash file" has the
layout at length; in short:

* **A bucket is a page, an entry is a slot**: one pickled ``(key, record
  key)`` per slot, in through ``PageView.insert_many``, out through
  ``delete``; a batch visits each bucket page once and re-encodes nothing
  it did not touch.  Pages are read through the frame's decoded image
  (``BufferPool.decoded``) — ``{key: {record key: slot}}`` and the chain
  link, shared, never changed: a writer hands over a changed copy with the
  bytes it wrote — so a warm ``fetch`` is one pin and one dict lookup.
* **The directory** ``instance["buckets"]`` (head page per slot; an
  entry's slot is ``stable_hash(key) % len(directory)``) starts at the
  DDL's ``buckets`` and only doubles.  A bucket of *span* ``m`` holds the
  hash class ``h % m == slot % m`` and owns every ``m``-th slot.
* **One bucket splits at a time**, when its page is full: its span
  doubles, the upper half of its class moves to a new page, the rest stay
  in their slots.  **Entries no split tells apart chain**: a new head page
  in front of the full one (``next_page``); a chain page emptied by
  deletes is unlinked and freed.
* Only the logical ``add_many`` / ``remove_many`` records are logged (undo
  inverts them by key; a split is not undone).  The pages do not survive
  a crash: restart rebuilds the file from the batches it read once from
  the relation for every structure on it, the directory sized once from
  the entry count.
* **A probe consumes its equalities**: a route (``bind_route``) is
  ``("hash_probe", key)``, and every record key its scan returns holds
  the probed key, so the executor hands the scan only the residual
  filter (not when a value is NULL or of another type than its field).
  The scan (:class:`~repro.services.scans.KeyScan`) walks the entries
  ``fetch`` finds and tests a filter on the key fields with one
  ``select`` per chunk of entries.
* A NaN key field is stored as NULL (``scans.index_key``): no probe
  equals it, and the entry is found again when its record goes.  A
  ``bytearray`` is stored and probed as the ``bytes`` it equals.

DDL attributes: ``columns`` (required), ``buckets`` (initial directory
size, default 8).
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterator, List, Optional

from ..core.attachment import AttachmentType
from ..core.hashing import stable_hash
from ..errors import StorageError
from ..query.cost import AccessCost, implied_conjuncts
from ..services.pages import HEADER_SIZE, NO_PAGE, SLOT_SIZE, PageView
from ..services.predicate import Const
from ..services.scans import (KeyScan, Scan, changed_keys, index_key,
                              keys_of)

__all__ = ["HashIndexAttachment", "HashIndexScan"]

PAGE_TYPE_HASH_BUCKET = 5

#: The share of its pages a build plans to fill.
BUILD_FILL = 0.7
#: A split may double the directory up to this many slots per page's worth
#: of entries the index holds; past it a full bucket chains instead.
SLOTS_PER_PAGEFUL = 8

_BIT_REVERSED = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _hash(key: tuple) -> int:
    """``stable_hash`` of a key, numbers that compare equal hashing alike
    (a FLOAT field holds the 5 it was given until its record is decoded,
    5.0 from then on)."""
    return stable_hash([value + 0.0 if isinstance(value, (int, float))
                        else value for value in key])


def _split_rank(bits: int) -> int:
    """The 32 bits reversed: splits tell entries apart lowest bit first,
    so this orders entries the way every later split leaves them."""
    return int.from_bytes(
        bits.to_bytes(4, "little").translate(_BIT_REVERSED), "big")


class _Bucket:
    """The decoded image of one bucket page: shared, never changed."""

    __slots__ = ("entries", "next_page")

    def __init__(self, entries: Dict[tuple, dict], next_page: int):
        self.entries = entries      # key -> {record key: slot}
        self.next_page = next_page

    @classmethod
    def load(cls, page: PageView) -> "_Bucket":
        entries: Dict[tuple, dict] = {}
        for slot, raw in page.records():
            key, value = pickle.loads(raw)
            entries.setdefault(key, {})[value] = slot
        return cls(entries, page.next_page)


def _chain(buffer, page_id: int) -> Iterator[_Bucket]:
    """The image of each page of a chain, head first."""
    while page_id != NO_PAGE:
        image = buffer.decoded(page_id, _Bucket.load)
        yield image
        page_id = image.next_page


class HashIndexScan(KeyScan):
    """Key-sequential access in *split order*: bucket after bucket the way
    splits unfold them, within a bucket by the hash's bits lowest first
    (:func:`_split_rank`), then by record key.  A probe's scan walks only
    the entries its key's ``fetch`` found, in that order (the planner
    routes only equality lookups here).

    The position is the ``(hash, record key)`` of the last entry looked at
    — its place in the order, not in a page — so a bucket that splits,
    chains or shrinks between two calls, or between a savepoint and the
    rollback that restores a position, moves nothing across it: a split
    only ever cuts a bucket's run of the order in two.
    """

    counter = "hash_index.entries_scanned"
    _sorted = ((), [])  # a chain's images, its entries in order

    def __init__(self, ctx, handle, instance: dict, predicate,
                 probed: Optional[list] = None):
        super().__init__(ctx, handle, instance, predicate)
        #: A probe's ``(key, record key)`` entries, in ``fetch`` order; the
        #: scan walks them alone.  ``None``: every entry, in split order.
        self.probed = probed

    def _bucket(self, slot: int) -> list:
        """``(rank, (hash, key, record key))`` per entry of the bucket at
        ``slot``, in split order; kept while the chain's images are the
        very same objects."""
        images = tuple(_chain(self.ctx.buffer,
                              self.instance["buckets"][slot]))
        cached = self._sorted[0]
        if len(images) != len(cached) or any(
                one is not other for one, other in zip(images, cached)):
            initial, ranked = self.instance["initial"], []
            for image in images:
                for key, held in image.entries.items():
                    code = _hash(key)
                    rank = _split_rank(code // initial)
                    ranked.extend(((rank, repr(value)), (code, key, value))
                                  for value in held)
            ranked.sort(key=itemgetter(0))
            self._sorted = (images, ranked)
        return self._sorted[1]

    def _following(self, slot: int) -> Optional[int]:
        """The slot of the bucket after ``slot``'s in split order: the
        other half of the nearest split ``slot``'s bucket is a lower half
        of, else the next slot of the initial directory."""
        initial, span = self.instance["initial"], self.instance["spans"][slot]
        while span > initial and slot >= span // 2:
            span //= 2
            slot -= span
        if span > initial:
            return slot + span // 2
        return slot + 1 if slot + 1 < initial else None

    def _entries(self):
        """``(key, record key)`` after the position: the probe's, or
        bucket after bucket, each chain read (and ordered) once."""
        instance, position = self.instance, self.position
        if self.probed is not None:
            yield from self.probed[0 if position is None
                                   else self.probed.index(position) + 1:]
            return
        slot, after = 0, None
        if position is not None:
            slot = position[0] % len(instance["buckets"])
            slot %= instance["spans"][slot]
            after = (_split_rank(position[0] // instance["initial"]),
                     repr(position[1]))
        while slot is not None:
            entries = self._bucket(slot)
            i = 0 if after is None else bisect_right(entries, after,
                                                     key=itemgetter(0))
            for __, (__, key, value) in islice(entries, i, None):
                yield key, value
            slot, after = self._following(slot), None

    def _position_of(self, entry):
        if self.probed is not None:
            return entry
        key, value = entry
        return (_hash(key), value)


class HashIndexAttachment(AttachmentType):
    """Equality-lookup access path over a paged hash file."""

    name = "hash_index"
    is_access_path = True
    recoverable = True

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        columns = attributes.pop("columns", None)
        buckets = attributes.pop("buckets", 8)
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
        return {"columns": list(columns), "buckets": buckets}

    def create_instance(self, ctx, handle, instance_name, attributes) -> dict:
        columns = list(attributes["columns"])
        instance = {"name": instance_name, "columns": columns,
                    "key_fields": list(handle.schema.indexes_of(columns)),
                    "initial": attributes["buckets"], "pages": set()}
        self._build(ctx, handle, instance, self.stored_batches(ctx, handle))
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance) -> None:
        self._free_pages(ctx.buffer, instance)
        instance.update(buckets=[], spans=[], nentries=0)

    def undo_logged(self, services, instance: dict, payload: dict) -> None:
        entries = [(tuple(key), value) for key, value in payload["entries"]]
        undo = {"add_many": self._remove_many,
                "remove_many": self._add_many}.get(payload["op"])
        if undo is None:
            raise StorageError(f"hash_index cannot undo {payload['op']!r}")
        undo(services.buffer, instance, entries)

    @staticmethod
    def _free_pages(buffer, instance: dict) -> None:
        for page_id in sorted(instance["pages"]):
            buffer.free_page(page_id)
        instance["pages"] = set()

    def _build(self, ctx, handle, instance, batches) -> None:
        """Give back the pages held and build over the stored records: the
        directory is sized once — the doubling of ``initial`` whose pages
        the entries fill to ``BUILD_FILL``, or with a slot per distinct key
        if fewer — and ``_add_many`` then writes each bucket page once."""
        buffer = ctx.buffer
        self._free_pages(buffer, instance)
        entries = []
        for batch in batches:
            entries.extend(zip(keys_of(instance, [r for __, r in batch]),
                               [key for key, __ in batch]))
        size = instance["initial"]
        if entries:
            sample = entries[:64]
            width = sum(len(pickle.dumps(entry, pickle.HIGHEST_PROTOCOL))
                        + SLOT_SIZE for entry in sample) / len(sample)
            pageful = (buffer.device.page_size - HEADER_SIZE) / width
            wanted = min(len(entries) / (pageful * BUILD_FILL),
                         len({key for key, __ in entries}))
            while size < wanted:
                size *= 2
        instance.update(
            buckets=[self._new_page(buffer, instance, NO_PAGE)
                     for __ in range(size)],
            spans=[size] * size, nentries=0)
        self._add_many(buffer, instance, entries)
        ctx.stats.bump("hash_index.builds")

    def rebuild(self, ctx, handle, field, batches) -> None:
        for instance in field["instances"].values():
            self._build(ctx, handle, instance, batches)
        ctx.stats.bump("hash_index.rebuilds")

    # -- the hash file ---------------------------------------------------------
    @staticmethod
    def _new_page(buffer, instance: dict, next_page: int) -> int:
        page = buffer.new_page(PAGE_TYPE_HASH_BUCKET)
        page.next_page = next_page
        buffer.unpin(page.page_id, dirty=True, image=_Bucket({}, next_page))
        instance["pages"].add(page.page_id)
        return page.page_id

    @staticmethod
    def _repoint(instance: dict, slot: int, page_id: int) -> None:
        """Make ``page_id`` the head of the bucket that owns ``slot``."""
        buckets, span = instance["buckets"], instance["spans"][slot]
        for other in range(slot % span, len(buckets), span):
            buckets[other] = page_id

    @staticmethod
    def _by_bucket(instance: dict, items: list) -> Dict[int, list]:
        """``items`` — tuples that start with a hash — by the first slot of
        the bucket each belongs to."""
        spans, grouped, size = instance["spans"], {}, len(instance["spans"])
        for item in items:
            slot = item[0] % size
            grouped.setdefault(slot % spans[slot], []).append(item)
        return grouped

    def _add_many(self, buffer, instance: dict, entries: list) -> None:
        """Add ``(key, value)`` entries — the one body inserts, updates,
        undo and builds go through."""
        raws = [pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
                for entry in entries]
        room = buffer.device.page_size - HEADER_SIZE - SLOT_SIZE
        if raws and max(map(len, raws)) > room:
            raise StorageError(f"hash index {instance['name']!r}: an entry "
                               f"of {max(map(len, raws))} bytes fits no page")
        instance["nentries"] += len(entries)
        self._place(buffer, instance, [
            (_hash(entry[0]), entry[0], entry[1], raw)
            for entry, raw in zip(entries, raws)])

    def _place(self, buffer, instance: dict, items: list) -> None:
        """Put ``(hash, key, value, raw)`` items where they belong: a
        bucket's head page is visited once and takes what it has room for;
        with more left, it splits or gets a new head and they go again."""
        for slot, group in self._by_bucket(instance, items).items():
            page_id = instance["buckets"][slot]
            image = buffer.decoded(page_id, _Bucket.load)
            page = buffer.fetch(page_id)
            slots = ()
            try:
                slots = page.insert_many([item[3] for item in group])
            finally:
                if slots:
                    entries = dict(image.entries)
                    for (__, key, value, ___), at in zip(group, slots):
                        entries[key] = {**entries.get(key, {}), value: at}
                    image = _Bucket(entries, image.next_page)
                buffer.unpin(page_id, dirty=bool(slots), image=image)
            if len(slots) < len(group):
                if not self._split(buffer, instance, slot):
                    self._repoint(instance, slot, self._new_page(
                        buffer, instance, instance["buckets"][slot]))
                self._place(buffer, instance, group[len(slots):])

    def _split(self, buffer, instance: dict, slot: int) -> bool:
        """Double the span of the bucket at ``slot`` (its first): the upper
        half of its hash class moves to a new bucket, the rest stay in
        their slots.  Refused — the caller chains — when no doubling that a
        directory within ``SLOTS_PER_PAGEFUL`` holds tells two keys apart."""
        buckets, spans = instance["buckets"], instance["spans"]
        span = spans[slot]
        chain = list(_chain(buffer, buckets[slot]))
        hashes = {key: _hash(key) for image in chain for key in image.entries}
        held = sum(len(values) for image in chain
                   for values in image.entries.values())
        limit = max(len(buckets),
                    SLOTS_PER_PAGEFUL * instance["nentries"] // max(1, held))
        apart = 2 * span
        while apart <= limit \
                and len({code % apart for code in hashes.values()}) < 2:
            apart *= 2
        if apart > limit:
            return False
        if span == len(buckets):
            buckets += buckets
            spans += spans
        for other in range(slot, len(buckets), span):
            spans[other] = 2 * span
        self._repoint(instance, slot + span,
                      self._new_page(buffer, instance, NO_PAGE))
        self._place(buffer, instance, self._take(buffer, instance, slot, [
            (hashes[key], key, value) for image in chain
            for key, values in image.entries.items()
            if hashes[key] % (2 * span) != slot for value in values]))
        buffer.stats.bump("hash_index.splits")
        return True

    def _take(self, buffer, instance: dict, slot: int, wanted: list) -> list:
        """Take each ``(hash, key, value)`` of ``wanted`` once out of the
        chain at ``slot``, a page at a time: the ``(hash, key, value, raw)``
        taken.  A page left empty, unless the bucket's only, is freed."""
        taken: list = []
        before, page_id = None, instance["buckets"][slot]
        while wanted and page_id != NO_PAGE:
            image = buffer.decoded(page_id, _Bucket.load)
            following = image.next_page
            entries, found, missing = dict(image.entries), [], []
            for item in wanted:
                __, key, value = item
                if value in entries.get(key, ()):
                    held = dict(entries.pop(key))
                    found.append((item, held.pop(value)))
                    if held:
                        entries[key] = held
                else:
                    missing.append(item)
            wanted = missing
            if found:
                page = buffer.fetch(page_id)
                try:
                    taken.extend(item + (page.delete(at),)
                                 for item, at in found)
                finally:
                    buffer.unpin(page_id, dirty=True,
                                 image=_Bucket(entries, following))
                if not entries and (before, following) != (None, NO_PAGE):
                    if before is None:
                        self._repoint(instance, slot, following)
                    else:
                        ahead = buffer.decoded(before, _Bucket.load)
                        page = buffer.fetch(before)
                        page.next_page = following
                        buffer.unpin(before, dirty=True, image=_Bucket(
                            ahead.entries, following))
                    buffer.free_page(page_id)
                    instance["pages"].discard(page_id)
                    page_id = following
                    continue
            before, page_id = page_id, following
        return taken

    def _remove_many(self, buffer, instance: dict, entries: list) -> None:
        """Remove one entry for each ``(key, value)`` given that is there
        — the one body deletes, updates and undo go through."""
        for slot, group in self._by_bucket(instance, [
                (_hash(key), key, value) for key, value in entries]).items():
            instance["nentries"] -= len(
                self._take(buffer, instance, slot, group))

    def _change(self, ctx, handle, instance: dict, op: str,
                entries: list) -> None:
        """Apply one set of entries and log it: one record per instance."""
        body = self._add_many if op == "add_many" else self._remove_many
        body(ctx.buffer, instance, entries)
        ctx.log(self.resource, {
            "op": op, "relation_id": handle.relation_id,
            "instance": instance["name"],
            "entries": [[list(k), v] for k, v in entries]})

    # -- set-at-a-time attached procedures ---------------------------------------
    def on_insert_batch(self, ctx, handle, field, keys, new_records) -> None:
        for instance in field["instances"].values():
            self._change(ctx, handle, instance, "add_many", list(zip(
                keys_of(instance, new_records), keys)))
            ctx.stats.bump("hash_index.maintenance_ops", len(keys))

    def on_update_batch(self, ctx, handle, field, items) -> None:
        """Only the rows whose key or record key changed move: out with
        one ``remove_many``, back with one ``add_many`` per instance."""
        for instance in field["instances"].values():
            moves = changed_keys(instance, items)
            if moves:
                self._change(ctx, handle, instance, "remove_many", [
                    (old, items[index][0]) for index, old, __ in moves])
                self._change(ctx, handle, instance, "add_many", [
                    (new, items[index][1]) for index, __, new in moves])
            ctx.stats.bump_many({name: amount for name, amount in (
                ("hash_index.update_skips", len(items) - len(moves)),
                ("hash_index.maintenance_ops", len(moves))) if amount})

    def on_delete_batch(self, ctx, handle, field, items) -> None:
        for instance in field["instances"].values():
            self._change(ctx, handle, instance, "remove_many", list(zip(
                keys_of(instance, [old for __, old in items]),
                [key for key, __ in items])))
            ctx.stats.bump("hash_index.maintenance_ops", len(items))

    # -- direct access operations ------------------------------------------------------
    def fetch(self, ctx, handle, instance, input_key) -> List:
        key = index_key(input_key if isinstance(input_key, tuple)
                        else (input_key,))
        buckets = instance["buckets"]
        found: List = []
        ctx.stats.bump("hash_index.fetches")
        if None in key:
            return found  # NULL equals nothing
        for image in _chain(ctx.buffer, buckets[_hash(key) % len(buckets)]):
            found.extend(image.entries.get(key, ()))
        return found

    def open_scan(self, ctx, handle, instance, predicate=None,
                  route=None) -> Scan:
        """Every entry, or with a ``("hash_probe", key)`` route the entries
        a :meth:`fetch` of ``key`` finds (none for a ``None`` key)."""
        probed = None
        if route is not None:
            key = route[1]
            probed = [] if key is None else [
                (index_key(key), value)
                for value in self.fetch(ctx, handle, instance, key)]
        scan = HashIndexScan(ctx, handle, instance, predicate, probed)
        ctx.services.scans.register(scan)
        return scan

    def bind_route(self, handle, instance, relevant, values):
        """The probe key, exact when every value is of its field's type
        (``None``: two equalities on one field disagree, so no row can
        pass, exactly)."""
        by_field, exact = {}, True
        for pred, value in zip(relevant, values):
            if by_field.setdefault(pred.field_index, value) != value:
                return ("hash_probe", None), True
            exact = exact and handle.schema.comparable(pred.field_index,
                                                       value)
        return ("hash_probe", tuple(by_field.get(i)
                                    for i in instance["key_fields"])), exact

    def equality_key(self, instance):
        return tuple(instance["key_fields"])

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
        method = ctx.database.registry.storage_method(
            handle.descriptor.storage_method_id)
        tuples = max(1, method.record_count(ctx, handle))
        # The bucket a probe would read — the one the constants select, or
        # the first for a parameter — says what a probe meets: its chain's
        # pages, and its entries shared among its keys.
        literals = [p for p in relevant if isinstance(p.operand, Const)]
        route, exact = self.bind_route(handle, instance, literals,
                                       [p.operand.value for p in literals])
        buckets, slot = instance["buckets"], 0
        if len(literals) == len(relevant) and route[1] is not None:
            slot = _hash(route[1]) % len(buckets)
        chain = list(_chain(ctx.buffer, buckets[slot]))
        keys = {key for image in chain for key in image.entries}
        expected = max(1.0, sum(
            len(values) for image in chain
            for values in image.entries.values()) / max(1, len(keys)))
        if len(instance["key_fields"]) == 1:
            # Precomputed statistics beat the bucket's own load:
            # an equality probe returns rows / ndv matches.
            from .statistics import statistics_for
            table_stats = statistics_for(ctx, handle)
            if table_stats is not None:
                selectivity = table_stats.selectivity(
                    instance["key_fields"][0], "=", None)
                if selectivity is not None:
                    expected = max(1.0, tuples * selectivity)
        expected = min(expected, float(tuples))
        # The chain's pages + one base fetch per match.
        return AccessCost(io_pages=len(chain) + expected, cpu_tuples=expected,
                          expected_tuples=expected,
                          relevant=tuple(relevant), route=route,
                          consumed=implied_conjuncts(relevant, eligible)
                          if exact else ())
