"""The storage method generic abstraction.

The paper: "Relation storage method extensions are known simply as
'storage methods' ... a storage method implementation must support a
well-defined set of relation operations such as delete, insert, destroy
relation, and estimate access costs (for query planning).  Additionally,
storage method implementations must define the notion of a record key and
support direct-by-key and key-sequential record accesses to selected
fields of the records.  The definition and interpretation of record keys
is controlled by the storage method implementation."

Every concrete storage method subclasses :class:`StorageMethod` and is
registered in the extension registry, which assigns it the small-integer
identifier used to index the procedure vectors and the relation descriptor
header.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple

from ..errors import StorageError, UnknownObjectError
from ..query.cost import AccessCost, EligiblePredicate
from ..services.predicate import Predicate
from ..services.scans import Scan
from ..services.vectors import ColumnBatch
from .context import ExecutionContext

__all__ = ["StorageMethod", "RelationHandle", "logged_relation",
           "read_pairs"]


def logged_relation(services, payload: dict) -> Optional["RelationHandle"]:
    """The relation a log record's ``payload`` names — its descriptor and
    schema — or None once it has been dropped (its operations are
    replayed after a committed DROP; their storage went with it).  A
    recovery handler has only the services to find it by."""
    database = getattr(services, "database", None)
    if database is None:
        raise StorageError("recovery handler needs services.database wired")
    try:
        return database.catalog.entry_by_id(payload["relation_id"]).handle
    except UnknownObjectError:
        return None


def read_pairs(pairs, width: int, fields, predicate, stats) -> list:
    """The ``(key, record)`` ``pairs`` whose records ``predicate`` passes,
    tested with one ``select``, each laid out as ``fields`` (``None``: the
    whole record) in a tuple, in the order given: what a direct-by-key
    read returns for the records it found."""
    if predicate is not None and pairs:
        pairs = [pairs[i] for i in predicate.select(ColumnBatch(
            [record for __, record in pairs], width), stats)]
    if fields is None:
        return [(key, tuple(record)) for key, record in pairs]
    return [(key, tuple([record[i] for i in fields])) for key, record in pairs]


class RelationHandle:
    """Runtime identity of one relation instance.

    Bundles what every generic operation needs: the relation id (lock name
    and catalog key), the schema, and the composite relation descriptor
    through which each extension reaches *its own* meta-data.
    """

    __slots__ = ("relation_id", "name", "schema", "descriptor")

    def __init__(self, relation_id: int, name: str, schema, descriptor):
        self.relation_id = relation_id
        self.name = name
        self.schema = schema
        self.descriptor = descriptor

    def __repr__(self) -> str:
        return f"RelationHandle({self.name!r}, id={self.relation_id})"


class StorageMethod(abc.ABC):
    """Base class for relation storage method extensions.

    Class attributes concrete methods must define:

    * ``name`` — unique registry name (also names the recovery resource);
    * ``recoverable`` — whether modifications are logged and survive abort
      and restart (the paper's recoverable vs. temporary distinction);
    * ``updatable`` — whether modifications are supported at all (the
      read-only publishing method sets this False);
    * ``ordered_by_key`` — whether key-sequential access returns records in
      a meaningful key order (B-tree-organised storage) rather than
      physical order (heaps).
    """

    name: str = ""
    recoverable: bool = True
    updatable: bool = True
    ordered_by_key: bool = False

    #: Assigned by the registry; indexes the storage procedure vectors and
    #: the relation descriptor header.
    method_id: int = -1

    @property
    def resource(self) -> str:
        """Recovery-log resource name for this method's logged operations."""
        return f"storage.{self.name}"

    # -- data definition --------------------------------------------------------
    def validate_attributes(self, schema, attributes: Dict[str, object]
                            ) -> Dict[str, object]:
        """Validate the DDL attribute/value list for this storage method.

        The paper extends the data definition language with an extension-
        specific attribute list; the extension "supplies generic operations
        to validate and process the attribute lists during parsing and
        execution of the data definition operations".  Returns the
        normalised attribute dict; raises on unknown/invalid attributes.
        The default accepts an empty list only.
        """
        if attributes:
            from ..errors import StorageError
            raise StorageError(
                f"storage method {self.name!r} accepts no attributes, got "
                f"{sorted(attributes)}")
        return {}

    @abc.abstractmethod
    def create_instance(self, ctx: ExecutionContext, relation_id: int,
                        schema, attributes: Dict[str, object]) -> dict:
        """Create storage for a new relation; returns its storage descriptor."""

    @abc.abstractmethod
    def destroy_instance(self, ctx: ExecutionContext, descriptor: dict) -> None:
        """Release the storage behind a descriptor (deferred to commit by
        the DDL layer so that DROP stays undoable without logging state)."""

    def recover_instance(self, ctx: ExecutionContext, handle: "RelationHandle",
                         stable_lsn: int) -> None:
        """Called at restart for every relation of a recoverable method,
        once the log has been replayed and before any attachment is
        rebuilt; ``stable_lsn`` ends the log that survived the crash.  A
        method whose descriptor keeps state derived from its storage
        derives it again here when it cannot be trusted.  The default
        keeps none."""

    # -- relation modification -----------------------------------------------------
    # The dispatch layer calls only the batch hooks, once per relation
    # modification (one operation savepoint, one relation lock for the
    # whole set; a single record is a set of one).  A method implements one
    # form per operation and the base derives the other: the per-record
    # routine, reached through the batch defaults, or — when there is a
    # real bulk advantage (filling pages before unpinning them, logging one
    # record group per page, one message per shard) — the batch hook, with
    # the per-record routine its batch of one.  The two defaults call each
    # other, so the registry refuses a method that implements neither.

    def insert(self, ctx: ExecutionContext, handle: RelationHandle,
               record: Tuple):
        """Store a record; returns its record key."""
        return self.insert_batch(ctx, handle, (record,))[0]

    def update(self, ctx: ExecutionContext, handle: RelationHandle,
               key, old_record: Tuple, new_record: Tuple):
        """Replace a record; returns its (possibly changed) record key."""
        return self.update_batch(ctx, handle,
                                 ((key, old_record, new_record),))[0]

    def delete(self, ctx: ExecutionContext, handle: RelationHandle,
               key, old_record: Tuple) -> None:
        """Remove a record by key."""
        self.delete_batch(ctx, handle, ((key, old_record),))

    def insert_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                     records: Sequence[Tuple]) -> list:
        """Store several records; returns their record keys in order."""
        return [self.insert(ctx, handle, record) for record in records]

    def update_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                     items: Sequence[Tuple]) -> list:
        """Replace several records; ``items`` holds ``(key, old_record,
        new_record)`` triples.  Returns the (possibly changed) keys in
        order."""
        return [self.update(ctx, handle, key, old, new)
                for key, old, new in items]

    def delete_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                     items: Sequence[Tuple]) -> None:
        """Remove several records; ``items`` holds ``(key, old_record)``
        pairs."""
        for key, old in items:
            self.delete(ctx, handle, key, old)

    # -- access -------------------------------------------------------------------------
    # Direct-by-key access follows the same rule: ``fetch`` or
    # ``fetch_many``.  The built-ins implement ``fetch_many`` (one pin per
    # page, one message per remote site): a single key is a set of one.
    def fetch(self, ctx: ExecutionContext, handle: RelationHandle, key,
              fields: Optional[Sequence[int]] = None,
              predicate: Optional[Predicate] = None) -> Optional[Tuple]:
        """Direct-by-key access: selected fields of the record with ``key``.

        Returns ``None`` when the key does not exist or the filter predicate
        rejects the record (evaluated against the buffered record, before
        any copy-out).  ``fields=None`` returns the whole record.
        """
        pairs = self.fetch_many(ctx, handle, (key,), fields, predicate)
        return pairs[0][1] if pairs else None

    def fetch_many(self, ctx: ExecutionContext, handle: RelationHandle,
                   keys: Sequence,
                   fields: Optional[Sequence[int]] = None,
                   predicate: Optional[Predicate] = None) -> list:
        """Direct-by-key access for a whole set of record keys.

        Returns ``(key, values)`` pairs in input-key order, omitting keys
        that do not exist or whose records the filter predicate rejects.
        The default is per-key :meth:`fetch`.  The executor's index-probe
        routes run on this.
        """
        pairs = []
        for key in keys:
            values = self.fetch(ctx, handle, key, fields, predicate)
            if values is not None:
                pairs.append((key, values))
        return pairs

    @abc.abstractmethod
    def open_scan(self, ctx: ExecutionContext, handle: RelationHandle,
                  fields: Optional[Sequence[int]] = None,
                  predicate: Optional[Predicate] = None) -> Scan:
        """Key-sequential access over all records.

        The scan yields ``(record_key, values)`` tuples and follows the
        paper's positioning rules (on/after/before; a delete at the scan
        position leaves the scan just after the deleted item).
        """

    # -- statistics & planning -----------------------------------------------------------
    @abc.abstractmethod
    def record_count(self, ctx: ExecutionContext, handle: RelationHandle) -> int:
        """Number of records currently stored (cheap; used for costing)."""

    def page_count(self, ctx: ExecutionContext, handle: RelationHandle) -> int:
        """Pages occupied; in-memory methods return 0."""
        return 0

    def estimate_cost(self, ctx: ExecutionContext, handle: RelationHandle,
                      eligible: Sequence[EligiblePredicate]) -> AccessCost:
        """Cost of scanning this relation applying the eligible predicates.

        The default models a full scan: every page read, every tuple
        touched, output scaled by the predicates' selectivities — real
        ones from an installed statistics attachment when available, the
        System R defaults otherwise.
        """
        from ..access.statistics import (predicate_selectivity,
                                         statistics_for)
        from ..query.cost import DEFAULT_SELECTIVITY
        table_stats = statistics_for(ctx, handle)
        tuples = max(1, self.record_count(ctx, handle))
        pages = max(1, self.page_count(ctx, handle))
        selectivity = 1.0
        for pred in eligible:
            estimated = predicate_selectivity(table_stats, pred)
            if estimated is not None:
                selectivity *= estimated
            elif pred.is_simple:
                selectivity *= DEFAULT_SELECTIVITY.get(pred.op, 0.5)
            else:
                selectivity *= 0.5
        ordered = None
        if self.ordered_by_key:
            key_fields = self.key_fields(handle)
            if key_fields:
                ordered = tuple(key_fields)
        return AccessCost(io_pages=pages, cpu_tuples=tuples,
                          expected_tuples=max(1.0, tuples * selectivity),
                          relevant=tuple(eligible), ordered_by=ordered,
                          route=("scan",))

    def key_fields(self, handle: RelationHandle) -> Tuple[int, ...]:
        """Field indexes composing the record key, when the key is composed
        from record fields (B-tree-organised storage); empty for address
        keys (heaps)."""
        return ()

    def __repr__(self) -> str:
        return f"<StorageMethod {self.name} id={self.method_id}>"
