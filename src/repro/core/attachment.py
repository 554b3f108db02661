"""The attachment generic abstraction.

The paper: "Access path, integrity constraint, and trigger extensions are
called 'attachments' ...  Unlike storage methods, attachment modification
operations are not directly invoked by the data management facility user.
Instead, attachment modification interfaces are invoked only as side
effects of modification operations on relations ...  Any attachment can
abort the relation operation if the operation violates any restrictions of
the attachment."

Key protocol points implemented here:

* each attachment **type** is invoked at most once per relation
  modification and must itself service *all instances* of its type defined
  on the relation (the type receives the composite per-type field from the
  relation descriptor);
* attachments may **veto** by raising :class:`~repro.errors.VetoError` (or
  a subclass); the dispatch layer then drives the log-based partial
  rollback of the storage-method change and the attachments that already
  ran;
* access-path attachments additionally expose direct access operations
  (direct-by-key and key-sequential over their mapping structures) and
  cost estimation;
* attachments may have their own storage (the paper distinguishes them
  from plain triggers on exactly this point).
"""

from __future__ import annotations

import abc
import copy
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..errors import UnknownObjectError
from ..query.cost import AccessCost, EligiblePredicate
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.scans import Scan
from .context import ExecutionContext
from .storage_method import RelationHandle, logged_relation

__all__ = ["AttachmentType", "LogicalUndoHandler", "STALE", "instances_of",
           "tag_batch_index", "equality_keys", "equality_probe",
           "matching_keys"]

#: The ``derived_lsn`` of a descriptor-resident instance whose state is
#: known to be wrong: its next read and the next restart derive it again.
STALE = float("inf")


def tag_batch_index(exc: BaseException, index: int) -> None:
    """Record which batch element an escaping exception belongs to.

    Works for any exception type (the dispatch fault barrier copies the
    attribute onto the :class:`~repro.errors.ExtensionFault` it raises);
    exceptions that refuse attributes (``__slots__``) are left untagged.
    """
    try:
        if getattr(exc, "batch_index", None) is None:
            exc.batch_index = index
    except AttributeError:
        pass


def instances_of(field: dict) -> Dict[str, dict]:
    """The per-instance descriptors inside an attachment field descriptor.

    By convention every attachment type keeps its instances under the
    ``"instances"`` key of its field descriptor, mapping instance name →
    instance descriptor.  The helper exists so the dispatch layer and tools
    can enumerate instances without knowing the type.
    """
    return field.get("instances", {})


def equality_keys(registry, handle: RelationHandle) -> Iterator[tuple]:
    """``(attachment type, instance, equality_key)`` of each access-path
    instance on ``handle``."""
    for type_id, field in handle.descriptor.present_attachments():
        attachment = registry.attachment_type(type_id)
        if attachment.is_access_path:
            for instance in field["instances"].values():
                yield attachment, instance, attachment.equality_key(instance)


def equality_probe(database, handle: RelationHandle, fields: Sequence[int]
                   ) -> Optional[Tuple[float, Callable]]:
    """``(cost, probe)``: ``probe(ctx, values)`` returns the record keys
    of ``handle``'s records whose ``fields`` equal ``values`` by the
    ``fetch`` of an access path whose ``equality_key`` is ``fields``, else
    of a storage method keyed on them; ``None`` when only a scan can."""
    fields = tuple(fields)
    registry = database.registry
    for attachment, instance, key in equality_keys(registry, handle):
        if key == fields:
            return AccessCost.IO_WEIGHT * 3.0, (
                lambda ctx, values, attachment=attachment,
                instance=instance: attachment.fetch(ctx, handle,
                                                    instance, values))
    method = registry.storage_method(handle.descriptor.storage_method_id)
    if tuple(method.key_fields(handle)) != fields:
        return None
    comparable = handle.schema.comparable

    def probe(ctx, values):
        if all(map(comparable, fields, values)) \
                and method.fetch(ctx, handle, values) is not None:
            return [values]
        return []
    return AccessCost.IO_WEIGHT * 2.0, probe


def matching_keys(ctx: ExecutionContext, handle: RelationHandle,
                  fields: Sequence[int], values: tuple) -> Iterator:
    """The record keys :func:`equality_probe` finds, else a scan (which
    stops when the caller does); NULL and NaN equal nothing (a tuple
    compares an element by identity first)."""
    if any(value is None or value != value for value in values):
        return
    found = equality_probe(ctx.database, handle, fields)
    if found is not None:
        yield from found[1](ctx, values)
        return
    for batch in AttachmentType.stored_batches(ctx, handle):
        for key, record in batch:
            if tuple(record[i] for i in fields) == values:
                yield key


class LogicalUndoHandler(ResourceHandler):
    """Handler of the records a ``recoverable`` attachment type logs: undo
    outside restart is the type's :meth:`AttachmentType.undo_logged`.  For
    a descriptor-resident type, restart undo stamps the CLR's LSN as the
    instance's ``derived_lsn`` (restart then derives it again) and redo on
    a standby, which keeps no attachment state, marks it :data:`STALE`."""

    def __init__(self, attachment: "AttachmentType"):
        self.attachment = attachment

    def _instance(self, services, payload: dict) -> Optional[dict]:
        relation = logged_relation(services, payload)
        field = relation and relation.descriptor.attachment_field(
            self.attachment.type_id)
        return field and field["instances"].get(payload["instance"])

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        instance = self._instance(services, payload)
        if instance is None:
            return
        if not getattr(services, "in_restart", False):
            self.attachment.undo_logged(services, instance, payload)
        elif self.attachment.descriptor_resident:
            instance["derived_lsn"] = clr_lsn  # derived again afterwards

    def redo(self, services, lsn: int, payload: dict) -> None:
        if (self.attachment.descriptor_resident
                and not getattr(services, "in_restart", False)):
            instance = self._instance(services, payload)
            if instance is not None:
                instance["derived_lsn"] = STALE


class AttachmentType(abc.ABC):
    """Base class for attachment extensions.

    Class attributes:

    * ``name`` — unique registry name (and recovery resource suffix);
    * ``is_access_path`` — whether the type supports direct access
      operations (fetch/scan/cost); integrity constraints and triggers
      leave this False;
    * ``recoverable`` — whether the attachment logs its own storage
      changes (pure checks log nothing);
    * ``descriptor_resident`` — whether its state lives in the relation
      descriptor, which a crash keeps, rather than in pages, which it loses;
    * ``returns_key_columns`` — whether its scans' batches hold the key
      fields as columns (a ``KeyScan``'s), which answer a covering query.
    """

    name: str = ""
    is_access_path: bool = False
    recoverable: bool = False
    descriptor_resident: bool = False
    returns_key_columns: bool = False

    #: Assigned by the registry; indexes the attachment procedure vectors
    #: and the relation descriptor fields.
    type_id: int = -1

    @property
    def resource(self) -> str:
        return f"attachment.{self.name}"

    # -- data definition -----------------------------------------------------
    def validate_attributes(self, schema, attributes: Dict[str, object]
                            ) -> Dict[str, object]:
        """Validate the DDL attribute/value list for a new instance."""
        return dict(attributes)

    def new_field_descriptor(self) -> dict:
        """The descriptor stored in the relation descriptor's field for this
        type when its first instance is created."""
        return {"instances": {}}

    @abc.abstractmethod
    def create_instance(self, ctx: ExecutionContext, handle: RelationHandle,
                        instance_name: str,
                        attributes: Dict[str, object]) -> dict:
        """Create one attachment instance; returns its instance descriptor.

        Implementations must bring the instance up to date with records
        already stored in the relation (e.g. bulk-build an index) and
        install the descriptor under ``field["instances"][instance_name]``
        themselves if they need intermediate state; the DDL layer installs
        the returned descriptor after this call returns.
        """

    @abc.abstractmethod
    def destroy_instance(self, ctx: ExecutionContext, handle: RelationHandle,
                         instance_name: str, instance: dict) -> None:
        """Release an instance's storage (deferred to commit by DDL)."""

    # -- recovery ----------------------------------------------------------------
    def recovery_handler(self) -> Optional[ResourceHandler]:
        """The handler of the records this type logs; for a ``recoverable``
        type, unless it brings its own, a :class:`LogicalUndoHandler`."""
        return LogicalUndoHandler(self) if self.recoverable else None

    def undo_logged(self, services, instance: dict, payload: dict) -> None:
        """Reverse the change to ``instance`` that ``payload`` logged; by
        default, restore its ``old_state`` if the instance is unchanged
        since, else mark it :data:`STALE` (restoring would lose a change)."""
        if instance["derived_lsn"] == payload["compensates"]:
            instance["state"] = copy.deepcopy(payload["old_state"])
            instance["derived_lsn"] = payload["derived_lsn"]
        else:
            instance["derived_lsn"] = STALE

    def log_kept(self, ctx: ExecutionContext, relation_id: int,
                 instance: dict, payload: dict) -> None:
        """Log a change to descriptor-resident ``instance`` and stamp its
        ``derived_lsn`` with the record's LSN (a STALE one stays so)."""
        log = ctx.log(self.resource, dict(
            payload, relation_id=relation_id, instance=instance["name"],
            derived_lsn=instance["derived_lsn"]))
        if instance["derived_lsn"] != STALE:
            instance["derived_lsn"] = log.lsn

    # -- procedurally attached, indirect operations ------------------------------
    def on_insert(self, ctx: ExecutionContext, handle: RelationHandle,
                  field: dict, key, new_record: Tuple) -> None:
        """Called once per record insert; must service all instances."""

    def on_update(self, ctx: ExecutionContext, handle: RelationHandle,
                  field: dict, old_key, new_key, old_record: Tuple,
                  new_record: Tuple) -> None:
        """Called once per record update with old and new values/keys."""

    def on_delete(self, ctx: ExecutionContext, handle: RelationHandle,
                  field: dict, key, old_record: Tuple) -> None:
        """Called once per record delete with the old record value."""

    # -- set-at-a-time attached procedures -----------------------------------------
    # The dispatch layer calls only these, once per relation modification
    # (after the storage method has applied the whole set; a single record
    # is a set of one).  A type implements one form per operation: the
    # per-record hook above, reached through these defaults (which tag an
    # escaping error with the record's batch index), or — when it profits
    # from set-at-a-time maintenance (indexes sorting their entries,
    # constraints batching existence probes) — the batch hook alone, with
    # no per-record body for that operation.  A veto raised anywhere
    # rolls the whole set back to the operation savepoint.  Built-ins:
    # ``btree_index`` (so ``unique``), ``hash_index`` and ``statistics``
    # implement all three batch hooks, ``check`` insert and update, and
    # ``referential`` insert and delete; ``aggregate``, ``join_index``,
    # ``rtree``, ``trigger`` and referential's update are per-record.

    def on_insert_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                        field: dict, keys: Sequence,
                        new_records: Sequence[Tuple]) -> None:
        """Called once per insert batch; parallel ``keys``/``new_records``."""
        for index, (key, record) in enumerate(zip(keys, new_records)):
            try:
                self.on_insert(ctx, handle, field, key, record)
            except Exception as exc:
                tag_batch_index(exc, index)
                raise

    def on_update_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                        field: dict, items: Sequence[Tuple]) -> None:
        """Called once per update batch; ``items`` holds ``(old_key,
        new_key, old_record, new_record)`` quadruples."""
        for index, (old_key, new_key, old, new) in enumerate(items):
            try:
                self.on_update(ctx, handle, field, old_key, new_key, old, new)
            except Exception as exc:
                tag_batch_index(exc, index)
                raise

    def on_delete_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                        field: dict, items: Sequence[Tuple]) -> None:
        """Called once per delete batch; ``items`` holds ``(key,
        old_record)`` pairs."""
        for index, (key, old) in enumerate(items):
            try:
                self.on_delete(ctx, handle, field, key, old)
            except Exception as exc:
                tag_batch_index(exc, index)
                raise

    # -- direct access operations (access paths only) --------------------------------
    def fetch(self, ctx: ExecutionContext, handle: RelationHandle,
              instance: dict, input_key) -> Sequence:
        """Direct-by-key: map an access-path key to matching record keys."""
        raise UnknownObjectError(
            f"attachment type {self.name!r} is not an access path")

    def open_scan(self, ctx: ExecutionContext, handle: RelationHandle,
                  instance: dict,
                  predicate: Optional[Predicate] = None,
                  route=None) -> Scan:
        """Key-sequential access over the mapping structure, within the
        ``route`` :meth:`bind_route` bound (``None``: every entry).

        A batch iterates as ``(record_key, fields)`` pairs, ``fields``
        holding the record fields present in the access-path key, so the
        common predicate evaluator can filter before the base record is
        fetched.  Read them by schema position through the batch: a
        key-ordered path (a :class:`~repro.services.scans.KeyScan`: B-tree,
        hash file) returns a ``ColumnBatch`` whose ``column(i)`` is schema
        field ``i``, but its pairs hold the index-key tuple in key order;
        an R-tree's pairs hold a ``RecordView`` at schema positions.  A
        scan that tests ``predicate`` on its keys sets ``key_filter``.
        """
        raise UnknownObjectError(
            f"attachment type {self.name!r} is not an access path")

    def bind_route(self, handle: RelationHandle, instance: dict,
                   relevant: Sequence[EligiblePredicate], values: Sequence
                   ) -> Tuple[object, bool]:
        """``(route, exact)``: the search :meth:`open_scan` takes for the
        ``relevant`` predicates, their operands valued ``values``, and
        whether each holds for every record key it yields.  The executor
        binds at every run, :meth:`estimate_cost` its literals (what it
        consumes).  By default: every entry, not exact."""
        return None, False

    def equality_key(self, instance: dict) -> Optional[Tuple[int, ...]]:
        """The fields whose values :meth:`fetch` finds the equal records
        of, or ``None``."""
        return None

    def estimate_cost(self, ctx: ExecutionContext, handle: RelationHandle,
                      instance_name: str, instance: dict,
                      eligible: Sequence[EligiblePredicate]
                      ) -> Optional[AccessCost]:
        """Cost of answering via this instance, or ``None`` when the
        eligible predicates are not relevant to it."""
        return None

    # -- helpers --------------------------------------------------------------------------
    @staticmethod
    def stored_batches(ctx: ExecutionContext, handle: RelationHandle,
                       size: int = 256):
        """Yield the relation's ``(record key, record)`` pairs a scan batch
        at a time: what building an instance over stored records walks."""
        method = ctx.database.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle)
        try:
            while True:
                batch = scan.next_batch(size)
                if not batch:
                    return
                yield batch
        finally:
            scan.close()
            ctx.services.scans.unregister(scan)

    def instance(self, field: dict, name: str) -> dict:
        try:
            return field["instances"][name]
        except KeyError:
            if name in field.get("quarantined", {}):
                raise UnknownObjectError(
                    f"attachment instance {name!r} of type {self.name!r} is "
                    "quarantined (offline after repeated faults; use "
                    "rebuild_attachment to restore it)") from None
            if name in field.get("disabled", {}):
                raise UnknownObjectError(
                    f"attachment instance {name!r} of type {self.name!r} is "
                    "disabled") from None
            raise UnknownObjectError(
                f"attachment {self.name!r} has no instance {name!r}") from None

    def __repr__(self) -> str:
        return f"<AttachmentType {self.name} id={self.type_id}>"
