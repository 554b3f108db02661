"""Direct generic operations and the attached-procedure driver.

This module is the heart of the architecture — the paper's two-step
execution of relation modification operations:

  "The first step, using the storage method identifier from the relation
  descriptor, calls the appropriate storage method modification routine
  via the storage method operation vectors.  After completing the storage
  method operation, the extensions attached to the relation are invoked
  via the attached procedures vectors.  Again, the relation descriptor is
  consulted to determine which attachment types have instances on the
  relation and must, therefore, be notified of the relation modification
  ...  The storage method operation or the procedurally-attached
  extensions can abort the entire relation modification operation.
  Common system facilities will be used to undo the effects of completed
  storage method and attachment modifications if the relation
  modification operation is aborted."

Undo of a vetoed modification is driven through an *operation savepoint*
established before the storage-method call; a veto (or any error) raised
by the storage method or any attached procedure triggers a log-driven
partial rollback to it, after which the error propagates to the caller.

Data access operations take an access path selector: "Access path
extensions are selected using their attachment identifier plus an instance
number ...  Access path zero is interpreted as an access to the storage
method."
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence, Tuple

from ..errors import (ExtensionFault, ReadOnlyError,
                      ReadOnlyTransactionError, ReproError, StorageError,
                      UnknownObjectError)
from ..services.locks import LOCK_ESCALATION_THRESHOLD, LockMode
from ..services.predicate import Predicate
from ..services.scans import ABSENT, SnapshotScan, key_ordered
from .attachment import equality_keys
from .context import ExecutionContext
from .registry import ExtensionRegistry
from .storage_method import RelationHandle, read_pairs

__all__ = ["DataManager", "AccessPath", "PatchImages", "STORAGE_ACCESS"]

#: The reserved access-path selector meaning "access via the storage method".
STORAGE_ACCESS = 0


class AccessPath:
    """An access-path selector: attachment type id + instance name.

    ``AccessPath(0)`` (or the module constant ``STORAGE_ACCESS``) selects
    the relation's storage method itself.
    """

    __slots__ = ("type_id", "instance_name")

    def __init__(self, type_id: int = STORAGE_ACCESS,
                 instance_name: Optional[str] = None):
        self.type_id = type_id
        self.instance_name = instance_name

    @property
    def is_storage(self) -> bool:
        return self.type_id == STORAGE_ACCESS

    def __repr__(self) -> str:
        if self.is_storage:
            return "AccessPath(storage)"
        return f"AccessPath(type={self.type_id}, instance={self.instance_name!r})"


class DataManager:
    """Executes the direct generic operations through the procedure vectors."""

    #: ExtensionFaults from one access-path attachment type on one relation
    #: before its instances are quarantined (taken offline).
    QUARANTINE_THRESHOLD = 3

    def __init__(self, registry: ExtensionRegistry, services):
        self.registry = registry
        self.services = services
        #: (relation_id, type_id) -> ExtensionFault count since the last
        #: quarantine/forgive.  Constraint and trigger types accumulate
        #: counts too but are never quarantined — they fail closed.
        self._offenses = {}

    # ------------------------------------------------------------------
    # Fault barrier
    # ------------------------------------------------------------------
    # Every procedure-vector call runs behind a barrier: a ReproError
    # (veto, integrity violation, storage error) passes through annotated
    # with where it fired; any *other* exception — a bug in a third-party
    # extension — is converted to ExtensionFault so the shared transaction
    # machinery sees a known failure class and the operation savepoint can
    # roll the modification back.  Repeat-offender access-path attachments
    # are quarantined (their loss costs performance, not correctness — the
    # base relation still answers every query); constraint and trigger
    # attachments fail closed, because silently skipping enforcement would
    # corrupt data integrity.

    def _storage_call(self, ctx: ExecutionContext, handle: RelationHandle,
                      op: str, proc, *args, **kwargs):
        try:
            faults = self.services.faults
            if faults.armed:
                faults.fire(f"dispatch.storage.{op}")
            return proc(*args, **kwargs)
        except ReproError as exc:
            annotate = getattr(exc, "annotate", None)
            if annotate is not None:
                annotate(relation=handle.name, operation=op)
            raise
        except Exception as exc:
            ctx.stats.bump("containment.extension_faults")
            raise ExtensionFault(
                f"storage method raised {type(exc).__name__} during "
                f"{op!r} on relation {handle.name!r}: {exc}",
                relation=handle.name, operation=op) from exc

    def _attached_call(self, ctx: ExecutionContext, handle: RelationHandle,
                       type_id: int, field: dict, op: str, proc,
                       *args, **kwargs):
        attachment = self.registry.attachment_type(type_id)
        try:
            faults = self.services.faults
            if faults.armed:
                faults.fire(f"dispatch.attached.{attachment.name}.{op}")
            return proc(*args, **kwargs)
        except ReproError as exc:
            annotate = getattr(exc, "annotate", None)
            if annotate is not None:
                annotate(relation=handle.name, operation=op,
                         attachment_id=attachment.name)
            raise
        except Exception as exc:
            ctx.stats.bump("containment.extension_faults")
            fault = ExtensionFault(
                f"attachment type {attachment.name!r} raised "
                f"{type(exc).__name__} during {op!r} on relation "
                f"{handle.name!r}: {exc}",
                relation=handle.name, operation=op,
                attachment_id=attachment.name,
                batch_index=getattr(exc, "batch_index", None))
            self._record_offense(ctx, handle, attachment, field)
            raise fault from exc

    def _record_offense(self, ctx, handle, attachment, field) -> None:
        key = (handle.relation_id, attachment.type_id)
        count = self._offenses.get(key, 0) + 1
        self._offenses[key] = count
        if not attachment.is_access_path:
            # Fail closed: a faulty constraint or trigger keeps vetoing
            # every modification rather than being taken out of service.
            ctx.stats.bump("containment.fail_closed")
            return
        if count >= self.QUARANTINE_THRESHOLD:
            self._quarantine(ctx, handle, attachment, field)
            self._offenses.pop(key, None)

    def _quarantine(self, ctx, handle, attachment, field) -> None:
        """Take every instance of one access-path type offline.

        Quarantined instances are moved out of the active set, so they are
        neither maintained by modification fan-out nor enumerated by the
        planner's cost pass; ``rebuild_attachment`` brings one back after
        rebuilding its structure from the base relation.
        """
        names = sorted(field.get("instances", {}))
        if not names:
            return
        quarantined = field.setdefault("quarantined", {})
        quarantined.update(field["instances"])
        field["instances"].clear()
        handle.descriptor.version += 1
        database = getattr(self.services, "database", None)
        if database is not None:
            from .dependency import attachment_token, relation_token
            database.dependencies.invalidate(relation_token(handle.name))
            for name in names:
                database.dependencies.invalidate(attachment_token(name))
        ctx.stats.bump("containment.quarantine.count")
        ctx.stats.bump("containment.quarantine.instances", len(names))

    def forgive(self, relation_id: int, type_id: int) -> None:
        """Reset the offense count (after a successful rebuild)."""
        self._offenses.pop((relation_id, type_id), None)

    def _fan_out(self, ctx: ExecutionContext, handle: RelationHandle,
                 op: str, vector: list, count: int, *args) -> None:
        """Step two: drive one attached-procedure vector over the relation.

        Only fields with an in-service instance are called — quarantined
        or disabled instances are excluded, and every hook services
        ``field["instances"]`` only, so a field with none of them would be
        a guaranteed no-op call.
        """
        for type_id, field in handle.descriptor.present_attachments():
            if field.get("instances"):
                ctx.stats.bump("dispatch.attached_calls", count)
                self._attached_call(ctx, handle, type_id, field, op,
                                    vector[type_id], ctx, handle, field,
                                    *args)

    # ------------------------------------------------------------------
    # Relation modification operations (two-step execution)
    # ------------------------------------------------------------------
    # There is one modification path and it is set-at-a-time: one
    # operation savepoint, one relation lock, one storage-method call, and
    # one attached-procedure call per attachment type for the whole set.
    # A single-record modification is a set of one.  A veto anywhere — by
    # the storage method on the j-th record or by the k-th attachment
    # type — rolls the entire set back to the operation savepoint, so a
    # batch is atomic as one relation modification operation.
    #
    # Batches of at least LOCK_ESCALATION_THRESHOLD records escalate to a
    # relation-level X lock, after which record-at-a-time locking inside
    # the storage method and attachments is subsumed and skipped.

    def insert(self, ctx: ExecutionContext, handle: RelationHandle,
               record: Tuple):
        """Insert a record; returns its record key."""
        return self.insert_batch(ctx, handle, (record,))[0]

    def update(self, ctx: ExecutionContext, handle: RelationHandle, key,
               new_record: Tuple):
        """Replace the record at ``key``; returns the (possibly new) key."""
        return self.update_batch(ctx, handle, ((key, new_record),))[0]

    def delete(self, ctx: ExecutionContext, handle: RelationHandle, key) -> None:
        """Delete the record at ``key``."""
        self.delete_batch(ctx, handle, (key,))

    def insert_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                     records: Sequence[Tuple]) -> list:
        """Insert a set of records; returns their record keys in order."""
        check = handle.schema.check_record
        records = [check(r) for r in records]
        if not records:
            return []
        method = self._modifiable_method(handle)
        self._check_writable(ctx, handle, "insert")
        self._lock_for_batch(ctx, handle, len(records))
        with _OperationScope(self, ctx):
            ctx.stats.bump("dispatch.inserts", len(records))
            keys = self._storage_call(
                ctx, handle, "insert",
                self.registry.storage_insert_batch[method.method_id],
                ctx, handle, records)
            self._fan_out(ctx, handle, "insert",
                          self.registry.attached_insert_batch, len(records),
                          keys, records)
        self._note_versions(ctx, handle, [(k, ABSENT) for k in keys])
        return keys

    def update_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                     items: Sequence[Tuple]) -> list:
        """Replace a set of records; ``items`` holds ``(key, new_record)``
        pairs.  Returns the (possibly changed) keys in order.

        All old record values are read before the operation savepoint —
        they are "available to the extension routines on updates and
        deletes" — so extensions see consistent pre-images even if an
        earlier record in the batch moves a later one's neighbours.
        """
        if not items:
            return []
        method = self._modifiable_method(handle)
        self._check_writable(ctx, handle, "update")
        self._lock_for_batch(ctx, handle, len(items))
        check = handle.schema.check_record
        pairs = self._old_records(ctx, handle, method,
                                  [key for key, __ in items])
        triples = [(key, old, check(new))
                   for (key, new), (__, old) in zip(items, pairs)]
        with _OperationScope(self, ctx):
            ctx.stats.bump("dispatch.updates", len(triples))
            new_keys = self._storage_call(
                ctx, handle, "update",
                self.registry.storage_update_batch[method.method_id],
                ctx, handle, triples)
            quads = [(key, new_key, old, new)
                     for (key, old, new), new_key in zip(triples, new_keys)]
            self._fan_out(ctx, handle, "update",
                          self.registry.attached_update_batch, len(quads),
                          quads)
        transitions = []
        for key, new_key, old, __ in quads:
            transitions.append((key, old))
            if new_key != key:  # relocated: the new key did not exist before
                transitions.append((new_key, ABSENT))
        self._note_versions(ctx, handle, transitions)
        return new_keys

    def delete_batch(self, ctx: ExecutionContext, handle: RelationHandle,
                     keys: Sequence) -> None:
        """Delete the records at ``keys`` as one operation."""
        if not keys:
            return
        method = self._modifiable_method(handle)
        self._check_writable(ctx, handle, "delete")
        self._lock_for_batch(ctx, handle, len(keys))
        pairs = self._old_records(ctx, handle, method, keys)
        with _OperationScope(self, ctx):
            ctx.stats.bump("dispatch.deletes", len(pairs))
            self._storage_call(
                ctx, handle, "delete",
                self.registry.storage_delete_batch[method.method_id],
                ctx, handle, pairs)
            self._fan_out(ctx, handle, "delete",
                          self.registry.attached_delete_batch, len(pairs),
                          pairs)
        self._note_versions(ctx, handle, pairs)

    # ------------------------------------------------------------------
    # Data access operations
    # ------------------------------------------------------------------
    def fetch(self, ctx: ExecutionContext, handle: RelationHandle, key,
              fields: Optional[Sequence[int]] = None,
              predicate: Optional[Predicate] = None,
              access_path: Optional[AccessPath] = None):
        """Direct-by-key access.

        With the default access path (zero) ``key`` is a storage-method
        record key and the matching record's fields are returned.  With an
        access-path selector, ``key`` is an access-path input key and the
        *record keys* it maps to are returned — "normally, access paths
        will return record keys that can then be used to access the stored
        record directly via its storage method implementation".
        """
        method, path = self._access(ctx, handle, access_path)
        if path is not None:
            return self._attached_call(
                ctx, handle, access_path.type_id, path[1], "fetch",
                path[0].fetch, ctx, handle, path[2], key)
        if ctx.txn.snapshot is not None:
            pairs = self._snapshot_fetch_many(ctx, handle, method, [key],
                                              fields, predicate)
            return pairs[0][1] if pairs else None
        return self._storage_call(
            ctx, handle, "fetch", self.registry.storage_fetch[
                method.method_id], ctx, handle, key, fields, predicate)

    def fetch_many(self, ctx: ExecutionContext, handle: RelationHandle,
                   keys: Sequence,
                   fields: Optional[Sequence[int]] = None,
                   predicate: Optional[Predicate] = None,
                   access_path: Optional[AccessPath] = None) -> list:
        """Direct-by-key access for a set of keys in one operation.

        With the default access path (zero) the storage method resolves
        the whole key set at once — typically one page pin per distinct
        page — and returns ``(key, fields)`` pairs in input-key order,
        omitting keys with no (qualifying) record.  With an access-path
        selector each input key is probed and the pairs map input keys to
        the record keys they yielded.
        """
        method, path = self._access(ctx, handle, access_path)
        if path is not None:
            found = [(key, self._attached_call(
                ctx, handle, access_path.type_id, path[1], "fetch_many",
                path[0].fetch, ctx, handle, path[2], key)) for key in keys]
            return [pair for pair in found if pair[1]]
        if ctx.txn.snapshot is not None:
            return self._snapshot_fetch_many(ctx, handle, method, keys,
                                             fields, predicate)
        return self._storage_call(
            ctx, handle, "fetch_many", self.registry.storage_fetch_many[
                method.method_id], ctx, handle, keys, fields, predicate)

    def open_scan(self, ctx: ExecutionContext, handle: RelationHandle,
                  fields: Optional[Sequence[int]] = None,
                  predicate: Optional[Predicate] = None,
                  access_path: Optional[AccessPath] = None,
                  route=None):
        """Key-sequential access via the storage method or an access path."""
        method, path = self._access(ctx, handle, access_path)
        if path is not None:
            return self._attached_call(
                ctx, handle, access_path.type_id, path[1], "open_scan",
                path[0].open_scan, ctx, handle, path[2], predicate,
                route=route)
        if ctx.txn.snapshot is not None:
            return self._snapshot_open_scan(ctx, handle, method, fields,
                                            predicate)
        return self._storage_call(
            ctx, handle, "open_scan", self.registry.storage_open_scan[
                method.method_id], ctx, handle, fields, predicate)

    def _access(self, ctx: ExecutionContext, handle: RelationHandle,
                access_path: Optional[AccessPath]) -> tuple:
        """Take relation IS; then ``(storage method, None)`` for access
        path zero, else ``(None, (attachment type, field, instance))``."""
        ctx.lock_relation(handle.relation_id, LockMode.IS)
        if access_path is None or access_path.is_storage:
            return self.registry.storage_method(
                handle.descriptor.storage_method_id), None
        attachment = self.registry.attachment_type(access_path.type_id)
        field = handle.descriptor.attachment_field(access_path.type_id)
        if field is None:
            raise UnknownObjectError(
                f"relation {handle.name!r} has no attachments of type id "
                f"{access_path.type_id}")
        return None, (attachment, field, attachment.instance(
            field, access_path.instance_name))

    # ------------------------------------------------------------------
    # Multi-version (snapshot) reads
    # ------------------------------------------------------------------
    # A snapshot reader resolves every read against its Snapshot: current
    # state is *patched* with the before-images of transitions the
    # snapshot must not see (writes by transactions that were uncommitted
    # at — or committed after — the snapshot LSN).  The patch is keyed by
    # record key, which is also what every access path returns, and a key
    # outside it has current record = snapshot image, hence current index
    # entries = snapshot index entries.  So every snapshot read follows one
    # rule: read current storage as a locking reader does, drop the keys
    # in the patch, and answer those from the patch's images
    # (``_visible``; an access route looks its images up by its bounds:
    # ``PatchImages``).  An access-path ``fetch`` through this layer
    # returns *current* record keys; re-read them through ``fetch``.

    def _check_writable(self, ctx: ExecutionContext, handle: RelationHandle,
                        op: str) -> None:
        if ctx.txn.snapshot is not None:
            raise ReadOnlyTransactionError(
                f"snapshot transaction {ctx.txn_id} cannot {op} on relation "
                f"{handle.name!r}; begin a read-write transaction instead")

    def _note_versions(self, ctx: ExecutionContext, handle: RelationHandle,
                       transitions) -> None:
        """Tell the version store what this modification changed."""
        self.services.transactions.note_versions(ctx.txn, handle.relation_id,
                                                 transitions)

    def _relation_patch(self, handle: RelationHandle, snapshot) -> dict:
        """The relation's rewind patch under ``snapshot``.  A new version
        of the patch memo (a write or a rollback moved it) rebuilds the
        index of its images, so the snapshot's first statement on the
        relation pays for it, not the access route that reads it."""
        relation_id = handle.relation_id
        patch = self.services.transactions.snapshot_patch(snapshot,
                                                          relation_id)
        version = snapshot.patches[relation_id][:2]
        images = snapshot.images.get(relation_id)
        if images is None or images.version != version:
            leading = {key[0] for __, __i, key
                       in equality_keys(self.registry, handle) if key}
            snapshot.images[relation_id] = PatchImages(
                version, patch, handle.schema, leading)
        return patch

    def snapshot_images(self, ctx: ExecutionContext, handle: RelationHandle
                        ) -> Optional["PatchImages"]:
        """What an access route needs to serve ``ctx``'s snapshot: the
        relation's patch (:class:`PatchImages`; its ``keys`` are a live
        view, for one statement), ``None`` while nothing is patched."""
        snapshot = ctx.txn.snapshot
        if snapshot is None or not self._relation_patch(handle, snapshot):
            return None
        return snapshot.images[handle.relation_id]

    def _snapshot_fetch_many(self, ctx, handle, method, keys, fields,
                             predicate) -> list:
        patch = self._relation_patch(handle, ctx.txn.snapshot)
        unpatched = [key for key in keys if key not in patch]
        pairs = self._storage_call(
            ctx, handle, "fetch_many",
            self.registry.storage_fetch_many[method.method_id],
            ctx, handle, unpatched, fields, predicate) if unpatched else []
        if len(unpatched) == len(keys):
            return pairs
        found = dict(pairs)
        found.update(_visible(
            ctx, [(key, patch[key]) for key in keys
                  if patch.get(key, ABSENT) is not ABSENT],
            len(handle.schema), fields, predicate))
        return [(key, found[key]) for key in keys if key in found]

    def _snapshot_open_scan(self, ctx, handle, method, fields, predicate):
        """The storage scan a locking reader opens, less the patched keys,
        then their images (:class:`SnapshotScan`): under one patch version
        the :class:`PatchImages` pairs, already key-ordered."""
        snapshot = ctx.txn.snapshot
        wrapped = SnapshotScan(
            self._storage_call(
                ctx, handle, "open_scan",
                self.registry.storage_open_scan[method.method_id],
                ctx, handle, fields, predicate),
            lambda: self._relation_patch(handle, snapshot),
            lambda pairs: _visible(
                ctx, snapshot.images[handle.relation_id].pairs
                if pairs is None else pairs, len(handle.schema), fields,
                predicate))
        ctx.services.scans.register(wrapped)
        return wrapped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _modifiable_method(self, handle: RelationHandle):
        method = self.registry.storage_method(
            handle.descriptor.storage_method_id)
        if not method.updatable:
            raise ReadOnlyError(
                f"relation {handle.name!r} uses read-only storage method "
                f"{method.name!r}")
        return method

    def _lock_for_batch(self, ctx, handle: RelationHandle, size: int) -> None:
        """Relation lock for a set-at-a-time modification.

        Small batches take the usual IX intent and let the storage method
        lock each record; large ones escalate to one relation-level X lock,
        which subsumes (and suppresses) all record-at-a-time locking.
        """
        if size >= LOCK_ESCALATION_THRESHOLD:
            ctx.lock_relation(handle.relation_id, LockMode.X)
        else:
            ctx.lock_relation(handle.relation_id, LockMode.IX)

    def _old_records(self, ctx, handle, method, keys) -> list:
        """``(key, record)`` for each of ``keys``, in order, read by one
        ``fetch_many`` — one pin per page, one message per shard; each key
        must name a record, once."""
        if len(set(keys)) < len(keys):
            raise StorageError(f"relation {handle.name!r}: a key appears "
                               f"twice in one modification")
        pairs = self._storage_call(
            ctx, handle, "fetch", self.registry.storage_fetch_many[
                method.method_id], ctx, handle, keys, None, None)
        if len(pairs) < len(keys):
            missing = set(keys).difference(key for key, __ in pairs)
            raise StorageError(f"relation {handle.name!r} has no record with "
                               f"key {min(missing, key=keys.index)!r}")
        return pairs


def _visible(ctx, pairs, width: int, fields, predicate) -> list:
    """:func:`read_pairs` of the ``(key, image)`` patch items ``pairs``
    (images the snapshot sees, not ``ABSENT``), counted: the answer for
    the keys a snapshot read dropped from current state."""
    if predicate is not None and pairs:
        ctx.stats.bump("mvcc.images_tested", len(pairs))
    pairs = read_pairs(pairs, width, fields, predicate, ctx.stats)
    if pairs:
        ctx.stats.bump("mvcc.records_patched", len(pairs))
    return pairs


class PatchImages:
    """One relation's rewind patch under one snapshot, as an access route
    reads it: ``keys`` to drop from its current hits, and ``pairs``, the
    ``(key, image)`` pairs the snapshot sees there (not ``ABSENT``), in
    key order, looked up by the value of each field that leads an access
    path (another field's lookup is built on first use).  Both are built
    once per patch version: ``version`` is the patch
    memo's ``(store epoch, transitions consumed)``.  Values are looked up
    as an index holds them (``scans.index_key``): a ``bytearray`` probe
    as the ``bytes`` it equals (a stored record holds ``bytes``, see
    ``Schema.check_record``), and a NULL or NaN value in no lookup, as
    no comparison with the field passes it."""

    __slots__ = ("version", "keys", "pairs", "_schema", "_by_field")

    def __init__(self, version: tuple, patch: dict, schema, fields):
        self.version = version
        self.keys = patch.keys()
        self.pairs = key_ordered([item for item in patch.items()
                                  if item[1] is not ABSENT])
        self._schema = schema
        self._by_field = {}
        for field in fields:
            self._lookup(field)

    def _lookup(self, field: int) -> tuple:
        """``(equal, values)``: the pairs by ``field``'s value, and its
        distinct values sorted (``None`` for a type without order)."""
        found = self._by_field.get(field)
        if found is None:
            equal = {}
            for pair in self.pairs:
                value = pair[1][field]
                if value is not None and value == value:
                    equal.setdefault(value, []).append(pair)
            schema = self._schema
            found = self._by_field[field] = (equal, sorted(equal) if (
                schema.orderable(schema.fields[field].name)) else None)
        return found

    def select(self, ctx: ExecutionContext, predicate_of, bounds=()) -> list:
        """The pairs whose image the predicate passes, in key order, tested
        only where ``bounds`` reach: an exact route's ``(field, op, value)``
        conjuncts on the first one's field, an ``=`` looked up, a range
        bisected (no bounds: every pair).  ``predicate_of()`` gives the
        predicate (or ``None``), asked for only when some image is reached:
        most point reads reach none and compile nothing."""
        pairs = self._reach(bounds) if bounds else self.pairs
        return pairs and _visible(ctx, pairs, len(self._schema), None,
                                  predicate_of())

    def _reach(self, bounds) -> list:
        field = bounds[0][0]
        equal, values = self._lookup(field)
        ops = {op: bytes(value) if isinstance(value, bytearray) else value
               for at, op, value in bounds if at == field}
        if "=" in ops:
            return equal.get(ops["="], ())
        low, high = ops.get(">", ops.get(">=")), ops.get("<", ops.get("<="))
        if values is None or (low, high) == (None, None):
            return self.pairs
        start = 0 if low is None else (
            bisect_right if ">" in ops else bisect_left)(values, low)
        stop = len(values) if high is None else (
            bisect_left if "<" in ops else bisect_right)(values, high)
        return key_ordered([pair for value in values[start:stop]
                            for pair in equal[value]])


class _OperationScope:
    """Context manager: operation savepoint + rollback-on-error.

    Every relation modification runs inside an internal savepoint so a
    veto by the k-th attachment undoes the storage-method change and the
    k−1 attached procedures that already ran (including any cascaded
    modifications they performed on other relations).
    """

    __slots__ = ("manager", "ctx", "name")

    def __init__(self, manager: DataManager, ctx: ExecutionContext):
        self.manager = manager
        self.ctx = ctx
        # Savepoint names are derived from (txn id, per-txn depth) so that
        # cascaded modifications nested inside an operation — which run in
        # the *same* transaction — get unique names regardless of how many
        # DataManager instances or databases participate.
        ctx.txn.op_seq += 1
        self.name = f"__op_{ctx.txn.txn_id}.{ctx.txn.op_seq}"

    def __enter__(self):
        txns = self.manager.services.transactions
        txns.savepoint(self.ctx.txn, self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        txns = self.manager.services.transactions
        if exc_type is None:
            txns.release_savepoint(self.ctx.txn, self.name)
            return False
        # Undo the partial effects of the failed modification, then let the
        # veto / error propagate to the caller.
        txns.rollback_to(self.ctx.txn, self.name)
        txns.release_savepoint(self.ctx.txn, self.name)
        self.ctx.stats.bump("dispatch.vetoed_operations")
        return False
