"""Horizontally sharded storage method: one relation over N databases.

The paper's extension architecture lets a storage method translate relation
accesses into accesses against *other* databases (the foreign gateway is
the one-remote case).  This method generalises that to N remotes: records
are partitioned by a key field across N child :class:`Database` instances,
each reached through its own :class:`~repro.services.remote.RemoteTransport`
channel (per-shard retry budget, latency charge, and circuit breaker).

Partitioning is ``hash`` (:func:`~repro.core.hashing.shard_of` over the key
value — stable across restarts and processes) or ``range`` (``bounds`` give
the N-1 split points; shard *i* covers ``[bounds[i-1], bounds[i])``).

Set-at-a-time operations fan out **one message per touched shard**, not one
per record: a batch of B records over N shards costs about ``ceil(B/N)``
rows per message on each channel, which is where the near-linear scaling
measured by benchmark E21 comes from.  Scans block-fetch every available
shard and either concatenate or — when the children report a key ordering
(``AccessCost.ordered_by``) — lazily k-way merge the per-shard streams
into one globally key-ordered stream (batch-pulled; ``sharded.merge
.batches`` counts the pulls).

Eligible single-table queries go further: the executor compiles the plan
into a **shard-local fragment** (filters, projections, partial aggregates
— see :mod:`~repro.query.fragments`) that :meth:`ShardedStorageMethod
.run_fragment` sends to every shard in shard order, one remote call per
shard, merging the partial results at the coordinator.  Statistics-fed
gating (per-shard KMV
sketches unioned across shards when ``child_statistics`` is set) decides
pushdown vs. pull-up per query; any fragment failure falls back to the
pull-up path (``sharded.pushdown.fallbacks``) so answers are never
partial unless ``degraded_reads`` says so.

Every read — fetch, block fetch, scan, fragment — reaches a shard through
one **read ladder** (:meth:`ShardedStorageMethod._read_shard`): the
primary through its channel, then the most-caught-up standby, then a
degraded skip or the original error.

Cross-shard atomicity is presumed-abort two-phase commit, coordinated
here over the explicit participant API of
:class:`~repro.services.transactions.TransactionManager`:

* The first write by a local transaction logs an ``enlist`` record naming
  the global transaction id, so the coordinator durably knows a distributed
  transaction existed before any child can promise anything.
* At ``BEFORE_PREPARE`` :meth:`~ShardedStorageMethod._phase_one` forces
  the local log, then asks every child that wrote to ``prepare`` (a remote
  call that can fail; read-only children are skipped), and logs the commit
  *decision* as an ordinary update record whose durability rides the
  coordinator's COMMIT force.  A NO vote re-raises: the local transaction
  aborts, and its end aborts the children.
* At ``AT_COMMIT`` :meth:`~ShardedStorageMethod._deliver` sends the
  decision; a dead channel leaves that child prepared and **in doubt**.
* At ``AT_END`` every child the decision did not settle is aborted —
  unprepared ones directly (connection-drop semantics: a remote DBMS
  aborts a lost client's unprepared work itself, so no message is
  charged), prepared ones by an abort message that can be lost too.

Every child is settled by one body, :func:`_settle`, under the decided
verb: through the shard's channel during a live transaction, directly at
resolution.  Resolution is one walk:
:meth:`~repro.core.database.Database.resolve_indoubt` (run by restart,
before a truncating checkpoint, after a promotion, or on demand) reads
the retained log's enlist and decision records, and for each global id
whose coordinator transaction has ended settles every child still
holding it — commit if a decision and a COMMIT are stable, abort
otherwise (presumed abort).  A lost abort is thereby resent exactly like
a lost commit.  Undoing an enlist/decision record only marks it for
re-logging: a partial rollback's mirrored savepoint rollback has already
reversed the children's work.

Savepoints mirror into the children (set and rollback, never release —
matching the local protocol where release keeps the log records), so a
statement-level rollback of a fan-out write is exact on every shard.

DDL attributes: ``shards`` (create that many fresh child databases) or
``databases`` (bring your own), ``key`` (partition field, default the first
field), ``partition`` ("hash" default, or "range" with ``bounds``),
``child_storage`` (storage method for the child relations, default
"heap"; with ``replicas`` any *recoverable* method, because a standby is
built by that method's redo — heap and btree_file, not memory),
``child_attributes`` (the child relations' DDL attributes, e.g. a
btree_file ``key``), ``child_statistics`` (give every child its own
statistics attachment, feeding pushdown gating), and the per-channel transport
knobs ``latency`` (default 0.5 —
shards are near peers, cheaper than a wide-area gateway), ``retries``,
``breaker_threshold``, ``breaker_cooldown``, ``deadline`` (per-call retry
budget in latency units).

Replication (see :mod:`~repro.services.replication`): ``replicas`` gives
every shard that many WAL-shipped standby databases; ``replication``
picks the durability mode (``async``/``semi-sync``/``quorum``);
``heartbeat_every`` probes shard health every that many operations.  With
standbys, reads route around a dead primary to the most-caught-up standby
(counted per shard under ``shard.<i>.stale_reads``, with the staleness
bound in the read report), and under quorum mode a primary declared down
is replaced by automatic promotion — fenced by an epoch so its late
writes are rejected.  Every degraded-capable read leaves a structured
report on ``ctx.read_report``:
``{"complete", "skipped_shards", "stale_shards", "max_lag_lsn"}``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from time import perf_counter
from typing import Dict, Optional

from ..core.context import ExecutionContext
from ..core.hashing import shard_of
from ..core.storage_method import RelationHandle, StorageMethod, \
    read_pairs
from ..errors import FencingError, GatewayError, StorageError
from ..query.cost import AccessCost, default_selectivity
from ..services import events as ev
from ..services.recovery import ResourceHandler
from ..services.remote import RemoteTransport, block_scan
from ..services.replication import DOWN, MODES, ReplicationService
from ..services.scans import Scan, ShippedRows, ShippedScan
from ..services.scatter import shared_pool
from ..services.transactions import TxnState

__all__ = ["ShardedStorageMethod"]


#: What the read ladder returns for a shard it skipped (a degraded read),
#: as opposed to a legitimate None/empty result.
_UNREACHED = object()


def _mirror_name(name) -> str:
    """Savepoints mirror into child transactions under a distinct prefix:
    coordinator and child transaction ids come from unrelated sequences, so
    a verbatim mirror could collide with the child's own operation
    savepoints (``__op_<txn>.<seq>``)."""
    return f"__peer_{name}"


class _ShardParticipant:
    """One child database enlisted in a local transaction.

    Every protocol message crosses the shard's transport (:meth:`call`),
    so votes and decisions are subject to the same faults, retries and
    breaker as data traffic.
    """

    __slots__ = ("index", "database", "txn", "channel", "transport", "stats",
                 "services", "wrote", "repl", "epoch")

    def __init__(self, index, database, txn, channel, transport, stats,
                 services, repl=None):
        self.index = index
        self.database = database
        self.txn = txn
        self.channel = channel
        self.transport = transport
        self.stats = stats
        self.services = services  # the *coordinator's* (owns the channel)
        self.wrote = False
        self.repl = repl
        # The fencing token: bound at creation.  A promotion bumps the
        # shard epoch, after which every send by this participant is
        # rejected — the deposed primary's late writes can never land.
        self.epoch = 0 if repl is None else repl.epoch(index)

    @property
    def manager(self):
        return self.database.services.transactions

    def context(self) -> ExecutionContext:
        return ExecutionContext(self.txn, self.database.services,
                                self.database)

    def call(self, action):
        """One remote interaction: fault point, message charge, retry,
        breaker — then the action against the child database.

        Faults fire on the coordinator's injector: the channel (and what
        can go wrong on it) belongs to the coordinator's side of the world,
        not to the child it fails to reach.

        With replication, every send checks the fencing token first, and
        the outcome feeds the shard health state machine; a shard declared
        down escalates to promotion when the durability mode permits it.
        """
        if self.repl is not None and self.repl.epoch(self.index) != self.epoch:
            self.services.stats.bump("repl.fenced")
            raise FencingError(
                f"shard {self.index}: participant bound to deposed epoch "
                f"{self.epoch} (current epoch "
                f"{self.repl.epoch(self.index)})")
        try:
            result = self.transport.send(self.services, self.channel,
                                         self.stats, action)
        except FencingError:
            raise
        except GatewayError:
            if self.repl is not None:
                self.repl.report_failure(self.index)
                if self.repl.health(self.index) == DOWN:
                    # This transaction is already lost on this shard, but
                    # promotion lets the *next* one bind a live primary.
                    self.repl.maybe_promote(self.index)
            raise
        if self.repl is not None:
            self.repl.report_success(self.index)
        return result

    # -- 2PC participant protocol ------------------------------------------------
    def prepare(self, gtid: str) -> None:
        self.call(lambda: self.manager.prepare(self.txn, gtid))
        if self.repl is not None:
            # The child's log is forced through its PREPARE record; ship
            # it and gate the vote on the mode's standby acks.  Raising
            # here withholds the vote — the global transaction aborts, so
            # no write is ever acknowledged beyond its replication level.
            self.repl.on_prepared(self.index,
                                  self.database.services.wal.flushed_lsn)


def _settle(database, gtid: str, commit: bool, stats, via=None) -> bool:
    """Settle ``database``'s child transaction holding ``gtid`` under the
    decided verb; returns whether one was left to settle.

    A PREPARED child receives the decision: through participant ``via``'s
    channel during a live transaction, directly at resolution — which *is*
    the resolution channel; charging faults there could wedge restart.
    An unprepared child is rolled back directly whatever the verb (a
    commit prepared every child that wrote).  A child already gone may
    have been heuristically aborted: that matches an abort, and
    contradicts a commit, which is counted — never silent.
    """
    manager = database.services.transactions
    child_txn = manager.find_gtid(gtid)
    if child_txn is None:
        if manager.heuristic_aborts.pop(gtid, None) is not None and commit:
            stats.bump("txn.2pc.heuristic_mismatches")
        return False
    if child_txn.state is not TxnState.PREPARED:
        manager.abort(child_txn)
        return True
    verb = manager.commit_decided if commit else manager.abort_decided
    if via is None:
        verb(child_txn)
        return True
    via.call(lambda: verb(child_txn))
    if via.repl is not None:
        via.repl.on_decided(via.index)
    return True


def _settle_all(participants, gtid: str, commit: bool, stats) -> int:
    """Settle each participant's child through its channel; returns how
    many stay unsettled, i.e. in doubt.  A failure that is not the
    channel's (e.g. a racing state change) is counted too and stops
    neither the rest nor the caller's own outcome or error."""
    left = 0
    for participant in participants:
        try:
            _settle(participant.database, gtid, commit, stats, participant)
        except GatewayError:
            left += 1
        except Exception:
            left += 1
            stats.bump("txn.2pc.cleanup_failures")
    if left:
        stats.bump("txn.2pc.indoubt", left)
    return left


class _Enlistment:
    """Per (local transaction, sharded relation) distributed-txn state."""

    __slots__ = ("gtid", "relation_id", "participants", "logged", "hooked",
                 "prepared")

    def __init__(self, gtid: str, relation_id: int):
        self.gtid = gtid
        self.relation_id = relation_id
        self.participants: Dict[int, _ShardParticipant] = {}
        self.logged = False    # the enlist record is live (not compensated)
        self.hooked = False    # commit hooks registered
        self.prepared: list = []


class _ShardedHandler(ResourceHandler):
    """Undo of the ``enlist``/``decision`` records."""

    def __init__(self, method: "ShardedStorageMethod"):
        self.method = method

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        """Compensating the record only means the next write must re-log
        it to keep the durable pointer.  The children are settled by the
        mirrored savepoint rollback (partial), the end of the transaction
        (full abort), or the resolution walk (restart)."""
        ent = self.method._runtime.get(
            payload["txn_id"], {}).get(payload["relation_id"])
        if ent is not None and ent.gtid == payload["gtid"]:
            ent.logged = False

    def redo(self, services, lsn: int, payload: dict) -> None:
        """Children are their own durability domains; nothing to redo."""


class _MergeSource:
    """Lazy k-way merge of key-ordered per-shard streams.

    The merged stream is never materialized: each ``read`` pulls at most
    the requested batch off a k-entry heap, so the merge's working set
    is bounded by the batch size instead of the relation.  Heap entries
    break key ties by shard index, reproducing :func:`heapq.merge`'s
    stable stream order exactly.  A backward position restore (partial
    rollback) replays the — deterministic — merge from the start rather
    than keeping consumed rows around.
    """

    __slots__ = ("streams", "stats", "heap", "produced")

    def __init__(self, streams: list, stats):
        self.streams = streams
        self.stats = stats
        self._reset()

    def _reset(self) -> None:
        self.produced = 0
        heap = [(rows[0][0][1], index, 0)
                for index, rows in enumerate(self.streams) if rows]
        heapq.heapify(heap)
        self.heap = heap

    def _advance(self):
        __, index, position = heapq.heappop(self.heap)
        pair = self.streams[index][position]
        position += 1
        if position < len(self.streams[index]):
            heapq.heappush(
                self.heap,
                (self.streams[index][position][0][1], index, position))
        self.produced += 1
        return pair

    def read(self, start: int, n: int) -> list:
        if start < self.produced:
            self._reset()
        while self.produced < start and self.heap:
            self._advance()
        out = []
        while len(out) < n and self.heap:
            out.append(self._advance())
        if out:
            self.stats.bump("sharded.merge.batches")
        return out


class ShardedStorageMethod(StorageMethod):
    """Relation operations fanned out over N child databases."""

    name = "sharded"
    recoverable = True   # enlist/decision records drive presumed abort
    updatable = True
    ordered_by_key = False

    def __init__(self):
        # local txn id -> relation id -> _Enlistment
        self._runtime: Dict[int, Dict[int, _Enlistment]] = {}
        self._transports: Dict[int, RemoteTransport] = {}
        self._wired: list = []

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        databases = attributes.pop("databases", None)
        shards = attributes.pop("shards", None)
        key = attributes.pop("key", schema.fields[0].name)
        partition = attributes.pop("partition", "hash")
        bounds = attributes.pop("bounds", None)
        child_storage = attributes.pop("child_storage", "heap")
        child_attributes = attributes.pop("child_attributes", None)
        child_statistics = attributes.pop("child_statistics", False)
        degraded_reads = attributes.pop("degraded_reads", False)
        replicas = attributes.pop("replicas", 0)
        replication = attributes.pop("replication", "async")
        heartbeat_every = attributes.pop("heartbeat_every", 0)
        channel = RemoteTransport.pop_knobs(attributes, "sharded storage",
                                            0.5)
        if attributes:
            raise StorageError(
                f"sharded storage: unknown attributes {sorted(attributes)}")
        if databases is not None:
            databases = list(databases)
            if not databases:
                raise StorageError("sharded storage: 'databases' is empty")
            if shards is not None and shards != len(databases):
                raise StorageError(
                    f"sharded storage: shards={shards} does not match the "
                    f"{len(databases)} databases given")
            shards = len(databases)
        else:
            if not isinstance(shards, int) or shards < 1:
                raise StorageError(
                    "sharded storage requires 'shards' (a positive int) or "
                    "'databases' (a list of Database instances)")
        names = [field.name for field in schema.fields]
        if key not in names:
            raise StorageError(
                f"sharded storage: partition key {key!r} is not a field of "
                f"the schema")
        if partition not in ("hash", "range"):
            raise StorageError(
                f"sharded storage: partition must be 'hash' or 'range', "
                f"got {partition!r}")
        if partition == "range":
            if bounds is None or len(bounds) != shards - 1:
                raise StorageError(
                    f"sharded storage: range partitioning over {shards} "
                    f"shards needs exactly {shards - 1} bounds")
            bounds = list(bounds)
            if bounds != sorted(bounds):
                raise StorageError(
                    "sharded storage: bounds must be sorted ascending")
        elif bounds is not None:
            raise StorageError(
                "sharded storage: 'bounds' only applies to range "
                "partitioning")
        if child_attributes is not None and not isinstance(child_attributes,
                                                           dict):
            raise StorageError(
                "sharded storage: child_attributes must be a dict")
        for name, value in (("degraded_reads", degraded_reads),
                            ("child_statistics", child_statistics)):
            if not isinstance(value, bool):
                raise StorageError(
                    f"sharded storage: {name} must be a bool, got {value!r}")
        for name, value in (("replicas", replicas),
                            ("heartbeat_every", heartbeat_every)):
            if not isinstance(value, int) or value < 0:
                raise StorageError(
                    f"sharded storage: {name} must be a non-negative "
                    f"integer, got {value!r}")
        if replication not in MODES:
            raise StorageError(
                f"sharded storage: replication must be one of {MODES}, "
                f"got {replication!r}")
        if replicas:
            # Physical log shipping demands the parity invariant: standby
            # children must be byte-for-byte rebuildable by replaying the
            # primary child's log, so the primaries must be databases this
            # method created itself.
            if databases is not None:
                raise StorageError(
                    "sharded storage: replicas requires method-created "
                    "children ('shards'), not caller-supplied 'databases'")
            if child_statistics:
                # Standby children are rebuilt by replaying the primary
                # child's physical log, which cannot reconstruct an
                # attachment created outside that log — the parity
                # invariant would silently break.
                raise StorageError(
                    "sharded storage: child_statistics cannot be combined "
                    "with replicas")
        return {"databases": databases, "shards": shards,
                "key": key, "key_index": names.index(key),
                "partition": partition, "bounds": bounds,
                "child_storage": child_storage,
                "child_attributes": child_attributes,
                "child_statistics": child_statistics,
                "degraded_reads": degraded_reads, "channel": channel,
                "replicas": replicas, "replication": replication,
                "heartbeat_every": heartbeat_every}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        databases = attributes["databases"]
        if databases is None:
            from ..core.database import Database
            databases = [Database() for _ in range(attributes["shards"])]
        child_storage = attributes["child_storage"]
        if attributes["replicas"] and not databases[0].registry \
                .storage_method_by_name(child_storage).recoverable:
            # A standby is built by redo, and a method that is not
            # recoverable redoes nothing: its standby would stay empty.
            raise StorageError(
                f"sharded storage: replicas requires a recoverable "
                f"child_storage, got {child_storage!r}")
        relation = f"__shard_{relation_id}"
        for child in databases:
            if not child.catalog.exists(relation):
                child.create_table(
                    relation, schema, storage_method=child_storage,
                    attributes=attributes["child_attributes"])
            if attributes["child_statistics"]:
                # Per-shard statistics: each child maintains its own row
                # count, min/max and KMV distinct sketch; the coordinator
                # unions the sketches to gate query pushdown.
                handle = child.catalog.handle(relation)
                attachment = child.registry.attachment_type_by_name(
                    "statistics")
                field = handle.descriptor.attachment_field(
                    attachment.type_id)
                if field is None or not field["instances"]:
                    child.create_attachment(relation, "statistics",
                                            f"__stats_{relation}")
        # The endpoint fault point names the *instance* behind the
        # channel: arming it kills this primary while its promoted
        # successor stays reachable.
        channels = [{"relation": f"shard[{i}]",
                     "fault_point": f"shard.{i}.primary",
                     **attributes["channel"]}
                    for i in range(attributes["shards"])]
        descriptor = {"relation_id": relation_id, "relation": relation,
                      "databases": databases, "channels": channels,
                      "shards": attributes["shards"],
                      "key_index": attributes["key_index"],
                      "partition": attributes["partition"],
                      "bounds": attributes["bounds"],
                      "degraded_reads": attributes["degraded_reads"],
                      "latency": attributes["channel"]["latency"],
                      "replicas": attributes["replicas"],
                      "replication_mode": attributes["replication"],
                      "replication": None}
        if attributes["replicas"]:
            descriptor["replication"] = ReplicationService(
                descriptor, ctx.services,
                mode=attributes["replication"],
                replicas=attributes["replicas"],
                schema=schema,
                child_storage=child_storage,
                child_attributes=attributes["child_attributes"],
                heartbeat_every=attributes["heartbeat_every"])
        return descriptor

    def destroy_instance(self, ctx, descriptor) -> None:
        """Dropping the sharded relation never destroys the children."""

    def recovery_handler(self) -> ResourceHandler:
        return _ShardedHandler(self)

    # -- routing / enlistment ---------------------------------------------------
    @staticmethod
    def _descriptor(handle: RelationHandle) -> dict:
        return handle.descriptor.storage_descriptor

    def _route(self, descriptor: dict, value) -> int:
        if descriptor["partition"] == "hash":
            return shard_of(value, descriptor["shards"])
        return bisect_right(descriptor["bounds"], value)

    def _transport(self, index: int) -> RemoteTransport:
        transport = self._transports.get(index)
        if transport is None:
            transport = RemoteTransport(
                fault_points=("shard.remote_call",
                              f"shard.{index}.remote_call"),
                message_counter="remote.messages",
                latency_counter="remote.latency_units",
                counter_prefix="remote.gateway")
            self._transports[index] = transport
        return transport

    def _wire_events(self, ctx: ExecutionContext) -> None:
        events = ctx.services.events
        if any(wired is events for wired in self._wired):
            return
        # Keep the service itself, not id(): holding the reference pins the
        # object so a recycled address can never masquerade as "already wired".
        self._wired.append(events)
        services = ctx.services
        events.subscribe(ev.SAVEPOINT_SET, self._on_savepoint_set)
        events.subscribe(ev.SAVEPOINT_ROLLBACK, self._on_savepoint_rollback)
        events.subscribe(
            ev.AT_END,
            lambda txn_id, info: self._on_txn_end(services, txn_id, info))

    def _enlist(self, ctx: ExecutionContext,
                handle: RelationHandle) -> _Enlistment:
        self._wire_events(ctx)
        repl = self._descriptor(handle).get("replication")
        if repl is not None:
            # The operation-driven heartbeat clock: the simulation has no
            # wall time, so "every N operations" stands in for "every N ms".
            repl.tick()
        by_relation = self._runtime.setdefault(ctx.txn_id, {})
        ent = by_relation.get(handle.relation_id)
        if ent is None:
            gtid = (f"s{handle.relation_id}.t{ctx.txn_id}"
                    f".l{ctx.services.wal.current_lsn}")
            ent = _Enlistment(gtid, handle.relation_id)
            by_relation[handle.relation_id] = ent
        return ent

    def _participant(self, ctx: ExecutionContext, handle: RelationHandle,
                     ent: _Enlistment, index: int) -> _ShardParticipant:
        participant = ent.participants.get(index)
        if participant is None:
            descriptor = self._descriptor(handle)
            child = descriptor["databases"][index]
            child_txn = child.services.transactions.begin()
            child.services.transactions.tag_gtid(child_txn, ent.gtid)
            participant = _ShardParticipant(
                index, child, child_txn, descriptor["channels"][index],
                self._transport(index),
                ctx.services.stats.namespace(f"shard.{index}"),
                ctx.services, descriptor.get("replication"))
            # Mirror the live savepoint stack so a later partial rollback
            # of the local transaction maps onto this late-joining child.
            for name in ctx.txn._savepoint_order:
                child.services.transactions.savepoint(
                    child_txn, _mirror_name(name))
            ent.participants[index] = participant
            ctx.stats.bump("sharded.enlistments")
        return participant

    def _log_enlist(self, ctx: ExecutionContext, ent: _Enlistment) -> None:
        """The durable pointer: a coordinator crash must still find every
        child that may have voted — the resolution walk settles every
        shard of the relation the record names."""
        ctx.log(self.resource, {"op": "enlist", "gtid": ent.gtid,
                                "relation_id": ent.relation_id,
                                "txn_id": ctx.txn_id})
        ent.logged = True

    def _mark_write(self, ctx: ExecutionContext, handle: RelationHandle,
                    ent: _Enlistment) -> None:
        if not ent.logged:
            self._log_enlist(ctx, ent)
        if not ent.hooked:
            ent.hooked = True
            ctx.defer(ev.BEFORE_PREPARE, self._phase_one, (ctx, handle))
            ctx.defer(ev.AT_COMMIT, self._deliver, (ctx, handle))

    # -- two-phase commit hooks -------------------------------------------------
    def _phase_one(self, txn_id: int, data) -> None:
        """Phase 1, run as a deferred BEFORE_PREPARE action at local commit.

        Read-only children skip both phases (they have nothing to make
        durable).  A failed vote re-raises, which vetoes the local commit:
        the transaction aborts, and :meth:`_on_txn_end` aborts every child,
        the ones that already voted yes included.
        """
        ctx, handle = data
        ent = self._runtime.get(txn_id, {}).get(handle.relation_id)
        if ent is None:
            return
        voters = [p for p in ent.participants.values() if p.wrote]
        if not voters:
            return
        stats = ctx.stats
        stats.bump("txn.2pc.readonly_skips",
                   len(ent.participants) - len(voters))
        if not ent.logged:
            # Every write record was compensated by partial rollbacks; the
            # children still vote, so the durable pointer must come back.
            self._log_enlist(ctx, ent)
        # The enlist record must be stable before any child makes a durable
        # promise, or a coordinator crash could strand prepared children
        # with nothing on stable storage pointing at them.
        ctx.services.wal.flush()
        for participant in voters:
            try:
                participant.prepare(ent.gtid)
            except Exception:
                stats.bump("txn.2pc.votes_no")
                raise
        stats.bump("txn.2pc.prepared", len(voters))
        ent.prepared = voters
        # The decision rides the coordinator's COMMIT force: a stable
        # decision and a stable commit are one atomic event.
        stats.bump("txn.2pc.decisions_logged")
        ctx.log(self.resource, {"op": "decision", "gtid": ent.gtid,
                                "relation_id": ent.relation_id,
                                "txn_id": txn_id})

    def _deliver(self, txn_id: int, data) -> None:
        """Phase 2, run as a deferred AT_COMMIT action.

        The local COMMIT record is stable by now (pending AT_COMMIT work
        forces a solo flush), and the decision record rode that force — so
        a delivery failure leaves the child prepared and in doubt, never
        in danger of divergence.
        """
        ctx, handle = data
        ent = self._runtime.get(txn_id, {}).get(handle.relation_id)
        if ent is None or not ent.prepared:
            return
        left = _settle_all(ent.prepared, ent.gtid, True, ctx.stats)
        ctx.stats.bump("txn.2pc.commits_delivered", len(ent.prepared) - left)
        if left:
            ctx.stats.bump("sharded.indoubt_children", left)

    # -- modification -----------------------------------------------------------
    def _write(self, ctx, handle, ent, index: int, op: str, batch):
        """One block-write message: the child's ``op`` over ``batch``."""
        participant = self._participant(ctx, handle, ent, index)
        child = participant.database
        child_handle = child.catalog.handle(
            self._descriptor(handle)["relation"])
        result = participant.call(lambda: getattr(child.data, op)(
            participant.context(), child_handle, batch))
        participant.wrote = True
        participant.stats.bump("remote.tuples_written", len(batch))
        return result

    # -- set-at-a-time modification ----------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Partition the batch, then one block-insert message per shard."""
        descriptor = self._descriptor(handle)
        ent = self._enlist(ctx, handle)
        groups: Dict[int, list] = {}
        for position, record in enumerate(records):
            index = self._route(descriptor, record[descriptor["key_index"]])
            groups.setdefault(index, []).append((position, record))
        self._mark_write(ctx, handle, ent)
        keys: list = [None] * len(records)
        for index in sorted(groups):
            group = groups[index]
            remote_keys = self._write(ctx, handle, ent, index, "insert_batch",
                                      [record for __, record in group])
            for (position, __), remote_key in zip(group, remote_keys):
                keys[position] = (index, remote_key)
        ctx.stats.bump("sharded.inserts", len(records))
        ctx.stats.bump("sharded.batch_fanout", len(groups))
        return keys

    def update_batch(self, ctx, handle, items):
        """Route each (key, old, new) by its current shard; one message per
        shard for in-place updates.  A record whose partition key moved
        migrates on its own — deleted here, inserted there, inside the
        same global transaction."""
        descriptor = self._descriptor(handle)
        ent = self._enlist(ctx, handle)
        self._mark_write(ctx, handle, ent)
        keys: list = [None] * len(items)
        in_place: Dict[int, list] = {}
        for position, (key, old_record, new_record) in enumerate(items):
            old_index, remote_key = key
            new_index = self._route(descriptor,
                                    new_record[descriptor["key_index"]])
            if new_index == old_index:
                in_place.setdefault(old_index, []).append(
                    (position, remote_key, new_record))
                continue
            self._write(ctx, handle, ent, old_index, "delete_batch",
                        [remote_key])
            keys[position] = (new_index, self._write(
                ctx, handle, ent, new_index, "insert_batch",
                [new_record])[0])
            ctx.stats.bump("sharded.migrations")
        for index in sorted(in_place):
            group = in_place[index]
            new_remotes = self._write(
                ctx, handle, ent, index, "update_batch",
                [(remote_key, new_record)
                 for __, remote_key, new_record in group])
            for (position, __, ___), new_remote in zip(group, new_remotes):
                keys[position] = (index, new_remote)
        ctx.stats.bump("sharded.updates", len(items))
        ctx.stats.bump("sharded.batch_fanout", len(in_place))
        return keys

    def delete_batch(self, ctx, handle, items) -> None:
        ent = self._enlist(ctx, handle)
        self._mark_write(ctx, handle, ent)
        groups: Dict[int, list] = {}
        for (index, remote_key), __ in items:
            groups.setdefault(index, []).append(remote_key)
        for index in sorted(groups):
            self._write(ctx, handle, ent, index, "delete_batch",
                        groups[index])
        ctx.stats.bump("sharded.deletes", len(items))
        ctx.stats.bump("sharded.batch_fanout", len(groups))

    # -- the read ladder ----------------------------------------------------------
    @staticmethod
    def _start_report(ctx: ExecutionContext) -> dict:
        """Begin a structured read outcome and publish it on the context."""
        ctx.read_report = {"complete": True, "skipped_shards": [],
                           "stale_shards": [], "max_lag_lsn": 0}
        return ctx.read_report

    def _read_shard(self, ctx, handle, ent, index: int, report: dict, action,
                    skip_counter: str):
        """Read shard ``index``: what ``action(database, child_ctx)``
        returns, or ``_UNREACHED`` for a shard a degraded read skipped.

        Rung one is the primary, through ``participant.call`` — fence,
        fault points, retry, breaker, replication health; an open
        breaker fails fast there (no message, no charge), which is also
        what ticks its cooldown and runs its half-open probe, so reads
        alone heal a shard.  A :class:`GatewayError` from it leads to
        :meth:`_read_around`.  A fence is a decision, not a dead channel,
        and anything else is a fault inside the child: both propagate.
        """
        participant = self._participant(ctx, handle, ent, index)
        try:
            return participant.call(lambda: action(participant.database,
                                                   participant.context()))
        except FencingError:
            raise
        except GatewayError as failure:
            return self._read_around(ctx, self._descriptor(handle), index,
                                     report, action, skip_counter, failure)

    @staticmethod
    def _read_around(ctx, descriptor: dict, index: int, report: dict, action,
                     skip_counter: str, failure: Optional[GatewayError]):
        """Rungs two and three, for a shard whose primary is unreachable.

        The most-caught-up standby runs the same ``action`` in a
        transaction of its own; success marks the shard stale in the
        report and widens the staleness bound by the standby's lag.
        With no standby reachable the shard is skipped when the relation
        opted in (``degraded_reads``), else the read fails closed with
        the primary's error.
        """
        repl = descriptor.get("replication")
        if repl is not None and repl.standbys(index):

            def on_standby(database):
                with database.autocommit() as child_ctx:
                    return action(database, child_ctx)

            try:
                result, lag = repl.failover_read(index, on_standby)
            except GatewayError:
                pass
            else:
                report["stale_shards"].append(index)
                report["max_lag_lsn"] = max(report["max_lag_lsn"], lag)
                return result
        if not descriptor.get("degraded_reads"):
            raise failure or GatewayError(
                f"shard {index} is unavailable (circuit breaker open); "
                f"create the relation with degraded_reads=True to read "
                f"around dead shards")
        ctx.stats.bump(skip_counter)
        ctx.stats.bump(f"shard.{index}.degraded_skips")
        report["complete"] = False
        report["skipped_shards"].append(index)
        return _UNREACHED

    # -- access -------------------------------------------------------------------
    def fetch(self, ctx, handle, key, fields=None, predicate=None):
        """One key's message, its filter and projection shipped with it
        (as a scan's are).  Kept beside :meth:`fetch_many`: as a one-key
        ``fetch_many``, E24 ``shard_scatter`` point reads took 44.3 µs to
        this body's 41.3 (ten seed-1 pairs; 40.2 before either)."""
        relation = self._descriptor(handle)["relation"]
        index, remote_key = key
        record = self._read_shard(
            ctx, handle, self._enlist(ctx, handle), index,
            self._start_report(ctx),
            lambda database, child_ctx: database.data.fetch(
                child_ctx, database.catalog.handle(relation), remote_key,
                fields, predicate),
            "remote.degraded_fetches")
        if record is _UNREACHED or record is None:
            return None
        ctx.stats.bump("sharded.fetches")
        return record

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Group the key set by shard: one block-fetch message per shard,
        results stitched back into input order."""
        relation = self._descriptor(handle)["relation"]
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)
        groups: Dict[int, list] = {}
        for index, remote_key in keys:
            groups.setdefault(index, []).append(remote_key)
        fetched: Dict = {}
        for index in sorted(groups):

            def fetch_group(database, child_ctx, remote_keys=groups[index]):
                return database.data.fetch_many(
                    child_ctx, database.catalog.handle(relation), remote_keys)

            pairs = self._read_shard(ctx, handle, ent, index, report,
                                     fetch_group, "remote.degraded_fetches")
            if pairs is _UNREACHED:
                continue
            ent.participants[index].stats.bump("remote.tuples_fetched",
                                               len(pairs))
            for remote_key, record in pairs:
                fetched[(index, remote_key)] = record
        results = read_pairs(
            [(key, fetched[key]) for key in keys if key in fetched],
            len(handle.schema), fields, predicate, ctx.stats)
        ctx.stats.bump("sharded.fetches", len(results))
        return results

    def _child_order(self, ctx, descriptor: dict):
        """The key ordering the children report, or None.

        Every shard runs the same child storage method over the same
        schema, so shard 0's cost estimate speaks for all of them.
        """
        child = descriptor["databases"][0]
        entry = child.catalog.entry(descriptor["relation"])
        method = child.registry.storage_method(
            entry.handle.descriptor.storage_method_id)
        child_txn = child.services.transactions.begin()
        try:
            child_ctx = ExecutionContext(child_txn, child.services, child)
            cost = method.estimate_cost(child_ctx, entry.handle, ())
        finally:
            child.services.transactions.abort(child_txn)
        return cost.ordered_by

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        descriptor = self._descriptor(handle)
        relation = descriptor["relation"]
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)
        streams = []
        for index in range(descriptor["shards"]):
            rows = self._read_shard(
                ctx, handle, ent, index, report,
                lambda database, child_ctx: block_scan(
                    database, child_ctx, relation, fields, predicate),
                "remote.degraded_scans")
            if rows is _UNREACHED:
                continue
            ent.participants[index].stats.bump("remote.tuples_scanned",
                                               len(rows))
            streams.append([((index, remote_key), record)
                            for remote_key, record in rows])
        if len(streams) > 1 and self._child_order(ctx, descriptor):
            # Key-ordered children: lazy k-way merge on the remote key
            # keeps the global stream ordered (remote keys are the child
            # keys) while the merge itself stays batch-pulled — memory
            # bounded by the batch size, not the relation.
            source = _MergeSource(streams, ctx.stats)
            ctx.stats.bump("sharded.merged_scans")
        else:
            source = ShippedRows(
                [pair for stream in streams for pair in stream])
        scan = ShippedScan(ctx, source, "sharded.tuples_returned")
        return ctx.services.scans.register(scan)

    # -- cross-shard query pushdown ------------------------------------------------
    def fragment_worthwhile(self, ctx, handle, plan, fragment) -> bool:
        """Statistics-fed gating: push the fragment down only when it is
        expected to ship fewer rows than the pull-up scan would (results
        are bit-identical either way, so this is purely a cost call).

        Key-ordered children are gated off outright: per-shard fragments
        cannot reproduce the interleaved tie order of the merged global
        stream the pull-up path feeds to stable sorts and 'first' items.
        """
        from ..query import fragments
        descriptor = self._descriptor(handle)
        if not self._child_order(ctx, descriptor):
            distinct = None
            if fragment.kind == "group":
                distinct = self._sketched_distinct(ctx, descriptor,
                                                   plan.group_index)
            if fragments.ships_less(ctx, handle, plan, fragment,
                                    descriptor["shards"], distinct):
                return True
        ctx.stats.bump("sharded.pushdown.gated_off")
        return False

    @staticmethod
    def _sketched_distinct(ctx, descriptor: dict,
                           group_index: int) -> Optional[float]:
        """Global distinct estimate for the grouping column: the union of
        the per-shard KMV sketches, or ``None`` unless every child tracks
        statistics."""
        from ..access.statistics import kmv_union_estimate, sketch_state
        sketches = []
        for child in descriptor["databases"]:
            column = sketch_state(
                child, child.catalog.handle(descriptor["relation"]),
                group_index)
            if column is None:
                return None
            sketches.append(column["kmv"])
        ctx.stats.bump("sharded.pushdown.kmv_unions")
        return float(kmv_union_estimate(sketches))

    def run_fragment(self, ctx, handle, fragment, params):
        """Execute one shard-local fragment per shard — a single remote
        call each, in shard order — and run the coordinator merge program
        over the partial results.

        Each fragment climbs the read ladder like any other read.
        Whatever the ladder raises — a fence, a fault inside a child, an
        unreachable shard without ``degraded_reads`` — becomes
        :class:`FragmentFallback`, so the executor re-runs the query on
        the pull-up path: fail closed, never a partial answer.
        """
        from ..query import fragments
        descriptor = self._descriptor(handle)
        relation = descriptor["relation"]
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)

        def thunk_for(index):
            shard_stats = ctx.stats.namespace(f"shard.{index}")

            def run(database, child_ctx):
                started = perf_counter()
                rows = fragments.run_fragment_on(
                    database, child_ctx, relation, fragment, params,
                    cache_key=database)
                shard_stats.bump_many({
                    "fragment.calls": 1, "fragment.rows": len(rows),
                    "fragment.micros":
                        int((perf_counter() - started) * 1e6)})
                return rows

            return lambda: self._read_shard(ctx, handle, ent, index, report,
                                            run, "remote.degraded_fragments")

        # One ``run`` call per statement: the fan-out seam the pushdown
        # bench and the wall-clock harness watch.
        results = shared_pool().run(
            [thunk_for(index) for index in range(descriptor["shards"])])
        sources = []
        for rows, error in results:
            if error is not None:
                ctx.stats.bump("sharded.pushdown.fallbacks")
                raise fragments.FragmentFallback(str(error)) from error
            if rows is not _UNREACHED:
                sources.append(rows)
        merged = fragments.merge_fragment_results(fragment, sources, params)
        ctx.stats.bump("sharded.pushdown.queries")
        ctx.stats.bump("sharded.pushdown.fragments", len(results))
        return merged

    # -- planning -----------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        """Planning reads charge no message: a live primary is counted
        directly, and only a shard whose breaker is open takes the
        ladder's lower rungs."""
        descriptor = self._descriptor(handle)
        report = self._start_report(ctx)

        def count(database, child_ctx=None):
            return database.table(descriptor["relation"]).count()

        total = 0
        for index, child in enumerate(descriptor["databases"]):
            if self._transport(index).available(
                    descriptor["channels"][index]):
                total += count(child)
                continue
            counted = self._read_around(ctx, descriptor, index, report,
                                        count, "remote.degraded_scans", None)
            if counted is not _UNREACHED:
                total += counted
        return total

    def page_count(self, ctx, handle) -> int:
        # Child pages are invisible; cost comes from per-shard messages.
        return 0

    def estimate_cost(self, ctx, handle, eligible) -> AccessCost:
        descriptor = self._descriptor(handle)
        tuples = max(1, self.record_count(ctx, handle))
        expected = max(1.0, tuples * default_selectivity(eligible))
        shards = descriptor["shards"]
        latency = descriptor.get("latency", 0.5)
        return AccessCost(io_pages=shards * latency + expected / 50.0,
                          cpu_tuples=tuples,
                          expected_tuples=expected,
                          relevant=tuple(eligible),
                          ordered_by=self._child_order(ctx, descriptor),
                          route=("sharded_scan", shards))

    # -- resolution ----------------------------------------------------------------
    def resolve_indoubt(self, database, handle, verdicts: dict) -> int:
        """Settle every child still holding a global id of ``verdicts``
        (gtid -> commit?); returns how many were settled.

        Called by the resolution walk of :meth:`Database.resolve_indoubt`
        for the ids whose coordinator transaction has ended.  Delivery is
        direct.  Only the ids a child still holds — a live or in-doubt
        transaction, or a heuristic-abort marker — can need settling.
        """
        stats = database.services.stats
        settled = aborted = 0
        for child in handle.descriptor.storage_descriptor["databases"]:
            manager = child.services.transactions
            held = [txn.gtid for txn in manager.active_transactions()]
            for gtid in held + list(manager.heuristic_aborts):
                if gtid in verdicts and _settle(child, gtid, verdicts[gtid],
                                                stats):
                    settled += 1
                    aborted += not verdicts[gtid]
        if aborted:
            stats.bump("sharded.presumed_aborts", aborted)
        return settled

    # -- event subscribers ---------------------------------------------------------
    def _on_savepoint_set(self, txn_id: int, info: dict) -> None:
        name = _mirror_name(info.get("name"))
        for ent in self._runtime.get(txn_id, {}).values():
            for participant in ent.participants.values():
                child_txn = participant.txn
                if child_txn.active and name not in child_txn.savepoints:
                    participant.manager.savepoint(child_txn, name)

    def _on_savepoint_rollback(self, txn_id: int, info: dict) -> None:
        name = _mirror_name(info.get("name"))
        for ent in self._runtime.get(txn_id, {}).values():
            for participant in ent.participants.values():
                child_txn = participant.txn
                if child_txn.active and name in child_txn.savepoints:
                    participant.manager.rollback_to(child_txn, name)

    def _on_txn_end(self, services, txn_id: int, info: dict) -> None:
        """End-of-transaction cleanup on the coordinator side: every child
        the outcome has not settled is aborted (:func:`_settle`).  After a
        local *commit* a still-prepared child is in doubt — the decision
        is stable, and only resolution may settle it — so it is left
        strictly alone.  A lost abort leaves its child in doubt as well,
        to be resent by the resolution walk."""
        by_relation = self._runtime.pop(txn_id, None)
        if not by_relation:
            return
        local = services.transactions.get(txn_id)
        committed = local is not None and local.state is TxnState.COMMITTED
        for ent in by_relation.values():
            _settle_all([p for p in ent.participants.values()
                         if not (committed
                                 and p.txn.state is TxnState.PREPARED)],
                        ent.gtid, False, services.stats)
