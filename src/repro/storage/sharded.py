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
.run_fragment` dispatches to every shard **concurrently** through the
scatter-gather pool, one remote call per shard, merging the partial
results at the coordinator.  Statistics-fed gating (per-shard KMV
sketches unioned across shards when ``child_statistics`` is set) decides
pushdown vs. pull-up per query; any fragment failure falls back to the
pull-up path (``sharded.pushdown.fallbacks``) so answers are never
partial unless ``degraded_reads`` says so.

Cross-shard atomicity is presumed-abort two-phase commit built on the
explicit participant API of :class:`~repro.services.transactions
.TransactionManager` and driven by :class:`~repro.services.transactions
.TwoPhaseCoordinator`:

* The first write by a local transaction logs an ``enlist`` record naming
  the global transaction id, so the coordinator durably knows a distributed
  transaction existed before any child can promise anything.
* At ``BEFORE_PREPARE`` the method runs phase 1 (force the local log, then
  ``prepare`` every written child — each a remote call that can fail) and
  logs the commit *decision* as an ordinary update record whose durability
  rides the coordinator's COMMIT force.
* At ``AT_COMMIT`` it delivers the decision; a dead channel leaves that
  child prepared and **in doubt**, to be resolved by
  :meth:`~repro.core.database.Database.resolve_indoubt` re-reading the
  stable decision (the :meth:`resolve_decision` hook below).
* Undoing the enlist/decision records — abort or coordinator restart — is
  the presumed-abort path: every child transaction still found under the
  global id is rolled back.  During a *partial* rollback of a live local
  transaction the records are compensated but the children stay: the
  mirrored savepoint rollback has already reversed their work.

Savepoints mirror into the children (set and rollback, never release —
matching the local protocol where release keeps the log records), so a
statement-level rollback of a fan-out write is exact on every shard.

Unprepared child transactions left behind by a local abort are rolled back
directly at ``AT_END`` — connection-drop semantics: a remote DBMS aborts a
lost client's unprepared work itself, so no message is charged.  Prepared
children, by contrast, are only ever settled by a delivered decision or by
presumed abort.

DDL attributes: ``shards`` (create that many fresh child databases) or
``databases`` (bring your own), ``key`` (partition field, default the first
field), ``partition`` ("hash" default, or "range" with ``bounds``),
``child_storage`` (storage method for the child relations, default
"heap"), ``child_statistics`` (give every child its own statistics
attachment, feeding pushdown gating), and the per-channel transport
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
report on ``ctx.read_report`` (and :attr:`ShardedScan.report`):
``{"complete", "skipped_shards", "stale_shards", "max_lag_lsn"}``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from time import perf_counter
from typing import Dict, Optional, Sequence

from ..core.context import ExecutionContext
from ..core.hashing import shard_of
from ..core.storage_method import RelationHandle, StorageMethod
from ..errors import FencingError, GatewayError, ScanError, StorageError
from ..query.cost import AccessCost, DEFAULT_SELECTIVITY
from ..services import events as ev
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.remote import RemoteTransport
from ..services.replication import DOWN, MODES, ReplicationService
from ..services.scans import AFTER, BEFORE, ON, Scan, ScanPosition
from ..services.scatter import StatsBuffer, shared_pool
from ..services.stats import NamespacedStats
from ..services.transactions import TwoPhaseCoordinator, TxnState

__all__ = ["ShardedStorageMethod", "ShardedScan"]


#: Distinguishes "shard unreached" from a legitimate None/empty result.
_UNREACHED = object()


def _fresh_report() -> dict:
    """The structured outcome of one degraded-capable read."""
    return {"complete": True, "skipped_shards": [], "stale_shards": [],
            "max_lag_lsn": 0}


def _mirror_name(name) -> str:
    """Savepoints mirror into child transactions under a distinct prefix:
    coordinator and child transaction ids come from unrelated sequences, so
    a verbatim mirror could collide with the child's own operation
    savepoints (``__op_<txn>.<seq>``)."""
    return f"__peer_{name}"


def _descriptor_for(services, payload: dict) -> dict:
    database = getattr(services, "database", None)
    if database is None:
        raise StorageError("recovery handler needs services.database wired")
    entry = database.catalog.entry_by_id(payload["relation_id"])
    return entry.handle.descriptor.storage_descriptor


class _ShardParticipant:
    """One child database enlisted in a local transaction.

    Implements the duck-typed participant protocol of
    :class:`TwoPhaseCoordinator` (``wrote``/``prepare``/``commit_decided``/
    ``abort``); every protocol message crosses the shard's transport, so
    votes and decisions are subject to the same faults, retries and breaker
    as data traffic.
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

        def send():
            self.transport.remote_call(self.services, self.channel,
                                       self.stats)
            return action()
        try:
            result = self.transport.call(self.channel, self.stats, send)
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

    def commit_decided(self) -> None:
        if self.txn.settled:
            return
        self.call(lambda: self.manager.commit_decided(self.txn))
        if self.repl is not None:
            self.repl.on_decided(self.index)

    def abort_decided(self) -> None:
        if self.txn.settled:
            return
        self.call(lambda: self.manager.abort_decided(self.txn))
        if self.repl is not None:
            self.repl.on_decided(self.index)

    def abort(self) -> None:
        """Roll the child back — through the channel when it has voted.

        An unprepared child is rolled back directly (connection-drop
        semantics: the remote side aborts a lost client's active work
        itself), so cleanup of never-prepared children cannot fail on a
        dead channel.  A prepared child made a durable promise, so its
        abort is a real decision message that can be lost.
        """
        if self.txn.settled:
            return
        if self.txn.state is TxnState.PREPARED:
            self.abort_decided()
        else:
            self.manager.abort(self.txn)


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
    """Presumed abort for the ``enlist``/``decision`` records."""

    def __init__(self, method: "ShardedStorageMethod"):
        self.method = method

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        txn = services.transactions.get(payload["txn_id"])
        if not getattr(services, "in_restart", False) and txn is not None:
            # A live rollback — partial (savepoint) or a full abort.  The
            # mirrored savepoint rollback and the AT_END cleanup own the
            # children here; compensating the record only means the next
            # write must re-log it to keep the durable pointer.
            ent = self.method._runtime.get(
                payload["txn_id"], {}).get(payload["relation_id"])
            if ent is not None and ent.gtid == payload["gtid"]:
                ent.logged = False
            return
        # Full abort or coordinator restart: presume abort on every child
        # still holding the global transaction.  Delivery is direct — this
        # *is* the resolution channel, charging faults here could wedge
        # restart itself.
        descriptor = _descriptor_for(services, payload)
        gtid = payload["gtid"]
        for index in payload.get("shards", ()):
            child = descriptor["databases"][index]
            manager = child.services.transactions
            child_txn = manager.find_gtid(gtid)
            if child_txn is None or child_txn.settled:
                # A heuristic abort that matches the presumed-abort outcome
                # is no mismatch; retire the marker.
                manager.heuristic_aborts.pop(gtid, None)
                continue
            if child_txn.state is TxnState.PREPARED:
                manager.abort_decided(child_txn)
            else:
                manager.abort(child_txn)
            services.stats.bump("sharded.presumed_aborts")
        self.method._runtime.get(payload["txn_id"], {}).pop(
            payload["relation_id"], None)

    def redo(self, services, lsn: int, payload: dict) -> None:
        """Children are their own durability domains; nothing to redo."""


class _ListSource:
    """Already-flat shard streams (the unordered concatenation case)."""

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows

    def read(self, start: int, n: int) -> list:
        return self.rows[start:start + n]


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


class ShardedScan(Scan):
    """A local scan over the block-fetched shard streams.

    Every available shard ships its (filtered) rows in one message at
    open; the scan then pulls from a *source* — a flat concatenation,
    or a lazy k-way merge when the children report a key ordering.  The
    position is an index into the logical merged stream, so save/restore
    under partial rollback stays trivial (the merge source replays
    deterministically on a backward seek).

    :attr:`report` is the structured read outcome: ``complete`` (no shard
    was skipped), ``skipped_shards`` (unreachable, contributed nothing),
    ``stale_shards`` (served by a standby), and ``max_lag_lsn`` (worst
    staleness bound among the stale shards, in log records).
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 source, report: Optional[dict] = None):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        if isinstance(source, list):
            source = _ListSource(source)
        self.source = source
        self.state = BEFORE
        self.position: Optional[int] = None
        self.report = report if report is not None else _fresh_report()

    def next(self):
        self._check_open()
        index = 0 if self.position is None else self.position + 1
        chunk = self.source.read(index, 1)
        if not chunk:
            self.state = AFTER
            return None
        self.position = index
        self.state = ON
        self.ctx.stats.bump("sharded.tuples_returned")
        return chunk[0]

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
        self.ctx.stats.bump("sharded.tuples_returned", len(chunk))
        return chunk

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, saved: ScanPosition) -> None:
        self.state = saved.state
        self.position = saved.item


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
        latency = attributes.pop("latency", 0.5)
        retries = attributes.pop("retries", 3)
        threshold = attributes.pop("breaker_threshold", 3)
        cooldown = attributes.pop("breaker_cooldown", 8)
        deadline = attributes.pop("deadline", None)
        replicas = attributes.pop("replicas", 0)
        replication = attributes.pop("replication", "async")
        heartbeat_every = attributes.pop("heartbeat_every", 0)
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
        key_index = None
        for i, field in enumerate(schema.fields):
            if field.name == key:
                key_index = i
                break
        if key_index is None:
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
        if not isinstance(latency, (int, float)) or latency < 0:
            raise StorageError(
                f"sharded storage: latency must be non-negative, got "
                f"{latency!r}")
        for name, value in (("retries", retries),
                            ("breaker_threshold", threshold),
                            ("breaker_cooldown", cooldown)):
            if not isinstance(value, int) or value < 0:
                raise StorageError(
                    f"sharded storage: {name} must be a non-negative "
                    f"integer, got {value!r}")
        if child_attributes is not None and not isinstance(child_attributes,
                                                           dict):
            raise StorageError(
                "sharded storage: child_attributes must be a dict")
        if not isinstance(degraded_reads, bool):
            raise StorageError(
                f"sharded storage: degraded_reads must be a bool, got "
                f"{degraded_reads!r}")
        if not isinstance(child_statistics, bool):
            raise StorageError(
                f"sharded storage: child_statistics must be a bool, got "
                f"{child_statistics!r}")
        if deadline is not None and (not isinstance(deadline, (int, float))
                                     or deadline <= 0):
            raise StorageError(
                f"sharded storage: deadline must be a positive number, "
                f"got {deadline!r}")
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
            # method created itself, running the one storage method whose
            # recovery handler the standby applier understands.
            if databases is not None:
                raise StorageError(
                    "sharded storage: replicas requires method-created "
                    "children ('shards'), not caller-supplied 'databases'")
            if child_storage != "heap":
                raise StorageError(
                    f"sharded storage: replicas requires child_storage="
                    f"'heap', got {child_storage!r}")
            if child_statistics:
                # Standby children are rebuilt by replaying the primary
                # child's physical log, which cannot reconstruct an
                # attachment created outside that log — the parity
                # invariant would silently break.
                raise StorageError(
                    "sharded storage: child_statistics cannot be combined "
                    "with replicas")
        return {"databases": databases, "shards": shards,
                "key": key, "key_index": key_index,
                "partition": partition, "bounds": bounds,
                "child_storage": child_storage,
                "child_attributes": child_attributes,
                "child_statistics": child_statistics,
                "degraded_reads": degraded_reads,
                "latency": float(latency),
                "retries": retries, "breaker_threshold": threshold,
                "breaker_cooldown": cooldown,
                "deadline": None if deadline is None else float(deadline),
                "replicas": replicas, "replication": replication,
                "heartbeat_every": heartbeat_every}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        databases = attributes["databases"]
        if databases is None:
            from ..core.database import Database
            databases = [Database() for _ in range(attributes["shards"])]
        relation = f"__shard_{relation_id}"
        for child in databases:
            if not child.catalog.exists(relation):
                child.create_table(
                    relation, schema,
                    storage_method=attributes["child_storage"],
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
        channels = []
        for i in range(attributes["shards"]):
            channel = {"relation": f"shard[{i}]",
                       "latency": attributes["latency"],
                       "retries": attributes["retries"],
                       "breaker_threshold": attributes["breaker_threshold"],
                       "breaker_cooldown": attributes["breaker_cooldown"],
                       # The endpoint fault point names the *instance*
                       # behind the channel: arming it kills this primary
                       # while its promoted successor stays reachable.
                       "fault_point": f"shard.{i}.primary"}
            if attributes["deadline"] is not None:
                channel["deadline"] = attributes["deadline"]
            channels.append(channel)
        descriptor = {"relation_id": relation_id, "relation": relation,
                      "databases": databases, "channels": channels,
                      "shards": attributes["shards"],
                      "key_index": attributes["key_index"],
                      "partition": attributes["partition"],
                      "bounds": attributes["bounds"],
                      "degraded_reads": attributes["degraded_reads"],
                      "latency": attributes["latency"],
                      "replicas": attributes["replicas"],
                      "replication_mode": attributes["replication"],
                      "replication": None}
        if attributes["replicas"]:
            descriptor["replication"] = ReplicationService(
                descriptor, ctx.services,
                mode=attributes["replication"],
                replicas=attributes["replicas"],
                schema=schema,
                child_storage=attributes["child_storage"],
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

    def _child_handle(self, descriptor: dict,
                      participant: _ShardParticipant) -> RelationHandle:
        return participant.database.catalog.handle(descriptor["relation"])

    def _log_enlist(self, ctx: ExecutionContext, ent: _Enlistment,
                    descriptor: dict) -> None:
        """The durable pointer: a coordinator crash must still find every
        child that may have voted, so the record names all shards."""
        ctx.log(self.resource, {"op": "enlist", "gtid": ent.gtid,
                                "relation_id": ent.relation_id,
                                "txn_id": ctx.txn_id,
                                "shards": list(range(descriptor["shards"]))})
        ent.logged = True

    def _mark_write(self, ctx: ExecutionContext, handle: RelationHandle,
                    ent: _Enlistment) -> None:
        if not ent.logged:
            self._log_enlist(ctx, ent, self._descriptor(handle))
        if not ent.hooked:
            ent.hooked = True
            ctx.defer(ev.BEFORE_PREPARE, self._phase_one, (ctx, handle))
            ctx.defer(ev.AT_COMMIT, self._deliver, (ctx, handle))

    # -- two-phase commit hooks -------------------------------------------------
    def _phase_one(self, txn_id: int, data) -> None:
        """Phase 1, run as a deferred BEFORE_PREPARE action at local commit.

        Raising here vetoes the local commit (the transaction aborts), which
        is exactly right while no child has been told to prepare — and once
        one has, a later veto re-raises out of ``prepare_all`` after the
        already-prepared children were rolled back.
        """
        ctx, handle = data
        ent = self._runtime.get(txn_id, {}).get(handle.relation_id)
        if ent is None:
            return
        voters = [p for p in ent.participants.values() if p.wrote]
        if not voters:
            return
        if not ent.logged:
            # Every write record was compensated by partial rollbacks; the
            # children still vote, so the durable pointer must come back.
            self._log_enlist(ctx, ent, self._descriptor(handle))
        # The enlist record must be stable before any child makes a durable
        # promise, or a coordinator crash could strand prepared children
        # with nothing on stable storage pointing at them.
        ctx.services.wal.flush()
        coordinator = TwoPhaseCoordinator(ctx.services)
        ent.prepared = coordinator.prepare_all(ent.gtid,
                                              list(ent.participants.values()))
        coordinator.log_decision(
            txn_id, self.resource,
            {"op": "decision", "gtid": ent.gtid,
             "relation_id": ent.relation_id, "txn_id": txn_id,
             "shards": [p.index for p in ent.prepared]})

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
        coordinator = TwoPhaseCoordinator(ctx.services)
        left = coordinator.deliver_commit(ent.prepared)
        if left:
            ctx.stats.bump("sharded.indoubt_children", len(left))

    # -- modification -----------------------------------------------------------
    def insert(self, ctx, handle, record):
        return self.insert_batch(ctx, handle, (record,))[0]

    def update(self, ctx, handle, key, old_record, new_record):
        return self.update_batch(ctx, handle,
                                 ((key, old_record, new_record),))[0]

    def delete(self, ctx, handle, key, old_record) -> None:
        self.delete_batch(ctx, handle, ((key, old_record),))

    def _migrate(self, ctx, handle, ent, key, new_index, new_record):
        """The partition key moved: migrate the record across shards —
        delete here, insert there, both inside the same global txn."""
        descriptor = self._descriptor(handle)
        old_index, remote_key = key
        source = self._participant(ctx, handle, ent, old_index)
        target = self._participant(ctx, handle, ent, new_index)
        source_handle = self._child_handle(descriptor, source)
        target_handle = self._child_handle(descriptor, target)
        source.call(lambda: source.database.data.delete(
            source.context(), source_handle, remote_key))
        new_remote = target.call(lambda: target.database.data.insert(
            target.context(), target_handle, new_record))
        source.wrote = True
        target.wrote = True
        source.stats.bump("remote.tuples_written")
        target.stats.bump("remote.tuples_written")
        ctx.stats.bump("sharded.migrations")
        return (new_index, new_remote)

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
            participant = self._participant(ctx, handle, ent, index)
            child_handle = self._child_handle(descriptor, participant)
            batch = [record for __, record in group]
            remote_keys = participant.call(
                lambda p=participant, h=child_handle, b=batch:
                p.database.data.insert_batch(p.context(), h, b))
            for (position, __), remote_key in zip(group, remote_keys):
                keys[position] = (index, remote_key)
            participant.wrote = True
            participant.stats.bump("remote.tuples_written", len(batch))
        ctx.stats.bump("sharded.inserts", len(records))
        ctx.stats.bump("sharded.batch_fanout", len(groups))
        return keys

    def update_batch(self, ctx, handle, items):
        """Route each (key, old, new) by its current shard; one message per
        shard for in-place updates, migrations go record-at-a-time."""
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
            else:
                keys[position] = self._migrate(ctx, handle, ent, key,
                                               new_index, new_record)
        for index in sorted(in_place):
            group = in_place[index]
            participant = self._participant(ctx, handle, ent, index)
            child_handle = self._child_handle(descriptor, participant)
            pairs = [(remote_key, new_record)
                     for __, remote_key, new_record in group]
            new_remotes = participant.call(
                lambda p=participant, h=child_handle, b=pairs:
                p.database.data.update_batch(p.context(), h, b))
            for (position, __, ___), new_remote in zip(group, new_remotes):
                keys[position] = (index, new_remote)
            participant.wrote = True
            participant.stats.bump("remote.tuples_written", len(pairs))
        ctx.stats.bump("sharded.updates", len(items))
        ctx.stats.bump("sharded.batch_fanout", len(in_place))
        return keys

    def delete_batch(self, ctx, handle, items) -> None:
        descriptor = self._descriptor(handle)
        ent = self._enlist(ctx, handle)
        self._mark_write(ctx, handle, ent)
        groups: Dict[int, list] = {}
        for key, __ in items:
            index, remote_key = key
            groups.setdefault(index, []).append(remote_key)
        for index in sorted(groups):
            participant = self._participant(ctx, handle, ent, index)
            child_handle = self._child_handle(descriptor, participant)
            remote_keys = groups[index]
            participant.call(
                lambda p=participant, h=child_handle, b=remote_keys:
                p.database.data.delete_batch(p.context(), h, b))
            participant.wrote = True
            participant.stats.bump("remote.tuples_written", len(remote_keys))
        ctx.stats.bump("sharded.deletes", len(items))
        ctx.stats.bump("sharded.batch_fanout", len(groups))

    # -- degraded / failed-over reads ---------------------------------------------
    @staticmethod
    def _start_report(ctx: ExecutionContext) -> dict:
        """Begin a structured read outcome and publish it on the context."""
        report = _fresh_report()
        ctx.read_report = report
        return report

    @staticmethod
    def _stale_read(descriptor: dict, index: int, report: dict, action):
        """Try the shard's standbys; the result, or ``_UNREACHED``.

        A successful standby read marks the shard stale in the report and
        widens its staleness bound by the standby's lag.
        """
        repl = descriptor.get("replication")
        if repl is None or not repl.standbys(index):
            return _UNREACHED
        try:
            result, lag = repl.failover_read(index, action)
        except GatewayError:
            return _UNREACHED
        report["stale_shards"].append(index)
        report["max_lag_lsn"] = max(report["max_lag_lsn"], lag)
        return result

    @staticmethod
    def _skip_shard(ctx: ExecutionContext, descriptor: dict, index: int,
                    report: dict, counter: str,
                    failure: Optional[GatewayError]) -> None:
        """Degraded skip (opted in) or fail closed with the original error."""
        if not descriptor.get("degraded_reads"):
            if failure is not None:
                raise failure
            raise GatewayError(
                f"shard {index} is unavailable (circuit breaker open); "
                f"create the relation with degraded_reads=True to read "
                f"around dead shards")
        ctx.stats.bump(counter)
        ctx.stats.bump(f"shard.{index}.degraded_skips")
        report["complete"] = False
        report["skipped_shards"].append(index)

    # -- access -------------------------------------------------------------------
    def fetch(self, ctx, handle, key, fields=None, predicate=None):
        descriptor = self._descriptor(handle)
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)
        index, remote_key = key
        participant = self._participant(ctx, handle, ent, index)
        child_handle = self._child_handle(descriptor, participant)
        record = _UNREACHED
        failure = None
        try:
            record = participant.call(
                lambda: participant.database.data.fetch(
                    participant.context(), child_handle, remote_key))
        except GatewayError as exc:
            failure = exc
        if record is _UNREACHED:

            def fetch_standby(db, relation=descriptor["relation"],
                              rk=remote_key):
                h = db.catalog.handle(relation)
                with db.autocommit() as sctx:
                    return db.data.fetch(sctx, h, rk)

            record = self._stale_read(descriptor, index, report,
                                      fetch_standby)
        if record is _UNREACHED:
            self._skip_shard(ctx, descriptor, index, report,
                             "remote.degraded_fetches", failure)
            return None
        if record is None:
            return None
        ctx.stats.bump("sharded.fetches")
        if predicate is not None and not predicate.matches(record):
            return None
        if fields is None:
            return record
        return tuple(record[i] for i in fields)

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Group the key set by shard: one block-fetch message per shard,
        results stitched back into input order."""
        descriptor = self._descriptor(handle)
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)
        groups: Dict[int, list] = {}
        for key in keys:
            index, remote_key = key
            groups.setdefault(index, []).append(remote_key)
        fetched: Dict = {}
        for index in sorted(groups):
            participant = self._participant(ctx, handle, ent, index)
            child_handle = self._child_handle(descriptor, participant)
            remote_keys = groups[index]
            pairs = _UNREACHED
            failure = None
            try:
                pairs = participant.call(
                    lambda p=participant, h=child_handle, b=remote_keys:
                    p.database.data.fetch_many(p.context(), h, b))
            except GatewayError as exc:
                failure = exc
            else:
                participant.stats.bump("remote.tuples_fetched", len(pairs))
            if pairs is _UNREACHED:

                def fetch_standby(db, relation=descriptor["relation"],
                                  rks=remote_keys):
                    h = db.catalog.handle(relation)
                    with db.autocommit() as sctx:
                        return db.data.fetch_many(sctx, h, rks)

                pairs = self._stale_read(descriptor, index, report,
                                         fetch_standby)
            if pairs is _UNREACHED:
                self._skip_shard(ctx, descriptor, index, report,
                                 "remote.degraded_fetches", failure)
                continue
            for remote_key, record in pairs:
                fetched[(index, remote_key)] = record
        results = []
        for key in keys:
            record = fetched.get(key)
            if record is None:
                continue
            if predicate is not None and not predicate.matches(record):
                continue
            if fields is None:
                results.append((key, record))
            else:
                results.append((key, tuple(record[i] for i in fields)))
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
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)
        streams = []
        for index in range(descriptor["shards"]):
            transport = self._transport(index)
            rows = _UNREACHED
            failure = None
            if transport.available(descriptor["channels"][index]):
                participant = self._participant(ctx, handle, ent, index)
                child_handle = self._child_handle(descriptor, participant)
                child_predicate = None
                if predicate is not None:
                    child_predicate = Predicate(predicate.expr,
                                                child_handle.schema,
                                                predicate.params)

                def ship(p=participant, h=child_handle,
                         where=child_predicate):
                    # The children project: a heap child decodes only
                    # ``fields``, and only those cross the channel.
                    scan = p.database.data.open_scan(p.context(), h, fields,
                                                     where)
                    try:
                        rows = []
                        while True:
                            chunk = scan.next_batch(256)
                            if not chunk:
                                break
                            rows.extend(chunk)
                    finally:
                        scan.close()
                    return rows

                try:
                    rows = participant.call(ship)
                except GatewayError as exc:
                    failure = exc
                else:
                    participant.stats.bump("remote.tuples_scanned",
                                           len(rows))
            if rows is _UNREACHED:
                # Fail over to the most-caught-up standby: a stale-but-
                # bounded stream beats no stream, and the report says
                # exactly which shards are stale and by how much.

                def drain_standby(db, relation=descriptor["relation"],
                                  where=predicate):
                    h = db.catalog.handle(relation)
                    child_where = None
                    if where is not None:
                        child_where = Predicate(where.expr, h.schema,
                                                where.params)
                    with db.autocommit() as sctx:
                        scan = db.data.open_scan(sctx, h, fields,
                                                 child_where)
                        try:
                            out = []
                            while True:
                                chunk = scan.next_batch(256)
                                if not chunk:
                                    break
                                out.extend(chunk)
                        finally:
                            scan.close()
                            db.services.scans.unregister(scan)
                    return out

                rows = self._stale_read(descriptor, index, report,
                                        drain_standby)
            if rows is _UNREACHED:
                # Degraded read (opted in): the dead shard contributes no
                # rows rather than failing the whole scan.
                self._skip_shard(ctx, descriptor, index, report,
                                 "remote.degraded_scans", failure)
                continue
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
            source = _ListSource(
                [pair for stream in streams for pair in stream])
        ctx.read_report = report  # _child_order spawns child reads
        scan = ShardedScan(ctx, handle, source, report)
        ctx.services.scans.register(scan)
        return scan

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
        if self._child_order(ctx, descriptor):
            ctx.stats.bump("sharded.pushdown.gated_off")
            return False
        shards = descriptor["shards"]
        expected = getattr(plan.access.cost, "expected_tuples", 0.0) or 0.0
        distinct = None
        if fragment.kind == "group":
            distinct = self._group_distinct(ctx, handle, descriptor,
                                            plan.group_index)
        wire, pull = fragments.pushdown_estimate(fragment, shards, expected,
                                                 distinct)
        if wire < pull or fragments.projection_narrows(
                fragment, len(handle.schema.fields)):
            return True
        ctx.stats.bump("sharded.pushdown.gated_off")
        return False

    def _group_distinct(self, ctx, handle, descriptor: dict,
                        group_index: int) -> Optional[float]:
        """Global distinct estimate for the grouping column: the union of
        the per-shard KMV sketches when every child tracks statistics,
        else the coordinator's own statistics, else ``None``."""
        from ..access.statistics import (kmv_union_estimate, sketch_state,
                                         statistics_for)
        sketches = []
        for child in descriptor["databases"]:
            child_handle = child.catalog.handle(descriptor["relation"])
            column = sketch_state(child, child_handle, group_index)
            if column is None:
                sketches = None
                break
            sketches.append(column["kmv"])
        if sketches is not None:
            ctx.stats.bump("sharded.pushdown.kmv_unions")
            return float(kmv_union_estimate(sketches))
        table_stats = statistics_for(ctx, handle)
        if table_stats is not None:
            distinct = table_stats.distinct(group_index)
            if distinct is not None:
                return float(distinct)
        return None

    def run_fragment(self, ctx, handle, fragment, params):
        """Execute one shard-local fragment per shard — a single remote
        call each, dispatched concurrently — and run the coordinator
        merge program over the partial results.

        Per shard, the read ladder matches :meth:`open_scan` exactly:
        primary through the channel (retry/breaker/fencing), then the
        most-caught-up standby (marked stale in the read report), then a
        degraded skip when opted in.  *Any* other failure — fencing, an
        injected kernel fault, an unreachable shard without
        ``degraded_reads`` — raises :class:`FragmentFallback` so the
        executor transparently re-runs the query on the pull-up path:
        fail closed, never a partial answer.
        """
        from ..query import fragments
        descriptor = self._descriptor(handle)
        ent = self._enlist(ctx, handle)
        report = self._start_report(ctx)
        repl = descriptor.get("replication")
        relation = descriptor["relation"]
        shards = descriptor["shards"]
        sources = [_UNREACHED] * shards
        failures: Dict[int, GatewayError] = {}
        members, tasks, buffers = [], [], []
        for index in range(shards):
            transport = self._transport(index)
            channel = descriptor["channels"][index]
            if not transport.available(channel):
                continue
            participant = self._participant(ctx, handle, ent, index)
            # Touch the lazy engine in the coordinator thread; workers
            # must never race its first construction.
            participant.database.query_engine
            buffer = StatsBuffer()
            members.append(index)
            buffers.append(buffer)
            tasks.append(self._fragment_task(ctx, descriptor, fragment,
                                             params, index, participant,
                                             channel, transport, buffer))
        results = shared_pool().run(tasks)
        # Gather serially: stats buffers, replication health and failure
        # classification all touch single-threaded machinery.
        fallback = None
        for index, buffer, (rows, error) in zip(members, buffers, results):
            buffer.merge_into(ctx.services.stats)
            if error is None:
                sources[index] = rows
                if repl is not None:
                    repl.report_success(index)
                continue
            if isinstance(error, FencingError) \
                    or not isinstance(error, GatewayError):
                # A fence or a child-side fault is not a dead channel;
                # no failover, no degraded skip — fall back whole.
                if fallback is None:
                    fallback = error
                continue
            failures[index] = error
            if repl is not None:
                repl.report_failure(index)
                if repl.health(index) == DOWN:
                    repl.maybe_promote(index)
        if fallback is not None:
            ctx.stats.bump("sharded.pushdown.fallbacks")
            raise fragments.FragmentFallback(str(fallback)) from fallback
        for index in range(shards):
            if sources[index] is not _UNREACHED:
                continue

            def run_standby(db, relation=relation):
                with db.autocommit() as standby_ctx:
                    return fragments.run_fragment_on(
                        db, standby_ctx, relation, fragment, params)

            rows = self._stale_read(descriptor, index, report, run_standby)
            if rows is _UNREACHED:
                if not descriptor.get("degraded_reads"):
                    ctx.stats.bump("sharded.pushdown.fallbacks")
                    raise fragments.FragmentFallback(
                        f"shard {index} unreachable"
                    ) from failures.get(index)
                self._skip_shard(ctx, descriptor, index, report,
                                 "remote.degraded_fragments",
                                 failures.get(index))
                continue
            ctx.services.stats.namespace(f"shard.{index}").bump(
                "fragment.rows", len(rows))
            sources[index] = rows
        merged = fragments.merge_fragment_results(
            fragment,
            [rows for rows in sources if rows is not _UNREACHED], params)
        ctx.stats.bump("sharded.pushdown.queries")
        ctx.stats.bump("sharded.pushdown.fragments", len(tasks))
        ctx.read_report = report
        return merged

    def _fragment_task(self, ctx, descriptor, fragment, params, index,
                       participant, channel, transport, buffer):
        """One worker thunk: the whole fragment as one remote call.

        The worker writes counters only into its private buffer (mirrored
        under ``shard.<i>.``), owns the channel's breaker state for the
        duration, and reports nothing to replication — the gather loop
        applies health transitions serially.
        """
        from ..query import fragments
        repl = descriptor.get("replication")
        relation = descriptor["relation"]
        services = ctx.services
        shard_stats = NamespacedStats(buffer, f"shard.{index}")

        def task():
            if repl is not None \
                    and repl.epoch(index) != participant.epoch:
                raise FencingError(
                    f"shard {index}: fragment bound to deposed epoch "
                    f"{participant.epoch}")

            def send():
                transport.remote_call(services, channel, shard_stats)
                started = perf_counter()
                rows = fragments.run_fragment_on(
                    participant.database, participant.context(), relation,
                    fragment, params, cache_key=participant.database)
                shard_stats.bump("fragment.micros",
                                 int((perf_counter() - started) * 1e6))
                return rows

            rows = transport.call(channel, shard_stats, send)
            shard_stats.bump("fragment.calls")
            shard_stats.bump("fragment.rows", len(rows))
            return rows

        return task

    # -- planning -----------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        descriptor = self._descriptor(handle)
        report = self._start_report(ctx)
        total = 0
        for index, child in enumerate(descriptor["databases"]):
            transport = self._transport(index)
            if not transport.available(descriptor["channels"][index]):

                def count_standby(db, relation=descriptor["relation"]):
                    return db.table(relation).count()

                count = self._stale_read(descriptor, index, report,
                                         count_standby)
                if count is not _UNREACHED:
                    total += count
                    continue
                self._skip_shard(ctx, descriptor, index, report,
                                 "remote.degraded_scans", None)
                continue
            total += child.table(descriptor["relation"]).count()
        return total

    def page_count(self, ctx, handle) -> int:
        # Child pages are invisible; cost comes from per-shard messages.
        return 0

    def estimate_cost(self, ctx, handle, eligible) -> AccessCost:
        descriptor = self._descriptor(handle)
        tuples = max(1, self.record_count(ctx, handle))
        selectivity = 1.0
        for pred in eligible:
            if pred.is_simple:
                selectivity *= DEFAULT_SELECTIVITY.get(pred.op, 0.5)
            else:
                selectivity *= 0.5
        expected = max(1.0, tuples * selectivity)
        shards = descriptor["shards"]
        latency = descriptor.get("latency", 0.5)
        return AccessCost(io_pages=shards * latency + expected / 50.0,
                          cpu_tuples=tuples,
                          expected_tuples=expected,
                          relevant=tuple(eligible),
                          ordered_by=self._child_order(ctx, descriptor),
                          route=("sharded_scan", shards))

    # -- restart resolution --------------------------------------------------------
    def resolve_decision(self, database, handle, payload: dict) -> int:
        """Redeliver a stable commit decision to still-prepared children.

        Called by :meth:`Database.resolve_indoubt` after a restart (or
        after a crashed shard comes back).  Delivery is direct — this is
        the resolution channel itself.
        """
        descriptor = handle.descriptor.storage_descriptor
        gtid = payload["gtid"]
        resolved = 0
        for index in payload.get("shards", ()):
            child = descriptor["databases"][index]
            manager = child.services.transactions
            child_txn = manager.find_gtid(gtid)
            if child_txn is None or child_txn.settled:
                # A vanished prepared child that heuristically aborted
                # contradicts this durable COMMIT: its changes are gone
                # while its siblings' are committed.  Surface the damage
                # instead of silently counting the child as resolved.
                if manager.heuristic_aborts.pop(gtid, None) is not None:
                    database.services.stats.bump("txn.2pc.heuristic_mismatches")
                continue
            if child_txn.state is TxnState.PREPARED:
                manager.commit_decided(child_txn)
                resolved += 1
        self._runtime.pop(payload["txn_id"], None)
        return resolved

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
        """End-of-transaction cleanup on the coordinator side.

        Unprepared children are rolled back directly (connection-drop
        semantics).  Prepared children depend on the local outcome: after
        a local *abort* they receive the abort decision (a real message —
        a dead channel leaves them prepared, to be drained by their own
        database's close/restart under presumed abort); after a local
        *commit* a still-prepared child is in doubt and must wait for the
        decision to be redelivered, so it is left strictly alone.
        """
        by_relation = self._runtime.pop(txn_id, None)
        if not by_relation:
            return
        local = services.transactions.get(txn_id)
        committed = local is not None and local.state is TxnState.COMMITTED
        for ent in by_relation.values():
            for participant in ent.participants.values():
                child_txn = participant.txn
                if child_txn.settled:
                    continue
                if child_txn.state is TxnState.PREPARED:
                    if committed:
                        continue
                    try:
                        participant.abort_decided()
                    except GatewayError:
                        services.stats.bump("txn.2pc.indoubt")
                    continue
                participant.manager.abort(child_txn)
