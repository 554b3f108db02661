"""Foreign-database gateway storage method.

The paper: "Another relation storage method might support access to a
foreign database by simulating relation accesses via (remote) accesses to
relations in the foreign database."

The "remote" side is another in-process :class:`Database` instance (the
closest laptop-scale equivalent of a remote DBMS; see DESIGN.md) reached
through an explicit message layer that counts round trips and charges a
configurable latency cost, so the cost model sees the remoteness even
though the bytes never leave the process.

Remote effects of a local transaction are made undoable saga-style: each
local modification logs a compensation record, and the undo handler issues
the inverse remote operation.  Redo after a local crash is a no-op — the
remote database is its own durability domain.

Transient failures (:class:`~repro.errors.GatewayError` — the analogue of
a lost message or a remote hiccup) are retried with bounded deterministic
backoff, each retry charging escalating latency units.  When a call
exhausts its retries repeatedly, a circuit breaker trips: further calls
fail fast (no message is even attempted) until a cooldown of calls has
elapsed, after which one half-open probe either closes the breaker or
re-opens it.  While the breaker is open, *reads degrade* — scans return no
rows, fetches return None, the planner sees a zero-cost empty relation —
and *writes fail closed* with a GatewayError, because silently dropping a
modification would diverge the two databases.

DDL attributes: ``database`` (the remote Database object), ``relation``
(remote relation name), ``latency`` (I/O-page-equivalents charged per
message, default 2.0), ``retries`` (transient retry budget, default 3),
``breaker_threshold`` (consecutive exhausted calls that trip the breaker,
default 3), ``breaker_cooldown`` (calls failed fast before the half-open
probe, default 8).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.context import ExecutionContext
from ..core.storage_method import RelationHandle, StorageMethod
from ..errors import ForeignError, GatewayError, ScanError, StorageError
from ..query.cost import AccessCost, DEFAULT_SELECTIVITY
from ..services.predicate import Predicate
from ..services.recovery import ResourceHandler
from ..services.remote import RemoteTransport
from ..services.scans import AFTER, BEFORE, ON, Scan, ScanPosition

__all__ = ["ForeignStorageMethod", "ForeignScan", "TRANSPORT"]

#: The gateway's transport discipline (retry/backoff/breaker) lives in the
#: shared :class:`RemoteTransport` service; this instance pins the foreign
#: method's historical fault-point and counter names.
TRANSPORT = RemoteTransport(fault_points=("foreign.remote_call",),
                            message_counter="foreign.messages",
                            latency_counter="foreign.latency_units",
                            counter_prefix="gateway")


def _gateway_for(services, payload: dict):
    database = getattr(services, "database", None)
    if database is None:
        raise StorageError("recovery handler needs services.database wired")
    entry = database.catalog.entry_by_id(payload["relation_id"])
    return entry.handle.descriptor.storage_descriptor


def _remote_call(ctx_or_services, descriptor: dict, stats) -> None:
    """Account one message round trip to the foreign database."""
    TRANSPORT.remote_call(ctx_or_services, descriptor, stats)


def _breaker(descriptor: dict) -> dict:
    """The per-gateway circuit-breaker state (lives in the storage
    descriptor, so each foreign relation has its own breaker)."""
    return TRANSPORT.breaker(descriptor)


def gateway_available(descriptor: dict) -> bool:
    """False while the breaker is open (reads degrade, writes fail fast)."""
    return TRANSPORT.available(descriptor)


def _gateway(descriptor: dict, stats, action):
    """Run one remote interaction behind retry + circuit breaker (see
    :meth:`RemoteTransport.call`)."""
    return TRANSPORT.call(descriptor, stats, action)


class _ForeignHandler(ResourceHandler):
    """Saga-style undo: issue the inverse operation against the remote."""

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        descriptor = _gateway_for(services, payload)
        remote = descriptor["database"]
        table = remote.table(descriptor["relation"])
        op = payload["op"]

        def compensate():
            _remote_call(services, descriptor, services.stats)
            if op == "update":
                schema = table.schema
                changes = {schema.fields[i].name: value
                           for i, value in enumerate(payload["old"])}
                table.update(payload["remote_key"], changes)
            elif op == "insert_multi":
                for remote_key in payload["remote_keys"]:
                    table.delete(remote_key)
            elif op == "delete_multi":
                table.insert_many([tuple(old) for old in payload["olds"]])
            else:
                raise ForeignError(f"foreign gateway cannot undo op {op!r}")

        _gateway(descriptor, services.stats, compensate)

    def redo(self, services, lsn: int, payload: dict) -> None:
        """The remote database is its own durability domain; no redo."""


class ForeignScan(Scan):
    """A local scan wrapper around a remote key-sequential access.

    Results are shipped in one batch per open (a block-fetch protocol);
    the position is the index into the shipped batch.
    """

    def __init__(self, ctx: ExecutionContext, handle: RelationHandle,
                 batch, fields: Optional[Sequence[int]]):
        super().__init__(ctx.txn_id)
        self.ctx = ctx
        self.handle = handle
        self.batch = batch
        self.fields = tuple(fields) if fields is not None else None
        self.state = BEFORE
        self.position: Optional[int] = None

    def next(self):
        self._check_open()
        index = 0 if self.position is None else self.position + 1
        if index >= len(self.batch):
            self.state = AFTER
            return None
        self.position = index
        self.state = ON
        key, record = self.batch[index]
        self.ctx.stats.bump("foreign.tuples_scanned")
        if self.fields is None:
            return key, record
        return key, tuple(record[i] for i in self.fields)

    def next_batch(self, n: int) -> list:
        """Slice the shipped batch — the block-fetch already paid the
        message cost, so batching here is pure local bookkeeping."""
        self._check_open()
        if n < 1:
            raise ScanError(f"next_batch needs a positive count, got {n}")
        index = 0 if self.position is None else self.position + 1
        chunk = self.batch[index:index + n]
        if not chunk:
            self.state = AFTER
            return []
        self.position = index + len(chunk) - 1
        self.state = ON
        self.ctx.stats.bump("foreign.tuples_scanned", len(chunk))
        if self.fields is None:
            return list(chunk)
        return [(key, tuple(record[i] for i in self.fields))
                for key, record in chunk]

    def save_position(self) -> ScanPosition:
        return ScanPosition(self.state, self.position)

    def restore_position(self, saved: ScanPosition) -> None:
        self.state = saved.state
        self.position = saved.item


class ForeignStorageMethod(StorageMethod):
    """Relation operations translated into remote accesses."""

    name = "foreign"
    recoverable = True   # undoable via compensation; durable remotely
    updatable = True
    ordered_by_key = False

    # -- DDL -------------------------------------------------------------------
    def validate_attributes(self, schema, attributes):
        attributes = dict(attributes)
        remote_db = attributes.pop("database", None)
        remote_relation = attributes.pop("relation", None)
        latency = attributes.pop("latency", 2.0)
        retries = attributes.pop("retries", 3)
        threshold = attributes.pop("breaker_threshold", 3)
        cooldown = attributes.pop("breaker_cooldown", 8)
        deadline = attributes.pop("deadline", None)
        if attributes:
            raise StorageError(
                f"foreign storage: unknown attributes {sorted(attributes)}")
        if remote_db is None or remote_relation is None:
            raise StorageError(
                "foreign storage requires 'database' and 'relation' "
                "attributes")
        if not isinstance(latency, (int, float)) or latency < 0:
            raise StorageError(
                f"foreign storage: latency must be non-negative, got "
                f"{latency!r}")
        for name, value in (("retries", retries),
                            ("breaker_threshold", threshold),
                            ("breaker_cooldown", cooldown)):
            if not isinstance(value, int) or value < 0:
                raise StorageError(
                    f"foreign storage: {name} must be a non-negative "
                    f"integer, got {value!r}")
        if deadline is not None and (
                not isinstance(deadline, (int, float)) or deadline <= 0):
            raise StorageError(
                f"foreign storage: deadline must be a positive number, got "
                f"{deadline!r}")
        remote_schema = remote_db.catalog.handle(remote_relation).schema
        if tuple(f.type_code for f in remote_schema.fields) != \
                tuple(f.type_code for f in schema.fields):
            raise StorageError(
                "foreign storage: local and remote schemas must have "
                "matching field types")
        return {"database": remote_db, "relation": remote_relation,
                "latency": float(latency), "retries": retries,
                "breaker_threshold": threshold, "breaker_cooldown": cooldown,
                "deadline": deadline}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        descriptor = {"relation_id": relation_id,
                      "database": attributes["database"],
                      "relation": attributes["relation"],
                      "latency": attributes["latency"],
                      "retries": attributes["retries"],
                      "breaker_threshold": attributes["breaker_threshold"],
                      "breaker_cooldown": attributes["breaker_cooldown"]}
        if attributes.get("deadline") is not None:
            descriptor["deadline"] = float(attributes["deadline"])
        return descriptor

    def destroy_instance(self, ctx, descriptor) -> None:
        """Dropping the gateway never touches the foreign relation."""

    def recovery_handler(self) -> ResourceHandler:
        return _ForeignHandler()

    # -- modification ---------------------------------------------------------------
    def insert(self, ctx, handle, record):
        return self.insert_batch(ctx, handle, (record,))[0]

    def update(self, ctx, handle, key, old_record, new_record):
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"].table(descriptor["relation"])
        schema = handle.schema
        changes = {schema.fields[i].name: value
                   for i, value in enumerate(new_record)}

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            return remote.update(key, changes)

        new_key = _gateway(descriptor, ctx.stats, send)
        ctx.log(self.resource, {"op": "update", "remote_key": new_key,
                                "old": old_record,
                                "relation_id": descriptor["relation_id"]})
        ctx.stats.bump("foreign.updates")
        return new_key

    def delete(self, ctx, handle, key, old_record) -> None:
        self.delete_batch(ctx, handle, ((key, old_record),))

    # -- set-at-a-time modification -------------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Ship the whole set in one message (a block-insert protocol) and
        log one compensation record for the group."""
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"].table(descriptor["relation"])

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            return remote.insert_many(records)

        remote_keys = _gateway(descriptor, ctx.stats, send)
        ctx.log(self.resource, {"op": "insert_multi",
                                "remote_keys": list(remote_keys),
                                "relation_id": descriptor["relation_id"]})
        ctx.stats.bump("foreign.inserts", len(remote_keys))
        return list(remote_keys)

    def delete_batch(self, ctx, handle, items) -> None:
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"].table(descriptor["relation"])

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            for key, __ in items:
                remote.delete(key)

        _gateway(descriptor, ctx.stats, send)
        ctx.log(self.resource, {"op": "delete_multi",
                                "olds": [old for __, old in items],
                                "relation_id": descriptor["relation_id"]})
        ctx.stats.bump("foreign.deletes", len(items))

    # -- access -------------------------------------------------------------------------
    def fetch(self, ctx, handle, key, fields=None, predicate=None):
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"].table(descriptor["relation"])

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            return remote.fetch(key)

        try:
            record = _gateway(descriptor, ctx.stats, send)
        except GatewayError:
            ctx.stats.bump("gateway.degraded_fetches")
            return None
        if record is None:
            return None
        ctx.stats.bump("foreign.fetches")
        if predicate is not None and not predicate.matches(record):
            return None
        if fields is None:
            return record
        return tuple(record[i] for i in fields)

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Ship the whole key set in one message (a block-fetch protocol)
        instead of one round trip per key."""
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"].table(descriptor["relation"])

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            return [(key, remote.fetch(key)) for key in keys]

        try:
            fetched = _gateway(descriptor, ctx.stats, send)
        except GatewayError:
            ctx.stats.bump("gateway.degraded_fetches")
            return []
        pairs = []
        for key, record in fetched:
            if record is None:
                continue
            if predicate is not None and not predicate.matches(record):
                continue
            if fields is None:
                pairs.append((key, record))
            else:
                pairs.append((key, tuple(record[i] for i in fields)))
        ctx.stats.bump("foreign.fetches", len(pairs))
        return pairs

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"].table(descriptor["relation"])
        # Ship the filter to the remote side (predicate pushdown across the
        # gateway), then block-fetch the result in one message.
        remote_predicate = None
        if predicate is not None:
            remote_schema = remote.schema
            remote_predicate = Predicate(predicate.expr, remote_schema,
                                         predicate.params)

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            return remote.scan(where=remote_predicate)

        try:
            batch = _gateway(descriptor, ctx.stats, send)
        except GatewayError:
            # Degraded read: the relation is unavailable, the query sees
            # an empty result instead of crashing.
            ctx.stats.bump("gateway.degraded_scans")
            batch = []
        scan = ForeignScan(ctx, handle, batch, fields)
        ctx.services.scans.register(scan)
        return scan

    # -- query pushdown -------------------------------------------------------------------
    def fragment_worthwhile(self, ctx, handle, plan, fragment) -> bool:
        """Gate pushdown on expected wire savings (aggregates, top-k, or
        a narrowing projection); results are bit-identical either way."""
        from ..access.statistics import statistics_for
        from ..query import fragments
        descriptor = handle.descriptor.storage_descriptor
        if not gateway_available(descriptor):
            # Breaker open: the pull-up path's degraded empty scan is
            # the established contract; don't race the probe.
            ctx.stats.bump("foreign.pushdown.gated_off")
            return False
        expected = getattr(plan.access.cost, "expected_tuples", 0.0) or 0.0
        distinct = None
        if fragment.kind == "group":
            table_stats = statistics_for(ctx, handle)
            if table_stats is not None:
                distinct = table_stats.distinct(plan.group_index)
        wire, pull = fragments.pushdown_estimate(fragment, 1, expected,
                                                 distinct)
        if wire < pull or fragments.projection_narrows(
                fragment, len(handle.schema.fields)):
            return True
        ctx.stats.bump("foreign.pushdown.gated_off")
        return False

    def run_fragment(self, ctx, handle, fragment, params):
        """Run the *whole* query remotely in one gateway message.

        With a single remote there is nothing to merge: the remote
        database executes the original query shape (storage route
        pinned, so row order — and with it tie order and 'first'
        semantics — matches what the pull-up scan would have shipped)
        and only the final rows cross the wire.  Any gateway failure
        falls back to the pull-up path, whose degraded-read semantics
        stay authoritative.
        """
        from ..query import fragments
        descriptor = handle.descriptor.storage_descriptor
        remote = descriptor["database"]

        def send():
            _remote_call(ctx, descriptor, ctx.stats)
            with remote.autocommit() as remote_ctx:
                return fragments.run_fragment_on(
                    remote, remote_ctx, descriptor["relation"], fragment,
                    params, final=True)

        try:
            rows = _gateway(descriptor, ctx.stats, send)
        except GatewayError as exc:
            ctx.stats.bump("foreign.pushdown.fallbacks")
            raise fragments.FragmentFallback(str(exc)) from exc
        ctx.stats.bump_many({"foreign.pushdown.queries": 1,
                             "foreign.fragment.rows": len(rows)})
        return rows

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        descriptor = handle.descriptor.storage_descriptor
        if not gateway_available(descriptor):
            # Unavailable relation: the planner sees it as empty.
            return 0
        return descriptor["database"].table(descriptor["relation"]).count()

    def page_count(self, ctx, handle) -> int:
        # Remote pages are invisible; cost comes from message latency.
        return 0

    def estimate_cost(self, ctx, handle, eligible) -> AccessCost:
        descriptor = handle.descriptor.storage_descriptor
        tuples = max(1, self.record_count(ctx, handle))
        selectivity = 1.0
        for pred in eligible:
            if pred.is_simple:
                selectivity *= DEFAULT_SELECTIVITY.get(pred.op, 0.5)
            else:
                selectivity *= 0.5
        expected = max(1.0, tuples * selectivity)
        # One message per scan plus shipping cost proportional to result.
        latency = descriptor.get("latency", 2.0)
        return AccessCost(io_pages=latency + expected / 50.0,
                          cpu_tuples=tuples,
                          expected_tuples=expected,
                          relevant=tuple(eligible), route=("remote_scan",))
