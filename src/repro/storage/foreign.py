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

from ..core.authorization import SELECT
from ..core.storage_method import StorageMethod, logged_relation, \
    read_pairs
from ..errors import ForeignError, GatewayError, StorageError
from ..query.cost import AccessCost, default_selectivity
from ..services.recovery import ResourceHandler
from ..services.remote import RemoteTransport, block_scan
from ..services.scans import Scan, ShippedRows, ShippedScan

__all__ = ["ForeignStorageMethod", "TRANSPORT"]

#: The gateway's transport discipline (retry/backoff/breaker) lives in the
#: shared :class:`RemoteTransport` service; this instance pins the foreign
#: method's historical fault-point and counter names.
TRANSPORT = RemoteTransport(fault_points=("foreign.remote_call",),
                            message_counter="foreign.messages",
                            latency_counter="foreign.latency_units",
                            counter_prefix="gateway")


class _ForeignHandler(ResourceHandler):
    """Saga-style undo: issue the inverse operation against the remote."""

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        relation = logged_relation(services, payload)
        if relation is None:
            return  # the relation was dropped: no gateway to compensate
        descriptor = relation.descriptor.storage_descriptor
        table = descriptor["database"].table(descriptor["relation"])
        op = payload["op"]

        def compensate():
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

        TRANSPORT.send(services, descriptor, services.stats, compensate)

    def redo(self, services, lsn: int, payload: dict) -> None:
        """The remote database is its own durability domain; no redo."""


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
        knobs = RemoteTransport.pop_knobs(attributes, "foreign storage", 2.0)
        if attributes:
            raise StorageError(
                f"foreign storage: unknown attributes {sorted(attributes)}")
        if remote_db is None or remote_relation is None:
            raise StorageError(
                "foreign storage requires 'database' and 'relation' "
                "attributes")
        remote_schema = remote_db.catalog.handle(remote_relation).schema
        if tuple(f.type_code for f in remote_schema.fields) != \
                tuple(f.type_code for f in schema.fields):
            raise StorageError(
                "foreign storage: local and remote schemas must have "
                "matching field types")
        return {"database": remote_db, "relation": remote_relation, **knobs}

    def create_instance(self, ctx, relation_id, schema, attributes) -> dict:
        """The storage descriptor is also the gateway's channel."""
        return {"relation_id": relation_id, **attributes}

    def destroy_instance(self, ctx, descriptor) -> None:
        """Dropping the gateway never touches the foreign relation."""

    def recovery_handler(self) -> ResourceHandler:
        return _ForeignHandler()

    @staticmethod
    def _remote(handle):
        """``(descriptor, remote relation)`` behind ``handle``."""
        descriptor = handle.descriptor.storage_descriptor
        return descriptor, descriptor["database"].table(descriptor["relation"])

    # -- modification ---------------------------------------------------------------
    def update(self, ctx, handle, key, old_record, new_record):
        descriptor, remote = self._remote(handle)
        changes = {field.name: value for field, value
                   in zip(handle.schema.fields, new_record)}
        new_key = TRANSPORT.send(ctx, descriptor, ctx.stats,
                                 lambda: remote.update(key, changes))
        ctx.log(self.resource, {"op": "update", "remote_key": new_key,
                                "old": old_record,
                                "relation_id": descriptor["relation_id"]})
        ctx.stats.bump("foreign.updates")
        return new_key

    # -- set-at-a-time modification -------------------------------------------------
    def insert_batch(self, ctx, handle, records):
        """Ship the whole set in one message (a block-insert protocol) and
        log one compensation record for the group."""
        descriptor, remote = self._remote(handle)
        remote_keys = list(TRANSPORT.send(
            ctx, descriptor, ctx.stats, lambda: remote.insert_many(records)))
        ctx.log(self.resource, {"op": "insert_multi",
                                "remote_keys": remote_keys,
                                "relation_id": descriptor["relation_id"]})
        ctx.stats.bump("foreign.inserts", len(remote_keys))
        return remote_keys

    def delete_batch(self, ctx, handle, items) -> None:
        descriptor, remote = self._remote(handle)

        def delete_all():
            for key, __ in items:
                remote.delete(key)

        TRANSPORT.send(ctx, descriptor, ctx.stats, delete_all)
        ctx.log(self.resource, {"op": "delete_multi",
                                "olds": [old for __, old in items],
                                "relation_id": descriptor["relation_id"]})
        ctx.stats.bump("foreign.deletes", len(items))

    # -- access -------------------------------------------------------------------------
    def _read(self, ctx, handle, action, degraded_counter: str, degraded):
        """One read message; while the gateway is unreachable the read
        degrades to ``degraded`` (the relation looks empty)."""
        descriptor, remote = self._remote(handle)
        try:
            return TRANSPORT.send(ctx, descriptor, ctx.stats,
                                  lambda: action(remote))
        except GatewayError:
            ctx.stats.bump(degraded_counter)
            return degraded

    def fetch_many(self, ctx, handle, keys, fields=None, predicate=None):
        """Ship the whole key set in one message (a block-fetch protocol)
        instead of one round trip per key."""
        fetched = self._read(
            ctx, handle,
            lambda remote: [(key, remote.fetch(key)) for key in keys],
            "gateway.degraded_fetches", ())
        pairs = read_pairs([pair for pair in fetched if pair[1] is not None],
                           len(handle.schema), fields, predicate, ctx.stats)
        ctx.stats.bump("foreign.fetches", len(pairs))
        return pairs

    def open_scan(self, ctx, handle, fields=None, predicate=None) -> Scan:
        """Ship the filter and the projection to the remote side, then
        block-fetch the result in one message."""
        def ship(remote):
            database = remote.database
            database.authorization.check(database.principal, remote.name,
                                         SELECT)
            with database.autocommit() as remote_ctx:
                return block_scan(database, remote_ctx, remote.name, fields,
                                  predicate)

        rows = self._read(ctx, handle, ship, "gateway.degraded_scans", [])
        scan = ShippedScan(ctx, ShippedRows(rows), "foreign.tuples_scanned")
        return ctx.services.scans.register(scan)

    # -- query pushdown -------------------------------------------------------------------
    def fragment_worthwhile(self, ctx, handle, plan, fragment) -> bool:
        """Gate pushdown on expected wire savings (aggregates, top-k, or
        a narrowing projection); results are bit-identical either way.
        With the breaker open the pull-up path's degraded empty scan is
        the established contract, and it is what runs the probe."""
        from ..query import fragments
        if TRANSPORT.available(handle.descriptor.storage_descriptor) \
                and fragments.ships_less(ctx, handle, plan, fragment, 1):
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

        def run():
            with remote.autocommit() as remote_ctx:
                return fragments.run_fragment_on(
                    remote, remote_ctx, descriptor["relation"], fragment,
                    params, final=True)

        try:
            rows = TRANSPORT.send(ctx, descriptor, ctx.stats, run)
        except GatewayError as exc:
            ctx.stats.bump("foreign.pushdown.fallbacks")
            raise fragments.FragmentFallback(str(exc)) from exc
        ctx.stats.bump_many({"foreign.pushdown.queries": 1,
                             "foreign.fragment.rows": len(rows)})
        return rows

    # -- planning ---------------------------------------------------------------------------
    def record_count(self, ctx, handle) -> int:
        descriptor, remote = self._remote(handle)
        # Unavailable relation: the planner sees it as empty.
        return remote.count() if TRANSPORT.available(descriptor) else 0

    def page_count(self, ctx, handle) -> int:
        # Remote pages are invisible; cost comes from message latency.
        return 0

    def estimate_cost(self, ctx, handle, eligible) -> AccessCost:
        tuples = max(1, self.record_count(ctx, handle))
        expected = max(1.0, tuples * default_selectivity(eligible))
        # One message per scan plus shipping cost proportional to result.
        latency = handle.descriptor.storage_descriptor.get("latency", 2.0)
        return AccessCost(io_pages=latency + expected / 50.0,
                          cpu_tuples=tuples,
                          expected_tuples=expected,
                          relevant=tuple(eligible), route=("remote_scan",))
