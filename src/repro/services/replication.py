"""Per-shard WAL-shipping replication for the sharded storage method.

The paper's thesis — data-management services as pluggable extensions —
extends to availability: replication here is another service composed out
of the existing pieces rather than a new engine.  Each shard of a sharded
relation gets a *replica set*: the primary child database plus N standby
child databases, each reached over its own
:class:`~repro.services.remote.RemoteTransport` channel.

**Physical log shipping.**  Standbys are built by running the exact DDL
the primary child ran (both start as fresh databases, so their logs,
catalog ids, and page allocations are deterministic and identical), after
which the primary's stable log suffix is shipped verbatim
(:meth:`~repro.services.wal.LogManager.ship_since` /
:meth:`~repro.services.wal.LogManager.append_replicated`).  Shipping is
physical on purpose: record keys are page/slot addresses, and a promoted
standby must resolve the same keys the coordinator already handed out.

**Commit-boundary apply.**  A standby is a restart that never ends.  It
appends everything it receives (so its log is a verbatim prefix of the
primary's) but only *applies* records up to a horizon that stalls just
before the first record of a transaction not yet settled in the received
stream, and applying a record is restart's own one-record redo step
(:meth:`~repro.services.recovery.RecoveryManager.redo`).  What a page
allocation materialises and what a descriptor derives from its pages is
the storage method's redo to keep; this module knows no storage method.
Reads against a standby thus see a prefix-consistent committed state —
never dirty data — at the price of lag behind in-flight and in-doubt
transactions, surfaced as ``shard.<i>.replica_lag_lsn``.  Promotion
force-applies the remainder and runs ordinary restart recovery, which
undoes losers and re-registers prepared transactions in doubt exactly as
ARIES would.

**Durability modes.**  Shipping rides every 2PC phase 1 (the child's log
is already forced through its PREPARE record) and decision delivery:

* ``async`` — ship best-effort, never gate;
* ``semi-sync`` — a child's PREPARE vote only counts once >= 1 standby
  acknowledged holding it;
* ``quorum`` — the vote needs a majority of the ``replicas + 1`` copies
  (i.e. ``(replicas + 1) // 2`` standby acks).

Gating at *phase 1* is what makes quorum-acknowledged writes survive
failover: by the time the coordinator can decide commit, a majority of
copies durably hold the PREPARE, so whichever copy is promoted recovers
the transaction in doubt and the coordinator's stable decision record
finishes it (:meth:`~repro.core.database.Database.resolve_indoubt`).

**Health and fencing.**  Heartbeat probes (fault points
``repl.heartbeat``/``repl.<i>.heartbeat``) run through the data channel's
breaker machinery and feed a per-shard state machine healthy -> suspect
-> down.  Promotion bumps the shard's *epoch*: participants capture the
epoch when they bind, ships carry it, and anything arriving with an old
epoch is rejected with :class:`~repro.errors.FencingError` — a deposed
primary's late writes can never land.

Fault points: ``repl.ship``, ``repl.ack``, ``repl.heartbeat``,
``repl.promote`` (plus per-shard ``repl.<i>.*`` variants), and per-
endpoint channel points (``repl.<i>.standby.<j>``) for killing exactly
one peer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import (FencingError, GatewayError, RecoveryError,
                      ReplicationError)
from . import wal as wal_records
from .remote import RemoteTransport

__all__ = ["ReplicationService", "Standby", "MODES",
           "HEALTHY", "SUSPECT", "DOWN"]

#: Durability modes (how many standby acks a PREPARE vote needs).
MODES = ("async", "semi-sync", "quorum")

#: Per-shard health states.
HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"

#: Consecutive failures after the first before a suspect shard is
#: declared down (first failure: healthy -> suspect; this many more:
#: suspect -> down).
SUSPECT_THRESHOLD = 2


class Standby:
    """One standby child database of one shard.

    ``received_lsn``/``applied_lsn`` are the standby's own truth;
    ``acked_lsn`` is the primary side's view and only advances when an
    acknowledgement makes it back — a lost ack leaves it behind, the next
    ship re-sends, and :meth:`LogManager.append_replicated` drops the
    duplicates (at-least-once delivery, exactly-once apply).
    """

    __slots__ = ("shard", "name", "database", "channel",
                 "received_lsn", "applied_lsn", "acked_lsn", "epoch_seen",
                 "_settled", "_settled_through")

    def __init__(self, shard: int, name: str, database, channel: dict,
                 base_lsn: int):
        self.shard = shard
        self.name = name
        self.database = database
        self.channel = channel
        self.received_lsn = base_lsn
        self.applied_lsn = base_lsn
        self.acked_lsn = base_lsn
        self.epoch_seen = 0
        #: Transactions whose COMMIT/ABORT has been received and whose last
        #: record — a plain COMMIT, else the END that follows — has not
        #: been applied yet, from the records up to ``_settled_through``.
        #: It lives as long as the standby does: a rebuilt or readmitted
        #: one is a new ``Standby`` over a new log.
        self._settled = set()
        self._settled_through = base_lsn
        database.services.transactions.mirror()

    # -- standby side ----------------------------------------------------------
    def receive(self, epoch: int, wire: List[dict]) -> int:
        """Append a shipped batch, flush it, and advance the apply horizon.

        The flush *is* the acknowledgement's meaning: an acked LSN must
        survive the standby's own crash (promotion runs restart recovery
        over exactly this log).  Ships from a deposed epoch are fenced.
        """
        if epoch < self.epoch_seen:
            raise FencingError(
                f"standby {self.name} rejects ship from deposed epoch "
                f"{epoch} (current epoch {self.epoch_seen})")
        self.epoch_seen = epoch
        log = self.database.services.wal
        for record in wire:
            log.append_replicated(record)
        log.flush()
        self.received_lsn = log.current_lsn
        self.apply_pending()
        return self.received_lsn

    def apply_pending(self, force: bool = False) -> int:
        """Apply received records up to the commit-boundary horizon.

        Records apply physically in strict LSN order (every transaction's
        records, aborted ones' CLRs included — physical determinism needs
        the whole sequence), but the horizon stalls just before the first
        record of a transaction with no COMMIT/ABORT in the received
        stream: standby pages only ever show a prefix-consistent committed
        state.  ``force=True`` (promotion) applies everything; restart
        recovery then undoes the losers.  Applying a record is restart's
        redo step, :meth:`RecoveryManager.redo`.

        A received record is read once to settle and once to apply, however
        long the log has grown: the settled set is kept between calls, so
        a trailing END that arrives in a later ship than its COMMIT still
        finds its transaction settled, and leaves it only by being applied.
        """
        services, settled = self.database.services, self._settled
        log = services.wal
        for record in log.forward(self._settled_through + 1):
            if record.kind in (wal_records.COMMIT, wal_records.ABORT):
                settled.add(record.txn_id)
        self._settled_through = log.current_lsn
        applied = 0
        for record in log.forward(self.applied_lsn + 1):
            if (not force
                    and record.txn_id != wal_records.SYSTEM_TXN
                    and record.txn_id not in settled):
                break
            services.recovery.redo(record)
            # A transaction leaves at its last record: a plain COMMIT, or
            # the END after an ABORT's CLRs or a marked COMMIT's at-commit
            # records.
            if record.kind == wal_records.END or (
                    record.kind == wal_records.COMMIT
                    and not record.payload.get("end")):
                settled.discard(record.txn_id)
            self.applied_lsn = record.lsn
            applied += 1
        return applied


class _ReplicaSet:
    """Primary + standbys of one shard, with health and fencing state."""

    __slots__ = ("index", "standbys", "epoch", "health", "strikes",
                 "deposed", "primary_lsn", "spawned")

    def __init__(self, index: int):
        self.index = index
        self.standbys: List[Standby] = []
        self.epoch = 0
        self.health = HEALTHY
        self.strikes = 0           # consecutive reported failures
        self.deposed: list = []    # fenced former primaries
        self.primary_lsn = 0       # highest primary LSN this side has seen
        self.spawned = 0           # standby name counter (r0, r1, ...)


class ReplicationService:
    """WAL shipping, health, and failover for one sharded relation.

    Lives in the sharded relation's storage descriptor (under
    ``"replication"``) next to the child databases and channels it
    manages; the sharded method calls in at enlistment (heartbeat clock),
    at phase 1 (ship + ack gating), at decision delivery (best-effort
    ship), and from its read paths (stale failover).
    """

    def __init__(self, descriptor: dict, services, mode: str, replicas: int,
                 schema, child_storage: str,
                 child_attributes: Optional[dict],
                 heartbeat_every: int = 0):
        self.descriptor = descriptor
        self.services = services      # the coordinator's bundle
        self.stats = services.stats
        self.mode = mode
        self.replicas = replicas
        self.schema = schema
        self.child_storage = child_storage
        self.child_attributes = child_attributes
        self.heartbeat_every = heartbeat_every
        self.sets: List[_ReplicaSet] = []
        self.events: List[tuple] = []
        self._ship_transports: Dict[int, RemoteTransport] = {}
        self._hb_transports: Dict[int, RemoteTransport] = {}
        self._ops = 0
        for index in range(descriptor["shards"]):
            replica_set = _ReplicaSet(index)
            self.sets.append(replica_set)
            for __ in range(replicas):
                replica_set.standbys.append(self._new_standby(index))

    # -- construction ----------------------------------------------------------
    def _new_standby(self, index: int) -> Standby:
        """A fresh standby: same DDL as the primary child, so its log and
        page allocations start as an exact replica of the primary's
        prefix (the parity invariant physical shipping depends on)."""
        from ..core.database import Database
        replica_set = self.sets[index]
        name = f"r{replica_set.spawned}"
        replica_set.spawned += 1
        primary = self.descriptor["databases"][index]
        database = Database()
        database.create_table(self.descriptor["relation"], self.schema,
                              storage_method=self.child_storage,
                              attributes=self.child_attributes)
        base = database.services.wal.current_lsn
        # The primary's log must extend the standby's DDL prefix — it was
        # created by the identical call sequence.  A mismatch means the
        # parity invariant is broken and shipping would corrupt silently.
        if base > primary.services.wal.current_lsn:
            raise ReplicationError(
                f"shard {index}: standby DDL produced {base} log records "
                f"but the primary only has "
                f"{primary.services.wal.current_lsn} — parity broken")
        database.services.wal.flush()
        template = self.descriptor["channels"][index]
        channel = {key: template[key]
                   for key in ("latency", "retries", "breaker_threshold",
                               "breaker_cooldown", "deadline")
                   if key in template}
        channel["relation"] = f"shard[{index}].{name}"
        channel["fault_point"] = f"repl.{index}.standby.{name[1:]}"
        return Standby(index, name, database, channel, base)

    def _ship_transport(self, index: int) -> RemoteTransport:
        transport = self._ship_transports.get(index)
        if transport is None:
            transport = RemoteTransport(
                fault_points=("repl.ship", f"repl.{index}.ship"),
                message_counter="repl.messages",
                latency_counter="repl.latency_units",
                counter_prefix="repl.gateway")
            self._ship_transports[index] = transport
        return transport

    def _hb_transport(self, index: int) -> RemoteTransport:
        transport = self._hb_transports.get(index)
        if transport is None:
            transport = RemoteTransport(
                fault_points=("repl.heartbeat", f"repl.{index}.heartbeat"),
                message_counter="repl.messages",
                latency_counter="repl.latency_units",
                counter_prefix="repl.gateway")
            self._hb_transports[index] = transport
        return transport

    # -- introspection ---------------------------------------------------------
    def epoch(self, index: int) -> int:
        return self.sets[index].epoch

    def health(self, index: int) -> str:
        return self.sets[index].health

    def standbys(self, index: int) -> List[Standby]:
        return list(self.sets[index].standbys)

    def required_acks(self) -> int:
        """Standby acks a PREPARE vote needs under the configured mode."""
        if not self.replicas:
            return 0
        if self.mode == "semi-sync":
            return 1
        if self.mode == "quorum":
            # Majority of the replicas+1 copies; the primary's own forced
            # PREPARE is one of them.
            return (self.replicas + 1) // 2
        return 0  # async

    # -- shipping --------------------------------------------------------------
    def ship(self, index: int) -> None:
        """Ship the primary's stable log suffix to every standby.

        Per-standby failures are absorbed (counted, health of the *shard*
        is unaffected — a dead standby is the replica set's problem, not
        the primary's); the ack gate in :meth:`on_prepared` is where
        insufficient replication becomes an error.
        """
        replica_set = self.sets[index]
        if not replica_set.standbys:
            return
        primary = self.descriptor["databases"][index]
        log = primary.services.wal
        target = log.flushed_lsn
        replica_set.primary_lsn = max(replica_set.primary_lsn, target)
        transport = self._ship_transport(index)
        faults = self.services.faults
        for standby in replica_set.standbys:
            if standby.acked_lsn >= target:
                continue

            def ship(s=standby):
                wire = log.ship_since(s.acked_lsn, up_to=target)
                lsn = s.receive(replica_set.epoch, wire)
                self.stats.bump("repl.ship.records", len(wire))
                if faults is not None and faults.armed:
                    # The ack crosses the wire separately: losing it leaves
                    # the records applied but the primary none the wiser.
                    faults.fire("repl.ack")
                    faults.fire(f"repl.{index}.ack")
                return lsn

            try:
                acked = transport.send(self.services, standby.channel,
                                       self.stats, ship)
            except FencingError:
                self.stats.bump("repl.fenced")
                continue
            except GatewayError:
                self.stats.bump("repl.ship_failures")
            except RecoveryError:
                # The primary truncated past this standby's ack: it fell
                # off the retained log and only a full rebuild can help.
                self._rebuild_standby(index, standby)
            else:
                standby.acked_lsn = acked
                self.stats.bump("repl.acks")
            lag = max(0, target - standby.acked_lsn)
            self.stats.bump(f"shard.{index}.replica_lag_lsn", lag)
            self.stats.bump("repl.lag_samples")
        self.stats.bump("repl.ships")

    def on_prepared(self, index: int, prepare_lsn: int) -> None:
        """Phase-1 gate: ship through the PREPARE record, require acks.

        Raising here withholds the child's vote, so the coordinator aborts
        the global transaction — fail closed.  Once this returns under
        quorum mode, a majority of copies durably hold the PREPARE: any
        majority-side promotion recovers the transaction in doubt and the
        stable decision record finishes it.  That is the zero-lost-
        acknowledged-writes argument, in one sentence.
        """
        self.ship(index)
        needed = self.required_acks()
        if needed == 0:
            return
        replica_set = self.sets[index]
        acks = sum(1 for standby in replica_set.standbys
                   if standby.acked_lsn >= prepare_lsn)
        if acks < needed:
            self.stats.bump("repl.quorum_failures")
            raise GatewayError(
                f"shard {index}: replication mode {self.mode!r} needs "
                f"{needed} standby ack(s) at LSN {prepare_lsn}, got {acks} "
                f"— vote withheld")
        self.stats.bump("repl.acked_prepares")

    def on_decided(self, index: int) -> None:
        """Decision shipping is best-effort: durability already settled at
        phase 1, and a standby that misses the decision simply stalls its
        apply horizon until the next ship or heartbeat delivers it."""
        self.ship(index)

    # -- health ----------------------------------------------------------------
    def tick(self) -> None:
        """Operation-driven heartbeat clock (the simulation has no wall
        time): every ``heartbeat_every``-th sharded operation probes all
        shards.  Disabled when the knob is 0."""
        if self.heartbeat_every <= 0:
            return
        self._ops += 1
        if self._ops % self.heartbeat_every:
            return
        for index in range(len(self.sets)):
            self.heartbeat(index)

    def heartbeat(self, index: int) -> bool:
        """Probe the shard primary through its data channel.

        Shares the data channel's breaker: heartbeat failures accumulate
        toward the same trip, and a heartbeat probe can heal a half-open
        breaker.  Success also ships opportunistically, so an idle shard's
        standbys still drain the log.
        """
        channel = self.descriptor["channels"][index]
        transport = self._hb_transport(index)
        self.stats.bump("repl.heartbeats")
        try:
            transport.send(self.services, channel, self.stats, lambda: True)
        except GatewayError:
            self.stats.bump("repl.heartbeat_failures")
            self.report_failure(index)
            if self.sets[index].health == DOWN:
                # A partitioned primary looks exactly like a dead one from
                # here; under quorum mode the probe escalates to failover.
                self.maybe_promote(index)
            return False
        self.report_success(index)
        self.ship(index)
        return True

    def report_failure(self, index: int) -> None:
        """One failed interaction with the shard primary.

        healthy -> suspect on the first strike; suspect -> down after
        ``SUSPECT_THRESHOLD`` further consecutive strikes.
        """
        replica_set = self.sets[index]
        replica_set.strikes += 1
        if replica_set.health == HEALTHY:
            self._transition(replica_set, SUSPECT)
        elif (replica_set.health == SUSPECT
                and replica_set.strikes > SUSPECT_THRESHOLD):
            self._transition(replica_set, DOWN)

    def report_success(self, index: int) -> None:
        replica_set = self.sets[index]
        replica_set.strikes = 0
        if replica_set.health != HEALTHY:
            self._transition(replica_set, HEALTHY)

    def _transition(self, replica_set: _ReplicaSet, state: str) -> None:
        replica_set.health = state
        self.stats.bump("repl.health.transitions")
        self.events.append(("health", replica_set.index, state))

    # -- failover --------------------------------------------------------------
    def maybe_promote(self, index: int) -> bool:
        """Write-path failover: promote if the mode's promise allows it.

        Only quorum mode auto-promotes — it alone guarantees some
        reachable standby holds every acknowledged write, so failover
        cannot silently shed acks.  Under async/semi-sync the write keeps
        failing until an operator promotes explicitly.  A failed
        promotion attempt (e.g. an injected ``repl.promote`` fault) is
        absorbed: the write fails as before and a later write retries.
        """
        if self.mode != "quorum":
            return False
        if not self.sets[index].standbys:
            return False
        try:
            self.promote(index, reason="write-failover")
        except (GatewayError, ReplicationError):
            self.stats.bump("repl.promote_failures")
            return False
        return True

    def promote(self, index: int, reason: str = "operator") -> Standby:
        """Fence the primary and promote the most caught-up standby.

        Steps: (1) query each reachable standby's position over its
        channel; (2) bump the epoch — from here the deposed primary's
        participants are fenced; (3) force-apply the winner's received
        suffix and run restart recovery on it (losers undone, prepared
        transactions re-registered in doubt); (4) swap it into the
        descriptor as the shard's database with a fresh channel;
        (5) re-deliver the coordinator's stable commit decisions so the
        new primary's in-doubt transactions settle without operator help.
        """
        faults = self.services.faults
        if faults is not None and faults.armed:
            faults.fire("repl.promote")
            faults.fire(f"repl.{index}.promote")
        replica_set = self.sets[index]
        transport = self._ship_transport(index)
        candidates = []
        for standby in replica_set.standbys:
            try:
                lsn = transport.send(self.services, standby.channel,
                                     self.stats,
                                     lambda s=standby: s.received_lsn)
            except GatewayError:
                continue
            candidates.append((lsn, standby))
        if not candidates:
            raise ReplicationError(
                f"shard {index}: no reachable standby to promote")
        best_lsn = max(lsn for lsn, __ in candidates)
        best = next(s for lsn, s in candidates if lsn == best_lsn)
        replica_set.epoch += 1
        best.epoch_seen = replica_set.epoch
        best.apply_pending(force=True)
        best.database.restart()
        old_primary = self.descriptor["databases"][index]
        replica_set.deposed.append(old_primary)
        self.descriptor["databases"][index] = best.database
        channel = {key: value for key, value in best.channel.items()
                   if key != "breaker"}
        channel["relation"] = f"shard[{index}]"
        self.descriptor["channels"][index] = channel
        replica_set.standbys.remove(best)
        replica_set.primary_lsn = max(replica_set.primary_lsn,
                                      best.database.services.wal.flushed_lsn)
        replica_set.strikes = 0
        if replica_set.health != HEALTHY:
            self._transition(replica_set, HEALTHY)
        self.stats.bump("repl.promotions")
        self.stats.bump(f"shard.{index}.promotions")
        self.events.append(("promote", index, replica_set.epoch, reason,
                            best.name))
        # Survivor standbys resume shipping from the new primary: their
        # log is a prefix of the winner's (the winner had the max position
        # and all copies are prefixes of the old primary's log).
        self.ship(index)
        database = getattr(self.services, "database", None)
        if database is not None:
            database.resolve_indoubt()
        return best

    # -- rejoin / catch-up -----------------------------------------------------
    def rejoin(self, index: int, standby: Standby) -> int:
        """Heal a standby's channel and replay it forward from its acked
        LSN (log catch-up, not a rebuild).  Returns LSNs caught up."""
        self._ship_transport(index).reset(standby.channel)
        before = standby.acked_lsn
        self.ship(index)
        self.stats.bump("repl.rejoins")
        return standby.acked_lsn - before

    def _rebuild_standby(self, index: int, standby: Standby) -> None:
        """Full resync for a standby that fell off the retained log."""
        fresh = self._new_standby(index)
        fresh.channel = standby.channel  # same endpoint, same breaker
        fresh.name = standby.name
        replica_set = self.sets[index]
        replica_set.standbys[replica_set.standbys.index(standby)] = fresh
        self.stats.bump("repl.rebuilds")

    # -- stale reads -----------------------------------------------------------
    def failover_read(self, index: int, action):
        """Run ``action(standby_database)`` on the most caught-up
        reachable standby.

        Candidates are tried in descending acked-LSN order (the primary
        side's knowledge — a standby may secretly be further ahead, never
        behind it).  Returns ``(result, lag)`` where ``lag`` is the
        standby's applied horizon behind the last known primary LSN;
        raises :class:`GatewayError` when no standby is reachable.
        """
        replica_set = self.sets[index]
        transport = self._ship_transport(index)
        for standby in sorted(replica_set.standbys,
                              key=lambda s: (-s.acked_lsn, s.name)):

            def run(s=standby):
                s.apply_pending()
                return action(s.database)

            try:
                result = transport.send(self.services, standby.channel,
                                        self.stats, run)
            except GatewayError:
                continue
            lag = max(0, replica_set.primary_lsn - standby.applied_lsn)
            self.stats.bump(f"shard.{index}.replica_lag_lsn", lag)
            self.stats.bump("repl.lag_samples")
            self.stats.bump(f"shard.{index}.stale_reads")
            self.stats.bump("repl.stale_reads")
            return result, lag
        raise GatewayError(
            f"shard {index}: no standby reachable for failover read")
