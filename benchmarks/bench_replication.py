"""E22 — replication: quorum durability, failover, zero lost acked writes.

Each shard of a sharded relation ships its child's WAL to N replica
child databases.  Under ``replication="quorum"`` a cross-shard commit's
phase 1 withholds the shard's vote until a majority of its replicas have
acknowledged the log through the child's PREPARE — so *acknowledged*
means *quorum-durable*, and a primary failure at any later point must
not lose the write.  The bench drives a write storm through a matrix of
injected failure schedules and audits the surviving state per batch:

* **Zero lost acknowledged writes.**  Every batch whose ``insert_many``
  returned is fully present after the dust settles — including batches
  left in doubt on a primary killed between its PREPARE vote and the
  decision delivery (the promoted standby re-registers the prepared
  transaction and the coordinator's stable decision re-commits it).

* **Zero half-committed batches.**  Every batch is all-or-nothing: a
  batch rejected mid-storm contributes no row to any shard (2PC
  fail-closed abort), never a prefix.

* **Failover without operator intervention.**  The health state machine
  (heartbeat and data-path strikes: healthy → suspect → down) promotes
  the most-caught-up standby from inside the write path; the storm
  merely keeps writing until writes succeed again.  Failover latency is
  counted in failed operations and charged latency units, not
  wall-clock.

Schedules: baseline (lag distribution), primary killed mid-storm,
acknowledged write in doubt across a promotion, replica killed then
rejoined via catch-up from its acked LSN, heartbeat partition driving
health to DOWN, and a promotion race where the first promotion attempt
itself fails and is retried.  The primary-killed and in-doubt schedules
run again over btree_file shard children (``btree_file_schedules``).

Runnable directly for the CI smoke profile::

    python benchmarks/bench_replication.py --rows 400 --json bench-repl.json
"""

import argparse
import json
import sys

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.errors import GatewayError
from repro.services import events as ev

try:
    from benchmarks._helpers import bench_payload
except ImportError:    # executed directly: python benchmarks/bench_replication.py
    from _helpers import bench_payload

N = 800
BATCH = 20
SCHEMA = [("id", "INT"), ("name", "STRING")]


def build_replicated(shards=2, replicas=2, mode="quorum", **attributes):
    db = Database(page_size=1024, buffer_capacity=256)
    attrs = {"shards": shards, "replicas": replicas, "replication": mode,
             "latency": 0.5, "retries": 1, "breaker_threshold": 1}
    attrs.update(attributes)
    db.create_table("emp", SCHEMA, storage_method="sharded",
                    attributes=attrs)
    return db, db.table("emp")


def replication_of(db, name="emp"):
    descriptor = db.catalog.handle(name).descriptor.storage_descriptor
    return descriptor, descriptor["replication"]


def batch_rows(batch, size=BATCH):
    """Batch ``b`` owns ids [b*size, (b+1)*size), every row tagged ``b<b>``
    so the audit can prove per-batch all-or-nothing from the data alone."""
    return [(batch * size + i, f"b{batch}") for i in range(size)]


def surviving_rows(db, name="emp"):
    """Ground truth: every record on every (current) primary child."""
    descriptor = db.catalog.handle(name).descriptor.storage_descriptor
    rows = []
    for child in descriptor["databases"]:
        rows.extend(tuple(record) for __, record in
                    child.table(descriptor["relation"]).scan())
    return rows


def audit(db, acked, failed, size=BATCH):
    """Per-batch presence audit over the surviving shard contents.

    Returns (lost_acked, half_committed, phantoms): acked batches with any
    row missing; batches present as a strict subset; rows from batches
    that were never acknowledged.
    """
    counts = {}
    for __, tag in surviving_rows(db):
        counts[int(tag[1:])] = counts.get(int(tag[1:]), 0) + 1
    lost = sum(1 for b in acked if counts.get(b, 0) != size)
    half = sum(1 for b, c in counts.items() if 0 < c < size)
    phantoms = sum(c for b, c in counts.items() if b not in acked)
    return lost, half, phantoms


def storm(db, table, batches, on_batch=None):
    """Write every batch, tolerating faults; returns (acked, failed)."""
    acked, failed = [], []
    for b in batches:
        if on_batch is not None:
            on_batch(b)
        try:
            table.insert_many(batch_rows(b))
            acked.append(b)
        except GatewayError:
            failed.append(b)
    return acked, failed


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def _schedule_baseline(batches):
    """No faults: every batch acks under quorum; sample the replica lag
    (primary flushed LSN minus slowest acked LSN) after each batch."""
    db, table = build_replicated()
    descriptor, repl = replication_of(db)
    lags = []

    def sample(_):
        for rset in repl.sets:
            primary = descriptor["databases"][rset.index]
            flushed = primary.services.wal.flushed_lsn
            lags.append(max(0, max(flushed - s.acked_lsn
                                   for s in rset.standbys)))

    acked, failed = storm(db, table, range(batches), on_batch=sample)
    for rset in repl.sets:
        for standby in rset.standbys:
            assert standby.applied_lsn == standby.received_lsn
    lost, half, phantoms = audit(db, acked, failed)
    return {
        "schedule": "baseline", "acked_batches": len(acked),
        "failed_batches": len(failed), "lost_acked": lost,
        "half_committed": half, "phantoms": phantoms,
        "quorum_acked_prepares": db.services.stats.get(
            "repl.acked_prepares"),
        "replica_lag_max": max(lags), "replica_lag_mean":
            round(sum(lags) / len(lags), 2),
        "ok": lost == 0 and half == 0 and phantoms == 0
              and len(failed) == 0,
    }


def _schedule_primary_killed(batches, **children):
    """Kill shard 0's primary endpoint mid-storm: writes strike the
    health machinery to DOWN, a standby is promoted from the write path,
    and the storm resumes — no acked batch lost, none half-committed."""
    db, table = build_replicated(**children)
    stats = db.services.stats
    kill_at = batches // 2
    state = {"fails_after_kill": 0, "recovered": False,
             "latency_at_kill": 0}

    def on_batch(b):
        if b == kill_at:
            db.services.faults.arm("shard.0.primary", error=GatewayError,
                                   nth=1, one_shot=False)
            state["latency_at_kill"] = (stats.get("remote.latency_units")
                                        + stats.get("repl.latency_units"))

    acked, failed = storm(db, table, range(batches), on_batch=on_batch)
    db.services.faults.disarm()
    db.resolve_indoubt()
    failover_ops = sum(1 for b in failed if b >= kill_at)
    failover_units = 0
    if stats.get("repl.promotions"):
        failover_units = (stats.get("remote.latency_units")
                          + stats.get("repl.latency_units")
                          - state["latency_at_kill"])
    lost, half, phantoms = audit(db, acked, failed)
    descriptor, repl = replication_of(db)
    return {
        "schedule": "primary_killed_mid_storm",
        "acked_batches": len(acked), "failed_batches": len(failed),
        "lost_acked": lost, "half_committed": half, "phantoms": phantoms,
        "promotions": stats.get("repl.promotions"),
        "epoch_after": repl.epoch(0),
        "failover_failed_ops": failover_ops,
        "failover_latency_units": failover_units,
        "ok": lost == 0 and half == 0 and phantoms == 0
              and stats.get("repl.promotions") == 1,
    }


def _schedule_indoubt_across_promotion(batches, **children):
    """A batch is quorum-acked with its shard killed between the PREPARE
    vote and the decision delivery; promotion force-applies the standby
    log, restart re-registers the prepared txn in doubt, and the
    coordinator's stable decision commits it on the new primary."""
    db, table = build_replicated(shards=1, **children)
    stats = db.services.stats
    txn = db.services.transactions.begin()
    ctx = ExecutionContext(txn, db.services, db)
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.0.primary", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, db.catalog.handle("emp"), batch_rows(0))
    db.services.transactions.commit(txn)    # acked; child left in doubt
    indoubt = stats.get("sharded.indoubt_children")
    acked, failed = storm(db, table, range(1, batches))
    db.services.faults.disarm()
    resolved = db.resolve_indoubt()
    lost, half, phantoms = audit(db, [0] + acked, failed)
    return {
        "schedule": "indoubt_across_promotion",
        "indoubt_children": indoubt, "resolved": resolved,
        "acked_batches": len(acked) + 1, "failed_batches": len(failed),
        "lost_acked": lost, "half_committed": half, "phantoms": phantoms,
        "promotions": stats.get("repl.promotions"),
        "heuristic_mismatches": stats.get("txn.2pc.heuristic_mismatches"),
        "ok": lost == 0 and half == 0 and phantoms == 0
              and indoubt >= 1 and stats.get("repl.promotions") == 1
              and stats.get("txn.2pc.heuristic_mismatches") == 0,
    }


def _schedule_replica_killed_catchup(batches):
    """Kill one standby mid-storm (semi-sync keeps acking through the
    survivor), then rejoin it: catch-up replays the log from its acked
    LSN until it is byte-equal with the primary."""
    db, table = build_replicated(shards=1, mode="semi-sync")
    descriptor, repl = replication_of(db)
    victim = repl.sets[0].standbys[0]
    kill_at = batches // 2

    def on_batch(b):
        if b == kill_at:
            db.services.faults.arm("repl.0.standby.0", error=GatewayError,
                                   nth=1, one_shot=False)

    acked, failed = storm(db, table, range(batches), on_batch=on_batch)
    behind = victim.received_lsn
    db.services.faults.disarm()
    gained = repl.rejoin(0, victim)
    primary = descriptor["databases"][0]

    def ntuples(database):
        handle = database.catalog.handle(descriptor["relation"])
        return handle.descriptor.storage_descriptor["ntuples"]

    lost, half, phantoms = audit(db, acked, failed)
    caught_up = (victim.applied_lsn == victim.received_lsn
                 and ntuples(victim.database) == ntuples(primary))
    return {
        "schedule": "replica_killed_then_catchup",
        "acked_batches": len(acked), "failed_batches": len(failed),
        "lost_acked": lost, "half_committed": half, "phantoms": phantoms,
        "lsns_caught_up": gained, "rejoins":
            db.services.stats.get("repl.rejoins"),
        "ok": lost == 0 and half == 0 and phantoms == 0
              and len(failed) == 0 and gained > 0 and caught_up
              and victim.received_lsn > behind,
    }


def _schedule_heartbeat_partition(batches):
    """Partition the heartbeat path: probes fail, health walks to DOWN
    through the shared breaker, and a standby is promoted even though the
    storm itself triggered no data-path failure first."""
    db, table = build_replicated(shards=1, heartbeat_every=1)
    stats = db.services.stats
    db.services.faults.arm("repl.0.heartbeat", error=GatewayError,
                           nth=1, one_shot=False)

    def on_batch(_):
        if stats.get("repl.promotions"):    # partition heals on failover
            db.services.faults.disarm()

    acked, failed = storm(db, table, range(batches), on_batch=on_batch)
    db.services.faults.disarm()
    lost, half, phantoms = audit(db, acked, failed)
    return {
        "schedule": "heartbeat_partition",
        "acked_batches": len(acked), "failed_batches": len(failed),
        "lost_acked": lost, "half_committed": half, "phantoms": phantoms,
        "heartbeat_failures": stats.get("repl.heartbeat_failures"),
        "health_transitions": stats.get("repl.health.transitions"),
        "promotions": stats.get("repl.promotions"),
        "ok": lost == 0 and half == 0 and phantoms == 0
              and stats.get("repl.promotions") == 1
              and stats.get("repl.heartbeat_failures") >= 1,
    }


def _schedule_promotion_race(batches):
    """The first promotion attempt itself dies (a GatewayError inside
    ``promote``): the failure is absorbed and counted, a later strike
    retries it, and exactly one promotion lands."""
    db, table = build_replicated(shards=1)
    stats = db.services.stats
    db.services.faults.arm("repl.promote", error=GatewayError, nth=1)
    db.services.faults.arm("shard.0.primary", error=GatewayError,
                           nth=1, one_shot=False)
    acked, failed = storm(db, table, range(batches))
    db.services.faults.disarm()
    descriptor, repl = replication_of(db)
    lost, half, phantoms = audit(db, acked, failed)
    return {
        "schedule": "promotion_race",
        "acked_batches": len(acked), "failed_batches": len(failed),
        "lost_acked": lost, "half_committed": half, "phantoms": phantoms,
        "promote_failures": stats.get("repl.promote_failures"),
        "promotions": stats.get("repl.promotions"),
        "epoch_after": repl.epoch(0),
        "ok": lost == 0 and half == 0 and phantoms == 0
              and stats.get("repl.promote_failures") >= 1
              and stats.get("repl.promotions") == 1,
    }


SCHEDULES = [
    _schedule_baseline,
    _schedule_primary_killed,
    _schedule_indoubt_across_promotion,
    _schedule_replica_killed_catchup,
    _schedule_heartbeat_partition,
    _schedule_promotion_race,
]

#: The failover schedules again, over btree_file shard children: their
#: standbys keep the key directory by the same redo that builds the pages.
BTREE_FILE_CHILDREN = {"child_storage": "btree_file",
                       "child_attributes": {"key": ["id"]}}
BTREE_FILE_SCHEDULES = [
    _schedule_primary_killed,
    _schedule_indoubt_across_promotion,
]


# ---------------------------------------------------------------------------
# Durability-mode cost (messages per acked batch)
# ---------------------------------------------------------------------------

def mode_costs(batches=8):
    """What each durability mode charges per acked batch.

    Shipping is pipelined identically in every mode (the log suffix goes
    out at phase 1 and again at the decision), so the message count does
    not move; what moves is the *blocking* semantics — quorum and
    semi-sync gate the shard's 2PC vote on ``acked_prepares`` while
    async never waits."""
    out = {}
    for mode in ("async", "semi-sync", "quorum"):
        db, table = build_replicated(shards=1, mode=mode)
        stats = db.services.stats
        before = stats.get("repl.messages")
        acked, failed = storm(db, table, range(batches))
        assert not failed
        out[mode] = {
            "repl_messages_per_batch": round(
                (stats.get("repl.messages") - before) / batches, 2),
            "acked_prepares": stats.get("repl.acked_prepares"),
            "ship_records": stats.get("repl.ship.records"),
        }
    return out


def replication_profile(rows=N):
    batches = max(rows // BATCH, 10)
    schedules = [run(batches) for run in SCHEDULES]
    btree_file = [run(batches, **BTREE_FILE_CHILDREN)
                  for run in BTREE_FILE_SCHEDULES]
    modes = mode_costs()
    baseline = schedules[0]
    failover = schedules[1]
    every = schedules + btree_file
    derived = {
        "lost_acked_total": sum(s["lost_acked"] for s in every),
        "half_committed_total": sum(s["half_committed"] for s in every),
        "phantoms_total": sum(s["phantoms"] for s in every),
        "schedules_ok": all(s["ok"] for s in every),
        "promotions_total": sum(s.get("promotions", 0)
                                for s in schedules),
        "btree_file_promotions_total": sum(s["promotions"]
                                           for s in btree_file),
        "failover_failed_ops": failover["failover_failed_ops"],
        "failover_latency_units": failover["failover_latency_units"],
        "replica_lag_max": baseline["replica_lag_max"],
        "replica_lag_mean": baseline["replica_lag_mean"],
        "quorum_gated_prepares": modes["quorum"]["acked_prepares"],
        "async_gated_prepares": modes["async"]["acked_prepares"],
        "repl_messages_per_batch":
            modes["quorum"]["repl_messages_per_batch"],
    }
    return bench_payload(
        "E22-replication",
        {"rows": rows, "batch": BATCH, "batches": batches,
         "shards": 2, "replicas": 2},
        {"schedules": schedules, "btree_file_schedules": btree_file,
         "mode_costs": modes},
        derived)


# ---------------------------------------------------------------------------
# Deterministic assertions
# ---------------------------------------------------------------------------

PROFILE_ROWS = 400


@pytest.fixture(scope="module")
def profile():
    return replication_profile(PROFILE_ROWS)


def test_zero_lost_acknowledged_writes(profile):
    assert profile["derived"]["lost_acked_total"] == 0


def test_zero_half_committed_batches(profile):
    assert profile["derived"]["half_committed_total"] == 0
    assert profile["derived"]["phantoms_total"] == 0


def test_every_fault_schedule_ends_consistent(profile):
    assert profile["derived"]["schedules_ok"]


def test_failover_needs_no_operator(profile):
    # four schedules promote, each exactly once, all from the write path
    assert profile["derived"]["promotions_total"] == 4
    assert profile["derived"]["failover_failed_ops"] >= 1
    # and both failover schedules do over btree_file children
    assert profile["derived"]["btree_file_promotions_total"] == 2


def test_quorum_gates_the_vote_and_async_never_waits(profile):
    derived = profile["derived"]
    assert derived["quorum_gated_prepares"] > 0
    assert derived["async_gated_prepares"] == 0


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def _timed_insert(benchmark, mode):
    db, table = build_replicated(shards=1, mode=mode)
    counter = iter(range(1, 10 ** 9))

    def run():
        table.insert_many(batch_rows(next(counter)))

    benchmark(run)
    benchmark.extra_info["mode"] = mode


def test_batch_insert_quorum(benchmark):
    _timed_insert(benchmark, "quorum")


def test_batch_insert_async(benchmark):
    _timed_insert(benchmark, "async")


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = replication_profile(args.rows)
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    derived = result["derived"]
    ok = (derived["lost_acked_total"] == 0
          and derived["half_committed_total"] == 0
          and derived["phantoms_total"] == 0
          and derived["schedules_ok"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
