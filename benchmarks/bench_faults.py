"""E17 — crash-recovery fuzzing under deterministic fault injection.

A seeded mixed workload (batch inserts, updates, deletes, scans) runs with
a randomly-armed injection point per operation — device I/O, log append
and flush, buffer write-back, and procedure-vector calls all fail mid-run.
Every ``crash_every`` WAL appends the database crashes (sometimes with a
loser transaction in flight and a randomly corrupted device page) and runs
restart recovery.  After every restart the committed state must equal an
in-memory oracle, the btree index and unique constraint must agree with
storage, and the final device state must be byte-identical across a
double restart.

Two containment profiles ride along: a persistently buggy index hook must
be quarantined (the planner degrades to storage scans until
``rebuild_attachment`` restores the index), and a dead foreign gateway
must trip the circuit breaker (queries degrade to empty results and the
cooldown probe closes the breaker once the remote recovers).

Runnable directly for the CI smoke profile::

    python benchmarks/bench_faults.py --json bench-faults.json
"""

import argparse
import json
import random
import sys

import pytest

from repro import AccessPath, Database
from repro.errors import (ExtensionFault, GatewayError, ReproError,
                          UniqueViolation)

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_...
    from _helpers import bench_payload

SEED = 20260806
ROUNDS = 800
CRASH_EVERY = 900        # WAL appends between forced crash/restarts
CHECKPOINT_EVERY = 40    # rounds between fuzzy checkpoints
MIN_FAULTS = 200
MIN_POINTS = 5

#: Points the fuzz loop arms (one per operation, one-shot).  The dispatch
#: points use the default InjectedFault — a ReproError, so they exercise
#: the veto/rollback path without tripping quarantine; the containment
#: profiles below cover the foreign-exception path separately.
FUZZ_POINTS = [
    "disk.read", "disk.write",
    "wal.append", "wal.flush",
    "buffer.write_back",
    "dispatch.storage.insert",
    "dispatch.attached.btree_index.insert",
]


# ---------------------------------------------------------------------------
# Fuzz workload
# ---------------------------------------------------------------------------

def build_db():
    # A pool far smaller than the working set keeps eviction, write-back,
    # and device reads on the hot path so those fault points get traffic.
    db = Database(page_size=1024, buffer_capacity=8)
    table = db.create_table("t", [("id", "INT", False), ("v", "STRING")])
    db.create_index("t_id", "t", ["id"], unique=True)
    db.create_attachment("t", "unique", "t_uid", {"columns": ["id"]})
    return db, table


def injected_per_point(db):
    return {name[len("faults.injected."):]: count
            for name, count in db.services.stats.snapshot().items()
            if name.startswith("faults.injected.")}


def verify_invariants(db, table, oracle):
    """0 if committed state, index, and constraint agree with the oracle."""
    bad = 0
    if sorted(table.rows()) != sorted(oracle.items()):
        bad += 1
    att = db.registry.attachment_type_by_name("btree_index")
    for i in sorted(oracle)[:20]:
        record_keys = table.fetch(
            (i,), access_path=AccessPath(att.type_id, "t_id"))
        if len(record_keys) != 1 or \
                table.fetch(record_keys[0]) != (i, oracle[i]):
            bad += 1
            break
    if oracle:
        try:
            table.insert((min(oracle), "dup"))
            bad += 1  # the unique constraint should have vetoed this
        except UniqueViolation:
            pass
        except ReproError:
            bad += 1
    return bad


def fuzz_profile(seed=SEED, rounds=ROUNDS, crash_every=CRASH_EVERY):
    rng = random.Random(seed)
    db, table = build_db()
    oracle = {}   # id -> value (committed state only)
    keys = {}     # id -> storage record key (stable across restarts)
    next_id = 0
    next_crash = crash_every
    restarts = corrupted = violations = failed_ops = 0

    for round_i in range(rounds):
        point = rng.choice(FUZZ_POINTS)
        db.services.faults.arm(point, nth=rng.randint(1, 3), one_shot=True)
        try:
            dice = rng.random()
            if dice < 0.45 or not oracle:
                count = rng.randint(1, 6)
                ids = list(range(next_id, next_id + count))
                next_id += count
                new_keys = table.insert_many([(i, f"v{i}") for i in ids])
                for i, key in zip(ids, new_keys):
                    oracle[i] = f"v{i}"
                    keys[i] = key
            elif dice < 0.70:
                i = rng.choice(sorted(oracle))
                # A grown record can relocate: the update returns the key.
                keys[i] = table.update(keys[i], {"v": f"u{round_i}"})
                oracle[i] = f"u{round_i}"
            elif dice < 0.85:
                i = rng.choice(sorted(oracle))
                table.delete(keys[i])
                del oracle[i], keys[i]
            else:
                table.count("id >= %d" % rng.randint(0, max(1, next_id)))
        except ReproError:
            failed_ops += 1  # the autocommit abort rolled the op back
        finally:
            db.services.faults.disarm()

        if round_i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            db.checkpoint(truncate=rng.random() < 0.5)

        if db.services.wal.current_lsn >= next_crash:
            next_crash = db.services.wal.current_lsn + crash_every
            if rng.random() < 0.5:
                db.begin()  # a loser in flight at the crash
                table.insert((next_id, "loser"))
                next_id += 1
            victim = rng.choice(db.services.disk.page_ids())
            db.services.disk.write(victim, b"\xff" * 1024)  # torn write
            corrupted += 1
            db.restart()
            restarts += 1
            violations += verify_invariants(db, table, oracle)

    # Final crash + double restart: recovery must be idempotent down to
    # the device bytes of the logged (recoverable) relation.  Index node
    # pages are excluded — they are non-logged and rebuilt from the base
    # relation on every restart, so their bytes are history-dependent.
    db.restart()
    restarts += 1
    violations += verify_invariants(db, table, oracle)
    db.services.buffer.flush_all()
    device = db.services.disk
    heap_pages = db.catalog.handle("t").descriptor.storage_descriptor["pages"]
    first = [(pid, device.read(pid)) for pid in heap_pages]
    db.restart()
    db.services.buffer.flush_all()
    second = [(pid, device.read(pid)) for pid in heap_pages]

    stats = db.services.stats
    return {
        "seed": seed, "rounds": rounds, "crash_every": crash_every,
        "committed_rows": len(oracle),
        "failed_operations": failed_ops,
        "restarts": restarts,
        "pages_corrupted": corrupted,
        "torn_pages_restored": stats.get("recovery.torn_pages.restored"),
        "torn_pages_zero_filled":
            stats.get("recovery.torn_pages.zero_filled"),
        "faults": injected_per_point(db),
        "invariant_violations": violations,
        "byte_identical_restart": first == second,
    }


# ---------------------------------------------------------------------------
# Containment profiles
# ---------------------------------------------------------------------------

def quarantine_profile():
    """A persistently buggy index hook is quarantined, then rebuilt."""
    db = Database(page_size=1024)
    table = db.create_table("big", [("id", "INT"), ("v", "STRING")])
    table.insert_many([(i, "pad" * 10) for i in range(150)])
    db.create_index("big_id", "big", ["id"], unique=True)

    def route():
        return db.explain("SELECT * FROM big WHERE id = 7")["access"]["route"]

    route_before = route()
    db.services.faults.arm("dispatch.attached.btree_index.insert",
                           error=RuntimeError, nth=1, one_shot=False)
    faults = 0
    for __ in range(db.data.QUARANTINE_THRESHOLD):
        try:
            table.insert((1000, "x"))
        except ExtensionFault:
            faults += 1
    db.services.faults.disarm()
    route_during = route()
    table.insert((1000, "x"))  # fan-out now skips the quarantined index
    db.rebuild_attachment("big_id")
    route_after = route()
    consistent = db.execute("SELECT * FROM big WHERE id = 1000") == \
        [(1000, "x")]
    return {
        "faults_to_quarantine": faults,
        "quarantines": db.services.stats.get("containment.quarantine.count"),
        "rebuilds": db.services.stats.get("containment.quarantine.rebuilds"),
        "route_before": route_before,
        "route_during_quarantine": route_during,
        "route_after_rebuild": route_after,
        "index_consistent_after_rebuild": consistent,
        "faults": injected_per_point(db),
    }


def breaker_profile():
    """A dead remote trips the breaker; queries degrade; cooldown heals."""
    remote = Database(page_size=1024)
    remote_table = remote.create_table("inventory",
                                       [("sku", "INT"), ("qty", "INT")])
    remote_table.insert_many([(i, i * 10) for i in range(8)])
    local = Database(page_size=1024)
    local.create_table("inventory_gw", [("sku", "INT"), ("qty", "INT")],
                       storage_method="foreign",
                       attributes={"database": remote,
                                   "relation": "inventory",
                                   "breaker_cooldown": 2})
    gateway = local.table("inventory_gw")

    local.services.faults.arm("foreign.remote_call", error=GatewayError,
                              nth=1, one_shot=False)
    write_failures = 0
    for __ in range(3):  # breaker_threshold exhausted calls
        try:
            gateway.insert((99, 990))
        except GatewayError:
            write_failures += 1
    degraded_query = local.execute("SELECT * FROM inventory_gw") == []
    local.services.faults.disarm()
    gateway.rows()  # fail fast (cooldown 2 -> 1)
    gateway.rows()  # fail fast (cooldown 1 -> 0)
    recovered = sorted(gateway.rows()) == sorted(remote_table.rows())

    stats = local.services.stats
    return {
        "write_failures": write_failures,
        "retry_attempts": stats.get("gateway.retry.attempts"),
        "retry_exhausted": stats.get("gateway.retry.exhausted"),
        "breaker_trips": stats.get("gateway.breaker.trips"),
        "breaker_closes": stats.get("gateway.breaker.closes"),
        "degraded_scans": stats.get("gateway.degraded_scans"),
        "fail_fast_calls": stats.get("gateway.fail_fast"),
        "degraded_query_returns_empty": degraded_query,
        "recovered_after_cooldown": recovered,
        "faults": injected_per_point(local),
    }


def e17_profile(seed=SEED, rounds=ROUNDS, crash_every=CRASH_EVERY):
    fuzz = fuzz_profile(seed, rounds, crash_every)
    quarantine = quarantine_profile()
    breaker = breaker_profile()
    combined = {}
    for profile in (fuzz, quarantine, breaker):
        for point, count in profile["faults"].items():
            combined[point] = combined.get(point, 0) + count
    return {
        "fuzz": fuzz, "quarantine": quarantine, "breaker": breaker,
        "faults_by_point": combined,
        "total_faults": sum(combined.values()),
        "points_hit": len(combined),
    }


@pytest.fixture(scope="module")
def profile():
    return e17_profile()


# ---------------------------------------------------------------------------
# Acceptance
# ---------------------------------------------------------------------------

def test_fault_volume_and_coverage(profile):
    assert profile["total_faults"] >= MIN_FAULTS
    assert profile["points_hit"] >= MIN_POINTS


def test_zero_invariant_violations(profile):
    assert profile["fuzz"]["invariant_violations"] == 0


def test_restarts_are_byte_identical(profile):
    assert profile["fuzz"]["byte_identical_restart"]


def test_corrupt_pages_are_repaired(profile):
    fuzz = profile["fuzz"]
    assert fuzz["pages_corrupted"] >= 1
    assert (fuzz["torn_pages_restored"]
            + fuzz["torn_pages_zero_filled"]) >= fuzz["pages_corrupted"]


def test_quarantine_skips_then_rebuild_restores(profile):
    quarantine = profile["quarantine"]
    assert quarantine["quarantines"] == 1
    assert "btree_index" in quarantine["route_before"]
    assert "storage scan" in quarantine["route_during_quarantine"]
    assert "btree_index" in quarantine["route_after_rebuild"]
    assert quarantine["index_consistent_after_rebuild"]


def test_tripped_breaker_degrades_queries(profile):
    breaker = profile["breaker"]
    assert breaker["breaker_trips"] >= 1
    assert breaker["degraded_query_returns_empty"]
    assert breaker["recovered_after_cooldown"]
    assert breaker["retry_attempts"] >= 9  # 3 calls x 3 retries


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--crash-every", type=int, default=CRASH_EVERY)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = e17_profile(args.seed, args.rounds, args.crash_every)
    out = bench_payload(
        "E17-fault-containment",
        {"seed": args.seed, "rounds": args.rounds,
         "crash_every": args.crash_every},
        {"fuzz": result["fuzz"], "quarantine": result["quarantine"],
         "breaker": result["breaker"],
         "faults_by_point": result["faults_by_point"]},
        {"total_faults": result["total_faults"],
         "points_hit": result["points_hit"],
         "invariant_violations": result["fuzz"]["invariant_violations"],
         "byte_identical_restart": result["fuzz"]["byte_identical_restart"],
         "index_consistent_after_rebuild":
             result["quarantine"]["index_consistent_after_rebuild"],
         "breaker_recovered": result["breaker"]["recovered_after_cooldown"]})
    payload = json.dumps(out, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    ok = (result["fuzz"]["invariant_violations"] == 0
          and result["fuzz"]["byte_identical_restart"]
          and result["quarantine"]["index_consistent_after_rebuild"]
          and result["breaker"]["recovered_after_cooldown"]
          and (args.rounds < ROUNDS
               or (result["total_faults"] >= MIN_FAULTS
                   and result["points_hit"] >= MIN_POINTS)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
