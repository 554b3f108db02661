"""E17 — crash-recovery fuzzing under deterministic fault injection.

A seeded mixed workload (batch inserts, updates, deletes, scans) runs with
a randomly-armed injection point per operation — device I/O, log append
and flush, buffer write-back, and procedure-vector calls all fail mid-run.
Every ``crash_every`` WAL appends the database crashes (sometimes with a
loser transaction in flight and a randomly corrupted device page) and runs
restart recovery.  The schedule runs against a heap and, beside it, a
btree_file relation, each with its own oracle.  After every restart the
committed state of each must equal its oracle, its stored count the rows
a scan returns, its btree index and unique constraint must agree with
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

#: The relations the schedule runs against: name, storage, attributes.
RELATIONS = (("t", "heap", None), ("b", "btree_file", {"key": ["id"]}))


def build_db():
    # A pool far smaller than the working set keeps eviction, write-back,
    # and device reads on the hot path so those fault points get traffic.
    db = Database(page_size=1024, buffer_capacity=8)
    tables = []
    for name, storage, attributes in RELATIONS:
        tables.append(db.create_table(
            name, [("id", "INT", False), ("v", "STRING")],
            storage_method=storage, attributes=attributes))
        db.create_index(f"{name}_id", name, ["id"], unique=True)
        db.create_attachment(name, "unique", f"{name}_uid",
                             {"columns": ["id"]})
    return db, tables


def injected_per_point(db):
    return {name[len("faults.injected."):]: count
            for name, count in db.services.stats.snapshot().items()
            if name.startswith("faults.injected.")}


def verify_invariants(db, table, oracle):
    """0 if committed state, count, index, and constraint agree with the
    oracle."""
    bad = 0
    rows = table.rows()
    if sorted(rows) != sorted(oracle.items()) or table.count() != len(rows):
        bad += 1
    att = db.registry.attachment_type_by_name("btree_index")
    for i in sorted(oracle)[:20]:
        record_keys = table.fetch(
            (i,), access_path=AccessPath(att.type_id, f"{table.name}_id"))
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


def apply_round(table, oracle, keys, round_i, dice, pick, ids, bound):
    """One round's operation on one relation; its oracle follows."""
    if dice < 0.45 or not oracle:
        new_keys = table.insert_many([(i, f"v{i}") for i in ids])
        for i, key in zip(ids, new_keys):
            oracle[i] = f"v{i}"
            keys[i] = key
    elif dice < 0.70:
        i = sorted(oracle)[int(pick * len(oracle))]
        # A grown record can relocate: the update returns the key.
        keys[i] = table.update(keys[i], {"v": f"u{round_i}"})
        oracle[i] = f"u{round_i}"
    elif dice < 0.85:
        i = sorted(oracle)[int(pick * len(oracle))]
        table.delete(keys[i])
        del oracle[i], keys[i]
    else:
        table.count("id >= %d" % bound)


def fuzz_profile(seed=SEED, rounds=ROUNDS, crash_every=CRASH_EVERY):
    rng = random.Random(seed)
    db, tables = build_db()
    # Per relation: id -> value (committed state only), and id -> storage
    # record key (stable across restarts).
    oracles = {table.name: {} for table in tables}
    keys = {table.name: {} for table in tables}
    next_id = 0
    next_crash = crash_every
    restarts = corrupted = violations = failed_ops = 0

    for round_i in range(rounds):
        # One draw of the round's fault and operation; each relation gets
        # both in turn (an insert takes fresh ids on every relation).
        point, nth = rng.choice(FUZZ_POINTS), rng.randint(1, 3)
        dice, pick = rng.random(), rng.random()
        ids = list(range(next_id, next_id + rng.randint(1, 6)))
        next_id += len(ids)
        bound = rng.randint(0, max(1, next_id))
        for table in tables:
            db.services.faults.arm(point, nth=nth, one_shot=True)
            try:
                apply_round(table, oracles[table.name], keys[table.name],
                            round_i, dice, pick, ids, bound)
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
                for table in tables:
                    table.insert((next_id, "loser"))
                next_id += 1
            victim = rng.choice(db.services.disk.page_ids())
            db.services.disk.write(victim, b"\xff" * 1024)  # torn write
            corrupted += 1
            db.restart()
            restarts += 1
            violations += sum(verify_invariants(db, table, oracles[table.name])
                              for table in tables)

    # Final crash + double restart: recovery must be idempotent down to
    # the device bytes of the logged (recoverable) relations.  Index node
    # pages are excluded — they are non-logged and rebuilt from the base
    # relation on every restart, so their bytes are history-dependent.
    db.restart()
    restarts += 1
    violations += sum(verify_invariants(db, table, oracles[table.name])
                      for table in tables)
    db.services.buffer.flush_all()
    device = db.services.disk
    pages = [page_id for table in tables for page_id in
             table.handle.descriptor.storage_descriptor["pages"]]
    first = [(page_id, device.read(page_id)) for page_id in pages]
    db.restart()
    db.services.buffer.flush_all()
    second = [(page_id, device.read(page_id)) for page_id in pages]

    stats = db.services.stats
    return {
        "seed": seed, "rounds": rounds, "crash_every": crash_every,
        "committed_rows": {name: len(oracle)
                           for name, oracle in oracles.items()},
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
