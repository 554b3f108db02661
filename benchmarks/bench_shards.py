"""E21 — horizontal sharding: near-linear scaling plus the 2PC fault matrix.

The sharded storage method hash-partitions a relation across N child
databases and drives every multi-shard write through the two-phase
coordinator.  Two claims are measured, both from deterministic counters
(wall-clock never gates acceptance):

* **Near-linear scaling.**  Work per shard is the critical path of a
  partitioned operation: with N shards, a batch insert ships each shard
  one block message carrying ~batch/N rows (per-shard remote calls =
  ceil(batch/shards), *not* per-row), and a scan drains each shard's
  stream in parallel streams of ~rows/N tuples.  The per-shard critical
  path — max over shards of ``shard.<i>.remote.tuples_written`` /
  ``tuples_scanned`` — must shrink ≥3x moving from 1 shard to 4.

* **Atomicity under faults.**  A sweep of injected crash schedules —
  a shard dying after its PREPARE vote, the coordinator restarting
  before any commit decision is delivered, the coordinator crashing
  before the decision is stable, a circuit-breaker-open shard rejecting
  a write, an abort decision lost after every child voted yes, and a
  truncating checkpoint after a lost commit delivery — must leave every
  cross-shard transaction all-or-nothing: after resolution/restart the
  union of shard contents is byte-identical to either the full expected
  state or the baseline, never a mixture, and no child is left PREPARED
  (``prepared_left``).

Runnable directly for the CI smoke profile::

    python benchmarks/bench_shards.py --rows 4000 --json bench-shards.json
"""

import argparse
import json
import math
import sys

import pytest

from repro import Database
from repro.core.context import ExecutionContext
from repro.core.hashing import shard_of
from repro.errors import GatewayError, StorageError
from repro.services import events as ev
from repro.services.transactions import TxnState

try:
    from benchmarks._helpers import bench_payload
except ImportError:        # executed directly: python benchmarks/bench_shards.py
    from _helpers import bench_payload

N = 4_000
BATCH = 250
SHARD_COUNTS = (1, 2, 4, 8)
SCHEMA = [("id", "INT"), ("name", "STRING")]


def records(rows):
    return [(i, f"name{i}") for i in range(rows)]


def build_sharded(shards, attributes=None):
    db = Database(page_size=1024, buffer_capacity=256)
    attrs = {"shards": shards, "latency": 0.5}
    attrs.update(attributes or {})
    db.create_table("emp", SCHEMA, storage_method="sharded",
                    attributes=attrs)
    return db, db.table("emp")


def shard_union(db, name="emp"):
    """Every record on every shard — the cross-shard ground truth."""
    descriptor = db.catalog.handle(name).descriptor.storage_descriptor
    rows = []
    for child in descriptor["databases"]:
        rows.extend(tuple(record) for __, record in
                    child.table(descriptor["relation"]).scan())
    return sorted(rows)


# ---------------------------------------------------------------------------
# Scaling profile (counter-based)
# ---------------------------------------------------------------------------

def _critical_path(stats, shards, counter):
    return max(stats.get(f"shard.{i}.remote.{counter}")
               for i in range(shards))


def measure_shards(rows, shards, batch=BATCH):
    """Insert ``rows`` in batches then scan, returning counter deltas."""
    db, table = build_sharded(shards)
    stats = db.services.stats
    data = records(rows)
    before_messages = stats.get("remote.messages")
    before_fanout = stats.get("sharded.batch_fanout")
    for start in range(0, rows, batch):
        table.insert_many(data[start:start + batch])
    insert_messages = stats.get("remote.messages") - before_messages
    block_calls = stats.get("sharded.batch_fanout") - before_fanout
    insert_critical = _critical_path(stats, shards, "tuples_written")
    scanned = len(table.scan())
    scan_critical = _critical_path(stats, shards, "tuples_scanned")
    assert scanned == rows
    batches = math.ceil(rows / batch)
    return {
        "shards": shards,
        "insert_messages": insert_messages,
        "insert_block_calls": block_calls,
        "block_calls_per_batch": block_calls / batches,
        "rows_per_block_call": rows / block_calls,
        "insert_critical_path": insert_critical,
        "scan_critical_path": scan_critical,
        "latency_units": stats.get("remote.latency_units"),
        "merged_scans": stats.get("sharded.merged_scans"),
    }


def scaling_profile(rows=N, shard_counts=SHARD_COUNTS, batch=BATCH):
    scaling = {n: measure_shards(rows, n, batch) for n in shard_counts}
    base = scaling[shard_counts[0]]

    def speedup(kind, n):
        return round(base[kind] / scaling[n][kind], 2)

    matrix = fault_matrix(rows=min(rows, 200))
    derived = {
        "insert_speedup": {n: speedup("insert_critical_path", n)
                           for n in shard_counts},
        "scan_speedup": {n: speedup("scan_critical_path", n)
                         for n in shard_counts},
        "insert_speedup_4x": speedup("insert_critical_path", 4),
        "scan_speedup_4x": speedup("scan_critical_path", 4),
        # one block message per (batch, touched shard): rows ride together
        "max_block_calls_per_batch_per_shard": max(
            s["block_calls_per_batch"] / s["shards"]
            for s in scaling.values()),
        "rows_per_block_call_4x": round(
            scaling[4]["rows_per_block_call"], 1) if 4 in scaling else None,
        "atomicity_violations": matrix["violations"],
        "fault_schedules": len(matrix["schedules"]),
    }
    return bench_payload(
        "E21-sharding",
        {"rows": rows, "batch": batch, "shard_counts": list(shard_counts)},
        {"scaling": {str(n): s for n, s in scaling.items()},
         "fault_matrix": matrix["schedules"]},
        derived)


# ---------------------------------------------------------------------------
# Fault matrix: every schedule must end all-or-nothing
# ---------------------------------------------------------------------------

def _begin(db):
    txn = db.services.transactions.begin()
    return txn, ExecutionContext(txn, db.services, db)


def _classify(union, expected):
    """all | none | partial — partial is an atomicity violation."""
    if union == sorted(expected):
        return "all"
    if union == []:
        return "none"
    return "partial"


def _lose_delivery_to_shard_0(shards, data):
    """Commit ``data`` with the commit delivery to shard 0 lost after it
    voted; the channel heals afterwards."""
    db, table = build_sharded(shards)
    txn, ctx = _begin(db)
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.0.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, db.catalog.handle("emp"), data)
    db.services.transactions.commit(txn)
    db.services.faults.disarm()
    return db


def _prepared_left(db):
    """Children still PREPARED: each one holds its locks and changes
    until a decision reaches it."""
    descriptor = db.catalog.handle("emp").descriptor.storage_descriptor
    return sum(txn.state is TxnState.PREPARED
               for child in descriptor["databases"]
               for txn in child.services.transactions.active_transactions())


def _schedule_shard_lost_after_prepare(shards, data):
    """A shard's commit delivery is lost after it voted; the stable
    decision re-commits it once the shard heals."""
    db = _lose_delivery_to_shard_0(shards, data)
    resolved = db.resolve_indoubt()
    return db, "all", {"resolved": resolved}


def _schedule_coordinator_restart(shards, data):
    """Every commit delivery lost; restart replays the logged decision."""
    db, table = build_sharded(shards)
    txn, ctx = _begin(db)
    ctx.defer(ev.AT_COMMIT, lambda __, ___: db.services.faults.arm(
        "shard.remote_call", error=GatewayError, nth=1, one_shot=False))
    db.data.insert_batch(ctx, db.catalog.handle("emp"), data)
    db.services.transactions.commit(txn)
    db.services.faults.disarm()
    summary = db.restart()
    return db, "all", {"restart_resolved": summary["indoubt_resolved"]}


def _schedule_decision_never_stable(shards, data):
    """The coordinator crashes before the COMMIT force: no decision
    survives, so restart presumes abort on every prepared child."""
    db, table = build_sharded(shards)
    txn, ctx = _begin(db)
    db.data.insert_batch(ctx, db.catalog.handle("emp"), data)
    # flush #1 is the enlist record in phase 1; #2 is the COMMIT force
    db.services.faults.arm("wal.flush", nth=2)
    try:
        db.services.transactions.commit(txn)
    except Exception:
        pass
    db.services.faults.disarm()
    db.restart()
    aborts = db.services.stats.get("sharded.presumed_aborts")
    return db, "none", {"presumed_aborts": aborts}


def _schedule_breaker_open_shard(shards, data):
    """A breaker-open shard fails the whole batch closed: no shard keeps
    any of the rejected rows."""
    db, table = build_sharded(shards)
    db.services.faults.arm("shard.0.remote_call", error=GatewayError,
                           nth=1, one_shot=False)
    for __ in range(4):        # exhaust past breaker_threshold, then fail fast
        try:
            table.insert_many(data)
        except GatewayError:
            pass
    db.services.faults.disarm()
    return db, "none", {}


def _schedule_abort_decision_lost(shards, data):
    """Every child votes yes, then a commit-time veto aborts the
    transaction and the abort to shard 0 is lost; resolution resends it."""
    db, table = build_sharded(shards)
    txn, ctx = _begin(db)
    db.data.insert_batch(ctx, db.catalog.handle("emp"), data)

    def veto(__, ___):  # queued behind the phase 1 the write registered
        db.services.faults.arm("shard.0.remote_call", error=GatewayError,
                               nth=1, one_shot=False)
        raise StorageError("veto after phase 1")
    ctx.defer(ev.BEFORE_PREPARE, veto)
    try:
        db.services.transactions.commit(txn)
    except StorageError:
        pass
    db.services.faults.disarm()
    resolved = db.resolve_indoubt()
    return db, "none", {"resolved": resolved,
                        "prepared_left": _prepared_left(db)}


def _schedule_truncating_checkpoint(shards, data):
    """A truncating checkpoint, then a restart, after a lost commit
    delivery: truncation must not strand the child the decision names."""
    db = _lose_delivery_to_shard_0(shards, data)
    db.checkpoint("sharp", truncate=True)
    db.restart()
    return db, "all", {"prepared_left": _prepared_left(db)}


SCHEDULES = [
    ("shard_lost_after_prepare", _schedule_shard_lost_after_prepare),
    ("coordinator_restart_redelivers", _schedule_coordinator_restart),
    ("decision_never_stable", _schedule_decision_never_stable),
    ("breaker_open_fails_closed", _schedule_breaker_open_shard),
    ("abort_decision_lost", _schedule_abort_decision_lost),
    ("truncating_checkpoint_after_lost_delivery",
     _schedule_truncating_checkpoint),
]


def fault_matrix(rows=200, shard_counts=(2, 4)):
    """Run every injected schedule at every shard count; count the
    schedules whose surviving state is a mixture (the violation)."""
    data = records(rows)
    schedules = []
    violations = 0
    for shards in shard_counts:
        for name, run in SCHEDULES:
            db, want, extra = run(shards, data)
            union = shard_union(db)
            state = _classify(union, data)
            ok = state == want
            violations += state == "partial"
            entry = {"schedule": name, "shards": shards,
                     "state": state, "ok": ok}
            entry.update(extra)
            schedules.append(entry)
    return {"schedules": schedules, "violations": violations}


# ---------------------------------------------------------------------------
# Deterministic assertions
# ---------------------------------------------------------------------------

PROFILE_ROWS = 1_600
PROFILE_BATCH = 200


@pytest.fixture(scope="module")
def profile():
    return scaling_profile(PROFILE_ROWS, (1, 2, 4), PROFILE_BATCH)


def test_insert_critical_path_scales_near_linearly(profile):
    assert profile["derived"]["insert_speedup_4x"] >= 3.0


def test_scan_critical_path_scales_near_linearly(profile):
    assert profile["derived"]["scan_speedup_4x"] >= 3.0


def test_one_block_message_per_batch_per_shard(profile):
    # per-shard remote calls are per-batch, never per-row
    assert profile["derived"]["max_block_calls_per_batch_per_shard"] <= 1.0
    four = profile["counters"]["scaling"]["4"]
    assert four["rows_per_block_call"] >= PROFILE_BATCH / 4


def test_fault_matrix_reports_zero_atomicity_violations(profile):
    assert profile["derived"]["atomicity_violations"] == 0
    assert all(s["ok"] for s in profile["counters"]["fault_matrix"])
    assert all(s.get("prepared_left", 0) == 0
               for s in profile["counters"]["fault_matrix"])


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def test_scan_four_shards(benchmark):
    db, table = build_sharded(4)
    table.insert_many(records(PROFILE_ROWS))
    assert len(benchmark(table.scan)) == PROFILE_ROWS
    benchmark.extra_info["route"] = "4 block fetches, merged locally"


def test_scan_single_shard_baseline(benchmark):
    db, table = build_sharded(1)
    table.insert_many(records(PROFILE_ROWS))
    assert len(benchmark(table.scan)) == PROFILE_ROWS


def test_batch_insert_four_shards(benchmark):
    db, table = build_sharded(4)
    counter = iter(range(10 ** 9))

    def run():
        base = (next(counter) + 1) * PROFILE_BATCH
        table.insert_many([(base + i, f"name{i}")
                           for i in range(PROFILE_BATCH)])

    benchmark(run)
    benchmark.extra_info["route"] = "1 block insert per shard + 2PC"


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = scaling_profile(args.rows)
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    derived = result["derived"]
    ok = (derived["insert_speedup_4x"] >= 3.0
          and derived["scan_speedup_4x"] >= 3.0
          and derived["atomicity_violations"] == 0
          and not any(s.get("prepared_left")
                      for s in result["counters"]["fault_matrix"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
