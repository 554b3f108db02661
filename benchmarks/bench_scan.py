"""E15 — set-at-a-time vs tuple-at-a-time scans on the read path.

The batched pipeline extracts records page-at-a-time under one buffer pin
(``next_batch``), turns a batch of index-probe record keys into one
``fetch_many`` storage call, and stops pulling batches once a LIMIT is
satisfied.  For a 10 000-row full
scan the batched path must pin at least 5x fewer buffer pages and make at
least 3x fewer scan dispatch calls than tuple-at-a-time; LIMIT 10 must
touch under 5% of the relation's pages.

Runnable directly for the CI smoke profile::

    python benchmarks/bench_scan.py --rows 2000 --json bench-scan.json
"""

import argparse
import json
import sys

import pytest

from repro import Database
from repro.workloads import employee_records

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_...
    from _helpers import bench_payload

N = 10_000
PROBE_BOUND = 500  # id <= PROBE_BOUND drives the index-probe comparison


def build_db(rows: int = N) -> Database:
    """Employee relation (heap) with a B-tree index on id, pre-populated."""
    db = Database(page_size=4096, buffer_capacity=512)
    db.create_table("employee", [
        ("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
        ("salary", "FLOAT"), ("active", "BOOL")])
    db.create_index("emp_id", "employee", ["id"])
    db.table("employee").insert_many(employee_records(rows))
    return db


def _storage_scan(db, ctx):
    handle = db.catalog.handle("employee")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    return method.open_scan(ctx, handle)


def _drain_tuple(db):
    """Tuple-at-a-time full scan; returns (rows, dispatch calls)."""
    count = calls = 0
    with db.autocommit() as ctx:
        scan = _storage_scan(db, ctx)
        try:
            while True:
                calls += 1
                if scan.next() is None:
                    break
                count += 1
        finally:
            scan.close()
            db.services.scans.unregister(scan)
    return count, calls


def _drain_batched(db, batch_size=256):
    """Set-at-a-time full scan; returns (rows, dispatch calls)."""
    count = calls = 0
    with db.autocommit() as ctx:
        scan = _storage_scan(db, ctx)
        try:
            while True:
                calls += 1
                batch = scan.next_batch(batch_size)
                if not batch:
                    break
                count += len(batch)
        finally:
            scan.close()
            db.services.scans.unregister(scan)
    return count, calls


def _measure(db, fn):
    stats = db.services.stats
    before = stats.snapshot()
    out = fn()
    return out, stats.delta(before)


def _buffer_counters(delta: dict) -> dict:
    return {"pins": delta.get("buffer.pins", 0),
            "misses": delta.get("buffer.misses", 0)}


def scan_profile(rows: int = N) -> dict:
    """Counter comparison of every read-path shape (measured once)."""
    db = build_db(rows)
    handle = db.catalog.handle("employee")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with db.autocommit() as ctx:
        pages = method.page_count(ctx, handle)

    (count_one, calls_one), one = _measure(db, lambda: _drain_tuple(db))
    (count_set, calls_set), batch = _measure(db, lambda: _drain_batched(db))
    assert count_one == count_set == rows

    (limit_rows, __), limit = _measure(
        db, lambda: (db.execute("SELECT id FROM employee LIMIT 10"), None))
    assert len(limit_rows) == 10

    (probe_rows, __), probe = _measure(
        db, lambda: (db.execute(
            "SELECT * FROM employee WHERE id <= %d" % PROBE_BOUND), None))
    assert len(probe_rows) == min(PROBE_BOUND, rows)

    (topk_rows, __), topk = _measure(
        db, lambda: (db.execute(
            "SELECT id, salary FROM employee ORDER BY salary DESC LIMIT 10"),
            None))
    assert len(topk_rows) == 10

    return {
        "rows": rows,
        "relation_pages": pages,
        "full_scan": {
            "tuple": dict(_buffer_counters(one), dispatch_calls=calls_one),
            "batched": dict(_buffer_counters(batch),
                            dispatch_calls=calls_set),
            "pin_ratio": one["buffer.pins"] / max(1, batch["buffer.pins"]),
            "dispatch_ratio": calls_one / max(1, calls_set),
        },
        "limit_10": dict(
            _buffer_counters(limit),
            short_circuits=limit.get("executor.limit_short_circuits", 0),
            pages_touched=limit.get("buffer.pins", 0),
        ),
        "index_probe": dict(
            _buffer_counters(probe),
            scan_batches=probe.get("executor.scan_batches", 0),
            heap_fetches=probe.get("heap.fetches", 0),
        ),
        "top_k": dict(
            _buffer_counters(topk),
            topk=topk.get("executor.topk", 0),
            sorts=topk.get("executor.sorts", 0),
        ),
    }


@pytest.fixture(scope="module")
def profile():
    return scan_profile(N)


# ---------------------------------------------------------------------------
# Acceptance: counter assertions
# ---------------------------------------------------------------------------

def test_batched_scan_pins_5x_fewer_pages(profile):
    assert profile["full_scan"]["pin_ratio"] >= 5


def test_batched_scan_makes_3x_fewer_dispatch_calls(profile):
    assert profile["full_scan"]["dispatch_ratio"] >= 3


def test_limit_10_touches_under_5_percent_of_pages(profile):
    limit = profile["limit_10"]
    assert limit["short_circuits"] == 1
    assert limit["pages_touched"] < 0.05 * profile["relation_pages"]


def test_index_probe_resolves_keys_set_at_a_time(profile):
    probe = profile["index_probe"]
    assert probe["heap_fetches"] == min(PROBE_BOUND, N)
    # Record keys were resolved in batches, not one dispatch per key.
    assert probe["scan_batches"] <= probe["heap_fetches"] / 3


def test_top_k_replaces_the_full_sort(profile):
    assert profile["top_k"]["topk"] == 1
    assert profile["top_k"]["sorts"] == 0


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def test_full_scan_tuple_at_a_time(benchmark):
    def setup():
        return (build_db(),), {}

    benchmark.pedantic(lambda db: _drain_tuple(db), setup=setup, rounds=3)
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["strategy"] = "tuple-at-a-time"


def test_full_scan_batched(benchmark):
    def setup():
        return (build_db(),), {}

    benchmark.pedantic(lambda db: _drain_batched(db), setup=setup, rounds=3)
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["strategy"] = "set-at-a-time"


def test_limit_10_query(benchmark):
    db = build_db()
    benchmark.pedantic(
        lambda: db.execute("SELECT id FROM employee LIMIT 10"),
        rounds=5, iterations=3)
    benchmark.extra_info["rows"] = N


def test_top_k_query(benchmark):
    db = build_db()
    benchmark.pedantic(
        lambda: db.execute(
            "SELECT id, salary FROM employee ORDER BY salary DESC LIMIT 10"),
        rounds=5, iterations=3)
    benchmark.extra_info["rows"] = N


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = scan_profile(args.rows)
    full_scan = dict(result["full_scan"])
    pin_ratio = full_scan.pop("pin_ratio")
    dispatch_ratio = full_scan.pop("dispatch_ratio")
    out = bench_payload(
        "E15-batched-scan",
        {"rows": result["rows"], "relation_pages": result["relation_pages"],
         "probe_bound": PROBE_BOUND},
        {"full_scan": full_scan, "limit_10": result["limit_10"],
         "index_probe": result["index_probe"], "top_k": result["top_k"]},
        {"pin_ratio": pin_ratio, "dispatch_ratio": dispatch_ratio,
         "limit_page_fraction": result["limit_10"]["pages_touched"]
         / result["relation_pages"]})
    payload = json.dumps(out, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    ok = (pin_ratio >= 5 and dispatch_ratio >= 3
          and result["limit_10"]["pages_touched"]
          < 0.05 * result["relation_pages"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
