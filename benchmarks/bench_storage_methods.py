"""E9 — alternative relation storage methods.

One series per built-in storage method (temporary memory, recoverable
heap, B-tree-organised, read-only publishing): bulk load, full scan, and
direct-by-key fetch.  Shape: memory is fastest and does no page I/O; the
B-tree-organised file serves keyed fetches without a separate access
path; the read-only method loads fastest per record (no logging).

Runnable directly for the CI smoke profile: wall-clock medians and p90s
for memory, heap and readonly at ``--rows`` records — point fetch, full
filtered scan, batch load (``publish`` for readonly), autocommit
single-row insert and update — with the lock and pin counts of one point
fetch, and the heap's time over memory's on each row::

    python benchmarks/bench_storage_methods.py --rows 1000 --json e9.json
"""

import argparse
import json
import statistics
import sys
import time

import pytest

from repro import Database

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_...
    from _helpers import bench_payload

ROWS = 3_000


def make(storage):
    db = Database(buffer_capacity=2048)
    if storage == "btree_file":
        db.create_table("t", [("id", "INT"), ("v", "STRING")],
                        storage_method=storage, attributes={"key": ["id"]})
    else:
        db.create_table("t", [("id", "INT"), ("v", "STRING")],
                        storage_method=storage)
    return db, db.table("t")


def load(db, table, storage, rows=ROWS):
    records = [(i, f"value_{i}") for i in range(rows)]
    if storage == "readonly":
        handle = db.catalog.handle("t")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        with db.autocommit() as ctx:
            method.publish(ctx, handle, records)
    else:
        table.insert_many(records)


@pytest.mark.parametrize("storage", ["memory", "heap", "btree_file",
                                     "readonly"])
def test_bulk_load(benchmark, storage):
    def run():
        db, table = make(storage)
        load(db, table, storage, rows=500)
        return table

    table = benchmark(run)
    assert table.count() == 500
    benchmark.extra_info["storage_method"] = storage


@pytest.mark.parametrize("storage", ["memory", "heap", "btree_file",
                                     "readonly"])
def test_full_scan(benchmark, storage):
    db, table = make(storage)
    load(db, table, storage)
    result = benchmark(lambda: table.rows(where="id >= 0"))
    assert len(result) == ROWS
    benchmark.extra_info["storage_method"] = storage
    benchmark.extra_info["pages"] = db.services.disk.allocated_pages


@pytest.mark.parametrize("storage", ["memory", "heap", "btree_file",
                                     "readonly"])
def test_point_fetch(benchmark, storage):
    db, table = make(storage)
    load(db, table, storage)
    # Record keys differ per storage method: collect them once.
    keys = [key for key, __ in table.scan()]
    counter = iter(range(10**9))

    def run():
        return table.fetch(keys[next(counter) % ROWS])

    result = benchmark(run)
    assert result is not None
    benchmark.extra_info["storage_method"] = storage


def test_memory_does_no_page_io():
    db, table = make("memory")
    load(db, table, "memory")
    table.rows()
    assert db.services.disk.reads == 0


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

PROFILED = ("memory", "heap", "readonly")
SAMPLES = 300     # per single-record row; a scan row takes 100, a load 30
COUNTERS = ("locks.acquire_calls", "buffer.pins")


def timings(fn, n: int, scale: float) -> dict:
    """``fn(i)`` for ``i`` in ``range(n)``, each call timed on its own,
    after one untimed call: median and p90 in ``scale`` units."""
    fn(-1)
    samples = []
    for i in range(n):
        start = time.perf_counter()
        fn(i)
        samples.append((time.perf_counter() - start) * scale)
    samples.sort()
    return {"p50": statistics.median(samples),
            "p90": samples[int(0.9 * n)], "n": n}


def storage_profile(storage: str, rows: int) -> tuple:
    """Timings and one point fetch's counts for ``storage``, plus whether
    every operation answered what it should."""
    def fresh_load(i):
        db, table = make(storage)
        load(db, table, storage, rows)

    times = {"batch_load_ms": timings(fresh_load, SAMPLES // 10, 1e3)}
    db, table = make(storage)
    load(db, table, storage, rows)
    keys = [key for key, __ in table.scan()]
    fetched = []
    times["point_fetch_us"] = timings(
        lambda i: fetched.append(table.fetch(keys[i % rows])), SAMPLES, 1e6)
    stats = db.services.stats
    before = {name: stats.get(name) for name in COUNTERS}
    table.fetch(keys[0])
    counts = {name: stats.get(name) - before[name] for name in COUNTERS}
    scanned = []
    times["scan_ms"] = timings(
        lambda i: scanned.append(len(table.rows(where="id >= 0"))),
        SAMPLES // 3, 1e3)
    ok = (len(keys) == rows and None not in fetched
          and set(scanned) == {rows})
    if storage != "readonly":  # write-once: no single-row writes
        times["insert_us"] = timings(
            lambda i: table.insert((rows + 1 + i, "new")), SAMPLES, 1e6)
        times["update_us"] = timings(
            lambda i: table.update(keys[i % rows], {"v": f"u{i}"}),
            SAMPLES, 1e6)
        ok = ok and table.count() == rows + 1 + SAMPLES
    return times, counts, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    times, counts, ok = {}, {}, True
    for storage in PROFILED:
        times[storage], counts[storage], answered = storage_profile(
            storage, args.rows)
        ok = ok and answered
    heap, memory = times["heap"], times["memory"]
    out = bench_payload(
        "E9-storage-methods",
        {"rows": args.rows, "samples": SAMPLES, "storages": list(PROFILED)},
        {"point_fetch": counts},
        {"timings": times, "answers_correct": ok,
         "heap_over_memory": {row: heap[row]["p50"] / memory[row]["p50"]
                              for row in heap}})
    payload = json.dumps(out, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
