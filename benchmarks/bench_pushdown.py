"""E23 — cross-shard query pushdown.

A bound ``SelectPlan`` whose scan sits on a sharded table is split at the
scan boundary into shard-local fragments (filters, projections, partial
aggregates) plus a coordinator merge program, and each fragment ships as
**one** remote call per shard instead of streaming every qualifying tuple
back.  Two claims are checked, both from deterministic counters:

* **Rows over the wire.**  A grouped aggregate over N rows pulls all N
  tuples through the gateway on the pull-up path
  (``remote.tuples_scanned``) but only ``shards x groups`` partial group
  states on the pushdown path (``fragment.rows``).  At 8 shards the
  reduction must be >= 8x.

* **Rows over the wire under a join.**  The same relation grouped
  through a dimension join (``emp JOIN dept_info ... GROUP BY floor``)
  rolls up first: the fact relation's partial groups by join key are a
  pushed-down group fragment, and only those meet the dimension rows on
  the coordinator.  At 8 shards it too must ship >= 8x fewer rows.

* **Fan-out.**  All fragments of the statement pass through **one**
  ``ScatterGather.run`` call, one fragment per shard.  Fragments run in
  shard order on the calling thread (they are pure Python under one GIL:
  E24 observation 3); the guard keeps a statement from going back to the
  seam once per shard.  Seconds are E24's job.

Remote calls are also recorded: the whole fragment is one
``remote.messages`` bump per shard, same as a block scan, so pushdown
never costs extra round trips.

Runnable directly for the CI smoke profile::

    python benchmarks/bench_pushdown.py --rows 2000 --json bench-pushdown.json
"""

import argparse
import json
import sys

import pytest

from repro import Database
from repro.services.scatter import shared_pool

try:
    from benchmarks._helpers import bench_payload
except ImportError:    # executed directly: python benchmarks/bench_pushdown.py
    from _helpers import bench_payload

N = 4_000
GROUPS = 16
SHARD_COUNTS = (4, 8)
SCHEMA = [("id", "INT"), ("dept", "STRING"), ("pay", "INT")]
STATEMENT = ("SELECT dept, COUNT(*), SUM(pay), AVG(pay), MIN(pay), "
             "MAX(pay) FROM emp GROUP BY dept")
FLOORS = 3
JOIN_STATEMENT = ("SELECT dept_info.floor, COUNT(*), SUM(emp.pay), "
                  "AVG(emp.pay) FROM emp JOIN dept_info "
                  "ON emp.dept = dept_info.dept GROUP BY floor")


def records(rows):
    return [(i, f"d{i % GROUPS}", None if i % 7 == 0 else i * 3)
            for i in range(rows)]


def build_sharded(shards, rows):
    db = Database(page_size=1024, buffer_capacity=256)
    db.create_table("emp", SCHEMA, storage_method="sharded",
                    attributes={"shards": shards, "latency": 0.5})
    db.table("emp").insert_many(records(rows))
    db.create_table("dept_info", [("dept", "STRING"), ("floor", "INT")]
                    ).insert_many([(f"d{i}", i % FLOORS)
                                   for i in range(GROUPS)])
    return db


def measure(rows, shards, statement=STATEMENT):
    """Counter deltas for one grouped statement, pushdown vs pull-up."""
    db = build_sharded(shards, rows)
    stats = db.services.stats
    executor = db.query_engine.executor

    def snap():
        return {name: stats.get(name) for name in
                ("fragment.rows", "remote.tuples_scanned",
                 "remote.messages")}

    # Watch the seam from outside: how many ``run`` calls the pushed
    # statement makes and how many fragments each one is handed.
    pool = shared_pool()
    run, scatter_runs = pool.run, []

    def watched_run(tasks):
        scatter_runs.append(len(tasks))
        return run(tasks)

    before = snap()
    pool.run = watched_run
    try:
        pushed = db.execute(statement)
    finally:
        del pool.run
    after_push = snap()
    executor.pushdown_enabled = False
    pulled = db.execute(statement)
    executor.pushdown_enabled = True
    after_pull = snap()
    assert pushed == pulled  # bit-identical or the numbers mean nothing
    assert stats.get("sharded.pushdown.queries") >= 1

    return {
        "shards": shards,
        "rows": rows,
        "groups": GROUPS,
        "pushdown_wire_rows":
            after_push["fragment.rows"] - before["fragment.rows"],
        "pushdown_messages":
            after_push["remote.messages"] - before["remote.messages"],
        "pullup_wire_rows": (after_pull["remote.tuples_scanned"]
                             - after_push["remote.tuples_scanned"]),
        "pullup_messages":
            after_pull["remote.messages"] - after_push["remote.messages"],
        "scatter_runs": scatter_runs,
        "pushdown_fragments": stats.get("sharded.pushdown.fragments"),
    }


def pushdown_profile(rows=N, shard_counts=SHARD_COUNTS):
    scaling = {n: measure(rows, n) for n in shard_counts}
    join_scaling = {n: measure(rows, n, JOIN_STATEMENT)
                    for n in shard_counts}

    def reduction(n, measured=scaling):
        m = measured[n]
        return round(m["pullup_wire_rows"]
                     / max(1, m["pushdown_wire_rows"]), 2)

    top = shard_counts[-1]
    derived = {
        "wire_reduction": {n: reduction(n) for n in shard_counts},
        "wire_reduction_8x": reduction(top),
        "join_wire_reduction": {n: reduction(n, join_scaling)
                                for n in shard_counts},
        "join_wire_reduction_8x": reduction(top, join_scaling),
        # every fragment of the statement in one run call, one per shard
        "single_fanout": all(
            m["scatter_runs"] == [n] and m["pushdown_fragments"] == n
            for measured in (scaling, join_scaling)
            for n, m in measured.items()),
        # one remote call per shard, both paths: pushdown is never
        # chattier than the block scan it replaces
        "extra_messages": max(s["pushdown_messages"] - s["pullup_messages"]
                              for measured in (scaling, join_scaling)
                              for s in measured.values()),
    }
    return bench_payload(
        "E23-cross-shard-pushdown",
        config={"rows": rows, "groups": GROUPS,
                "shard_counts": list(shard_counts),
                "statement": STATEMENT, "join_statement": JOIN_STATEMENT},
        counters={"scaling": list(scaling.values()),
                  "join_scaling": list(join_scaling.values())},
        derived=derived)


# ---------------------------------------------------------------------------
# Acceptance assertions (pytest entry points)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile():
    return pushdown_profile(rows=2_000)


def test_grouped_aggregate_ships_8x_fewer_rows_at_8_shards(profile):
    assert profile["derived"]["wire_reduction_8x"] >= 8.0


def test_join_group_ships_8x_fewer_rows_at_8_shards(profile):
    assert profile["derived"]["join_wire_reduction_8x"] >= 8.0


def test_scatter_gather_fanout_speedup(profile):
    """Not a speed-up any more (the id is kept): the counter guard that
    the statement's fragments reach the seam together, one per shard."""
    assert profile["derived"]["single_fanout"]
    for measured in profile["counters"]["scaling"]:
        assert measured["scatter_runs"] == [measured["shards"]]


def test_pushdown_adds_no_remote_round_trips(profile):
    assert profile["derived"]["extra_messages"] <= 0


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def test_grouped_aggregate_pushdown(benchmark):
    db = build_sharded(8, 2_000)
    assert len(benchmark(db.execute, STATEMENT)) == GROUPS
    benchmark.extra_info["route"] = "8 fragments, merged partials"


def test_grouped_aggregate_pullup_baseline(benchmark):
    db = build_sharded(8, 2_000)
    db.query_engine.executor.pushdown_enabled = False
    assert len(benchmark(db.execute, STATEMENT)) == GROUPS
    benchmark.extra_info["route"] = "8 block fetches, coordinator groups"


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = pushdown_profile(args.rows)
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    derived = result["derived"]
    ok = (derived["wire_reduction_8x"] >= 8.0
          and derived["join_wire_reduction_8x"] >= 8.0
          and derived["single_fanout"]
          and derived["extra_messages"] <= 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
