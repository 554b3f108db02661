"""Checks of the benchmark harness itself, at a fiftieth of the op counts.

Collected by ``pytest benchmarks`` (the CI step), not by the tier-1
suite.  Nothing here looks at a timing's value: only that every declared
metric is produced, that the count metrics repeat, that a seed changes
inputs and nothing else, that each wrapper fires where its layer runs,
and that tracing leaves no wrapper behind.
"""

import json
import math
from pathlib import Path

import pytest

from benchmarks.e2e import datagen, harness
from benchmarks.e2e.calibrate import Calibrator
from benchmarks.e2e.trace import VECTORS, Tracer

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in DECLARED["workloads"]]
SCALE = 0.02
SECONDS = 0.05
COUNT_METRICS = ("log_records_per_write", "page_accesses_per_op",
                 "disk_pages_per_krow")


def run(name, seed=1, trace=False):
    return harness.run_workload(name, seed, SECONDS, trace, SCALE,
                                setup_repeats=1, restarts=1)


@pytest.fixture(scope="module")
def untraced():
    return {name: run(name) for name in NAMES}


@pytest.fixture(scope="module")
def traced():
    return {name: run(name, trace=True) for name in NAMES}


def test_declaration_matches_the_harness():
    assert set(NAMES) == set(harness.WORKLOADS)
    for section, units in (("end_to_end", harness.END_TO_END_UNITS),
                           ("per_layer", harness.PER_LAYER_UNITS)):
        declared = {spec["name"]: spec["unit"] for spec in DECLARED[section]}
        assert declared == units


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_reported(untraced, name):
    result = untraced[name]
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["rounds"] >= harness.COUNT_ROUNDS
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == harness.END_TO_END_UNITS[metric]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_count_metrics_repeat_exactly_for_a_seed(untraced, name):
    again = run(name)
    for metric in COUNT_METRICS:
        assert (again["metrics"][metric]["value"]
                == untraced[name]["metrics"][metric]["value"]), metric


def test_a_seed_changes_the_inputs():
    for make in (datagen.employee_rows, datagen.sales_rows,
                 datagen.account_rows):
        one = make(datagen.stream(1, "w"), 64)
        assert one == make(datagen.stream(1, "w"), 64)
        assert one != make(datagen.stream(2, "w"), 64)
    assert (datagen.op_mix(datagen.stream(1, "w"), {"a": 30, "b": 30})
            != datagen.op_mix(datagen.stream(2, "w"), {"a": 30, "b": 30}))


@pytest.mark.parametrize("name", NAMES)
def test_a_seed_does_not_change_the_schema(untraced, name):
    other = run(name, seed=2)
    assert other["correct"], other["errors"]
    assert set(other["metrics"]) == set(untraced[name]["metrics"])


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_metric_is_reported(traced, name):
    result = traced[name]
    assert result["correct"], result["errors"]
    assert set(result["metrics"]) == set(harness.PER_LAYER_UNITS)
    for metric, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] >= 0, metric


#: metric -> the workloads on which its layer must have been reached;
#: on every other workload it must read exactly zero.
REACHED_ONLY_ON = {
    "storage.sharded.calls": {"shard_scatter"},
    "services.remote.messages": {"shard_scatter"},
    "services.scatter.tasks": {"shard_scatter"},
    "services.replication.records_shipped": {"shard_scatter"},
    "services.transactions.prepared": {"shard_scatter"},
    "query.fragments.pushdown_ratio": {"shard_scatter"},
    "access.hash_index.calls": {"bulk_write"},
    "access.statistics.calls": {"bulk_write", "shard_scatter"},
    "constraints.check.calls": {"oltp_point", "bulk_write"},
    "access.btree_index.calls": {"oltp_point", "bulk_write",
                                 "snapshot_storm"},
    "services.transactions.group_flushes": {"snapshot_storm"},
    "query.executor.calls": {"oltp_point", "analytic_scan",
                             "shard_scatter", "snapshot_storm"},
    "core.session.calls": {"oltp_point", "analytic_scan", "snapshot_storm"},
    # reads reach the storage method without passing through dispatch
    "core.dispatch.calls": {"oltp_point", "bulk_write", "shard_scatter",
                            "snapshot_storm"},
}
REACHED_EVERYWHERE = (
    "storage.heap.calls", "storage.heap.self_s",
    "services.locks.acquire_calls", "services.buffer.pins",
    "services.transactions.commits", "services.locks.self_s",
    "services.buffer.self_s", "services.wal.self_s",
    "core.records.decode_ns_per_row", "services.recovery.restart_s",
    "trace.overhead_ratio")


@pytest.mark.parametrize("name", NAMES)
def test_each_wrapper_fires_where_its_layer_runs(traced, name):
    metrics = traced[name]["metrics"]
    for metric, where in REACHED_ONLY_ON.items():
        value = metrics[metric]["value"]
        assert (value > 0) == (name in where), (metric, value)
    for metric in REACHED_EVERYWHERE:
        assert metrics[metric]["value"] > 0, metric
    assert metrics["trace.unattributed_share"]["value"] < 0.15


def _boundaries(databases):
    """What tracing may touch: vector entries, instance attributes of the
    wrapped objects, and the process-wide names."""
    from repro.query import engine, fragments, ir
    from repro.services.remote import RemoteTransport
    from repro.services.scatter import shared_pool
    seen = {"parse_statement": engine.parse_statement,
            "plan_select": engine.plan_select,
            "fragment_for": fragments.fragment_for,
            "Program.run": ir.Program.run,
            "RemoteTransport.call": RemoteTransport.call,
            "pool": set(vars(shared_pool()))}
    for n, db in enumerate(databases):
        for vector in VECTORS:
            seen[n, vector] = list(getattr(db.registry, vector))
        engine_ = db.query_engine
        objects = [db.data, engine_, engine_.executor, engine_.cache,
                   db.kernel_backend, *db.sessions(),
                   *db.registry.storage_methods,
                   *db.registry.attachment_types]
        objects += [getattr(db.services, s) for s in
                    ("locks", "buffer", "disk", "wal", "transactions",
                     "recovery")]
        for m, obj in enumerate(objects):
            seen[n, m] = set(vars(obj))
    return seen


@pytest.mark.parametrize("name", ["oltp_point", "shard_scatter"])
def test_tracing_leaves_no_wrapper_behind(name):
    workload = harness.build(name, 1, SCALE)
    databases = workload.databases()
    before = _boundaries(databases)
    tracer = Tracer()
    tracer.install(databases)
    assert _boundaries(databases) != before
    tracer.enabled = True
    rec = harness.Recorder(Calibrator(), tracer)
    workload.native(rec)
    tracer.uninstall()
    assert rec.failed == 0, rec.errors
    assert tracer.totals(), "no span was recorded"
    assert _boundaries(databases) == before
    # and the program still works with the originals back in place
    workload.native(rec)
    assert rec.failed == 0, rec.errors
