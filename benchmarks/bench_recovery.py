"""E16 — checkpointed durability: bounded restart, truncation, group commit.

A workload of >= 10 000 logged operations runs with a background-writer
flush late in the run and a fuzzy checkpoint after it.  Restart then
considers (applies + page-LSN-skips) at least 50x fewer operations than
the same crash without a checkpoint, ``truncate`` reclaims the
pre-checkpoint log prefix, and the recovered device state is byte-identical
with and without the checkpoint.  Group commit stabilizes batches of
commits with one log force each.

E11's restart-scaling timings are retained below the counter profile.

Runnable directly for the CI smoke profile::

    python benchmarks/bench_recovery.py --rows 600 --json bench-recovery.json
"""

import argparse
import json
import sys

import pytest

from repro import Database

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_...
    from _helpers import bench_payload

N = 4000
MIN_REDO_RATIO = 50
MIN_LOGGED_OPS = 10_000


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

def tail_ids_for(rows):
    """The survivor ids re-updated after the background-writer flush."""
    return [i for i in range(rows) if i % 7][:max(5, rows // 200)]


def run_workload(db, rows):
    """rows inserts + rows/3 updates + rows/7 deletes, one transaction each.

    Tuple-at-a-time on purpose: every operation is its own transaction, so
    the log carries an UPDATE and a COMMIT per operation (and a record per
    page allocated) and the stable log grows to about three times ``rows``
    records.
    """
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    keys = [table.insert((i, "v%d" % i)) for i in range(rows)]
    for i in range(0, rows, 3):
        table.update(keys[i], {"v": "u%d" % i})
    for i in range(0, rows, 7):
        table.delete(keys[i])
    return table, keys


def expected_rows(rows):
    tail = set(tail_ids_for(rows))
    out = []
    for i in range(rows):
        if i % 7 == 0:
            continue
        if i in tail:
            value = "t%d" % i
        elif i % 3 == 0:
            value = "u%d" % i
        else:
            value = "v%d" % i
        out.append((i, value))
    return sorted(out)


def build_to_crash(rows, with_checkpoint):
    """Run the workload up to the crash point.

    The dirty-page table is emptied by a background-writer ``flush_all``
    near the end of the run, a short tail of updates re-dirties a few
    pages, and (optionally) a fuzzy checkpoint snapshots that small DPT —
    so restart redo is bounded by the tail, not the whole history.
    """
    db = Database(page_size=4096, buffer_capacity=512)
    table, keys = run_workload(db, rows)
    db.services.buffer.flush_all()
    for i in tail_ids_for(rows):
        table.update(keys[i], {"v": "t%d" % i})
    info = None
    if with_checkpoint:
        info = db.checkpoint(truncate=True)  # fuzzy: no data page flushed
    return db, table, info


def measured_restart(db):
    stats = db.services.stats
    before = stats.snapshot()
    summary = db.restart()
    delta = stats.delta(before)
    considered = (delta.get("recovery.redo.applied", 0)
                  + delta.get("recovery.redo.skipped_page_lsn", 0))
    return summary, delta, considered


def device_pages(db):
    device = db.services.disk
    return [(pid, device.read(pid)) for pid in device.page_ids()]


def recovery_profile(rows=N):
    """Counter comparison: crash-restart with vs without a late checkpoint."""
    base_db, base_table, __ = build_to_crash(rows, with_checkpoint=False)
    logged_ops = base_db.services.wal.current_lsn
    base_summary, base_delta, base_considered = measured_restart(base_db)

    ck_db, ck_table, info = build_to_crash(rows, with_checkpoint=True)
    ck_summary, ck_delta, ck_considered = measured_restart(ck_db)

    # Byte-exact device comparison after both recoveries settle.
    base_db.services.buffer.flush_all()
    ck_db.services.buffer.flush_all()
    identical = device_pages(base_db) == device_pages(ck_db)
    expected = expected_rows(rows)
    correct = (sorted(base_table.rows()) == expected
               and sorted(ck_table.rows()) == expected)

    def shape(delta, summary, considered):
        return {
            "redo_applied": delta.get("recovery.redo.applied", 0),
            "redo_skipped_page_lsn":
                delta.get("recovery.redo.skipped_page_lsn", 0),
            "redo_considered": considered,
            "analysis_records": delta.get("recovery.analysis.records", 0),
            "redo_from": summary["redo_from"],
            "checkpoint_lsn": summary["checkpoint_lsn"],
        }

    return {
        "rows": rows,
        "logged_ops": logged_ops,
        "baseline": shape(base_delta, base_summary, base_considered),
        "checkpointed": dict(
            shape(ck_delta, ck_summary, ck_considered),
            truncated=info["truncated"],
            dirty_pages_at_checkpoint=info["dirty_pages"]),
        "redo_ratio": base_considered / max(1, ck_considered),
        "truncated_fraction": info["truncated"] / logged_ops,
        "byte_identical": identical,
        "contents_correct": correct,
    }


def group_commit_profile(commits=400, limit=8):
    """One log force stabilizes a whole batch of commits."""
    db = Database(page_size=4096, buffer_capacity=128, group_commit=limit)
    table = db.create_table("g", [("id", "INT")])
    for i in range(commits):
        table.insert((i,))
    db.commit_group()  # drain the tail
    stats = db.services.stats
    flushes = stats.get("txn.group_commit.flushes")
    return {"commits": commits, "limit": limit, "flushes": flushes,
            "stabilized": stats.get("txn.group_commit.stabilized"),
            "force_reduction": commits / max(1, flushes)}


@pytest.fixture(scope="module")
def profile():
    return recovery_profile(N)


# ---------------------------------------------------------------------------
# Acceptance: counter assertions
# ---------------------------------------------------------------------------

def test_workload_logs_ten_thousand_operations(profile):
    assert profile["logged_ops"] >= MIN_LOGGED_OPS


def test_late_checkpoint_bounds_redo_50x(profile):
    assert profile["redo_ratio"] >= MIN_REDO_RATIO


def test_truncation_reclaims_pre_checkpoint_prefix(profile):
    assert profile["checkpointed"]["truncated"] > 0
    assert profile["truncated_fraction"] >= 0.9


def test_recovered_state_byte_identical_with_and_without_checkpoint(profile):
    assert profile["byte_identical"]
    assert profile["contents_correct"]


def test_checkpoint_bounds_analysis_too(profile):
    assert (profile["checkpointed"]["analysis_records"]
            < profile["baseline"]["analysis_records"] / 10)


def test_group_commit_reduces_log_forces():
    gc = group_commit_profile()
    assert gc["stabilized"] >= gc["commits"]
    assert gc["force_reduction"] >= gc["limit"] / 2


# ---------------------------------------------------------------------------
# Timings (E11 retained, plus the checkpointed variant)
# ---------------------------------------------------------------------------

def loaded_db(rows):
    db = Database(buffer_capacity=2048)
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    db.create_index("t_id", "t", ["id"], unique=True)
    table.insert_many([(i, f"v{i}") for i in range(rows)])
    db.begin()
    table.insert((rows + 1, "loser"))
    db.services.wal.flush()
    return db, table


@pytest.mark.parametrize("rows", [200, 1000, 4000])
def test_restart_recovery_scales_with_log(benchmark, rows):
    def setup():
        return (loaded_db(rows),), {}

    def recover(pair):
        db, __ = pair
        return db.restart()

    benchmark.pedantic(recover, setup=setup, rounds=3)
    benchmark.extra_info["rows"] = rows


@pytest.mark.parametrize("rows", [1000, 4000])
def test_restart_with_late_checkpoint_is_bounded(benchmark, rows):
    def setup():
        db, __, info = build_to_crash(rows, with_checkpoint=True)
        return (db,), {}

    benchmark.pedantic(lambda db: db.restart(), setup=setup, rounds=3)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["strategy"] = "fuzzy-checkpoint"


def test_recovery_correctness_after_restart():
    db, table = loaded_db(500)
    summary = db.restart()
    assert summary["losers"]
    assert summary["redone"] > 0
    assert table.count() == 500
    # The rebuilt index answers lookups.
    assert db.execute("SELECT v FROM t WHERE id = 250") == [("v250",)]


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=N)
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)
    result = recovery_profile(args.rows)
    result["group_commit"] = group_commit_profile()
    out = bench_payload(
        "E16-checkpointed-recovery",
        {"rows": args.rows,
         "group_commit_limit": result["group_commit"]["limit"]},
        {"logged_ops": result["logged_ops"],
         "baseline": result["baseline"],
         "checkpointed": result["checkpointed"],
         "group_commit": result["group_commit"]},
        {"redo_ratio": result["redo_ratio"],
         "truncated_fraction": result["truncated_fraction"],
         "byte_identical": result["byte_identical"],
         "contents_correct": result["contents_correct"],
         "group_commit_force_reduction":
             result["group_commit"]["force_reduction"]})
    payload = json.dumps(out, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    ok = (result["redo_ratio"] >= MIN_REDO_RATIO
          and result["checkpointed"]["truncated"] > 0
          and result["byte_identical"]
          and result["contents_correct"]
          and result["group_commit"]["force_reduction"] >= 4
          and (args.rows < N or result["logged_ops"] >= MIN_LOGGED_OPS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
