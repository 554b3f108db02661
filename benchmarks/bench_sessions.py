"""E19 — N sessions of mixed read/write traffic through the session layer.

The session front door turns the engine from a single-caller library into
a multi-session database: each :class:`~repro.core.session.Session` owns a
per-session transaction and principal while sharing the catalog, the
common services, and the bound-plan cache.  Read-only sessions run under
MVCC snapshots (``session.begin(snapshot=True)``): row visibility is
resolved at the scan boundary from commit-LSN stamps and undo images, so
readers take **zero locks** and never block (or get blocked by) writers.

Three measured claims:

* **readers never block writers** — with N sessions of mixed traffic,
  the reader sessions' per-session ``locks.acquire_calls`` deltas are
  all zero while ``mvcc.lock_bypasses`` counts every read they served;
* **snapshot reads are bit-identical to a quiesced scan** at the same
  LSN — a snapshot opened before the write storm returns exactly the
  rows of a full scan taken while the engine was quiescent, even though
  every row was overwritten and re-committed underneath it;
* **group commit amortizes log forces** — N >= 8 concurrent committers
  under ``group_commit=N`` force the log >= 2x less often per commit
  than the same workload committing one-at-a-time (each force modelled
  as one ``LogManager.flush`` call).

The admission profile additionally connects 1000+ sessions to show the
pool bound is a real limit (the N+1st connect raises ``AdmissionError``).
A last sweep patches 0 / 200 / 1 000 keys under a snapshot reader and
counts the images one point read tests (``mvcc.images_tested``): at most
one at every size, because an index route looks its images up by key.

Runnable directly for the CI smoke profile::

    python benchmarks/bench_sessions.py --rows 2000 --json bench-sessions.json
"""

import argparse
import json
import sys

import pytest

from repro import AdmissionError, Database
from repro.workloads import employee_records

try:
    from benchmarks._helpers import bench_payload
except ImportError:          # executed directly: python benchmarks/bench_...
    from _helpers import bench_payload

ROWS = 2_000
MIXED_SESSIONS = 16          # half readers, half writers
COMMITTERS = 8               # concurrent committers in the group-commit phase
COMMIT_ROUNDS = 16           # rounds of COMMITTERS commits each
SCALE_SESSIONS = 1_000       # admission-control head count
PATCH_SIZES = (0, 200, 1_000)  # keys a writer patches under a snapshot


def build_db(rows: int, **kwargs) -> Database:
    db = Database(page_size=4096, buffer_capacity=512, **kwargs)
    db.create_table("employee", [
        ("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
        ("salary", "FLOAT"), ("active", "BOOL")])
    db.create_index("emp_id", "employee", ["id"])
    db.table("employee").insert_many(employee_records(rows))
    return db


def count_log_forces(db):
    """Wrap ``wal.flush`` so each log force is observable as one count."""
    wal = db.services.wal
    original = wal.flush
    forces = {"n": 0}

    def counting_flush(up_to_lsn=None):
        forces["n"] += 1
        original(up_to_lsn)

    wal.flush = counting_flush
    return forces


# ---------------------------------------------------------------------------
# Phase 1 — mixed read/write traffic: lock-free snapshot readers
# ---------------------------------------------------------------------------

def mixed_traffic(rows: int, n_sessions: int = MIXED_SESSIONS) -> dict:
    """Half the sessions read under snapshots while the other half
    overwrite every row; readers must finish with zero lock acquires and
    return the pre-storm rows bit-identically."""
    db = build_db(rows, max_sessions=n_sessions, group_commit=0)
    stats = db.services.stats
    readers = [db.connect() for _ in range(n_sessions // 2)]
    writers = [db.connect() for _ in range(n_sessions - len(readers))]

    # Quiesced baseline: the engine is idle, so this full scan is the
    # ground truth for the LSN the snapshots are about to be taken at.
    baseline = sorted(db.table("employee").rows())
    quiesce_lsn = db.services.wal.current_lsn

    before = stats.snapshot()
    for session in readers:
        session.begin(snapshot=True)
    snapshot_lsns = [s._txn.snapshot.lsn for s in readers]

    # The write storm: every writer session overwrites a disjoint slice
    # of the table and commits, repeatedly, underneath the open readers.
    slice_size = max(1, rows // len(writers))
    for round_no in range(2):
        for w, session in enumerate(writers):
            lo = w * slice_size + 1
            hi = min(rows, lo + slice_size - 1)
            with session.transaction():
                session.table("employee").update_where(
                    f"id >= {lo} AND id <= {hi}",
                    {"dept": f"storm-{round_no}", "salary": 1.0 + round_no})

    # Readers scan *after* the storm committed; their snapshots predate it.
    reader_scans = [sorted(s.table("employee").rows()) for s in readers]
    for session in readers:
        session.commit()
    delta = stats.delta(before)

    identical = all(scan == baseline for scan in reader_scans)
    reader_lock_acquires = sum(
        stats.session_get(s.session_id, "locks.acquire_calls")
        for s in readers)
    reader_lock_waits = sum(
        stats.session_get(s.session_id, "locks.deadlocks_detected")
        for s in readers)
    current = sorted(db.table("employee").rows())
    storm_applied = current != baseline

    for session in readers + writers:
        session.close()
    db.close()
    return {
        "baseline_rows": len(baseline),
        "snapshot_lsns_at_quiesce": all(
            lsn == quiesce_lsn for lsn in snapshot_lsns),
        "snapshot_identical_to_quiesced_scan": identical,
        "storm_visible_after_snapshots": storm_applied,
        "reader_sessions": len(readers),
        "writer_sessions": len(writers),
        "reader_lock_acquires": reader_lock_acquires,
        "reader_lock_waits": reader_lock_waits,
        "delta": delta,
    }


# ---------------------------------------------------------------------------
# Phase 2 — group commit: log forces per commit, N concurrent committers
# ---------------------------------------------------------------------------

def _commit_storm(db, n_committers: int, rounds: int) -> dict:
    """``rounds`` waves of ``n_committers`` sessions each writing one
    disjoint row inside an open transaction, then committing in turn."""
    forces = count_log_forces(db)
    sessions = [db.connect() for _ in range(n_committers)]
    commits = 0
    for round_no in range(rounds):
        # All N transactions are open and dirty before the first commits:
        # each session writes its own row, then the wave commits in turn.
        for i, session in enumerate(sessions):
            session.begin()
            session.table("employee").update_where(
                f"id = {i + 1}", {"salary": float(round_no + 1)})
        for session in sessions:
            session.commit()
            commits += 1
    db.services.transactions.commit_group()   # drain any partial batch
    for session in sessions:
        session.close()
    return {"commits": commits, "log_forces": forces["n"]}


def group_commit_gain(rows: int, n_committers: int = COMMITTERS,
                      rounds: int = COMMIT_ROUNDS) -> dict:
    single_db = build_db(rows, max_sessions=n_committers + 4, group_commit=0)
    single = _commit_storm(single_db, n_committers, rounds)
    single_stats = single_db.services.stats.snapshot()
    single_db.close()

    group_db = build_db(rows, max_sessions=n_committers + 4,
                        group_commit=n_committers)
    group = _commit_storm(group_db, n_committers, rounds)
    group_stats = group_db.services.stats.snapshot()
    group_db.close()

    single_fpc = single["log_forces"] / single["commits"]
    group_fpc = group["log_forces"] / group["commits"]
    return {
        "committers": n_committers,
        "rounds": rounds,
        "single": single,
        "group": group,
        "single_forces_per_commit": round(single_fpc, 4),
        "group_forces_per_commit": round(group_fpc, 4),
        "commit_throughput_gain": round(single_fpc / group_fpc, 2),
        "group_commit_flushes": group_stats.get("txn.group_commit.flushes", 0),
        "group_commit_stabilized": group_stats.get(
            "txn.group_commit.stabilized", 0),
        "single_group_commit_flushes": single_stats.get(
            "txn.group_commit.flushes", 0),
    }


# ---------------------------------------------------------------------------
# Phase 3 — admission control at 1000+ sessions
# ---------------------------------------------------------------------------

def admission_scale(rows: int, n_sessions: int = SCALE_SESSIONS) -> dict:
    db = build_db(min(rows, 200), max_sessions=n_sessions)
    stats = db.services.stats
    before = stats.snapshot()
    sessions = [db.connect() for _ in range(n_sessions)]
    # Every session does one unit of work so per-session stats materialize.
    probe = sessions[::max(1, n_sessions // 50)]
    for session in probe:
        session.table("employee").count("id >= 1")
    rejected = 0
    try:
        db.connect()
    except AdmissionError:
        rejected = 1
    per_session_locks = sum(
        stats.session_get(s.session_id, "locks.acquire_calls")
        for s in probe)
    delta = stats.delta(before)
    for session in sessions:
        session.close()
    db.close()
    return {
        "requested": n_sessions,
        "connected": delta.get("sessions.connected", 0),
        "over_limit_rejected": rejected,
        "probe_sessions": len(probe),
        "probe_per_session_lock_acquires": per_session_locks,
        "closed": stats.get("sessions.closed"),
    }


# ---------------------------------------------------------------------------
# Phase 4 — a snapshot point read as the relation's patch grows
# ---------------------------------------------------------------------------

def patched_point_reads(rows: int, sizes=PATCH_SIZES) -> dict:
    """For each size, a snapshot reader's point reads after a writer
    committed that many updates under it: the images each read tested
    (``mvcc.images_tested``) and answered (``mvcc.records_patched``), for
    a patched key and for an unpatched one."""
    db = build_db(max(rows, 2 * sizes[-1]), max_sessions=4)
    stats = db.services.stats
    point = "SELECT * FROM employee WHERE id = :id"
    out = {}
    for size in sizes:
        reader, writer = db.connect(), db.connect()
        reader.begin(snapshot=True)
        reader.execute(point, {"id": 1})
        if size:
            writer.execute(f"UPDATE employee SET salary = salary + 1 "
                           f"WHERE id >= 1 AND id <= {size}")
        reads = {}
        for name, row_id in (("patched", 1), ("unpatched", size + 1)):
            before = stats.snapshot()
            assert len(reader.execute(point, {"id": row_id})) == 1
            delta = stats.delta(before)
            reads[name] = {
                "images_tested": delta.get("mvcc.images_tested", 0),
                "records_patched": delta.get("mvcc.records_patched", 0)}
        reader.commit()
        out[str(size)] = reads
        reader.close()
        writer.close()
    db.close()
    return out


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def sessions_profile(rows: int = ROWS,
                     n_sessions: int = MIXED_SESSIONS,
                     scale_sessions: int = SCALE_SESSIONS) -> dict:
    mixed = mixed_traffic(rows, n_sessions)
    group = group_commit_gain(rows)
    scale = admission_scale(rows, scale_sessions)
    patched = patched_point_reads(rows)

    derived = {
        "readers_lock_free": mixed["reader_lock_acquires"] == 0
                             and mixed["reader_lock_waits"] == 0,
        "reader_lock_acquires": mixed["reader_lock_acquires"],
        "snapshot_bit_identical": mixed["snapshot_identical_to_quiesced_scan"]
                                  and mixed["snapshot_lsns_at_quiesce"],
        "writers_progressed_under_readers":
            mixed["storm_visible_after_snapshots"],
        "mvcc_lock_bypasses": mixed["delta"].get("mvcc.lock_bypasses", 0),
        "commit_throughput_gain": group["commit_throughput_gain"],
        "group_commit_ok": group["commit_throughput_gain"] >= 2.0,
        "admission_held": scale["connected"] == scale["requested"]
                          and scale["over_limit_rejected"] == 1,
        "per_session_stats_attributed":
            scale["probe_per_session_lock_acquires"] > 0,
        "point_read_images_tested_max": max(
            read["images_tested"] for reads in patched.values()
            for read in reads.values()),
    }
    config = {
        "rows": rows,
        "mixed_sessions": n_sessions,
        "committers": group["committers"],
        "commit_rounds": group["rounds"],
        "scale_sessions": scale_sessions,
    }
    counters = {
        "mixed": mixed,
        "group_commit": group,
        "admission": scale,
        "patched_point_reads": patched,
    }
    return bench_payload("E19-sessions", config, counters, derived)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile():
    return sessions_profile(rows=500, scale_sessions=200)


def test_readers_never_block_writers(profile):
    assert profile["derived"]["readers_lock_free"]
    assert profile["derived"]["mvcc_lock_bypasses"] > 0
    assert profile["derived"]["writers_progressed_under_readers"]


def test_snapshot_reads_bit_identical(profile):
    assert profile["derived"]["snapshot_bit_identical"]


def test_group_commit_gain(profile):
    assert profile["derived"]["group_commit_ok"]
    assert profile["derived"]["commit_throughput_gain"] >= 2.0


def test_admission_bound(profile):
    assert profile["derived"]["admission_held"]


def test_a_snapshot_point_read_tests_one_image_at_every_patch_size(profile):
    reads = profile["counters"]["patched_point_reads"]
    assert sorted(reads, key=int) == [str(n) for n in PATCH_SIZES]
    assert profile["derived"]["point_read_images_tested_max"] <= 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=ROWS)
    parser.add_argument("--sessions", type=int, default=MIXED_SESSIONS,
                        help="mixed-traffic session count (half read)")
    parser.add_argument("--scale", type=int, default=SCALE_SESSIONS,
                        help="admission-control session head count")
    parser.add_argument("--json", type=str, default=None,
                        help="write the result payload to this path")
    args = parser.parse_args()

    result = sessions_profile(args.rows, args.sessions, args.scale)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)

    derived = result["derived"]
    ok = (derived["readers_lock_free"]
          and derived["snapshot_bit_identical"]
          and derived["group_commit_ok"]
          and derived["admission_held"]
          and derived["per_session_stats_attributed"]
          and derived["point_read_images_tested_max"] <= 1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
