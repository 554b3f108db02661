"""Log manager: LSNs, backchains, stability, crash truncation."""

import pytest

from repro.errors import RecoveryError
from repro.services import wal
from repro.services.wal import LogManager


def test_lsns_are_sequential_from_one():
    log = LogManager()
    a = log.append(1, wal.UPDATE, "r", {})
    b = log.append(1, wal.UPDATE, "storage.heap", {"op": "insert"})
    assert (a.lsn, b.lsn) == (1, 2)


def test_per_transaction_backchain():
    log = LogManager()
    log.append(1, wal.UPDATE, "r", {})
    log.append(2, wal.UPDATE, "r", {})
    log.append(1, wal.UPDATE, "r", {})
    log.append(2, wal.UPDATE, "r", {})
    chain = [r.lsn for r in log.transaction_chain(1)]
    assert chain == [3, 1]


def test_flush_advances_stable_prefix_monotonically():
    log = LogManager()
    for __ in range(5):
        log.append(1, wal.UPDATE, "r", {})
    log.flush(3)
    assert log.flushed_lsn == 3
    log.flush(2)  # never regresses
    assert log.flushed_lsn == 3
    log.flush()
    assert log.flushed_lsn == 5


def test_lose_unflushed_drops_suffix_and_rebuilds_chains():
    log = LogManager()
    log.append(1, wal.UPDATE, "r", {})
    log.append(1, wal.UPDATE, "r", {"n": 1})
    log.flush()
    log.append(1, wal.UPDATE, "r", {"n": 2})
    lost = log.lose_unflushed()
    assert lost == 1
    assert len(log) == 2
    assert (log.first_lsn(1), log.last_lsn(1)) == (1, 2)


def test_record_lookup_bounds():
    log = LogManager()
    log.append(1, wal.UPDATE, "r", {})
    with pytest.raises(RecoveryError):
        log.record(0)
    with pytest.raises(RecoveryError):
        log.record(2)


def test_forward_iteration_from_offset():
    log = LogManager()
    for i in range(4):
        log.append(1, wal.UPDATE, "r", {"i": i})
    assert [r.payload["i"] for r in log.forward(3)] == [2, 3]


def test_clr_records_carry_undo_next():
    log = LogManager()
    log.append(1, wal.UPDATE, "r", {})
    clr = log.append(1, wal.CLR, "r", {}, undo_next=0)
    assert clr.undo_next == 0
    assert clr.prev_lsn == 1


# ---------------------------------------------------------------------------
# Truncation and the master checkpoint pointer
# ---------------------------------------------------------------------------

def test_truncate_keeps_lsn_addressing_stable():
    log = LogManager()
    for i in range(5):
        log.append(1, wal.UPDATE, "r", {"i": i})
    log.flush()
    assert log.truncate(4) == 3
    assert log.oldest_lsn == 4
    assert log.truncated_records == 3
    # Surviving records keep their LSNs; new appends continue the sequence.
    assert log.record(4).payload["i"] == 3
    assert log.append(1, wal.UPDATE, "r", {}).lsn == 6
    assert [r.lsn for r in log.forward()] == [4, 5, 6]


def test_reading_truncated_lsn_raises():
    log = LogManager()
    for __ in range(4):
        log.append(1, wal.UPDATE, "r", {})
    log.flush()
    log.truncate(3)
    with pytest.raises(RecoveryError):
        log.record(2)
    log.record(3)  # first retained record still addressable


def test_truncate_never_reclaims_unflushed_records():
    log = LogManager()
    log.append(1, wal.UPDATE, "r", {})
    log.append(1, wal.UPDATE, "r", {})
    log.flush(1)
    # Asking beyond the stable prefix is clamped to it.
    assert log.truncate(3) == 1
    assert log.oldest_lsn == 2


def test_truncate_is_idempotent_below_horizon():
    log = LogManager()
    for __ in range(3):
        log.append(1, wal.UPDATE, "r", {})
    log.flush()
    log.truncate(3)
    assert log.truncate(2) == 0  # already reclaimed


def test_forward_clamps_to_truncation_horizon():
    log = LogManager()
    for i in range(4):
        log.append(1, wal.UPDATE, "r", {"i": i})
    log.flush()
    log.truncate(3)
    assert [r.payload["i"] for r in log.forward(1)] == [2, 3]


def test_master_requires_stable_checkpoint():
    log = LogManager()
    log.append(0, wal.CHECKPOINT_BEGIN)
    with pytest.raises(RecoveryError):
        log.set_master(1)  # not flushed yet
    log.flush()
    log.set_master(1)
    assert log.master_lsn == 1


def test_unstable_master_lost_at_crash():
    log = LogManager()
    log.append(0, wal.CHECKPOINT_BEGIN)
    log.flush()
    log.set_master(1)
    log.append(0, wal.CHECKPOINT_BEGIN)
    # A crash cannot have preserved a master pointing into the lost suffix;
    # poke the internals the way a buggy caller never could.
    log._master_lsn = 2
    log.lose_unflushed()
    assert log.master_lsn == 0


def test_checkpoint_trigger_fires_and_suppresses_reentry():
    log = LogManager()
    fired = []

    def on_interval():
        fired.append(log.current_lsn)
        record = log.append(0, wal.CHECKPOINT_BEGIN)  # must not re-trigger
        log.flush()
        log.set_master(record.lsn)

    log.set_checkpoint_trigger(3, on_interval)
    for __ in range(9):
        log.append(1, wal.UPDATE, "r", {})
    assert len(fired) == 3
