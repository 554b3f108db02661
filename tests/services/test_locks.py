"""Lock manager: modes, upgrades, conflicts, deadlock detection."""

import pytest

from repro.errors import DeadlockError, LockConflictError, LockError
from repro.services.locks import LockManager, LockMode, compatible, join_modes


def test_compatibility_matrix_classics():
    assert compatible(LockMode.IS, LockMode.IX)
    assert compatible(LockMode.S, LockMode.S)
    assert not compatible(LockMode.S, LockMode.IX)
    assert not compatible(LockMode.X, LockMode.IS)
    assert compatible(LockMode.SIX, LockMode.IS)
    assert not compatible(LockMode.SIX, LockMode.S)


def test_join_modes_upgrade_lattice():
    assert join_modes(LockMode.IS, LockMode.IX) is LockMode.IX
    assert join_modes(LockMode.S, LockMode.IX) is LockMode.SIX
    assert join_modes(LockMode.S, LockMode.X) is LockMode.X
    assert join_modes(LockMode.IS, LockMode.S) is LockMode.S


def test_shared_locks_coexist():
    locks = LockManager()
    locks.acquire(1, "r", LockMode.S)
    locks.acquire(2, "r", LockMode.S)
    assert set(locks.holders("r")) == {1, 2}


def test_exclusive_conflicts_with_shared():
    locks = LockManager()
    locks.acquire(1, "r", LockMode.S)
    with pytest.raises(LockConflictError) as info:
        locks.acquire(2, "r", LockMode.X)
    assert info.value.holders == frozenset({1})


def test_reacquire_same_mode_is_noop():
    locks = LockManager()
    locks.acquire(1, "r", LockMode.X)
    assert locks.acquire(1, "r", LockMode.S) is LockMode.X


def test_upgrade_s_to_x_when_alone():
    locks = LockManager()
    locks.acquire(1, "r", LockMode.S)
    assert locks.acquire(1, "r", LockMode.X) is LockMode.X


def test_upgrade_blocked_by_other_sharer():
    locks = LockManager()
    locks.acquire(1, "r", LockMode.S)
    locks.acquire(2, "r", LockMode.S)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "r", LockMode.X)


def test_deadlock_two_transactions():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    locks.acquire(2, "b", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)   # T1 waits for T2
    with pytest.raises(DeadlockError) as info:
        locks.acquire(2, "a", LockMode.X)   # closes the cycle; T2 is victim
    assert set(info.value.cycle) >= {1, 2}


def test_deadlock_three_way_cycle():
    locks = LockManager()
    for txn, resource in ((1, "a"), (2, "b"), (3, "c")):
        locks.acquire(txn, resource, LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(2, "c", LockMode.X)
    with pytest.raises(DeadlockError):
        locks.acquire(3, "a", LockMode.X)


def test_release_all_unblocks_waiters():
    locks = LockManager()
    locks.acquire(1, "r", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(2, "r", LockMode.X)
    assert 2 in locks.waits_for()
    locks.release_all(1)
    assert 2 not in locks.waits_for()
    locks.acquire(2, "r", LockMode.X)  # now granted


def test_release_single_resource():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    locks.acquire(1, "b", LockMode.S)
    locks.release(1, "a")
    assert locks.held_mode(1, "a") is None
    assert locks.held_mode(1, "b") is LockMode.S


def test_release_unheld_rejected():
    locks = LockManager()
    with pytest.raises(LockError):
        locks.release(1, "nothing")


def test_release_all_returns_count_and_clears():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.IS)
    locks.acquire(1, "b", LockMode.IX)
    assert locks.release_all(1) == 2
    assert locks.locks_held(1) == frozenset()


def test_intent_locks_allow_fine_grained_sharing():
    """The hierarchical pattern storage methods use: IX on the relation,
    X on distinct records, concurrently from two transactions."""
    locks = LockManager()
    locks.acquire(1, ("rel", 7), LockMode.IX)
    locks.acquire(2, ("rel", 7), LockMode.IX)
    locks.acquire(1, ("rec", 7, "k1"), LockMode.X)
    locks.acquire(2, ("rec", 7, "k2"), LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(2, ("rec", 7, "k1"), LockMode.X)


# ---------------------------------------------------------------------------
# Deadlock detection: cycles, victims, and wait-edge hygiene
# ---------------------------------------------------------------------------

def test_two_txn_cycle_is_normalized_with_deterministic_victim():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    locks.acquire(2, "b", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)
    with pytest.raises(DeadlockError) as info:
        locks.acquire(2, "a", LockMode.X)
    # Canonical cycle: smallest txn first, no duplicated endpoint; the
    # victim is the youngest (largest id) participant.
    assert list(info.value.cycle) == [1, 2]
    assert info.value.victim == 2


def test_three_txn_cycle_reports_full_rotation():
    locks = LockManager()
    for txn, resource in ((5, "a"), (3, "b"), (9, "c")):
        locks.acquire(txn, resource, LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(5, "b", LockMode.X)      # 5 -> 3
    with pytest.raises(LockConflictError):
        locks.acquire(3, "c", LockMode.X)      # 3 -> 9
    with pytest.raises(DeadlockError) as info:
        locks.acquire(9, "a", LockMode.X)      # 9 -> 5 closes the loop
    assert list(info.value.cycle) == [3, 9, 5]       # min rotated to the front
    assert info.value.victim == 9


def test_upgrade_deadlock_between_two_sharers():
    """The classic self-upgrade deadlock: two S holders each want X.
    Neither can proceed (each waits for the other's S), so the second
    upgrade attempt must be diagnosed as a deadlock, not a plain
    conflict the caller would retry forever."""
    locks = LockManager()
    locks.acquire(1, "r", LockMode.S)
    locks.acquire(2, "r", LockMode.S)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "r", LockMode.X)      # 1 waits for 2's S
    with pytest.raises(DeadlockError) as info:
        locks.acquire(2, "r", LockMode.X)      # 2 waits for 1's S: cycle
    assert list(info.value.cycle) == [1, 2]
    assert info.value.victim == 2


def test_self_upgrade_alone_never_deadlocks():
    """A transaction never waits for itself: upgrading S to X with no
    other holders is granted immediately."""
    locks = LockManager()
    locks.acquire(1, "r", LockMode.S)
    assert locks.acquire(1, "r", LockMode.X) is LockMode.X
    assert locks.waits_for() == {}


def test_cancel_wait_withdraws_the_edge():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(2, "a", LockMode.X)
    assert 2 in locks.waits_for()
    locks.cancel_wait(2)                       # caller gave up the request
    assert locks.waits_for() == {}
    # With the edge gone, 1 can take 2's resources without a false cycle.
    locks.acquire(2, "b", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)


def test_new_wait_replaces_stale_edge_no_phantom_deadlock():
    """A transaction waits for one request at a time.  A conflict edge
    left over from an abandoned request must not combine with the
    current one to manufacture a cycle that does not exist."""
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    locks.acquire(2, "b", LockMode.X)
    locks.acquire(3, "c", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)      # stale: 1 -> 2
    with pytest.raises(LockConflictError):
        locks.acquire(1, "c", LockMode.X)      # replaces it: 1 -> 3
    # If the stale 1 -> 2 edge survived, this would "close" 2 -> 1 -> 2.
    with pytest.raises(LockConflictError):
        locks.acquire(2, "a", LockMode.X)
    assert locks.waits_for() == {1: frozenset({3}), 2: frozenset({1})}


def test_deadlock_counter_and_wait_cleanup():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    locks.acquire(2, "b", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)
    with pytest.raises(DeadlockError):
        locks.acquire(2, "a", LockMode.X)
    # The loser's wait edge was cancelled when the deadlock was raised:
    # the graph holds only the survivor's genuine wait.
    assert locks.waits_for() == {1: frozenset({2})}


# ---------------------------------------------------------------------------
# Page-at-a-time acquisition and the non-waiting request
# ---------------------------------------------------------------------------

def test_acquire_many_is_acquire_in_order_under_one_bump():
    from repro.services.stats import StatsService
    stats = StatsService()
    locks = LockManager(stats)
    locks.acquire(1, "b", LockMode.S)
    assert locks.acquire_many(1, ["a", "b", "c"], LockMode.S) == 2  # new ones
    assert locks.locks_held(1) == {"a", "b", "c"}
    assert stats.get("locks.acquire_calls") == 4  # locks requested


def test_acquire_many_conflict_raises_what_acquire_raises_for_that_key():
    locks = LockManager()
    locks.acquire(2, "c", LockMode.X)
    with pytest.raises(LockConflictError) as many:
        locks.acquire_many(1, ["a", "b", "c", "d"], LockMode.S)
    assert locks.locks_held(1) == {"a", "b"}     # keys before it stay held
    assert locks.waits_for() == {1: frozenset({2})}
    with pytest.raises(LockConflictError) as single:
        locks.acquire(1, "c", LockMode.S)
    assert (many.value.resource, many.value.mode, many.value.holders) \
        == (single.value.resource, single.value.mode, single.value.holders)
    assert str(many.value) == str(single.value)


def test_acquire_many_closing_a_cycle_raises_deadlock():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.X)
    locks.acquire(2, "b", LockMode.X)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "b", LockMode.X)
    with pytest.raises(DeadlockError) as info:
        locks.acquire_many(2, ["z", "a"], LockMode.S)
    assert info.value.cycle == (1, 2) and info.value.victim == 2
    assert locks.held_mode(2, "z") is LockMode.S


def test_try_acquire_never_waits():
    locks = LockManager()
    locks.acquire(2, "rel", LockMode.IX)
    locks.acquire(1, "rel", LockMode.IS)
    assert locks.try_acquire(1, "rel", LockMode.S) is False
    assert locks.waits_for() == {}                       # no wait edge
    assert locks.held_mode(1, "rel") is LockMode.IS      # nothing changed
    locks.release_all(2)
    assert locks.try_acquire(1, "rel", LockMode.S) is True
    assert locks.held_mode(1, "rel") is LockMode.S
    # An upgrade joins modes the way acquire does.
    locks.acquire(3, "other", LockMode.IX)
    assert locks.try_acquire(3, "other", LockMode.S) is True
    assert locks.held_mode(3, "other") is LockMode.SIX
