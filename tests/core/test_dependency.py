"""Dependency tracker unit tests."""

from repro.core.dependency import (DependencyTracker, attachment_token,
                                   relation_token)


class FakePlan:
    def __init__(self):
        self.valid = True

    def invalidate(self):
        self.valid = False


def test_tokens_are_normalised():
    assert relation_token("EMP") == "relation:emp"
    assert attachment_token("IDX") == "attachment:idx"


def test_invalidate_hits_all_dependents():
    tracker = DependencyTracker()
    plans = [FakePlan() for __ in range(3)]
    for plan in plans:
        tracker.register(plan, [relation_token("t")])
    assert tracker.invalidate(relation_token("t")) == 3
    assert all(not p.valid for p in plans)
    assert tracker.invalidations == 3


def test_invalidate_unknown_token_is_noop():
    tracker = DependencyTracker()
    assert tracker.invalidate("relation:ghost") == 0


def test_unregister_removes_from_every_token():
    tracker = DependencyTracker()
    plan = FakePlan()
    tracker.register(plan, ["a", "b"])
    tracker.unregister(plan)
    assert tracker.invalidate("a") == 0
    assert tracker.invalidate("b") == 0
    assert plan.valid


def test_invalidation_unregisters_other_tokens_too():
    """A plan invalidated via one token must not be re-invalidated (or
    leak) through its other tokens."""
    tracker = DependencyTracker()
    plan = FakePlan()
    tracker.register(plan, ["a", "b"])
    tracker.invalidate("a")
    assert len(tracker._dependents.get("b", ())) == 0


def test_reregistration_replaces_tokens():
    tracker = DependencyTracker()
    plan = FakePlan()
    tracker.register(plan, ["a"])
    tracker.register(plan, ["b"])
    assert tracker.invalidate("a") == 0
    assert tracker.invalidate("b") == 1
