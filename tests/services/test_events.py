"""Event service: deferred-action queues and global subscriptions."""

import pytest

from repro.services import events as ev
from repro.services.events import EventService


def test_deferred_actions_run_in_queue_order():
    events = EventService()
    ran = []
    events.defer(1, ev.AT_COMMIT, lambda txn, data: ran.append(data), "a")
    events.defer(1, ev.AT_COMMIT, lambda txn, data: ran.append(data), "b")
    events.fire(1, ev.AT_COMMIT)
    assert ran == ["a", "b"]


def test_queue_is_consumed_by_firing():
    events = EventService()
    ran = []
    events.defer(1, ev.AT_COMMIT, lambda txn, data: ran.append(data), "x")
    events.fire(1, ev.AT_COMMIT)
    events.fire(1, ev.AT_COMMIT)
    assert ran == ["x"]


def test_actions_may_queue_further_actions_same_event():
    events = EventService()
    ran = []

    def first(txn, data):
        ran.append("first")
        events.defer(txn, ev.BEFORE_PREPARE,
                     lambda t, d: ran.append("second"), None)

    events.defer(1, ev.BEFORE_PREPARE, first, None)
    events.fire(1, ev.BEFORE_PREPARE)
    assert ran == ["first", "second"]


def test_queues_are_per_transaction():
    events = EventService()
    ran = []
    events.defer(1, ev.AT_COMMIT, lambda t, d: ran.append((1, d)), "x")
    events.defer(2, ev.AT_COMMIT, lambda t, d: ran.append((2, d)), "y")
    events.fire(1, ev.AT_COMMIT)
    assert ran == [(1, "x")]
    assert events.pending(2, ev.AT_COMMIT) == 1


def test_discard_drops_all_queues_of_a_transaction():
    events = EventService()
    events.defer(1, ev.AT_COMMIT, lambda t, d: None)
    events.defer(1, ev.BEFORE_PREPARE, lambda t, d: None)
    events.discard(1)
    assert events.pending(1, ev.AT_COMMIT) == 0
    assert events.pending(1, ev.BEFORE_PREPARE) == 0


def test_failing_action_stops_processing_and_clears_queue():
    events = EventService()
    ran = []

    def boom(txn, data):
        raise ValueError("veto")

    events.defer(1, ev.BEFORE_PREPARE, boom)
    events.defer(1, ev.BEFORE_PREPARE, lambda t, d: ran.append("after"))
    with pytest.raises(ValueError):
        events.fire(1, ev.BEFORE_PREPARE)
    assert ran == []
    assert events.pending(1, ev.BEFORE_PREPARE) == 0


def test_global_subscribers_receive_info():
    events = EventService()
    seen = []
    events.subscribe(ev.SAVEPOINT_SET,
                     lambda txn, info: seen.append((txn, info["name"])))
    events.fire(3, ev.SAVEPOINT_SET, name="sp1")
    assert seen == [(3, "sp1")]


def test_unknown_event_rejected():
    events = EventService()
    with pytest.raises(ValueError):
        events.defer(1, "no_such_event", lambda t, d: None)
    with pytest.raises(ValueError):
        events.subscribe("no_such_event", lambda t, i: None)


def test_unknown_event_error_is_typed_and_names_the_event():
    from repro.errors import ReproError, UnknownEventError
    with pytest.raises(UnknownEventError) as caught:
        EventService().subscribe("no_such_event", lambda t, i: None)
    assert isinstance(caught.value, ReproError)
    assert caught.value.event == "no_such_event"
    assert ev.AT_COMMIT in caught.value.expected
