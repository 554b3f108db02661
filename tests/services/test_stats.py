"""Stats service."""

from repro.services.stats import StatsService


def test_bump_and_get():
    stats = StatsService()
    stats.bump("x")
    stats.bump("x", 4)
    assert stats.get("x") == 5
    assert stats.get("never") == 0


def test_snapshot_delta():
    stats = StatsService()
    stats.bump("a", 2)
    before = stats.snapshot()
    stats.bump("a")
    stats.bump("b", 3)
    assert stats.delta(before) == {"a": 1, "b": 3}


def test_delta_ignores_unchanged():
    stats = StatsService()
    stats.bump("a")
    before = stats.snapshot()
    assert stats.delta(before) == {}


def test_reset():
    stats = StatsService()
    stats.bump("a")
    stats.reset()
    assert stats.get("a") == 0


# ---------------------------------------------------------------------------
# Session scopes
# ---------------------------------------------------------------------------

def test_session_scope_mirrors_and_reconciles():
    stats = StatsService()
    stats.bump("x")                       # out of session
    with stats.session(1):
        stats.bump("x", 2)
        stats.bump_many({"x": 3, "y": 1})
    with stats.session(2):
        stats.bump("x", 10)
    assert stats.session_get(1, "x") == 5 and stats.session_get(1, "y") == 1
    assert stats.session_get(2, "x") == 10
    assert set(stats._per_session) == {1, 2}
    # Sum over sessions + the out-of-session remainder = the engine total.
    assert stats.get("x") == 16 == 1 + sum(
        stats.session_get(sid, "x") for sid in stats._per_session)


def test_nested_session_scopes_restore_the_outer_mirror():
    stats = StatsService()
    with stats.session(1):
        stats.bump("x")
        with stats.session(2):
            stats.bump("x")
            with stats.session(1):        # re-entering is the same counter
                stats.bump("x")
            stats.bump("x")
        stats.bump("x")
    stats.bump("x")                       # no scope left: engine-wide only
    assert stats.session_get(1, "x") == 3
    assert stats.session_get(2, "x") == 2
    assert stats.get("x") == 6


def test_scope_exit_restores_the_mirror_when_the_block_raises():
    stats = StatsService()
    try:
        with stats.session(1):
            raise KeyError("boom")
    except KeyError:
        pass
    stats.bump("x")
    assert stats.session_get(1, "x") == 0 and stats.get("x") == 1


def test_reset_and_drop_inside_a_live_scope_keep_the_attribution():
    """A session with a live scope stays registered: ``reset`` and
    ``drop_session`` empty its counters, and what is bumped afterwards in
    the scope is still that session's."""
    stats = StatsService()
    with stats.session(3):
        stats.bump("x")
    with stats.session(1):
        stats.bump("x")
        with stats.session(2):
            stats.bump("x")
            stats.reset()
            assert tuple(stats._per_session) == (1, 2)   # 3 has no live scope
            stats.bump("x")
        stats.bump("x", 5)
        stats.drop_session(1)
        assert stats.session_snapshot(1) == {}
        stats.bump("y")
    assert stats.session_snapshot(1) == {"y": 1}
    assert stats.session_snapshot(2) == {"x": 1}
    assert stats.snapshot() == {"x": 6, "y": 1}
    stats.drop_session(1)                          # no scope: forgotten
    assert tuple(stats._per_session) == (2,)


def test_bumps_in_a_scope_construct_no_counter(monkeypatch):
    from repro.services import stats as stats_module
    built = []

    class SpyCounter(stats_module.Counter):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(stats_module, "Counter", SpyCounter)
    stats = StatsService()
    with stats.session(7):
        on_entry = len(built)             # engine-wide + this session's
        for __ in range(1000):
            stats.bump("a")
            stats.bump_many({"a": 1, "b": 2})
        assert len(built) == on_entry == 2
    with stats.session(7):                # re-entry finds the counter
        stats.bump("a")
    assert len(built) == 2
    assert stats.session_get(7, "a") == 2001 == stats.get("a")
