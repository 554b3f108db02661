"""Execution counters shared by the common services.

The paper's cost-estimation interfaces reason in I/O and CPU units, and the
benchmark harness validates the architecture's performance claims by
*counting* work rather than timing a simulated disk.  Every common service
and extension increments counters here; benchmarks and the query planner
read them.

Restart work is observable through the ``recovery.*`` family:
``recovery.analysis.records`` (log records scanned by restart analysis),
``recovery.redo.applied`` / ``recovery.redo.skipped_page_lsn`` (logical
operations re-applied vs. skipped by the page-LSN guard), and
``recovery.undo.records`` (loser operations rolled back at restart).
Group commit reports under ``txn.group_commit.*``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = ["StatsService", "NamespacedStats"]


class NamespacedStats:
    """A bump-compatible view that mirrors counters under a namespace.

    ``namespace.bump("remote.messages")`` increments both the engine-wide
    ``remote.messages`` total *and* ``<ns>.remote.messages`` — e.g.
    ``shard.0.remote.messages`` — so per-peer breakdowns and engine totals
    reconcile exactly (the same discipline the per-session mirror uses).
    Derived benchmark metrics (E21's per-shard critical path) read the
    namespaced counters instead of wall-clock time.
    """

    __slots__ = ("_stats", "_ns")

    def __init__(self, stats: "StatsService", ns: str):
        self._stats = stats
        self._ns = ns

    @property
    def namespace(self) -> str:
        return self._ns

    def bump(self, name: str, amount: int = 1) -> None:
        self._stats.bump(name, amount)
        self._stats.bump(f"{self._ns}.{name}", amount)

    def bump_many(self, counters: Dict[str, int]) -> None:
        self._stats.bump_many(counters)
        self._stats.bump_many({f"{self._ns}.{name}": amount
                               for name, amount in counters.items()})

    def get(self, name: str) -> int:
        """The namespaced value (use the underlying service for totals)."""
        return self._stats.get(f"{self._ns}.{name}")


class StatsService:
    """A named-counter sink with snapshot/delta support.

    Counters are engine-wide; a *session scope* (``with
    stats.session(id):``) additionally mirrors every bump into that
    session's private counter set, so per-session and engine-wide totals
    reconcile exactly: for any counter, the sum over sessions plus the
    out-of-session remainder equals the engine-wide value.

    A scope resolves its session's ``Counter`` once, on entry, and a bump
    inside it is one dict add into that.  Scopes nest (leaving the inner
    one restores the outer mirror), and a session with a live scope stays
    registered: :meth:`reset` and :meth:`drop_session` empty its counters
    in place, so later bumps in the scope are still attributed to it.
    """

    def __init__(self):
        self._counters = Counter()
        #: Session ids of the live scopes, innermost last.
        self._live: List[int] = []
        #: The innermost live scope's counter set (None outside any scope).
        self._mirror: Optional[Counter] = None
        self._per_session: Dict[int, Counter] = {}
        self._namespaces: Dict[str, NamespacedStats] = {}

    def namespace(self, ns: str) -> NamespacedStats:
        """A view whose bumps also mirror under ``<ns>.<counter>``."""
        view = self._namespaces.get(ns)
        if view is None:
            view = self._namespaces[ns] = NamespacedStats(self, ns)
        return view

    @contextmanager
    def session(self, session_id: int):
        """Attribute all bumps inside the block to ``session_id`` too."""
        outer = self._mirror
        mirror = self._per_session.get(session_id)
        if mirror is None:
            mirror = self._per_session[session_id] = Counter()
        self._mirror = mirror
        self._live.append(session_id)
        try:
            yield self
        finally:
            self._live.pop()
            self._mirror = outer

    def bump(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount
        mirror = self._mirror
        if mirror is not None:
            mirror[name] += amount

    def bump_many(self, counters: Dict[str, int]) -> None:
        """Add several counters at once (one call per batch, not per record).

        Set-at-a-time operations account for a whole batch in a single
        update — ``bump_many({"dispatch.inserts": len(batch)})`` — so the
        counter values stay identical to the tuple-at-a-time path while the
        bookkeeping cost stops scaling with the batch size.
        """
        for target in (self._counters, self._mirror):
            if target is not None:
                for name, amount in counters.items():
                    target[name] += amount

    def get(self, name: str) -> int:
        return self._counters[name]

    def session_get(self, session_id: int, name: str) -> int:
        return self._per_session.get(session_id, {}).get(name, 0)

    def session_snapshot(self, session_id: int) -> dict:
        return dict(self._per_session.get(session_id, ()))

    def drop_session(self, session_id: int) -> None:
        """Forget a closed session's counters (engine-wide ones remain);
        a session with a live scope is emptied but stays registered."""
        if session_id in self._live:
            self._per_session[session_id].clear()
        else:
            self._per_session.pop(session_id, None)

    def reset(self) -> None:
        self._counters.clear()
        for session_id in list(self._per_session):
            self.drop_session(session_id)

    def snapshot(self) -> dict:
        return dict(self._counters)

    def delta(self, before: dict) -> dict:
        """Difference between the current counters and a prior snapshot."""
        result = {}
        for name, value in self._counters.items():
            change = value - before.get(name, 0)
            if change:
                result[name] = change
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatsService({inner})"
