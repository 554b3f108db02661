"""Bound-plan dependency tracking and invalidation.

The paper: "A uniform mechanism for recording the dependencies of
execution plans on the relations they use allows the system to invalidate
any plans which depend upon relations or access paths that have been
deleted from the system.  Invalidated execution plans are automatically
re-translated, by the common system, the next time the query is invoked."

Dependency tokens are opaque strings; the DDL layer publishes
``relation:<name>`` and ``attachment:<instance>`` tokens, plans register
against the tokens of every object their translation used, and a drop (or
schema change) invalidates the dependents.  The plan cache then re-plans
lazily on next execution.
"""

from __future__ import annotations

from typing import Dict, Set

__all__ = ["DependencyTracker", "relation_token", "attachment_token"]


def relation_token(name: str) -> str:
    return f"relation:{name.lower()}"


def attachment_token(instance_name: str) -> str:
    return f"attachment:{instance_name.lower()}"


class DependencyTracker:
    """token -> dependents; dependents carry an ``invalidate()`` callback."""

    def __init__(self):
        self._dependents: Dict[str, Set] = {}
        self._registered: Dict[int, Set[str]] = {}  # id(dependent) -> tokens
        self.invalidations = 0

    def register(self, dependent, tokens) -> None:
        """Record that ``dependent`` (anything with ``invalidate()``) relies
        on every token in ``tokens``.

        Re-registering replaces the previous token set (a re-translated
        plan must not stay subscribed to objects it no longer uses).
        """
        if id(dependent) in self._registered:
            self.unregister(dependent)
        token_set = set(tokens)
        self._registered[id(dependent)] = token_set
        for token in token_set:
            self._dependents.setdefault(token, set()).add(dependent)

    def unregister(self, dependent) -> None:
        tokens = self._registered.pop(id(dependent), set())
        for token in tokens:
            group = self._dependents.get(token)
            if group:
                group.discard(dependent)
                if not group:
                    del self._dependents[token]

    def invalidate(self, token: str) -> int:
        """Invalidate every dependent of ``token``; returns how many."""
        dependents = self._dependents.pop(token, set())
        for dependent in list(dependents):
            dependent.invalidate()
            self.unregister(dependent)
        self.invalidations += len(dependents)
        return len(dependents)

    def __repr__(self) -> str:
        return f"DependencyTracker({len(self._dependents)} tracked tokens)"
