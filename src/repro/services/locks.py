"""Lock-based concurrency control.

The paper: "The data management extension architecture assumes that all
storage method and attachment implementations will use a locking-based
concurrency controller ... all lock controllers must be able to participate
in transaction commit and system-wide deadlock detection events."

The lock manager supports hierarchical modes (IS/IX/S/SIX/X) over arbitrary
hashable resource names (conventionally ``("rel", rel_id)`` and
``("rec", rel_id, key)``), lock upgrades, and deadlock detection over an
explicit waits-for graph.

The library is deterministic and single-threaded, so a conflicting request
never blocks: it registers a wait edge (replacing any previous wait — a
transaction waits for one request at a time), runs cycle detection, and
raises either :class:`DeadlockError` (carrying the normalised cycle and a
deterministically chosen victim, the youngest participant) or
:class:`LockConflictError` (the caller may retry once the holder finishes).
Wait edges are cleared when the waiter retries successfully, releases its
locks, or cancels the wait.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..errors import DeadlockError, LockConflictError, LockError
from .stats import StatsService

__all__ = ["LockMode", "LockManager", "LOCK_ESCALATION_THRESHOLD"]

#: Record locks a transaction would take on one relation before it takes
#: one relation-level lock instead, decided before a batch is locked:
#: writers escalate a batch at least this large to X (``core.dispatch``),
#: readers try for S before the batch that would bring their record reads
#: to this many (``ExecutionContext.lock_records``).
LOCK_ESCALATION_THRESHOLD = 64


class LockMode(enum.IntEnum):
    """Hierarchical lock modes, weakest to strongest."""

    IS = 1
    IX = 2
    S = 3
    SIX = 4
    X = 5


_M = LockMode
#: Classic compatibility matrix for hierarchical locking.
_COMPATIBLE: Dict[Tuple[LockMode, LockMode], bool] = {}
for _a, _row in [
    (_M.IS, {_M.IS: True, _M.IX: True, _M.S: True, _M.SIX: True, _M.X: False}),
    (_M.IX, {_M.IS: True, _M.IX: True, _M.S: False, _M.SIX: False, _M.X: False}),
    (_M.S, {_M.IS: True, _M.IX: False, _M.S: True, _M.SIX: False, _M.X: False}),
    (_M.SIX, {_M.IS: True, _M.IX: False, _M.S: False, _M.SIX: False, _M.X: False}),
    (_M.X, {_M.IS: False, _M.IX: False, _M.S: False, _M.SIX: False, _M.X: False}),
]:
    for _b, _ok in _row.items():
        _COMPATIBLE[(_a, _b)] = _ok

#: Mode join: the weakest mode at least as strong as both (for upgrades).
_JOIN: Dict[Tuple[LockMode, LockMode], LockMode] = {}
for _a in _M:
    for _b in _M:
        if _a == _b:
            _JOIN[(_a, _b)] = _a
        elif {_a, _b} == {_M.IS, _M.IX}:
            _JOIN[(_a, _b)] = _M.IX
        elif {_a, _b} == {_M.IS, _M.S}:
            _JOIN[(_a, _b)] = _M.S
        elif {_a, _b} == {_M.IS, _M.SIX} or {_a, _b} == {_M.IX, _M.S} \
                or {_a, _b} == {_M.IX, _M.SIX} or {_a, _b} == {_M.S, _M.SIX}:
            _JOIN[(_a, _b)] = _M.SIX
        else:
            _JOIN[(_a, _b)] = _M.X


#: The holders of a resource nobody locks (never stored, never changed).
_NO_HOLDERS: Dict[int, LockMode] = {}


def compatible(a: LockMode, b: LockMode) -> bool:
    return _COMPATIBLE[(a, b)]


def join_modes(a: LockMode, b: LockMode) -> LockMode:
    return _JOIN[(a, b)]


class LockManager:
    """Grants, upgrades, releases, and deadlock detection."""

    def __init__(self, stats=None):
        self.stats = stats if stats is not None else StatsService()
        # resource -> {txn_id: mode}
        self._holders: Dict[Hashable, Dict[int, LockMode]] = {}
        # txn_id -> set of resources held
        self._held: Dict[int, Set[Hashable]] = {}
        # waits-for graph: waiter txn -> set of holder txns
        self._waits_for: Dict[int, Set[int]] = {}

    # -- acquisition ------------------------------------------------------------
    def acquire(self, txn_id: int, resource: Hashable, mode: LockMode) -> LockMode:
        """Grant ``mode`` (or an upgrade) on ``resource`` to ``txn_id``.

        Returns the mode now held.  Raises :class:`DeadlockError` when the
        implied wait closes a cycle, :class:`LockConflictError` otherwise.
        """
        self.stats.bump("locks.acquire_calls")
        return self._grant(txn_id, resource, mode)

    def acquire_many(self, txn_id: int, resources, mode: LockMode) -> int:
        """:meth:`acquire` each resource in order under one counter bump.

        A conflict on the k-th resource raises what ``acquire`` would
        raise for it, with the resources before it still held.  Returns
        how many locks the transaction did not hold before.
        """
        self.stats.bump("locks.acquire_calls", len(resources))
        held = self._held.setdefault(txn_id, set())
        before = len(held)
        for resource in resources:
            self._grant(txn_id, resource, mode)
        return len(held) - before

    def try_acquire(self, txn_id: int, resource: Hashable,
                    mode: LockMode) -> bool:
        """:meth:`acquire` without the wait: a conflicting request is
        refused — no wait edge, no exception — and False returned."""
        self.stats.bump("locks.acquire_calls")
        return self._grant(txn_id, resource, mode, wait=False) is not None

    def _grant(self, txn_id: int, resource: Hashable, mode: LockMode,
               wait: bool = True) -> Optional[LockMode]:
        holders = self._holders.setdefault(resource, {})
        current = holders.get(txn_id)
        wanted = mode if current is None else join_modes(current, mode)
        if current is not None and wanted == current:
            return current  # already strong enough
        blockers = {t for t, m in holders.items()
                    if t != txn_id and not compatible(wanted, m)}
        if blockers:
            if not wait:
                return None
            # A transaction waits for exactly one request at a time, so a
            # new conflict *replaces* the wait edges — accumulating edges
            # from earlier retries on other resources manufactured
            # phantom cycles out of waits that no longer existed.
            self._waits_for[txn_id] = set(blockers)
            cycle = self._find_cycle(txn_id)
            if cycle:
                self.cancel_wait(txn_id)
                self.stats.bump("locks.deadlocks_detected")
                raise DeadlockError(self._normalize_cycle(cycle))
            raise LockConflictError(resource, wanted, blockers)
        holders[txn_id] = wanted
        self._held.setdefault(txn_id, set()).add(resource)
        self.cancel_wait(txn_id)
        return wanted

    def cancel_wait(self, txn_id: int) -> None:
        """Withdraw any registered wait for the transaction."""
        self._waits_for.pop(txn_id, None)

    def unheld(self, txn_id: int, resources) -> list:
        """The ``resources`` the transaction holds no lock on, in order."""
        held = self._held.get(txn_id, ())
        return [resource for resource in resources if resource not in held]

    def covers(self, txn_id: int, resource: Hashable, mode: LockMode) -> bool:
        """Whether the lock held on ``resource`` already subsumes ``mode``
        for every child of the resource in the lock hierarchy.

        Used for lock escalation: a transaction holding a relation-level X
        lock (or S/SIX for reads) need not lock each record individually.
        This is a read-only check, not an acquisition.
        """
        held = self._holders.get(resource, {}).get(txn_id)
        if held is None:
            return False
        if held == LockMode.X:
            return True
        return mode == LockMode.S and held in (LockMode.S, LockMode.SIX)

    # -- release ------------------------------------------------------------------
    def release(self, txn_id: int, resource: Hashable) -> None:
        holders = self._holders.get(resource)
        if not holders or txn_id not in holders:
            raise LockError(f"transaction {txn_id} holds no lock on {resource!r}")
        del holders[txn_id]
        if not holders:
            del self._holders[resource]
        held = self._held.get(txn_id)
        if held:
            held.discard(resource)
        self._unblock(txn_id)

    def release_all(self, txn_id: int) -> int:
        """Release every lock the transaction holds (commit/abort time)."""
        resources = self._held.pop(txn_id, set())
        for resource in resources:
            holders = self._holders.get(resource)
            if holders:
                holders.pop(txn_id, None)
                if not holders:
                    del self._holders[resource]
        self.cancel_wait(txn_id)
        self._unblock(txn_id)
        return len(resources)

    def _unblock(self, released_txn: int) -> None:
        for waiter in list(self._waits_for):
            self._waits_for[waiter].discard(released_txn)
            if not self._waits_for[waiter]:
                del self._waits_for[waiter]

    def reset(self) -> None:
        """Forget every lock and wait (restart: lock state is volatile)."""
        self._holders.clear()
        self._held.clear()
        self._waits_for.clear()

    # -- introspection -----------------------------------------------------------------
    def held_mode(self, txn_id: int, resource: Hashable) -> Optional[LockMode]:
        return self._holders.get(resource, _NO_HOLDERS).get(txn_id)

    def holders(self, resource: Hashable) -> Dict[int, LockMode]:
        return dict(self._holders.get(resource, {}))

    def locks_held(self, txn_id: int) -> FrozenSet[Hashable]:
        return frozenset(self._held.get(txn_id, set()))

    def waits_for(self) -> Dict[int, FrozenSet[int]]:
        return {w: frozenset(hs) for w, hs in self._waits_for.items()}

    # -- deadlock detection ---------------------------------------------------------------
    @staticmethod
    def _normalize_cycle(cycle: List[int]) -> List[int]:
        """Canonical form of a waits-for cycle.

        ``_find_cycle`` returns ``[a, b, ..., a]`` starting wherever the
        DFS happened to close the loop; the same deadlock must always
        report the same cycle (and hence the same deterministic victim),
        so drop the duplicated endpoint and rotate the smallest
        transaction id to the front.
        """
        nodes = cycle[:-1] if len(cycle) > 1 and cycle[0] == cycle[-1] else cycle
        pivot = nodes.index(min(nodes))
        return nodes[pivot:] + nodes[:pivot]

    def _find_cycle(self, start: int) -> Optional[List[int]]:
        """Depth-first search for a cycle through ``start`` in waits-for."""
        path: List[int] = []
        visited: Set[int] = set()

        def visit(node: int) -> Optional[List[int]]:
            if node in path:
                return path[path.index(node):] + [node]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            for succ in self._waits_for.get(node, ()):
                found = visit(succ)
                if found:
                    return found
            path.pop()
            return None

        return visit(start)

    def __repr__(self) -> str:
        return (f"LockManager({len(self._holders)} locked resources, "
                f"{len(self._waits_for)} waiters)")
