"""Event notification and deferred-action queues.

The paper defines several notification needs that the common services must
provide:

* attachments can queue **deferred actions** to run "before the transaction
  enters the prepared state" (deferred integrity constraints) or at commit
  (deferred destroy of dropped relations and access paths);
* storage methods and attachments that opened key-sequential accesses must
  be told at **end of transaction** so they can close their scans;
* savepoint establishment and partial rollback must be broadcast so scan
  positions can be captured and restored (their changes are not logged).

An entry on a deferred-action queue "would contain the address of the
attachment routine that should be invoked ... and a pointer to the data" —
here, a Python callable plus an opaque data object.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..errors import UnknownEventError

__all__ = ["EventService",
           "BEFORE_PREPARE", "AT_COMMIT", "AT_ABORT", "AT_END",
           "SAVEPOINT_SET", "SAVEPOINT_ROLLBACK"]

# Transaction-scoped events.
BEFORE_PREPARE = "before_prepare"
AT_COMMIT = "at_commit"
AT_ABORT = "at_abort"
AT_END = "at_end"                    # fires after commit or abort
SAVEPOINT_SET = "savepoint_set"
SAVEPOINT_ROLLBACK = "savepoint_rollback"

_EVENTS = frozenset({BEFORE_PREPARE, AT_COMMIT, AT_ABORT, AT_END,
                     SAVEPOINT_SET, SAVEPOINT_ROLLBACK})


class EventService:
    """Per-transaction deferred-action queues plus global subscriptions."""

    def __init__(self):
        # (txn_id, event) -> list of (callback, data)
        self._queues: Dict[Tuple[int, str], List[Tuple[Callable, object]]] = {}
        # event -> list of callbacks fired for every transaction
        self._subscribers: Dict[str, List[Callable]] = {}

    # -- deferred actions (per transaction) ------------------------------------
    def defer(self, txn_id: int, event: str, callback: Callable,
              data=None) -> None:
        """Queue ``callback(txn_id, data)`` to run when ``event`` fires."""
        self._check(event)
        self._queues.setdefault((txn_id, event), []).append((callback, data))

    def pending(self, txn_id: int, event: str) -> int:
        self._check(event)
        return len(self._queues.get((txn_id, event), []))

    def fire(self, txn_id: int, event: str, **info) -> None:
        """Run the deferred queue for (txn, event), then global subscribers.

        Deferred actions run in queue order and are consumed.  Actions may
        queue further actions for the same event (e.g. a deferred constraint
        whose repair triggers another deferral); those run in the same firing.
        A callback that raises stops processing and propagates — commit-time
        callers treat that as a veto and abort the transaction.
        """
        self._check(event)
        key = (txn_id, event)
        try:
            while self._queues.get(key):
                callback, data = self._queues[key].pop(0)
                callback(txn_id, data)
        finally:
            # On both success and veto the queue must not leak into a later
            # transaction with the same id.
            self._queues.pop(key, None)
        for callback in self._subscribers.get(event, []):
            callback(txn_id, info)

    def discard(self, txn_id: int) -> None:
        """Drop every queue for a transaction (after abort)."""
        for key in [k for k in self._queues if k[0] == txn_id]:
            del self._queues[key]

    # -- global subscriptions ---------------------------------------------------
    def subscribe(self, event: str, callback: Callable) -> None:
        """Register ``callback(txn_id, info)`` for every firing of ``event``."""
        self._check(event)
        self._subscribers.setdefault(event, []).append(callback)

    def _check(self, event: str) -> None:
        if event not in _EVENTS:
            raise UnknownEventError(event, _EVENTS)
