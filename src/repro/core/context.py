"""Execution context passed through every generic operation.

Extensions never reach for globals: each direct or indirect generic
operation receives an :class:`ExecutionContext` carrying the transaction,
the common services bundle, and the owning database (attachments use the
latter to access *other* relations — e.g. referential integrity acting on a
child relation, the paper's cascaded-modification example).
"""

from __future__ import annotations

from typing import Hashable

from ..services import SystemServices
from ..services.locks import LOCK_ESCALATION_THRESHOLD, LockMode, join_modes
from ..services.transactions import Transaction
from ..services.wal import LogRecord

__all__ = ["ExecutionContext"]

#: The intent a record lock of each mode takes on its relation.
_INTENT = {mode: LockMode.IX if mode in (LockMode.X, LockMode.IX)
           else LockMode.IS for mode in LockMode}


class ExecutionContext:
    """Per-operation bundle: transaction + services + database."""

    __slots__ = ("txn", "services", "database", "read_report")

    def __init__(self, txn: Transaction, services: SystemServices,
                 database=None):
        self.txn = txn
        self.services = services
        self.database = database
        #: Structured outcome of the last degraded-capable read through
        #: this context (set by storage methods that can serve partial or
        #: stale results — see the sharded method), or None.
        self.read_report = None

    # -- convenience passthroughs used by every extension ----------------------
    @property
    def txn_id(self) -> int:
        return self.txn.txn_id

    @property
    def buffer(self):
        return self.services.buffer

    @property
    def stats(self):
        return self.services.stats

    def log(self, resource: str, payload: dict) -> LogRecord:
        """Append a logical operation record for a recoverable extension."""
        return self.services.recovery.log_update(self.txn_id, resource, payload)

    def lock(self, resource: Hashable, mode: LockMode) -> None:
        """Acquire a lock — unless this is a snapshot reader.

        Snapshot transactions resolve reads against their snapshot at the
        scan boundary, so locks buy them nothing: every lock request is
        skipped (counted under ``mvcc.lock_bypasses``) and the reader can
        neither block nor be blocked by writers.  Modifications by a
        snapshot transaction are rejected long before this point.
        """
        if self.txn.snapshot is not None:
            self.services.stats.bump("mvcc.lock_bypasses")
            return
        self.services.locks.acquire(self.txn_id, resource, mode)

    def lock_relation(self, relation_id: int, mode: LockMode) -> None:
        """Relation lock, unless the transaction holds it in ``mode``."""
        relation = ("rel", relation_id)
        if self.services.locks.held_mode(self.txn.txn_id, relation) != mode:
            self.lock(relation, mode)

    def lock_record(self, relation_id: int, key, mode: LockMode) -> None:
        """Record lock under the usual IS/IX intent on the relation: the
        batch of one of :meth:`lock_records`."""
        self.lock_records(relation_id, (key,), mode)

    def lock_records(self, relation_id: int, keys, mode: LockMode) -> None:
        """Record locks under the usual IS/IX intent on the relation, a
        page's worth of keys at once: one ``covers`` check, the intent
        lock (unless the held mode includes it: IX and SIX include IS, SIX
        includes IX), one ``acquire_many``.  Skipped entirely when the
        transaction already holds a relation-level lock that subsumes
        ``mode`` (set-at-a-time operations escalate large batches to one
        relation lock instead of record-at-a-time locking).

        A read asks only for keys it does not hold (a record is locked S
        or X, either serves it).  If they would bring its record reads of
        the relation to ``LOCK_ESCALATION_THRESHOLD``, it first *tries*
        for relation S, which covers them and every later batch; another
        transaction's IX/SIX/X refuses it, and the batch locks records.
        """
        if not keys:
            return
        if self.txn.snapshot is not None:  # each key bypasses intent + record
            self.services.stats.bump("mvcc.lock_bypasses", 2 * len(keys))
            return
        locks, txn_id = self.services.locks, self.txn.txn_id
        relation = ("rel", relation_id)
        held = locks.held_mode(txn_id, relation)
        if held is not None and locks.covers(txn_id, relation, mode):
            return
        records = [("rec", relation_id, key) for key in keys]
        if mode is LockMode.S:
            records = locks.unheld(txn_id, records)
            if not records:
                return
            reads = self.txn.record_reads
            reads[relation_id] = total = reads.get(relation_id, 0) \
                + len(records)
            if total >= LOCK_ESCALATION_THRESHOLD \
                    and locks.try_acquire(txn_id, relation, LockMode.S):
                self.services.stats.bump("locks.read_escalations")
                return
        intent = _INTENT[mode]
        if held is None or join_modes(held, intent) is not held:
            locks.acquire(txn_id, relation, intent)
        locks.acquire_many(txn_id, records, mode)

    def defer(self, event: str, callback, data=None) -> None:
        self.services.events.defer(self.txn_id, event, callback, data)
