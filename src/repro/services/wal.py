"""Write-ahead log manager.

The paper: "The data management extension architecture relies on the use of
a common recovery facility to drive, not only system restart and
transaction abort, but also the *partial rollback* of the actions of the
transaction."

The log is the single coordination point for undo.  Storage methods and
attachments append logical *operation* records tagged with a resource name
(``storage.<method>``, ``attachment.<type>``); recovery later calls the
matching extension handler to undo or redo the operation.
Compensation log records (CLRs) make rollback itself restartable, exactly
as in ARIES-style systems.

The log carries what some reader reads: no BEGIN (a transaction's first
record begins it), no SAVEPOINT (a savepoint is an LSN held in memory), and
END only after an ABORT or a COMMIT marked ``{"end": True}`` (see END below).

Stability is modelled explicitly: :meth:`LogManager.flush` advances the
stable prefix, and a simulated crash discards everything after it.

Checkpointing and truncation: ``CHECKPOINT_BEGIN``/``CHECKPOINT_END``
records bracket a fuzzy checkpoint; the ``master_lsn`` pointer (the analogue
of the master record on stable storage) names the latest *complete*
checkpoint and survives a crash because it is only advanced after the
CHECKPOINT_END record is stable.  :meth:`truncate` reclaims the log prefix
below the checkpoint's redo/undo point; LSN addressing stays stable across
truncation via a base offset, so page LSNs and backchains never need
rewriting.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Callable, Dict, Iterator, List, Optional

from ..errors import RecoveryError

__all__ = ["LogRecord", "LogManager",
           "UPDATE", "CLR", "PREPARE", "COMMIT", "ABORT", "END",
           "CHECKPOINT_BEGIN", "CHECKPOINT_END"]

# Log record kinds.
UPDATE = "UPDATE"          # a logical operation by a storage method/attachment
CLR = "CLR"                # compensation: records one undone operation
PREPARE = "PREPARE"        # 2PC participant vote: carries the global txn id
COMMIT = "COMMIT"          # payload {"end": True}: an END follows
ABORT = "ABORT"
# END follows an ABORT: restart reads ABORT without END as a rollback that
# did not finish.  It follows a COMMIT marked {"end": True}: a standby holds
# the transaction until the records its at-commit work logs are applied.
END = "END"
CHECKPOINT_BEGIN = "CHECKPOINT_BEGIN"  # fuzzy checkpoint opened
CHECKPOINT_END = "CHECKPOINT_END"      # carries the ATT and DPT snapshots

#: Pseudo transaction id used by checkpoint records (no real transaction
#: ever gets id 0; see TransactionManager which starts at 1).
SYSTEM_TXN = 0


class LogRecord:
    """One log record.

    ``prev_lsn`` backchains records of the same transaction.  For ``CLR``
    records, ``undo_next`` points at the next record to undo (the ``prev_lsn``
    of the compensated record), so rollback never undoes an undo.
    """

    __slots__ = ("lsn", "prev_lsn", "txn_id", "kind", "resource", "payload",
                 "undo_next")

    def __init__(self, lsn: int, prev_lsn: int, txn_id: int, kind: str,
                 resource: Optional[str] = None, payload: Optional[dict] = None,
                 undo_next: Optional[int] = None):
        self.lsn = lsn
        self.prev_lsn = prev_lsn
        self.txn_id = txn_id
        self.kind = kind
        self.resource = resource
        self.payload = payload or {}
        self.undo_next = undo_next

    def __repr__(self) -> str:
        extra = f" {self.resource}" if self.resource else ""
        return (f"LogRecord(lsn={self.lsn}, txn={self.txn_id}, "
                f"{self.kind}{extra}, prev={self.prev_lsn})")


class LogManager:
    """Append-only log with an explicitly tracked stable prefix.

    Internally the record list may start at any LSN: ``_base`` counts the
    records reclaimed by :meth:`truncate`, so ``_records[0]`` holds LSN
    ``_base + 1`` and every externally visible LSN is stable forever.
    """

    def __init__(self):
        self._records: List[LogRecord] = []
        self._base = 0               # records reclaimed below oldest_lsn
        self._flushed_lsn = 0
        self._master_lsn = 0         # latest complete CHECKPOINT_BEGIN
        self._last_lsn: Dict[int, int] = {}   # txn_id -> last LSN written
        self._first_lsn: Dict[int, int] = {}  # txn_id -> first LSN written
        # Automatic checkpoint trigger (installed by SystemServices).
        self._checkpoint_interval = 0
        self._checkpoint_callback: Optional[Callable[[], None]] = None
        self._since_checkpoint = 0
        self._in_checkpoint_trigger = False
        #: Optional fault injector (wired by SystemServices).
        self.faults = None

    # -- appending ------------------------------------------------------------
    def append(self, txn_id: int, kind: str, resource: Optional[str] = None,
               payload: Optional[dict] = None,
               undo_next: Optional[int] = None) -> LogRecord:
        if self.faults is not None:
            self.faults.fire("wal.append")
        lsn = self._base + len(self._records) + 1
        prev = self._last_lsn.get(txn_id, 0)
        record = LogRecord(lsn, prev, txn_id, kind, resource, payload, undo_next)
        self._records.append(record)
        self._last_lsn[txn_id] = lsn
        if txn_id not in self._first_lsn:
            self._first_lsn[txn_id] = lsn
        self._maybe_auto_checkpoint()
        return record

    def last_lsn(self, txn_id: int) -> int:
        """The transaction's newest LSN (0: it has logged nothing)."""
        return self._last_lsn.get(txn_id, 0)

    def first_lsn(self, txn_id: int) -> int:
        """The transaction's oldest LSN (its undo horizon; 0 if none)."""
        return self._first_lsn.get(txn_id, 0)

    def highest_txn_id(self) -> int:
        """The highest transaction id with a record in the retained log."""
        return max(self._last_lsn, default=0)

    # -- stability ----------------------------------------------------------------
    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    @property
    def current_lsn(self) -> int:
        return self._base + len(self._records)

    @property
    def oldest_lsn(self) -> int:
        """The first LSN still addressable (everything below was truncated)."""
        return self._base + 1

    @property
    def truncated_records(self) -> int:
        return self._base

    def flush(self, up_to_lsn: Optional[int] = None) -> None:
        """Force the log to stable storage up to ``up_to_lsn`` (or all)."""
        if self.faults is not None:
            self.faults.fire("wal.flush")
        target = self.current_lsn if up_to_lsn is None else min(
            up_to_lsn, self.current_lsn)
        if target > self._flushed_lsn:
            self._flushed_lsn = target

    def lose_unflushed(self) -> int:
        """Simulate a crash: records after the stable prefix are lost.

        Returns the number of records dropped.  Per-transaction chains are
        rebuilt from the surviving records.  The master checkpoint pointer
        survives (it is only ever advanced after the checkpoint records are
        stable).
        """
        lost = self.current_lsn - self._flushed_lsn
        if lost > 0:
            del self._records[self._flushed_lsn - self._base:]
        else:
            lost = 0
        self._last_lsn = {}
        self._first_lsn = {}
        for record in self._records:
            self._last_lsn[record.txn_id] = record.lsn
            if record.txn_id not in self._first_lsn:
                self._first_lsn[record.txn_id] = record.lsn
        if self._master_lsn > self._flushed_lsn:
            self._master_lsn = 0  # incomplete checkpoint never becomes master
        return lost

    # -- checkpointing --------------------------------------------------------
    @property
    def master_lsn(self) -> int:
        """LSN of the latest complete checkpoint's CHECKPOINT_BEGIN (0: none)."""
        return self._master_lsn

    def set_master(self, lsn: int) -> None:
        """Advance the master checkpoint pointer (checkpoint must be stable)."""
        if lsn > self._flushed_lsn:
            raise RecoveryError(
                f"master checkpoint LSN {lsn} is beyond the stable prefix "
                f"({self._flushed_lsn}) — flush the checkpoint records first")
        self._master_lsn = lsn
        self._since_checkpoint = 0

    def truncate(self, before_lsn: int) -> int:
        """Reclaim records with LSN < ``before_lsn``; returns count dropped.

        Only the stable prefix is ever reclaimed, and LSN addressing stays
        valid: later records keep their LSNs, and looking up a reclaimed
        LSN raises.  Callers are responsible for passing a bound at or
        below the checkpoint's redo/undo point (``SystemServices.
        checkpoint(truncate=True)`` computes the safe bound).
        """
        target = min(before_lsn, self._flushed_lsn + 1)
        drop = target - self._base - 1
        if drop <= 0:
            return 0
        del self._records[:drop]
        self._base += drop
        return drop

    def set_checkpoint_trigger(self, interval: int,
                               callback: Optional[Callable[[], None]]) -> None:
        """Run ``callback`` after every ``interval`` appended records.

        ``interval <= 0`` disables the trigger.  The callback (a fuzzy
        checkpoint — it must not flush data pages) may itself append
        records; reentrant triggering is suppressed.  Completing any
        checkpoint (:meth:`set_master`) restarts the countdown.
        """
        self._checkpoint_interval = interval
        self._checkpoint_callback = callback if interval > 0 else None
        self._since_checkpoint = 0

    def _maybe_auto_checkpoint(self) -> None:
        self._since_checkpoint += 1
        if (self._checkpoint_callback is None
                or self._in_checkpoint_trigger
                or self._since_checkpoint < self._checkpoint_interval):
            return
        self._in_checkpoint_trigger = True
        try:
            self._checkpoint_callback()
        finally:
            self._in_checkpoint_trigger = False

    # -- replication ------------------------------------------------------------------
    def ship_since(self, after_lsn: int,
                   up_to: Optional[int] = None) -> List[dict]:
        """Serialize records with ``after_lsn < lsn <= up_to`` for shipping.

        Returns plain wire dicts (payloads deep-copied: what crosses the
        channel is a serialization, never a shared object).  ``up_to``
        defaults to the whole log; replication callers pass the stable
        prefix (``flushed_lsn``) so a standby never holds records its
        primary could still lose.  Raises :class:`RecoveryError` when
        ``after_lsn`` falls below the truncation horizon — the standby has
        fallen off the retained log and must be rebuilt.
        """
        if after_lsn + 1 < self.oldest_lsn:
            raise RecoveryError(
                f"cannot ship from LSN {after_lsn + 1}: the log was "
                f"truncated (oldest retained LSN is {self.oldest_lsn}); "
                f"the standby needs a full rebuild")
        top = self.current_lsn if up_to is None else min(up_to,
                                                         self.current_lsn)
        wire = []
        for record in self.forward(after_lsn + 1):
            if record.lsn > top:
                break
            wire.append({"lsn": record.lsn, "prev_lsn": record.prev_lsn,
                         "txn_id": record.txn_id, "kind": record.kind,
                         "resource": record.resource,
                         "payload": deepcopy(record.payload),
                         "undo_next": record.undo_next})
        return wire

    def append_replicated(self, wire: dict) -> bool:
        """Append one shipped record at its original LSN.

        Returns False for a duplicate (at-least-once delivery: a lost ack
        makes the primary re-ship records the standby already holds) and
        raises :class:`RecoveryError` on a gap — a standby must never hold
        a log with holes, or redo from it would silently skip effects.
        Bypasses fault points and the auto-checkpoint trigger: the append
        is the standby's half of a ship, not a local operation.
        """
        lsn = wire["lsn"]
        if lsn <= self.current_lsn:
            return False
        if lsn != self.current_lsn + 1:
            raise RecoveryError(
                f"replication gap: expected LSN {self.current_lsn + 1}, "
                f"got {lsn}")
        record = LogRecord(lsn, wire["prev_lsn"], wire["txn_id"],
                           wire["kind"], wire.get("resource"),
                           wire.get("payload"), wire.get("undo_next"))
        self._records.append(record)
        self._last_lsn[record.txn_id] = lsn
        if record.txn_id not in self._first_lsn:
            self._first_lsn[record.txn_id] = lsn
        return True

    # -- reading ----------------------------------------------------------------------
    def record(self, lsn: int) -> LogRecord:
        if lsn <= self._base:
            if 1 <= lsn:
                raise RecoveryError(
                    f"log record {lsn} was reclaimed by truncation "
                    f"(oldest retained LSN is {self.oldest_lsn})")
            raise RecoveryError(f"no log record with LSN {lsn}")
        if lsn > self.current_lsn:
            raise RecoveryError(f"no log record with LSN {lsn}")
        return self._records[lsn - self._base - 1]

    def forward(self, from_lsn: Optional[int] = None) -> Iterator[LogRecord]:
        """Iterate records in LSN order starting at ``from_lsn``.

        Starts at the oldest retained record when ``from_lsn`` is omitted
        or below the truncation horizon.
        """
        start = self.oldest_lsn if from_lsn is None else max(
            from_lsn, self.oldest_lsn)
        for i in range(start - self._base - 1, len(self._records)):
            yield self._records[i]

    def transaction_chain(self, txn_id: int) -> Iterator[LogRecord]:
        """Walk one transaction's records newest-first via the backchain."""
        lsn = self._last_lsn.get(txn_id, 0)
        while lsn:
            record = self.record(lsn)
            yield record
            lsn = record.prev_lsn

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (f"LogManager({len(self._records)} records, "
                f"flushed={self._flushed_lsn}, master={self._master_lsn})")
