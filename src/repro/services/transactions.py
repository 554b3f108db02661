"""Transaction management: begin/commit/abort, savepoints, prepared state.

Coordinates the common services on the paper's transaction events:

* **commit** — drain the "before the transaction enters the prepared state"
  deferred-action queue (deferred integrity constraints may veto here and
  abort the transaction), enter PREPARED, force the log through the COMMIT
  record, run at-commit deferred actions (e.g. the deferred release of
  dropped relation storage), release all locks, and notify end-of-
  transaction listeners (the scan service closes open scans).
* **abort** — drive the log-based rollback of every operation, then release
  locks and notify listeners.
* **savepoints** — remember the end of log, let the scan service capture
  key-sequential positions (their changes are not logged), and on partial
  rollback drive the undo back to that LSN and restore positions.

A transaction exists in the log from its first record: a writer logs its
operations and COMMIT (then END if at-commit work logged after it), an
abort ends ABORT, CLRs, END, and a transaction that logged nothing — a
locking reader — commits or aborts without appending or forcing anything.
It still fires every event, releases its locks and has its scans closed;
to restart, checkpoints and log shipping it never was.

Group commit: with ``group_commit_limit`` set, commits *enqueue* their
COMMIT record instead of forcing the log one transaction at a time; one
flush (:meth:`TransactionManager.commit_group`, or the automatic flush
when the queue reaches the limit) stabilizes the whole batch.  Until that
flush, the enqueued commits are not yet durable — a crash loses them and
restart rolls them back — which is the standard deferred-durability
window group commit trades for an N-fold reduction in log forces.
Transactions with at-commit deferred actions (e.g. the deferred release
of dropped storage) never join a group: their commit must be durable
before the externalized release runs.

Multi-version reads: ``begin(snapshot=True)`` starts a read-only
transaction under snapshot isolation.  It captures a :class:`Snapshot`
(the current end of log + the set of then-active writers) and resolves
every read at the scan boundary by patching current storage state with
the undo images writers produce anyway (:class:`VersionStore`).  A
record version is visible iff its writer's COMMIT record LSN is at or
below the snapshot LSN.  Snapshot readers take no locks and write no
log records — they neither block nor are blocked by the lock-based
writer/serializable mode, which is unchanged.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional

from ..errors import (ReadOnlyTransactionError, SnapshotError,
                      TransactionError)
from . import events as ev
from . import wal as wal_records
from .events import EventService
from .locks import LockManager, LockMode
from .recovery import RecoveryManager
from .scans import ABSENT, ScanService
from .stats import StatsService
from .wal import LogManager

__all__ = ["TxnState", "Transaction", "TransactionManager",
           "Snapshot", "VersionStore", "ABSENT"]


class Snapshot:
    """A consistent read point: begin LSN + the then-active writer set.

    Visibility is decided purely from commit LSNs (see
    :meth:`TransactionManager.snapshot_patch`): the active set is carried
    for introspection and diagnostics — any member that later commits
    necessarily does so above ``lsn``, so the LSN rule subsumes it.
    """

    __slots__ = ("snapshot_id", "lsn", "active_ids", "owner_txn_id",
                 "invalidated", "patches", "images")

    def __init__(self, snapshot_id: int, lsn: int,
                 active_ids: FrozenSet[int], owner_txn_id: int):
        self.snapshot_id = snapshot_id
        self.lsn = lsn
        self.active_ids = active_ids
        self.owner_txn_id = owner_txn_id
        #: Set at restart: undo images are volatile, so a snapshot taken
        #: before a crash cannot reconstruct its read point afterwards.
        self.invalidated = False
        #: relation id -> (store epoch, transitions consumed, patch): the
        #: memo :meth:`VersionStore.patch` keeps, which dies with this.
        self.patches: Dict[int, tuple] = {}
        #: relation id -> the index of that patch's images the dispatch
        #: layer builds with each new version of the memo above.
        self.images: Dict[int, object] = {}

    def check_valid(self) -> None:
        if self.invalidated:
            raise SnapshotError(
                f"snapshot {self.snapshot_id} (LSN {self.lsn}) spanned a "
                f"restart and can no longer serve reads")

    def __repr__(self) -> str:
        return (f"Snapshot(id={self.snapshot_id}, lsn={self.lsn}, "
                f"active={sorted(self.active_ids)})")


class _Version:
    """One record transition: ``before`` is the undo image (ABSENT for an
    insert), tagged with the writing transaction and its log LSN."""

    __slots__ = ("lsn", "txn_id", "key", "before", "cancelled")

    def __init__(self, lsn: int, txn_id: int, key, before):
        self.lsn = lsn
        self.txn_id = txn_id
        self.key = key
        self.before = before
        self.cancelled = False


class VersionStore:
    """In-memory index over the WAL's undo images, keyed by relation.

    The store is volatile by design — it only has to cover the window a
    live snapshot can see, which never spans a restart.  Entries are
    cancelled (not removed) when a rollback undoes their operations —
    mirroring the CLR chain — and reclaimed once no live or future
    snapshot could need them.
    """

    def __init__(self, stats=None):
        self.stats = stats if stats is not None else StatsService()
        self._by_relation: Dict[int, List[_Version]] = {}
        self._by_txn: Dict[int, List[_Version]] = {}
        #: Moves whenever a noted transition is cancelled or dropped —
        #: the events that can change a patch other than by appending.
        self.epoch = 0

    def note(self, lsn: int, txn_id: int, relation_id: int,
             transitions) -> None:
        """Record ``(key, before_image)`` transitions for one operation."""
        relation_entries = self._by_relation.setdefault(relation_id, [])
        txn_entries = self._by_txn.setdefault(txn_id, [])
        count = 0
        for key, before in transitions:
            entry = _Version(lsn, txn_id, key, before)
            relation_entries.append(entry)
            txn_entries.append(entry)
            count += 1
        if count:
            self.stats.bump("mvcc.versions_noted", count)

    def cancel(self, txn_id: int, above_lsn: int) -> int:
        """Cancel the transaction's transitions with LSN > ``above_lsn``.

        A partial rollback to a savepoint (or a total rollback with
        ``above_lsn=0``) physically restores the before-images, so the
        cancelled transitions never happened as far as any snapshot is
        concerned.  Returns how many transitions were cancelled.
        """
        cancelled = 0
        for entry in self._by_txn.get(txn_id, ()):
            if entry.lsn > above_lsn and not entry.cancelled:
                entry.cancelled = True
                cancelled += 1
        if cancelled:
            self.epoch += 1
        return cancelled

    def patch(self, snapshot: Snapshot, relation_id: int,
              commit_lsns: Dict[int, int]) -> dict:
        """The rewind patch for one relation under ``snapshot``.

        Returns ``{record_key: snapshot_image}`` where the image is the
        record as the snapshot must see it, or :data:`ABSENT` when the
        snapshot must not see the key at all.  Keys absent from the patch
        are read as-is from current storage.

        Walks the relation's transitions newest-first.  Per key, the
        invisible transitions always form a suffix of the key's history
        (writers serialize on record X locks, so a key's writers commit
        in LSN order); the walk keeps overwriting a key's patch with
        ever-older before-images until it meets a visible transition,
        which finalises the key.

        The walk happens once per (snapshot, relation): the result is
        memoised on the snapshot.  A transition noted after that is
        invisible to the snapshot and newer than everything walked, so a
        later call only extends the memo from the tail of the list (the
        first before-image of a key wins); the walk is repeated when
        :attr:`epoch` has moved.  Callers must not mutate the result.
        """
        entries = self._by_relation.get(relation_id, ())
        memo = snapshot.patches.get(relation_id)
        if memo is not None and memo[0] == self.epoch:
            patch = memo[2]
            if memo[1] == len(entries):
                return patch
            for entry in entries[memo[1]:]:
                patch.setdefault(entry.key, entry.before)
        else:
            patch = {}
            final = set()
            lsn_bound = snapshot.lsn
            for entry in reversed(entries):
                if entry.cancelled:
                    continue
                key = entry.key
                if key in final:
                    continue
                commit_lsn = commit_lsns.get(entry.txn_id)
                if commit_lsn is not None and commit_lsn <= lsn_bound:
                    # Visible: this transition's after-state is what the
                    # snapshot sees.  If newer invisible transitions put a
                    # before-image in the patch, that image *is* this
                    # after-state — keep it; either way the key is decided.
                    final.add(key)
                    continue
                patch[key] = entry.before
        snapshot.patches[relation_id] = (self.epoch, len(entries), patch)
        return patch

    def reclaim(self, commit_lsns: Dict[int, int], active_txn_ids,
                min_snapshot_lsn: Optional[int]) -> int:
        """Drop entries no live (or future) snapshot could need.

        An entry survives if its writer is still active (a future
        snapshot will carry it in its active set and need the undo
        image), or committed above the oldest live snapshot's LSN.
        Cancelled entries and entries of settled transactions below the
        horizon are reclaimed.  Returns how many entries were dropped.
        """
        active = set(active_txn_ids)

        def needed(entry: _Version) -> bool:
            if entry.cancelled:
                return False
            if entry.txn_id in active:
                return True
            commit_lsn = commit_lsns.get(entry.txn_id)
            if commit_lsn is None:
                return False  # aborted: transitions already cancelled
            return (min_snapshot_lsn is not None
                    and commit_lsn > min_snapshot_lsn)

        dropped = 0
        for relation_id in list(self._by_relation):
            entries = self._by_relation[relation_id]
            kept = [e for e in entries if needed(e)]
            dropped += len(entries) - len(kept)
            if kept:
                self._by_relation[relation_id] = kept
            else:
                del self._by_relation[relation_id]
        for txn_id in list(self._by_txn):
            kept = [e for e in self._by_txn[txn_id] if needed(e)]
            if kept:
                self._by_txn[txn_id] = kept
            else:
                del self._by_txn[txn_id]
        if dropped:
            self.epoch += 1
            self.stats.bump("mvcc.versions_reclaimed", dropped)
        return dropped

    def clear(self) -> None:
        """Forget everything (restart: undo images are volatile)."""
        self._by_relation.clear()
        self._by_txn.clear()
        self.epoch += 1

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_relation.values())


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A transaction handle.  All state changes go through the manager."""

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        #: Global transaction id when this transaction is a two-phase-
        #: commit participant: set by :meth:`TransactionManager.prepare`,
        #: durable in the PREPARE record, and how a remote coordinator
        #: addresses the transaction after a restart.
        self.gtid: Optional[str] = None
        #: Set for read-only (snapshot-isolated) transactions: the
        #: consistent read point every read resolves against.  Writers
        #: (the lock-based serializable mode) leave it ``None``.
        self.snapshot: Optional[Snapshot] = None
        self.savepoints: Dict[str, int] = {}     # name -> end of log when set
        self._savepoint_order: list = []
        #: Per-transaction modification-operation sequence.  The dispatch
        #: layer derives operation-savepoint names from (txn id, this
        #: counter), so nested and cascaded operations in the same
        #: transaction get unique names without any global state.
        self.op_seq = 0
        #: relation id -> records a read asked to S-lock a batch at a time
        #: through ``ExecutionContext.lock_records`` (the escalation count).
        self.record_reads: Dict[int, int] = {}

    @property
    def active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def settled(self) -> bool:
        """Whether the outcome is decided (committed or aborted).

        A transaction that failed *between* states — e.g. a log-flush
        error during commit left it PREPARED — is not settled and must be
        resolved (aborted) by whoever observes the failure, or its applied
        changes and held locks leak past the error.
        """
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)

    def check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active")

    def __repr__(self) -> str:
        return f"Transaction(id={self.txn_id}, {self.state.value})"


class TransactionManager:
    """Owns transaction identity and the commit/abort/savepoint protocols."""

    def __init__(self, wal: LogManager, recovery: RecoveryManager,
                 locks: LockManager, events: EventService,
                 scans: Optional[ScanService] = None, stats=None):
        self.wal = wal
        self.recovery = recovery
        self.locks = locks
        self.events = events
        self.scans = scans
        self.stats = stats if stats is not None else StatsService()
        self._next_id = 1
        self._active: Dict[int, Transaction] = {}
        #: Two-phase commit: gtid -> prepared (or enlisted) transaction,
        #: so a remote coordinator can address participants by global id.
        self._by_gtid: Dict[str, Transaction] = {}
        #: Heuristic decisions: gtid -> txn_id for in-doubt PREPARED
        #: participants this database unilaterally aborted (orderly
        #: shutdown with the coordinator's decision still unknown).  A
        #: redelivered commit decision consults this to detect the
        #: commit/abort mismatch instead of silently resolving nothing.
        self.heuristic_aborts: Dict[str, int] = {}
        #: Group commit: 0 disables (every commit forces the log solo);
        #: N > 0 enqueues commits and auto-flushes once N are pending.
        self.group_commit_limit = 0
        self._group_queue: list = []  # pending COMMIT record LSNs
        # -- multi-version read support --------------------------------
        #: Undo-image index the scan boundary patches reads with.
        self.versions = VersionStore(self.stats)
        #: txn_id -> COMMIT record LSN, stamped when COMMIT is appended.
        self._commit_lsns: Dict[int, int] = {}
        self._snapshots: Dict[int, Snapshot] = {}
        self._next_snapshot_id = 1

    # -- lifecycle -------------------------------------------------------------
    def mirror(self) -> None:
        """This database mirrors another's log (a standby): its own
        transactions — readers, logging nothing — take ids below zero,
        which no shipped record carries."""
        self._next_id = -(1 << 62)

    def resume_ids(self) -> None:
        """After a restart ids go on above every id the log holds: a
        promoted standby has mirrored transactions it never began."""
        self._next_id = max(self._next_id, self.wal.highest_txn_id() + 1)

    def begin(self, snapshot: bool = False) -> Transaction:
        """Start a transaction (nothing is logged until it logs something).

        With ``snapshot=True`` the transaction is read-only under snapshot
        isolation: it gets a consistent read point (the current end of
        log + the set of then-active writers), resolves every read
        against it at the scan boundary, and never takes locks or writes
        log records — so it neither blocks nor is blocked by writers.
        """
        txn = Transaction(self._next_id)
        self._next_id += 1
        self._active[txn.txn_id] = txn
        if snapshot:
            active_writers = frozenset(
                t.txn_id for t in self._active.values()
                if t.snapshot is None and t.txn_id != txn.txn_id)
            snap = Snapshot(self._next_snapshot_id, self.wal.current_lsn,
                            active_writers, txn.txn_id)
            self._next_snapshot_id += 1
            self._snapshots[snap.snapshot_id] = snap
            txn.snapshot = snap
            self.stats.bump("txn.snapshots_begun")
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit; a veto from a deferred action aborts instead."""
        txn.check_active()
        if txn.snapshot is not None:
            self._finish_read_only(txn, TxnState.COMMITTED)
            return
        try:
            # Deferred integrity constraints run here and may veto.
            self.events.fire(txn.txn_id, ev.BEFORE_PREPARE)
        except Exception:
            self.abort(txn)
            raise
        txn.state = TxnState.PREPARED
        self._commit_prepared(txn, allow_group=True)

    def _commit_prepared(self, txn: Transaction, allow_group: bool) -> None:
        """The second half of commit: the transaction is PREPARED, its
        fate is decided — append COMMIT, stabilize, run at-commit actions,
        and settle.  Shared by the local one-phase :meth:`commit` and the
        coordinator-driven :meth:`commit_decided` (which never joins a
        group: the coordinator's decision must be durable immediately)."""
        at_commit = self.events.pending(txn.txn_id, ev.AT_COMMIT)
        # A transaction that logged nothing has nothing to make durable:
        # no COMMIT, no force, no END — to the log it never existed.
        logged = at_commit or self.wal.last_lsn(txn.txn_id)
        if logged:
            # At-commit work may log after the COMMIT: the mark tells a
            # standby to hold the transaction until the END that follows.
            record = self.wal.append(txn.txn_id, wal_records.COMMIT,
                                     payload={"end": True} if at_commit
                                     else None)
            # Visibility is decided by the COMMIT record's LSN: a snapshot
            # taken at LSN S sees exactly the writers whose COMMIT appended
            # at or below S.  Stamping here (before the flush) means commits
            # deferred by group commit are already visible to new snapshots
            # — visibility and durability are deliberately decoupled,
            # exactly the group-commit window documented above.
            self._commit_lsns[txn.txn_id] = record.lsn
            # Commit is durable once the log is stable through the COMMIT
            # record.  At-commit deferred actions externalize state
            # (deferred storage release), so their transactions always
            # force solo.
            if allow_group and self.group_commit_limit > 0 and not at_commit:
                self._group_queue.append(record.lsn)
                self.stats.bump("txn.group_commit.enqueued")
                if len(self._group_queue) >= self.group_commit_limit:
                    self.commit_group()
            else:
                self.wal.flush()
        else:
            self.stats.bump("txn.unlogged_ends")
        self.events.fire(txn.txn_id, ev.AT_COMMIT)
        if at_commit:
            self.wal.append(txn.txn_id, wal_records.END)
        self.locks.release_all(txn.txn_id)
        txn.state = TxnState.COMMITTED
        self.events.fire(txn.txn_id, ev.AT_END)
        self._active.pop(txn.txn_id, None)
        if txn.gtid is not None:
            self._by_gtid.pop(txn.gtid, None)

    # -- two-phase commit: the participant API -----------------------------------
    def prepare(self, txn: Transaction, gtid: str) -> None:
        """Phase-1 vote: enter PREPARED and force the log.

        Runs the before-prepare deferred actions (a veto aborts, exactly
        as in one-phase commit), writes a PREPARE record carrying the
        global transaction id, and forces the log through it — after a
        successful return the vote is durable: a crash leaves the
        transaction *in doubt*, holding its changes until the coordinator
        decides (:meth:`commit_decided` / :meth:`abort_decided`), never
        rolled back unilaterally by restart.
        """
        txn.check_active()
        if txn.snapshot is not None:
            raise ReadOnlyTransactionError(
                f"transaction {txn.txn_id} is a snapshot reader; read-only "
                f"participants commit in one phase instead of preparing")
        if gtid in self._by_gtid and self._by_gtid[gtid] is not txn:
            raise TransactionError(
                f"global transaction id {gtid!r} is already in use")
        try:
            self.events.fire(txn.txn_id, ev.BEFORE_PREPARE)
        except Exception:
            self.abort(txn)
            raise
        txn.state = TxnState.PREPARED
        txn.gtid = gtid
        self._by_gtid[gtid] = txn
        self.wal.append(txn.txn_id, wal_records.PREPARE,
                        payload={"gtid": gtid})
        self.wal.flush()
        self.stats.bump("txn.prepares")

    def commit_decided(self, txn: Transaction) -> None:
        """Phase-2 commit of a PREPARED participant (coordinator said yes)."""
        if txn.state is not TxnState.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}; only a "
                f"prepared transaction can receive a commit decision")
        self._commit_prepared(txn, allow_group=False)
        self.stats.bump("txn.2pc.commits_decided")

    def abort_decided(self, txn: Transaction) -> None:
        """Phase-2 abort of a PREPARED participant (presumed abort)."""
        if txn.state is not TxnState.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}; only a "
                f"prepared transaction can receive an abort decision")
        self.abort(txn)
        self.stats.bump("txn.2pc.aborts_decided")

    def find_gtid(self, gtid: str) -> Optional[Transaction]:
        """The live transaction enlisted under ``gtid`` (None if settled)."""
        return self._by_gtid.get(gtid)

    def tag_gtid(self, txn: Transaction, gtid: str) -> None:
        """Index an active transaction by global id before it prepares,
        so a coordinator can find (and presumed-abort) it even when the
        failure happens before phase 1."""
        if gtid in self._by_gtid and self._by_gtid[gtid] is not txn:
            raise TransactionError(
                f"global transaction id {gtid!r} is already in use")
        txn.gtid = gtid
        self._by_gtid[gtid] = txn

    def register_indoubt(self, txn_id: int, gtid: Optional[str]) -> Transaction:
        """Re-admit an in-doubt transaction found by restart analysis.

        The transaction re-enters the active table in PREPARED state (its
        effects were redone from the log; restart undo skipped it) and is
        addressable by its global id, awaiting the coordinator's decision.
        The record locks its operations held are re-acquired: without
        them a post-restart transaction could overwrite a record the
        in-doubt transaction wrote, and a later abort decision would roll
        the newer committed write back with the stale before-image.
        """
        txn = Transaction(txn_id)
        txn.state = TxnState.PREPARED
        txn.gtid = gtid
        self._active[txn_id] = txn
        if gtid is not None:
            self._by_gtid[gtid] = txn
        self._next_id = max(self._next_id, txn_id + 1)
        self._relock_indoubt(txn)
        self.stats.bump("txn.indoubt.registered")
        return txn

    def _relock_indoubt(self, txn: Transaction) -> None:
        """Re-acquire the X record locks an in-doubt participant held.

        Lock state is volatile, but the stable PREPARE vote means the
        transaction's writes stay pending until the coordinator decides.
        Walks the transaction's retained log chain (truncation always
        keeps active transactions' records) and asks each operation's
        recovery handler which records it had locked.  CLRs are included:
        under strict two-phase locking a compensated operation's locks
        were still held, so re-locking them is conservative, never wrong.
        No conflict is possible here — restart just reset the lock table
        and in-doubt transactions' writes were X-serialized originally.
        """
        relocked = 0
        for record in self.wal.transaction_chain(txn.txn_id):
            if record.kind in (wal_records.UPDATE, wal_records.CLR):
                handler = self.recovery.handler(record.resource)
                for relation_id, key in handler.locked_records(
                        self.recovery.services, record.payload):
                    self.locks.acquire(txn.txn_id, ("rel", relation_id),
                                       LockMode.IX)
                    self.locks.acquire(txn.txn_id, ("rec", relation_id, key),
                                       LockMode.X)
                    relocked += 1
        if relocked:
            self.stats.bump("txn.indoubt.locks_reacquired", relocked)

    def heuristic_abort(self, txn: Transaction) -> None:
        """Unilaterally abort an in-doubt PREPARED participant.

        Orderly shutdown is this database's heuristic decision point: the
        limbo must drain, but the vote bound this transaction to the
        coordinator's decision — which may turn out to have been a
        durably logged COMMIT that simply never arrived.  The gtid is
        remembered (and the ABORT record marked, so restart analysis can
        rebuild the memory) so a later redelivery of the decision detects
        and reports the commit/abort mismatch instead of silently
        resolving nothing.
        """
        if txn.state is not TxnState.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}; only a "
                f"prepared transaction can be heuristically aborted")
        gtid = txn.gtid
        self.abort(txn, heuristic=True)
        if gtid is not None:
            self.heuristic_aborts[gtid] = txn.txn_id
        self.stats.bump("txn.2pc.heuristic_aborts")

    def abort(self, txn: Transaction, heuristic: bool = False) -> None:
        if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise TransactionError(
                f"transaction {txn.txn_id} already {txn.state.value}")
        if txn.snapshot is not None:
            self._finish_read_only(txn, TxnState.ABORTED)
            return
        # A commit that failed between the COMMIT append and the flush is
        # being resolved here: withdraw its visibility stamp first.
        self._commit_lsns.pop(txn.txn_id, None)
        if self.wal.last_lsn(txn.txn_id):
            payload = None
            if heuristic and txn.gtid is not None:
                payload = {"heuristic": True, "gtid": txn.gtid}
            self.wal.append(txn.txn_id, wal_records.ABORT, payload=payload)
            self.recovery.rollback(txn.txn_id, to_lsn=0)
            # The rollback restored every before-image, so the
            # transaction's transitions never happened as far as any
            # snapshot is concerned.
            self.versions.cancel(txn.txn_id, above_lsn=0)
            self.wal.append(txn.txn_id, wal_records.END)
            # Force the log through the END record: without this, a crash
            # right after a "completed" abort loses the CLR/ABORT/END chain
            # and restart must redo and then re-undo the whole transaction.
            self.wal.flush()
        else:
            # Nothing logged, so nothing to undo and nothing to record.
            self.stats.bump("txn.unlogged_ends")
        # Deferred actions never run for an aborted transaction.
        self.events.discard(txn.txn_id)
        try:
            self.events.fire(txn.txn_id, ev.AT_ABORT)
        finally:
            self.locks.release_all(txn.txn_id)
            txn.state = TxnState.ABORTED
            if txn.gtid is not None:
                self._by_gtid.pop(txn.gtid, None)
            self.events.fire(txn.txn_id, ev.AT_END)
            self._active.pop(txn.txn_id, None)

    def _finish_read_only(self, txn: Transaction, state: TxnState) -> None:
        """End a snapshot transaction: no log records, no flush.

        A snapshot transaction holds no locks and wrote nothing, so
        commit and abort are the same cheap operation — release the read
        point, close its scans, and reclaim versions nothing needs.
        """
        self.events.discard(txn.txn_id)
        try:
            self.events.fire(txn.txn_id, ev.AT_END)  # scan service closes scans
        finally:
            snap = txn.snapshot
            self._snapshots.pop(snap.snapshot_id, None)
            txn.state = state
            self._active.pop(txn.txn_id, None)
            self._reclaim_versions()
            self.stats.bump("txn.read_only_finished")

    # -- multi-version reads ----------------------------------------------------------
    def snapshot_patch(self, snapshot: Snapshot, relation_id: int) -> dict:
        """The rewind patch one relation needs under ``snapshot``
        (see :meth:`VersionStore.patch`)."""
        snapshot.check_valid()
        return self.versions.patch(snapshot, relation_id, self._commit_lsns)

    def note_versions(self, txn: Transaction, relation_id: int,
                      transitions) -> None:
        """Record a writer's ``(key, before_image)`` transitions.

        Called by the dispatch layer right after the storage method
        applied (and logged) one operation; the current end of log tags
        the transitions so savepoint rollbacks cancel exactly the ones
        above the savepoint LSN.
        """
        self.versions.note(self.wal.current_lsn, txn.txn_id, relation_id,
                           transitions)

    def commit_lsn(self, txn_id: int) -> Optional[int]:
        """The COMMIT record LSN stamped for ``txn_id`` (None if not
        committed or already pruned)."""
        return self._commit_lsns.get(txn_id)

    def oldest_snapshot_lsn(self) -> Optional[int]:
        if not self._snapshots:
            return None
        return min(s.lsn for s in self._snapshots.values())

    def _reclaim_versions(self) -> None:
        self.versions.reclaim(self._commit_lsns, self._active.keys(),
                              self.oldest_snapshot_lsn())
        # Prune commit stamps nothing references any more: a stamp is
        # only consulted for transitions still in the store.
        live = self.versions._by_txn
        for txn_id in [t for t in self._commit_lsns
                       if t not in live and t not in self._active]:
            del self._commit_lsns[txn_id]

    def invalidate_snapshots(self) -> None:
        """Restart boundary: undo images are volatile, so no snapshot
        taken before the crash can serve reads afterwards."""
        for snap in self._snapshots.values():
            snap.invalidated = True
        self._snapshots.clear()
        self.versions.clear()
        self._commit_lsns.clear()

    # -- group commit -----------------------------------------------------------------
    def commit_group(self) -> int:
        """Stabilize every enqueued commit with one log flush.

        Returns the number of commits made durable by this flush.  Commits
        whose LSN some other log force already covered (an abort, a
        checkpoint, a solo commit) are pruned without another flush.
        """
        pending = [lsn for lsn in self._group_queue
                   if lsn > self.wal.flushed_lsn]
        self._group_queue.clear()
        if not pending:
            return 0
        self.wal.flush(max(pending))
        self.stats.bump("txn.group_commit.flushes")
        self.stats.bump("txn.group_commit.stabilized", len(pending))
        return len(pending)

    def pending_group_commits(self) -> int:
        """Commits enqueued but not yet durable (crash would lose them)."""
        return sum(1 for lsn in self._group_queue
                   if lsn > self.wal.flushed_lsn)

    # -- savepoints -----------------------------------------------------------------
    def savepoint(self, txn: Transaction, name: str) -> int:
        """Establish a rollback point; returns its LSN."""
        txn.check_active()
        if txn.snapshot is not None:
            raise ReadOnlyTransactionError(
                f"transaction {txn.txn_id} is a snapshot reader; savepoints "
                f"only apply to transactions that modify data")
        if name in txn.savepoints:
            raise TransactionError(f"savepoint {name!r} already exists")
        # The end of log, not the transaction's last LSN: note_versions
        # tags an operation's transitions with the end of log, which an
        # auto-checkpoint can move past the operation's record, and those
        # transitions lie below the savepoint.
        lsn = self.wal.current_lsn
        self.stats.bump("txn.savepoints_set")
        txn.savepoints[name] = lsn
        txn._savepoint_order.append(name)
        # Scan positions are captured now (their changes are not logged).
        self.events.fire(txn.txn_id, ev.SAVEPOINT_SET, name=name)
        return lsn

    def rollback_to(self, txn: Transaction, name: str) -> int:
        """Partial rollback to a savepoint; returns operations undone.

        Savepoints established after ``name`` are cancelled; ``name`` itself
        survives and can be rolled back to again (SQL semantics).
        """
        txn.check_active()
        if name not in txn.savepoints:
            raise TransactionError(f"no savepoint named {name!r}")
        undone = self.recovery.rollback(txn.txn_id, to_lsn=txn.savepoints[name])
        # The partial rollback restored before-images above the savepoint:
        # cancel exactly those transitions in the version store.
        self.versions.cancel(txn.txn_id, above_lsn=txn.savepoints[name])
        self.events.fire(txn.txn_id, ev.SAVEPOINT_ROLLBACK, name=name)
        # Cancel savepoints nested inside the one we rolled back to.
        while txn._savepoint_order and txn._savepoint_order[-1] != name:
            inner = txn._savepoint_order.pop()
            del txn.savepoints[inner]
            if self.scans is not None:
                self.scans.cancel_savepoint(txn.txn_id, inner)
        return undone

    def release_savepoint(self, txn: Transaction, name: str) -> None:
        """Cancel a savepoint (its retained scan positions are dropped)."""
        txn.check_active()
        if name not in txn.savepoints:
            raise TransactionError(f"no savepoint named {name!r}")
        # Releasing an outer savepoint releases the ones nested inside it.
        index = txn._savepoint_order.index(name)
        for inner in txn._savepoint_order[index:]:
            del txn.savepoints[inner]
            if self.scans is not None:
                self.scans.cancel_savepoint(txn.txn_id, inner)
        del txn._savepoint_order[index:]

    # -- introspection ------------------------------------------------------------------
    def active_transactions(self) -> tuple:
        return tuple(self._active.values())

    def get(self, txn_id: int) -> Optional[Transaction]:
        return self._active.get(txn_id)

