"""Log-driven rollback, fuzzy checkpointing, and bounded restart recovery.

The paper: "When a relation modification operation fails, for any reason,
the common recovery log is used to drive the storage method and attachment
implementations to undo the partial effects of the aborted relation
modification.  The same log-based driver also drives storage method and
attachment implementations during transaction abort and during system
restart recovery."

Extensions register a :class:`ResourceHandler` per resource name; the
driver walks the log and calls the handler's ``undo``/``redo``.  Undo
writes compensation records (CLRs) whose ``undo_next`` pointer skips the
compensated operation, so rollback is itself restartable and partial
rollback to a savepoint composes with a later full abort.  A standby is
the third user of the log: it runs restart's one-record redo step
(:meth:`RecoveryManager.redo`) over each settled record it receives.

Restart cost is bounded by checkpoints, not log length.  A *fuzzy*
checkpoint (:meth:`RecoveryManager.checkpoint`) snapshots the active-
transaction table and the buffer pool's dirty-page table without flushing
a single data page; restart analysis starts at the master checkpoint and
redo starts at ``min(rec_lsn)`` over the checkpointed dirty pages — the
oldest update that could be missing from the device.  Everything below
the checkpoint's redo/undo point can be reclaimed with
``LogManager.truncate``.
"""

from __future__ import annotations

from typing import Dict, Set

from ..errors import RecoveryError
from . import wal as wal_records
from .wal import LogManager, LogRecord, SYSTEM_TXN

__all__ = ["ResourceHandler", "RecoveryManager"]

_CHECKPOINT_KINDS = (wal_records.CHECKPOINT_BEGIN, wal_records.CHECKPOINT_END)


class ResourceHandler:
    """Undo/redo callbacks for one extension's logged operations.

    Subclasses (one per recoverable storage method or attachment type)
    implement:

    * ``undo(services, payload, clr_lsn)`` — reverse the logged operation
      (``payload`` is the CLR's: the record's plus ``compensates``, its
      LSN); pages touched must be stamped with ``clr_lsn``.
    * ``redo(services, lsn, payload)`` — re-apply the logged operation
      idempotently; page-based implementations skip pages whose
      ``page_lsn`` is already >= ``lsn`` (and count the skip under
      ``recovery.redo.skipped_page_lsn``).
    """

    def undo(self, services, payload: dict, clr_lsn: int) -> None:
        raise NotImplementedError

    def redo(self, services, lsn: int, payload: dict) -> None:
        raise NotImplementedError

    def before_redo(self, services, record) -> None:
        """Prepare restart redo for a loser transaction's operation.

        Called once per loser log record before the redo pass.  Most
        handlers need nothing here; logical resources whose forward
        action hides state that page-based redo depends on (e.g. a DROP
        that unhooks a relation's descriptor from the catalog) restore
        visibility so redo can resolve the pages.  The undo pass still
        performs the authoritative reversal afterwards.
        """

    def locked_records(self, services, payload: dict):
        """The ``(relation_id, record_key)`` pairs this logged operation
        holds X record locks on while its transaction is live.

        Restart uses this to re-acquire the locks of *in-doubt* PREPARED
        participants: lock state is volatile, but a stable vote binds the
        transaction to hold its writes until the coordinator decides, so
        the records it touched must stay locked across the restart.
        Handlers whose operations take no record locks (physical
        allocations, attachment maintenance — protected by the base
        relation's locks) keep the default empty answer.
        """
        return ()


class RecoveryManager:
    """The common rollback / checkpoint / restart driver over the shared log."""

    def __init__(self, wal: LogManager, services=None):
        self.wal = wal
        self.services = services  # injected after the service bundle exists
        self._handlers: Dict[str, ResourceHandler] = {}

    def register_handler(self, resource: str, handler: ResourceHandler) -> None:
        if resource in self._handlers:
            raise RecoveryError(f"handler for {resource!r} already registered")
        self._handlers[resource] = handler

    def handler(self, resource: str) -> ResourceHandler:
        try:
            return self._handlers[resource]
        except KeyError:
            raise RecoveryError(
                f"no recovery handler registered for resource {resource!r}"
            ) from None

    def _bump(self, name: str, amount: int = 1) -> None:
        stats = getattr(self.services, "stats", None)
        if stats is not None:
            stats.bump(name, amount)

    # -- logging entry point used by extensions ---------------------------------
    def log_update(self, txn_id: int, resource: str, payload: dict) -> LogRecord:
        """Append a logical operation record for a recoverable extension."""
        self.handler(resource)  # fail fast if nothing could ever undo it
        return self.wal.append(txn_id, wal_records.UPDATE, resource, payload)

    # -- redo, one record at a time -------------------------------------------------
    def redo(self, record: LogRecord) -> bool:
        """Re-apply one logged operation through its handler: the step of
        restart's redo pass and of a standby's apply.  Control records
        have nothing to redo.  Returns whether ``record`` was redone."""
        if record.kind not in (wal_records.UPDATE, wal_records.CLR):
            return False
        self.handler(record.resource).redo(self.services, record.lsn,
                                           record.payload)
        return True

    # -- rollback (partial or total) ------------------------------------------------
    def rollback(self, txn_id: int, to_lsn: int = 0) -> int:
        """Undo the transaction's operations with LSN > ``to_lsn``.

        ``to_lsn`` of a savepoint gives partial rollback; 0 gives
        total rollback.  Returns the number of operations undone.
        """
        undone = 0
        lsn = self.wal.last_lsn(txn_id)
        while lsn > to_lsn:
            record = self.wal.record(lsn)
            if record.txn_id != txn_id:
                raise RecoveryError(
                    f"log chain corruption: LSN {lsn} belongs to txn "
                    f"{record.txn_id}, expected {txn_id}")
            if record.kind == wal_records.UPDATE:
                clr = self.wal.append(
                    txn_id, wal_records.CLR, record.resource,
                    dict(record.payload, compensates=record.lsn),
                    undo_next=record.prev_lsn)
                self.handler(record.resource).undo(
                    self.services, clr.payload, clr.lsn)
                undone += 1
                lsn = record.prev_lsn
            elif record.kind == wal_records.CLR:
                lsn = record.undo_next  # skip what was already undone
            else:
                # ABORT / PREPARE / COMMIT markers: nothing to undo.
                lsn = record.prev_lsn
        return undone

    # -- fuzzy checkpoint ---------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Take a fuzzy checkpoint; returns its summary.

        The protocol writes CHECKPOINT_BEGIN, snapshots the active-
        transaction table (each transaction that has logged anything, with
        its last and first LSN) and the buffer pool's dirty-page table,
        writes both into CHECKPOINT_END, forces the log, and only then
        advances the master pointer — so a crash anywhere inside the
        window falls back to the previous complete checkpoint.  No data
        page is flushed.

        The summary carries ``redo_lsn`` (where restart redo would begin)
        and ``truncatable_below`` (the safe log-truncation bound: nothing
        below it is needed for redo of the dirty pages *or* undo of the
        transactions active at the checkpoint).
        """
        wal = self.wal
        begin = wal.append(SYSTEM_TXN, wal_records.CHECKPOINT_BEGIN)
        att = {}
        transactions = getattr(self.services, "transactions", None)
        if transactions is not None:
            for txn in transactions.active_transactions():
                last = wal.last_lsn(txn.txn_id)
                if not last:
                    # Never logged (a reader, so far): to the log, and so
                    # to restart, there is no such transaction — listing
                    # it would make analysis call it a loser.
                    continue
                if (wal.record(last).kind in (wal_records.COMMIT,
                                              wal_records.END)
                        or transactions.commit_lsn(txn.txn_id)):
                    # The checkpoint can fire mid-commit (the trigger runs
                    # inside the COMMIT/END append, or inside a record the
                    # at-commit work logs after the COMMIT, before the
                    # manager marks the transaction committed).  Its fate
                    # is already sealed in the log below this checkpoint —
                    # and stable, because the checkpoint flush covers
                    # every earlier record — so putting it in the ATT
                    # would make analysis call committed work a loser and
                    # undo it.
                    continue
                att[txn.txn_id] = {"state": txn.state.value,
                                   "gtid": txn.gtid,
                                   "last_lsn": last,
                                   "first_lsn": wal.first_lsn(txn.txn_id)}
        dpt = {}
        buffer = getattr(self.services, "buffer", None)
        if buffer is not None:
            dpt = buffer.dirty_page_table()
        end = wal.append(SYSTEM_TXN, wal_records.CHECKPOINT_END,
                         payload={"begin_lsn": begin.lsn, "att": att,
                                  "dpt": dpt})
        wal.flush()
        wal.set_master(begin.lsn)
        redo_lsn = min([begin.lsn] + list(dpt.values()))
        undo_lsn = min([info["first_lsn"] for info in att.values()]
                       or [begin.lsn])
        self._bump("recovery.checkpoints")
        return {"begin_lsn": begin.lsn, "end_lsn": end.lsn,
                "redo_lsn": redo_lsn,
                "truncatable_below": min(redo_lsn, undo_lsn),
                "dirty_pages": len(dpt), "active_transactions": len(att)}

    def _checkpoint_tables(self, master: int) -> tuple:
        """The (att, dpt) snapshots of the master checkpoint."""
        for record in self.wal.forward(master):
            if (record.kind == wal_records.CHECKPOINT_END
                    and record.payload.get("begin_lsn") == master):
                return (record.payload.get("att", {}),
                        record.payload.get("dpt", {}))
        # The master pointer is only advanced after CHECKPOINT_END is
        # stable, so this indicates log corruption rather than a torn
        # checkpoint window.
        raise RecoveryError(
            f"master checkpoint at LSN {master} has no CHECKPOINT_END")

    # -- restart recovery ---------------------------------------------------------------
    def restart(self) -> dict:
        """ARIES-style restart over the stable log prefix.

        The caller is responsible for having simulated the crash first
        (``wal.lose_unflushed()`` and ``buffer.crash()``).  Performs:

        1. *Analysis*: from the master checkpoint (or the oldest retained
           record when none exists), rebuild the loser set from the
           checkpointed active-transaction table plus the log tail.
        2. *Redo*: re-apply UPDATEs and CLRs from ``min(rec_lsn)`` over
           the checkpointed dirty-page table — bounded by dirty pages,
           not log length (handlers stay idempotent via page LSNs).
        3. *Undo*: roll back losers, writing CLRs, then ABORT/END records.

        Returns a summary dict for tests and benchmarks.
        """
        # Torn-page sweep before anything reads the device: pages whose
        # checksum fails are restored from the checkpoint archive (or
        # zero-filled when allocated after it); redo below reconstructs
        # every update the restored image is missing, because any update
        # absent from the archive either sits in the checkpointed DPT
        # (rec_lsn <= its LSN bounds redo) or postdates the checkpoint.
        repaired = {"restored": 0, "zero_filled": 0}
        disk = getattr(self.services, "disk", None)
        if disk is not None:
            repaired = disk.repair_corrupt_pages()
            self._bump("recovery.torn_pages.restored", repaired["restored"])
            self._bump("recovery.torn_pages.zero_filled",
                       repaired["zero_filled"])
        wal = self.wal
        master = wal.master_lsn
        att: Dict[int, dict] = {}
        dpt: Dict[int, int] = {}
        if master:
            att, dpt = self._checkpoint_tables(master)
        analysis_start = master if master else wal.oldest_lsn

        committed: Set[int] = set()
        ended: Set[int] = set()
        aborted: Set[int] = set()
        seen: Set[int] = set(att)
        # Two-phase participants: txn_id -> gtid for transactions whose
        # PREPARE vote is stable.  Seeded from the checkpointed ATT (a
        # checkpoint can postdate the PREPARE record).
        prepared: Dict[int, object] = {
            txn_id: info.get("gtid") for txn_id, info in att.items()
            if info.get("state") == "prepared" and info.get("gtid")}
        # Heuristic decisions: gtid -> txn_id for PREPARED participants
        # this database unilaterally aborted (orderly shutdown with the
        # coordinator's decision still unknown).  The marked ABORT record
        # survives so a redelivered commit decision can detect the
        # commit/abort mismatch instead of silently resolving nothing.
        heuristic: Dict[object, int] = {}
        analyzed = 0
        for record in wal.forward(analysis_start):
            analyzed += 1
            if record.kind in _CHECKPOINT_KINDS:
                continue
            seen.add(record.txn_id)
            if record.kind == wal_records.COMMIT:
                committed.add(record.txn_id)
            elif record.kind == wal_records.END:
                ended.add(record.txn_id)
            elif record.kind == wal_records.ABORT:
                aborted.add(record.txn_id)
                if record.payload and record.payload.get("heuristic") \
                        and record.payload.get("gtid"):
                    heuristic[record.payload["gtid"]] = record.txn_id
            elif record.kind == wal_records.PREPARE:
                prepared[record.txn_id] = record.payload.get("gtid")
        # A stable PREPARE without a decision leaves the transaction *in
        # doubt*: its vote binds this database, so restart must neither
        # commit nor undo it — redo re-applies its effects, undo skips it,
        # and it re-enters the active table awaiting the coordinator.
        indoubt = {txn_id: gtid for txn_id, gtid in prepared.items()
                   if txn_id not in committed and txn_id not in ended
                   and txn_id not in aborted}
        losers = sorted(seen - committed - ended - set(indoubt))
        self._bump("recovery.analysis.records", analyzed)
        self._bump("recovery.analysis.indoubt", len(indoubt))

        # Give handlers a chance to prepare redo for loser operations —
        # e.g. a loser DROP removed its catalog entry before the crash,
        # and redo of the relation's pages needs the descriptor back
        # before undo formally restores it.  Scan from the losers' undo
        # horizon (their records are always retained by truncation).
        loser_set = set(losers)
        prepare_start = min(
            [analysis_start]
            + [info["first_lsn"] for txn_id, info in att.items()
               if txn_id in loser_set and info.get("first_lsn")])
        for record in wal.forward(prepare_start):
            if (record.txn_id in loser_set
                    and record.kind in (wal_records.UPDATE, wal_records.CLR)):
                self.handler(record.resource).before_redo(
                    self.services, record)

        redo_start = min([analysis_start] + list(dpt.values()))
        redone = sum(map(self.redo, wal.forward(redo_start)))

        undone = 0
        for txn_id in losers:
            undone += self.rollback(txn_id, to_lsn=0)
            self.wal.append(txn_id, wal_records.ABORT)
            self.wal.append(txn_id, wal_records.END)
        self._bump("recovery.undo.records", undone)
        self.wal.flush()
        # End-of-restart flush (ARIES' restart checkpoint, flush variant).
        # Pages rebuilt by redo sit dirty with rec_lsns captured at the
        # *current* end of log, so a later fuzzy checkpoint would bound
        # redo past their real history while the device still holds the
        # pre-crash (or repair-time) image — a second crash would then be
        # unrecoverable.  Writing them back makes the recovered state
        # device-durable and the stale bookkeeping moot.
        buffer = getattr(self.services, "buffer", None)
        if buffer is not None:
            buffer.flush_all()
        return {"losers": losers, "redone": redone, "undone": undone,
                "indoubt": indoubt,
                "heuristic_aborts": heuristic,
                "committed": sorted(committed),
                "checkpoint_lsn": master, "redo_from": redo_start,
                "analysis_records": analyzed,
                "torn_pages_restored": repaired["restored"],
                "torn_pages_zero_filled": repaired["zero_filled"]}
