"""The Database: wiring of common services, registry, catalogs, and DDL.

A :class:`Database` instance is the "integrated database supporting
multiple applications" the paper targets.  Constructing one registers the
built-in storage methods and attachment types "at the factory" — the
Python analogue of compiling and linking extensions with the DBMS — after
which the procedure vectors are fixed and dispatch is purely index-based.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Union

from ..errors import (AdmissionError, UnknownCheckpointModeError,
                      UnknownObjectError)
from ..services import SystemServices
from ..services import wal as wal_records
from ..services.transactions import TxnState
from .attachment import AttachmentType
from .authorization import AuthorizationService
from .catalog import Catalog
from .ddl import DataDefinition
from .dependency import DependencyTracker
from .dispatch import DataManager
from .registry import ExtensionRegistry
from .relation import Relation
from .schema import Field, Schema
from .session import Session, TransactionScope

__all__ = ["Database"]


class Database(TransactionScope):
    """An extensible relational database instance."""

    def __init__(self, page_size: int = 4096, buffer_capacity: int = 256,
                 principal: str = "admin", register_builtins: bool = True,
                 group_commit: int = 0, auto_checkpoint_interval: int = 0,
                 max_sessions: int = 64):
        self.services = SystemServices(page_size=page_size,
                                       buffer_capacity=buffer_capacity)
        # Durability knobs: group_commit=N batches N commits per log force
        # (deferred durability until the group flushes);
        # auto_checkpoint_interval=N takes a fuzzy checkpoint every N log
        # records, bounding restart redo and enabling log truncation.
        self.services.transactions.group_commit_limit = group_commit
        if auto_checkpoint_interval > 0:
            self.services.enable_auto_checkpoint(auto_checkpoint_interval)
        self.services.database = self  # recovery handlers reach the catalog
        self.services.in_restart = False
        self.registry = ExtensionRegistry()
        self.catalog = Catalog()
        self.authorization = AuthorizationService(superuser=principal)
        self.dependencies = DependencyTracker()
        self.data = DataManager(self.registry, self.services)
        self.ddl = DataDefinition(self)
        self.principal = principal
        self._query_engine = None
        #: Admission control: the bounded session pool.
        self.max_sessions = max_sessions
        self._sessions: Dict[int, "Session"] = {}
        self._next_session_id = 1
        from ..query.backends import PythonBackend
        #: The columnar kernel backend (see :mod:`..query.backends`).
        self.kernel_backend = PythonBackend()
        if register_builtins:
            self._register_builtins()

    # ------------------------------------------------------------------
    # Sessions (the multi-caller front door)
    # ------------------------------------------------------------------
    def connect(self, principal: Optional[str] = None) -> "Session":
        """Admit a new session, or raise :class:`AdmissionError` when the
        pool is at capacity.  ``principal`` defaults to the database's."""
        if len(self._sessions) >= self.max_sessions:
            self.services.stats.bump("sessions.rejected")
            raise AdmissionError(self.max_sessions)
        session = Session(self, self._next_session_id, principal)
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self.services.stats.bump("sessions.connected")
        return session

    def _disconnect(self, session: "Session") -> None:
        self._sessions.pop(session.session_id, None)

    def sessions(self) -> tuple:
        """The currently admitted sessions."""
        return tuple(self._sessions.values())

    def _register_builtins(self) -> None:
        from ..access import builtin_attachment_types
        from ..storage import builtin_storage_methods
        recovery = self.services.recovery
        for method in builtin_storage_methods():
            self.registry.register_storage_method(method, recovery)
        for attachment in builtin_attachment_types():
            self.registry.register_attachment_type(attachment, recovery)

    # ------------------------------------------------------------------
    # DDL conveniences
    # ------------------------------------------------------------------
    def create_table(self, name: str,
                     columns: Union[Schema, Sequence],
                     storage_method: str = "heap",
                     attributes: Optional[Dict[str, object]] = None,
                     owner: Optional[str] = None) -> Relation:
        """Create a relation; ``columns`` is a Schema or
        ``[(name, type[, nullable]), ...]``."""
        schema = self._schema(name, columns)
        with self.autocommit() as ctx:
            self.ddl.create_relation(ctx, name, schema, storage_method,
                                     attributes, owner)
        return Relation(self, name)

    def drop_table(self, name: str) -> None:
        with self.autocommit() as ctx:
            self.ddl.drop_relation(ctx, name)

    def create_attachment(self, relation: str, type_name: str,
                          instance_name: str,
                          attributes: Optional[Dict[str, object]] = None
                          ) -> dict:
        with self.autocommit() as ctx:
            return self.ddl.create_attachment(ctx, relation, type_name,
                                              instance_name, attributes)

    def drop_attachment(self, instance_name: str) -> None:
        with self.autocommit() as ctx:
            self.ddl.drop_attachment(ctx, instance_name)

    def rebuild_attachment(self, instance_name: str) -> None:
        """Restore a quarantined attachment instance to service (rebuilding
        its structure from the base relation), or rebuild a live one."""
        with self.autocommit() as ctx:
            self.ddl.rebuild_attachment(ctx, instance_name)

    def disable_attachment(self, instance_name: str) -> None:
        """Take an attachment instance out of service (not maintained, not
        planned) without dropping its definition."""
        with self.autocommit() as ctx:
            self.ddl.set_attachment_status(ctx, instance_name, enabled=False)

    def enable_attachment(self, instance_name: str) -> None:
        """Return a disabled instance to service, rebuilding its structure
        from the base relation when the type supports rebuilding."""
        with self.autocommit() as ctx:
            self.ddl.set_attachment_status(ctx, instance_name, enabled=True)

    def create_index(self, name: str, relation: str,
                     columns: Sequence[str], kind: str = "btree_index",
                     **attributes) -> dict:
        """Convenience wrapper: a keyed access-path attachment."""
        attributes = dict(attributes)
        attributes["columns"] = list(columns)
        return self.create_attachment(relation, kind, name, attributes)

    def add_check(self, name: str, relation: str, predicate: str) -> dict:
        return self.create_attachment(relation, "check", name,
                                      {"predicate": predicate})

    def table(self, name: str) -> Relation:
        self.catalog.entry(name)  # fail fast on unknown names
        return Relation(self, name)

    @staticmethod
    def _schema(name: str, columns) -> Schema:
        if isinstance(columns, Schema):
            return columns
        fields = []
        for column in columns:
            if isinstance(column, Field):
                fields.append(column)
            else:
                fields.append(Field(*column))
        return Schema(name, fields)

    # ------------------------------------------------------------------
    # Authorization conveniences
    # ------------------------------------------------------------------
    def grant(self, relation: str, principal: str, privileges) -> None:
        self.authorization.grant(self.principal, relation, principal,
                                 privileges)

    def revoke(self, relation: str, principal: str, privileges) -> None:
        self.authorization.revoke(self.principal, relation, principal,
                                  privileges)

    @contextmanager
    def as_principal(self, principal: str):
        previous = self.principal
        self.principal = principal
        try:
            yield self
        finally:
            self.principal = previous

    # ------------------------------------------------------------------
    # Queries (bound plans, cost-based access selection)
    # ------------------------------------------------------------------
    @property
    def query_engine(self):
        if self._query_engine is None:
            from ..query.engine import QueryEngine
            self._query_engine = QueryEngine(self)
        return self._query_engine

    def execute(self, statement: str, params: Optional[dict] = None):
        """Parse/plan/execute a mini-SQL statement through the plan cache."""
        return self.query_engine.execute(statement, params)

    def explain(self, statement: str) -> dict:
        return self.query_engine.explain(statement)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def checkpoint(self, mode: str = "fuzzy", truncate: bool = False) -> dict:
        """Take a checkpoint; returns its summary.

        ``mode="fuzzy"`` (the default) snapshots the active-transaction
        and dirty-page tables without flushing a single data page; restart
        redo then starts at ``min(rec_lsn)`` over the snapshot instead of
        at the head of the log.  ``mode="sharp"`` first writes every dirty
        page back, collapsing the redo bound to the checkpoint itself.
        ``truncate=True`` reclaims the log prefix below the checkpoint's
        redo/undo point (LSN addressing stays stable).
        """
        if mode not in ("fuzzy", "sharp"):
            raise UnknownCheckpointModeError(mode)
        if truncate:
            # Truncation must never reclaim the enlist or decision record
            # a prepared child still waits on: settle every child first.
            self.resolve_indoubt()
        info = self.services.checkpoint(truncate=truncate,
                                        flush_pages=(mode == "sharp"))
        self.services.stats.bump("db.checkpoints")
        return info

    def commit_group(self) -> int:
        """Stabilize every pending group commit with one log flush."""
        return self.services.transactions.commit_group()

    def close(self) -> None:
        """Orderly shutdown: nothing committed may be lost afterwards.

        Disconnects every admitted session (aborting their open
        transactions), aborts an open database-level transaction, forces
        every enqueued group commit (deferred durability must not outlive
        the process), flushes the log, and writes all dirty pages back.

        Idempotent and safe with sessions still open: a second ``close``
        finds no sessions, no open transactions, and nothing pending, so
        the group-commit force and flushes run exactly once per dirty
        period.  The instance remains usable afterwards (there is no file
        handle to release in this simulation); ``close`` exists so callers
        have a single point that guarantees the no-pending-durability
        invariant.
        """
        for session in list(self._sessions.values()):
            session.close()  # aborts the session's open transaction
        if self.in_transaction:
            self._abort(self._txn)
        # Drain PREPARED limbo: a participant whose coordinator died (or a
        # commit that failed between states) must not hold locks and
        # undecided changes past shutdown.  An orderly close is this
        # database's *heuristic* decision point: aborting a participant
        # that voted may contradict a commit decision the coordinator
        # durably logged but never delivered, so the gtid is remembered
        # (durably, on the ABORT record) and a later decision redelivery
        # reports the mismatch instead of silently resolving nothing.
        for txn in self.services.transactions.active_transactions():
            if txn.state is TxnState.PREPARED:
                if txn.gtid is not None:
                    self.services.transactions.heuristic_abort(txn)
                else:
                    self.services.transactions.abort(txn)
                self.services.stats.bump("txn.indoubt.resolved")
        self.services.transactions.commit_group()
        self.services.wal.flush()
        self.services.buffer.flush_all()
        self.services.stats.bump("db.closes")

    def restart(self) -> dict:
        """Simulate a crash and run restart recovery.

        1. active transactions are forgotten (they become losers);
        2. the buffer pool and unflushed log records are lost;
        3. the common recovery driver performs analysis/redo/undo;
        4. temporary (non-recoverable) relations are reset — they do not
           survive a restart — and what a recoverable relation's
           descriptor derives from its pages is derived again where the
           crash may have left it wrong (``recover_instance``);
        5. attachment state in pages is rebuilt, and state in descriptors
           where the crash may have left it wrong, all from one read of
           the relation (see DESIGN.md).

        Returns the recovery summary.
        """
        self._txn = None
        # Sessions survive a restart (the connection is not the crash
        # domain here) but their in-flight transactions and snapshots do
        # not: undo images are volatile, so every live snapshot is
        # invalidated and will raise SnapshotError on its next read.
        for session in self._sessions.values():
            session._txn = None
        self.services.transactions.invalidate_snapshots()
        lost = self.services.crash()
        stable_lsn = self.services.wal.flushed_lsn
        # Lock state is volatile: pre-crash transactions hold nothing now.
        self.services.locks.reset()
        self.services.in_restart = True
        try:
            summary = self.services.recovery.restart()
        finally:
            self.services.in_restart = False
        summary["log_records_lost"] = lost
        self.services.transactions._active.clear()
        self.services.transactions._by_gtid.clear()
        self.services.transactions.resume_ids()
        # In-doubt participants re-enter the active table in PREPARED
        # state: their stable PREPARE vote binds this database, so they
        # hold their (redone) changes — and re-acquire their record
        # locks — until the coordinator's decision arrives.  Their
        # deferred actions were volatile and died with the crash.
        for txn_id, gtid in summary.get("indoubt", {}).items():
            self.services.events.discard(txn_id)
            self.services.transactions.register_indoubt(txn_id, gtid)
        # Heuristic-abort markers survive as marked ABORT records; rebuild
        # the in-memory map so decision redelivery still detects mismatches
        # after a restart.
        self.services.transactions.heuristic_aborts.update(
            summary.get("heuristic_aborts", {}))

        rebuilt = 0
        with self.autocommit() as ctx:
            for entry in self.catalog.relations():
                handle = entry.handle
                method = self.registry.storage_method(
                    handle.descriptor.storage_method_id)
                if method.recoverable:
                    method.recover_instance(ctx, handle, stable_lsn)
                else:
                    reset = getattr(method, "reset_instance", None)
                    if reset is not None:
                        reset(handle.descriptor.storage_descriptor)
            for entry in self.catalog.relations():
                handle, todo = entry.handle, []
                lost = not self.registry.storage_method(
                    handle.descriptor.storage_method_id).recoverable
                for type_id, field in handle.descriptor.present_attachments():
                    attachment = self.registry.attachment_type(type_id)
                    rebuild = getattr(attachment, "rebuild", None)
                    stale = {name: instance for name, instance
                             in field["instances"].items()
                             if lost or not attachment.descriptor_resident
                             or instance.get("derived_lsn", 0) > stable_lsn}
                    if rebuild is not None and stale:
                        todo.append((rebuild, dict(field, instances=stale)))
                # One read serves every rebuild: each stale instance walks
                # the batches once, so they are kept only for a second one.
                batches = AttachmentType.stored_batches(ctx, handle)
                if sum(len(field["instances"]) for __, field in todo) > 1:
                    batches = list(batches)
                for rebuild, field in todo:
                    rebuild(ctx, handle, field, batches)
                rebuilt += len(todo)
        summary["attachment_types_rebuilt"] = rebuilt
        # Coordinator-side resolution: every child of a transaction the
        # crash ended is settled — committed if its decision is stable,
        # presumed aborted otherwise.
        summary["indoubt_resolved"] = self.resolve_indoubt()
        return summary

    def resolve_indoubt(self) -> int:
        """Settle the children of every distributed transaction whose
        coordinator transaction has ended.

        One walk over the retained log collects the ``enlist`` and
        ``decision`` records (logical UPDATEs) a storage method logs for a
        distributed transaction, and the COMMITs.  For each global id
        whose coordinator transaction is no longer active (an in-doubt
        one still is), the owning storage method's ``resolve_indoubt``
        hook settles every child still holding it: commit if the
        transaction logged a decision and a COMMIT, else presumed abort —
        so a lost abort is resent exactly like a lost commit.

        Idempotent; run by restart and by a truncating checkpoint, and
        callable on demand — e.g. after a crashed shard comes back up, so
        its re-registered in-doubt transactions settle.  Returns how many
        children were settled.
        """
        committed, decided, enlisted = set(), set(), {}
        for record in self.services.wal.forward():
            if record.kind == wal_records.COMMIT:
                committed.add(record.txn_id)
            elif (record.kind == wal_records.UPDATE
                    and record.payload.get("op") in ("enlist", "decision")):
                gtid = record.payload["gtid"]
                enlisted[gtid] = record
                if record.payload["op"] == "decision":
                    decided.add(gtid)
        verdicts: Dict[int, dict] = {}  # relation id -> gtid -> commit?
        for gtid, record in enlisted.items():
            # A live or in-doubt coordinator transaction settles its own.
            if self.services.transactions.get(record.txn_id) is None:
                relation_id = record.payload["relation_id"]
                verdicts.setdefault(relation_id, {})[gtid] = (
                    gtid in decided and record.txn_id in committed)
        resolved = 0
        for relation_id, by_gtid in verdicts.items():
            try:
                entry = self.catalog.entry_by_id(relation_id)
            except UnknownObjectError:
                continue  # relation dropped since; its children went with it
            method = self.registry.storage_method(
                entry.handle.descriptor.storage_method_id)
            resolved += method.resolve_indoubt(self, entry.handle, by_gtid)
        if resolved:
            self.services.stats.bump("txn.indoubt.resolved", resolved)
        return resolved

    def __repr__(self) -> str:
        return (f"Database({len(self.catalog.relation_names())} relations, "
                f"{self.registry!r})")
