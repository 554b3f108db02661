"""Sessions: the multi-caller front door to one database.

The paper's extension architecture serves "an integrated database
supporting multiple applications"; the unit of concurrency is therefore
the *session*, not the engine.  A :class:`Session` is one caller's
connection: it owns a per-session transaction, carries its own principal
for the uniform authorization facility, and shares everything engine-wide
— the catalog, the extension registry, the common services, and the
bound-plan cache (plans are keyed by statement text and re-validated
against relation descriptor versions, so one session's DDL transparently
re-translates every other session's cached plans).

Admission control: the database grants at most ``max_sessions``
concurrent sessions; :meth:`Database.connect` raises
:class:`~repro.errors.AdmissionError` beyond that, bounding the
transaction, lock, and scan state a burst of callers can pin.

A session duck-types the :class:`Database` surface that
:class:`~repro.core.relation.Relation` and the query engine consume
(``catalog``, ``data``, ``services``, ``authorization``, ``principal``,
``autocommit``), so every existing layer runs unchanged against a
session — it just resolves transactions and principals per session.

Read-only work should use ``session.begin(snapshot=True)``: the
transaction reads a consistent snapshot through the multi-version
machinery and takes no locks, so it neither blocks nor is blocked by any
writer session.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Optional

from ..errors import SessionError, TransactionError
from .context import ExecutionContext
from .relation import Relation

__all__ = ["Session", "TransactionScope"]

_UNATTRIBUTED = nullcontext()


class TransactionScope:
    """The one transaction surface of :class:`~repro.core.database.Database`
    and :class:`Session`: an explicit transaction (``begin`` → ``commit`` /
    ``rollback``, savepoints, ``transaction()``) or one per call
    (``autocommit()``).  A subclass declares only what differs: the stats
    scope its transactions' work is counted under, its closed check and
    its misuse texts (formatted with the scope)."""

    _txn = None
    _ALREADY_OPEN = "a session transaction is already open"
    _NONE_OPEN = "no session transaction is open"

    def _attributed(self):
        """The stats scope this scope's transaction work runs under."""
        return _UNATTRIBUTED

    def _check_open(self) -> None:
        """Only a session can be closed."""

    def begin(self):
        """Open an explicit session transaction."""
        return self._begin(False)

    def _begin(self, snapshot: bool):
        self._check_open()
        if self._txn is not None and self._txn.active:
            raise TransactionError(self._ALREADY_OPEN.format(self))
        with self._attributed():
            self._txn = self.services.transactions.begin(snapshot=snapshot)
        return self._txn

    def commit(self) -> None:
        self._commit(self._require_txn())

    def rollback(self) -> None:
        self._abort(self._require_txn())

    def _commit(self, txn) -> None:
        self._txn = None
        with self._attributed():
            try:
                self.services.transactions.commit(txn)
            except Exception:
                if not txn.settled:
                    self.services.transactions.abort(txn)
                raise

    def _abort(self, txn) -> None:
        self._txn = None
        with self._attributed():
            self.services.transactions.abort(txn)

    def savepoint(self, name: str) -> int:
        return self.services.transactions.savepoint(self._require_txn(), name)

    def rollback_to(self, name: str) -> int:
        return self.services.transactions.rollback_to(self._require_txn(),
                                                      name)

    @contextmanager
    def transaction(self):
        """``with db.transaction() as ctx:`` — commit on exit, abort on error."""
        yield from self._committing(self.begin())

    def _committing(self, txn):
        try:
            yield ExecutionContext(txn, self.services, self)
        except Exception:
            if not txn.settled:
                self._abort(txn)
            raise
        self._commit(txn)

    @contextmanager
    def autocommit(self):
        """Join the open transaction, or run one just for this call."""
        self._check_open()
        with self._attributed():
            if self._txn is not None and self._txn.active:
                yield ExecutionContext(self._txn, self.services, self)
                return
            txn = self.services.transactions.begin()
            try:
                yield ExecutionContext(txn, self.services, self)
                self.services.transactions.commit(txn)
            except Exception:
                # `not settled` (rather than `active`) also catches a commit
                # that failed after PREPARED — e.g. an injected log-flush
                # fault — whose changes and locks would otherwise leak, and
                # whose unflushed COMMIT record would silently become durable
                # at the next log force.
                if not txn.settled:
                    self.services.transactions.abort(txn)
                raise

    def _require_txn(self):
        self._check_open()
        if self._txn is None or not self._txn.active:
            raise TransactionError(self._NONE_OPEN.format(self))
        return self._txn

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active


class Session(TransactionScope):
    """One caller's connection to a shared database."""

    _ALREADY_OPEN = "session {0.session_id} already has an open transaction"
    _NONE_OPEN = "session {0.session_id} has no open transaction"

    def __init__(self, database, session_id: int,
                 principal: Optional[str] = None):
        self.database = database
        self.session_id = session_id
        self.principal = principal if principal is not None \
            else database.principal
        self.closed = False
        #: Every bump of this session's transactions is attributed to it
        #: as well as engine-wide, so per-session counters reconcile in
        #: benchmarks.
        self._attributed = partial(database.services.stats.session,
                                   session_id)

    # ------------------------------------------------------------------
    # Shared engine surface (duck-types Database for Relation/queries)
    # ------------------------------------------------------------------
    @property
    def services(self):
        return self.database.services

    @property
    def catalog(self):
        return self.database.catalog

    @property
    def data(self):
        return self.database.data

    @property
    def registry(self):
        return self.database.registry

    @property
    def authorization(self):
        return self.database.authorization

    @property
    def dependencies(self):
        return self.database.dependencies

    # ------------------------------------------------------------------
    # Per-session transactions: the snapshot option is the session's
    # ------------------------------------------------------------------
    def begin(self, snapshot: bool = False):
        """Open this session's transaction.

        ``snapshot=True`` begins a read-only snapshot transaction: reads
        are served from a consistent point-in-time view and acquire no
        locks (see ``services/transactions.py``).
        """
        return self._begin(snapshot)

    @contextmanager
    def transaction(self, snapshot: bool = False):
        """``with session.transaction() as ctx:`` — commit on exit."""
        yield from self._committing(self.begin(snapshot=snapshot))

    # ------------------------------------------------------------------
    # Work surface
    # ------------------------------------------------------------------
    def table(self, name: str) -> Relation:
        self._check_open()
        self.catalog.entry(name)  # fail fast on unknown names
        return Relation(self, name)

    def execute(self, statement: str, params: Optional[dict] = None):
        """Run a mini-SQL statement through the shared plan cache, under
        this session's transaction and principal."""
        self._check_open()
        return self.database.query_engine.execute(statement, params,
                                                  scope=self)

    def explain(self, statement: str) -> dict:
        self._check_open()
        return self.database.query_engine.explain(statement, scope=self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Disconnect: abort any open transaction, free the admission slot.

        Idempotent — closing a closed session is a no-op.
        """
        if self.closed:
            return
        if self.in_transaction:
            self._abort(self._txn)
        self.closed = True
        self.database._disconnect(self)
        self.services.stats.bump("sessions.closed")

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self.closed:
            raise SessionError(f"session {self.session_id} is closed")

    def __repr__(self) -> str:
        state = "closed" if self.closed else (
            "in-txn" if self.in_transaction else "idle")
        return (f"Session(id={self.session_id}, "
                f"principal={self.principal!r}, {state})")
