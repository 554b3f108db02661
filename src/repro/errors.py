"""Exception hierarchy for the data management extension architecture.

The paper distinguishes several failure classes that the common services
must coordinate: attachment *vetoes* of relation modifications, integrity
violations surfaced to the user, lock conflicts and deadlocks detected by
the common concurrency controller, and internal protocol violations by
extension implementations.  Every exception raised by the library derives
from :class:`ReproError` so applications can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


def _fill_unset(exc, fields: dict):
    """Set the containment fields of ``exc`` that are still None."""
    for name, value in fields.items():
        if value is not None and getattr(exc, name, None) is None:
            setattr(exc, name, value)
    return exc


class SchemaError(ReproError):
    """A record, field value, or schema definition is malformed."""


class CatalogError(ReproError):
    """A catalog lookup failed or a catalog invariant was violated."""


class DuplicateObjectError(CatalogError):
    """An object (relation, attachment, extension) already exists."""


class UnknownObjectError(CatalogError):
    """A named object does not exist in the catalogs."""


class RegistryError(ReproError):
    """An extension registration problem (duplicate id, unknown id, ...)."""


class DescriptorError(ReproError):
    """A relation descriptor is structurally invalid."""


class StorageError(ReproError):
    """A storage method could not complete an operation."""


class ReadOnlyError(StorageError):
    """A modification was attempted on a read-only storage method."""


class RecordNotFoundError(StorageError):
    """A direct-by-key access referenced a non-existent record key."""


class PageError(StorageError):
    """A page-level invariant was violated (overflow, bad slot, ...)."""


class StalePageError(PageError):
    """A freed page id was used for I/O (stale reference, not unallocated)."""


class ChecksumError(PageError):
    """A page read from the device failed its checksum (torn/corrupt page)."""


class BufferError_(ReproError):
    """Buffer pool protocol violation (unpin of unpinned page, ...)."""


class VetoError(ReproError):
    """Raised by an attachment to veto the relation modification.

    The dispatch layer converts a veto into a partial rollback of the
    storage-method change and of every attached procedure that already ran,
    then re-raises the veto to the caller.

    Structured containment fields (``relation``, ``attachment_id``,
    ``operation``, ``batch_index``) locate exactly where the veto fired;
    they are filled in by whoever knows them — the raising attachment
    sets ``batch_index``, the dispatch barrier sets the rest — via
    :meth:`annotate`, which never overwrites a value already present.
    """

    def __init__(self, attachment: str, reason: str, *,
                 relation: str = None, attachment_id: str = None,
                 operation: str = None, batch_index: int = None):
        super().__init__(f"attachment {attachment!r} vetoed operation: {reason}")
        self.attachment = attachment
        self.reason = reason
        self.relation = relation
        self.attachment_id = attachment_id
        self.operation = operation
        self.batch_index = batch_index

    def annotate(self, **fields) -> "VetoError":
        """Fill containment fields that are still unset; returns self."""
        return _fill_unset(self, fields)


class IntegrityError(VetoError):
    """An integrity constraint attachment rejected a modification."""


class CheckViolation(IntegrityError):
    """A single-record (intra-record) predicate was not satisfied."""


class UniqueViolation(IntegrityError):
    """A uniqueness constraint was violated."""


class ReferentialViolation(IntegrityError):
    """A referential integrity constraint was violated."""


class TransactionError(ReproError):
    """Transaction protocol violation (use after commit, bad savepoint, ...)."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and rolled back."""


class ReadOnlyTransactionError(TransactionError):
    """A snapshot (read-only) transaction attempted a modification."""


class SnapshotError(TransactionError):
    """A snapshot can no longer serve reads (e.g. it spanned a restart)."""


class AdmissionError(ReproError):
    """The session pool is at capacity; the connection was not admitted."""

    def __init__(self, limit: int):
        super().__init__(
            f"session pool is at capacity ({limit} active sessions)")
        self.limit = limit


class SessionError(ReproError):
    """Session protocol violation (use after close, nested begin, ...)."""


class LockError(ReproError):
    """Base class for concurrency control failures."""


class LockConflictError(LockError):
    """A lock request conflicts with locks held by other transactions.

    The library is deterministic and single-threaded: instead of blocking,
    a conflicting request either registers a wait (and the caller retries)
    or fails immediately, carrying the blocking transaction ids.
    """

    def __init__(self, resource, mode, holders):
        super().__init__(
            f"lock {mode.name} on {resource!r} conflicts with holders {sorted(holders)}"
        )
        self.resource = resource
        self.mode = mode
        self.holders = frozenset(holders)


class DeadlockError(LockError):
    """A cycle was found in the waits-for graph.

    ``cycle`` is normalised (rotated so its smallest transaction id comes
    first) so the same deadlock always reports the same cycle; ``victim``
    is the deterministically selected transaction that should abort (the
    youngest — highest id — participant).  The requester receiving this
    error is not necessarily the victim; callers abort ``victim``.
    """

    def __init__(self, cycle, victim=None):
        super().__init__(f"deadlock detected, waits-for cycle: {list(cycle)}")
        self.cycle = tuple(cycle)
        self.victim = victim if victim is not None else max(self.cycle)


class RecoveryError(ReproError):
    """The recovery protocol detected an inconsistency."""


class UnknownCheckpointModeError(RecoveryError, ValueError):
    """``Database.checkpoint`` was asked for a mode that does not exist."""

    def __init__(self, mode):
        super().__init__(f"unknown checkpoint mode {mode!r}")
        self.mode = mode


class UnknownEventError(ReproError, ValueError):
    """A subscription or deferred action named an event that is never
    fired; ``expected`` lists the ones that are."""

    def __init__(self, event, expected):
        super().__init__(f"unknown event {event!r} (expected one of "
                         f"{sorted(expected)})")
        self.event = event
        self.expected = frozenset(expected)


class AuthorizationError(ReproError):
    """The uniform authorization facility denied an operation."""


class QueryError(ReproError):
    """A query could not be parsed, planned, or executed."""


class PredicateError(QueryError):
    """A filter-predicate expression is malformed or mistyped."""


class ScanError(ReproError):
    """Scan protocol violation (use after close, bad position restore, ...)."""


class ForeignError(StorageError):
    """The foreign-database gateway could not complete a remote access."""


class GatewayError(ForeignError):
    """A transient foreign-gateway failure (lost message, remote hiccup).

    The gateway retries these with bounded deterministic backoff; repeated
    failures trip the circuit breaker, after which reads degrade and
    writes fail fast until a cooldown probe succeeds.
    """


class ReplicationError(StorageError):
    """The replication service could not complete a protocol step (no
    promotable standby, nothing to readmit, a broken parity invariant)."""


class FencingError(GatewayError):
    """A message carried a deposed primary's epoch and was rejected.

    Raised on the coordinator side when a participant bound to an old
    epoch tries to send, and on the standby side when a stale ship
    arrives.  A :class:`GatewayError` subclass so existing channel-failure
    cleanup (abort, in-doubt accounting) treats fenced work as
    undeliverable — but fenced sends are never retried: the fence is a
    decision, not a transient.
    """


class InjectedFault(ReproError):
    """The default error raised by a fired fault-injection point."""

    def __init__(self, point: str, call: int):
        super().__init__(f"injected fault at {point!r} (call #{call})")
        self.point = point
        self.call = call


class ExtensionFault(ReproError):
    """A non-:class:`ReproError` escaped an extension procedure.

    The dispatch fault barrier wraps the foreign exception so the shared
    transaction machinery sees a known failure class: the operation
    savepoint rolls the modification back exactly as for a veto, and
    repeat-offender access-path attachments are quarantined.  The original
    exception rides along as ``__cause__``.

    Structured containment fields mirror :class:`VetoError`.
    """

    def __init__(self, message: str, *, relation: str = None,
                 attachment_id: str = None, operation: str = None,
                 batch_index: int = None):
        super().__init__(message)
        self.relation = relation
        self.attachment_id = attachment_id
        self.operation = operation
        self.batch_index = batch_index

    def annotate(self, **fields) -> "ExtensionFault":
        """Fill containment fields that are still unset; returns self."""
        return _fill_unset(self, fields)
