"""Extension registry and procedure vectors.

The paper: "For each direct or indirect generic operation, there is a
vector of addresses for the procedures that implement the corresponding
operation ...  Storage method and attachment internal identifiers are
small integers that serve as indexes into the vectors of procedures ...
the base database system has a storage method for implementing temporary
relations and that storage method is assigned the internal identifier 1."

Extensions are "made at the factory": they are registered when the
database instance is constructed (the Python analogue of being compiled
and linked with the DBMS), after which dispatch is a list index — no name
lookup on the hot path.  Benchmark E1 measures exactly this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import RegistryError
from .attachment import AttachmentType
from .storage_method import StorageMethod

__all__ = ["ExtensionRegistry"]


class ExtensionRegistry:
    """Assigns identifiers and maintains the procedure vectors."""

    def __init__(self):
        # Index 0 is reserved: "access path zero is interpreted as an
        # access to the storage method" — so neither vector uses slot 0.
        self._storage_methods: List[Optional[StorageMethod]] = [None]
        self._attachment_types: List[Optional[AttachmentType]] = [None]
        self._storage_by_name: Dict[str, StorageMethod] = {}
        self._attachment_by_name: Dict[str, AttachmentType] = {}

        # Direct-operation procedure vectors (one entry per storage method).
        self.storage_insert: List[Optional[Callable]] = [None]
        self.storage_update: List[Optional[Callable]] = [None]
        self.storage_delete: List[Optional[Callable]] = [None]
        self.storage_fetch: List[Optional[Callable]] = [None]
        self.storage_fetch_many: List[Optional[Callable]] = [None]
        self.storage_open_scan: List[Optional[Callable]] = [None]

        # Set-at-a-time counterparts — the ones dispatch drives for every
        # modification.  The entries default to the base-class fallbacks
        # (which loop the per-record routines) unless the method overrides
        # a batch hook.
        self.storage_insert_batch: List[Optional[Callable]] = [None]
        self.storage_update_batch: List[Optional[Callable]] = [None]
        self.storage_delete_batch: List[Optional[Callable]] = [None]

        # Attached-procedure vectors (one entry per attachment type) for
        # relation insert, update, and delete.
        self.attached_insert: List[Optional[Callable]] = [None]
        self.attached_update: List[Optional[Callable]] = [None]
        self.attached_delete: List[Optional[Callable]] = [None]

        # Set-at-a-time attached-procedure vectors (one call per batch).
        self.attached_insert_batch: List[Optional[Callable]] = [None]
        self.attached_update_batch: List[Optional[Callable]] = [None]
        self.attached_delete_batch: List[Optional[Callable]] = [None]

    # -- registration ("at the factory") -----------------------------------------
    def register_storage_method(self, method: StorageMethod,
                                recovery=None) -> int:
        """Install a storage method; returns its assigned identifier.

        When the method is recoverable and supplies a ``recovery_handler()``,
        the handler is registered with the recovery manager passed in
        ``recovery``.  A method must implement at least one form of each
        operation: the base derives either from the other.
        """
        if not method.name:
            raise RegistryError("storage method needs a name")
        if method.name in self._storage_by_name:
            raise RegistryError(
                f"storage method {method.name!r} already registered")
        for forms in (("insert", "insert_batch"), ("update", "update_batch"),
                      ("delete", "delete_batch"), ("fetch", "fetch_many")):
            if all(getattr(type(method), form) is getattr(StorageMethod, form)
                   for form in forms):
                raise RegistryError(
                    f"storage method {method.name!r} implements neither "
                    f"{forms[0]} nor {forms[1]}")
        method_id = len(self._storage_methods)
        method.method_id = method_id
        self._storage_methods.append(method)
        self._storage_by_name[method.name] = method
        self.storage_insert.append(method.insert)
        self.storage_update.append(method.update)
        self.storage_delete.append(method.delete)
        self.storage_fetch.append(method.fetch)
        self.storage_fetch_many.append(method.fetch_many)
        self.storage_open_scan.append(method.open_scan)
        self.storage_insert_batch.append(method.insert_batch)
        self.storage_update_batch.append(method.update_batch)
        self.storage_delete_batch.append(method.delete_batch)
        handler = getattr(method, "recovery_handler", None)
        if recovery is not None and handler is not None:
            recovery.register_handler(method.resource, handler())
        return method_id

    def register_attachment_type(self, attachment: AttachmentType,
                                 recovery=None) -> int:
        """Install an attachment type; returns its assigned identifier."""
        if not attachment.name:
            raise RegistryError("attachment type needs a name")
        if attachment.name in self._attachment_by_name:
            raise RegistryError(
                f"attachment type {attachment.name!r} already registered")
        type_id = len(self._attachment_types)
        attachment.type_id = type_id
        self._attachment_types.append(attachment)
        self._attachment_by_name[attachment.name] = attachment
        self.attached_insert.append(attachment.on_insert)
        self.attached_update.append(attachment.on_update)
        self.attached_delete.append(attachment.on_delete)
        self.attached_insert_batch.append(attachment.on_insert_batch)
        self.attached_update_batch.append(attachment.on_update_batch)
        self.attached_delete_batch.append(attachment.on_delete_batch)
        handler = attachment.recovery_handler()
        if recovery is not None and handler is not None:
            recovery.register_handler(attachment.resource, handler)
        return type_id

    # -- vector-indexed lookup (the hot path) ----------------------------------------
    def storage_method(self, method_id: int) -> StorageMethod:
        try:
            method = self._storage_methods[method_id]
        except IndexError:
            method = None
        if method is None:
            raise RegistryError(f"no storage method with id {method_id}")
        return method

    def attachment_type(self, type_id: int) -> AttachmentType:
        try:
            attachment = self._attachment_types[type_id]
        except IndexError:
            attachment = None
        if attachment is None:
            raise RegistryError(f"no attachment type with id {type_id}")
        return attachment

    # -- name lookup (DDL / catalog time only) ------------------------------------------
    def storage_method_by_name(self, name: str) -> StorageMethod:
        try:
            return self._storage_by_name[name]
        except KeyError:
            raise RegistryError(
                f"unknown storage method {name!r} (available: "
                f"{sorted(self._storage_by_name)})") from None

    def attachment_type_by_name(self, name: str) -> AttachmentType:
        try:
            return self._attachment_by_name[name]
        except KeyError:
            raise RegistryError(
                f"unknown attachment type {name!r} (available: "
                f"{sorted(self._attachment_by_name)})") from None

    # -- introspection ---------------------------------------------------------------------
    @property
    def storage_methods(self) -> tuple:
        return tuple(m for m in self._storage_methods if m is not None)

    @property
    def attachment_types(self) -> tuple:
        return tuple(a for a in self._attachment_types if a is not None)

    def __repr__(self) -> str:
        return (f"ExtensionRegistry({len(self.storage_methods)} storage "
                f"methods, {len(self.attachment_types)} attachment types)")
