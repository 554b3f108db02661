"""The extensible relation descriptor.

The paper: "The relation descriptor is composed of a relation storage
method descriptor and descriptors for any attachments defined on the
relation instance.  The structure of the relation descriptor is a record
whose header contains the storage method identifier and whose first field
contains the storage method descriptor.  Each attachment has an assigned
identifier, and the descriptor for the attachment with identifier N is
found in field N of the relation descriptor.  If there are no instances of
attachment type N defined on a particular relation, then field N of that
relation's descriptor will be NULL."

The common system manages the composite; each extension supplies and
interprets only its own part.  The descriptor is fetched from the catalogs
at query compilation time and embedded in bound plans, eliminating catalog
access at run time — the plan cache (query/plans.py) relies on that.
"""

from __future__ import annotations

import pickle
from typing import Iterator, List, Optional, Tuple

from ..errors import DescriptorError

__all__ = ["RelationDescriptor"]


class RelationDescriptor:
    """Header (storage method id + storage descriptor) plus one field per
    registered attachment type."""

    __slots__ = ("storage_method_id", "storage_descriptor", "_fields",
                 "version")

    def __init__(self, storage_method_id: int, storage_descriptor: dict):
        if storage_method_id < 1:
            raise DescriptorError(
                f"bad storage method id {storage_method_id} (0 is reserved "
                "for 'access via the storage method')")
        self.storage_method_id = storage_method_id
        self.storage_descriptor = storage_descriptor
        self._fields: List[Optional[dict]] = []
        #: Bumped on every structural change; bound plans compare versions
        #: to detect that the descriptor they embedded is stale.
        self.version = 0

    # -- attachment fields ---------------------------------------------------
    def attachment_field(self, type_id: int) -> Optional[dict]:
        """Field ``type_id`` of the descriptor record, or None."""
        if type_id < 1:
            raise DescriptorError(f"bad attachment type id {type_id}")
        if type_id > len(self._fields):
            return None
        return self._fields[type_id - 1]

    def set_attachment_field(self, type_id: int, field: Optional[dict]) -> None:
        if type_id < 1:
            raise DescriptorError(f"bad attachment type id {type_id}")
        while len(self._fields) < type_id:
            self._fields.append(None)
        self._fields[type_id - 1] = field
        self.version += 1

    def present_attachments(self) -> Iterator[Tuple[int, dict]]:
        """Yield ``(type_id, field descriptor)`` for non-NULL fields, in
        type-id order — the order attached procedures are driven in."""
        for i, field in enumerate(self._fields):
            if field is not None:
                yield i + 1, field

    def attachment_count(self) -> int:
        return sum(1 for _ in self.present_attachments())

    # -- record-oriented encoding ------------------------------------------------
    def encode(self) -> bytes:
        """Serialise to the record-oriented catalog form.

        The paper notes this format "effectively limits the number of
        different attachment types to a few dozen without beginning to
        incur significant storage overhead ... (since non-present
        attachments will require a few bytes in the record-oriented
        relation descriptor format)" — tests measure exactly that overhead.
        """
        return pickle.dumps(
            (self.storage_method_id, self.storage_descriptor,
             list(self._fields), self.version),
            protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def decode(cls, raw: bytes) -> "RelationDescriptor":
        method_id, storage_descriptor, fields, version = pickle.loads(raw)
        descriptor = cls(method_id, storage_descriptor)
        descriptor._fields = fields
        descriptor.version = version
        return descriptor

    def __repr__(self) -> str:
        present = [i for i, _ in self.present_attachments()]
        return (f"RelationDescriptor(sm={self.storage_method_id}, "
                f"attachments={present}, v{self.version})")
