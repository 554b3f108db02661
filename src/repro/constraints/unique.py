"""Uniqueness constraint attachment (a constraint *with storage*).

The paper stresses that attachments differ from plain triggers "because
they may have associated storage".  A uniqueness constraint's storage is
exactly a unique B-tree index, so this type *is* the
:class:`~repro.access.btree_index.BTreeIndexAttachment` with one declared
difference: it is not an access path, so the planner is never offered it.
It vetoes a duplicate with :class:`~repro.errors.UniqueViolation`, and a
record with a NULL in any constrained column is exempt (SQL semantics).

DDL attributes: ``columns`` (list of column names, required).
"""

from __future__ import annotations

from ..access.btree_index import BTreeIndexAttachment
from ..errors import StorageError

__all__ = ["UniqueConstraintAttachment"]


class UniqueConstraintAttachment(BTreeIndexAttachment):
    """Vetoes modifications that would duplicate the constrained columns."""

    name = "unique"
    is_access_path = False

    def validate_attributes(self, schema, attributes):
        extra = sorted(set(attributes) - {"columns"})
        if extra:
            raise StorageError(f"{self.name}: unknown attributes {extra}")
        return dict(super().validate_attributes(schema, attributes),
                    unique=True)
