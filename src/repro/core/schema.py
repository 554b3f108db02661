"""Relation schemas: field definitions, typing, and record validation.

A :class:`Schema` is the common, extension-independent description of a
relation's record layout.  It is stored in the system catalogs, embedded in
relation descriptors, and consulted by every storage method and attachment
when encoding, decoding, or projecting records.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence, Tuple

from ..errors import SchemaError
from .records import (Box, compile_decoder, compile_encoder,
                      compile_page_decoder)

__all__ = ["FIELD_TYPES", "Field", "Schema"]

#: The supported field type codes and a Python-level type check for each.
FIELD_TYPES = {
    "INT": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                      and -2**63 <= v < 2**63),
    "FLOAT": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "STRING": lambda v: isinstance(v, str),
    "BOOL": lambda v: isinstance(v, bool),
    "BYTES": lambda v: isinstance(v, (bytes, bytearray)),
    "BOX": lambda v: isinstance(v, Box),
}

#: Types on which ordering comparisons (and therefore B-tree keys and
#: key-sequential ordering) are defined, each with the Python types its
#: values order against.
ORDERABLE_TYPES = {"INT": (int, float), "FLOAT": (int, float),
                   "BOOL": (int, float), "STRING": str,
                   "BYTES": (bytes, bytearray)}


class Field:
    """One field (column) of a relation schema."""

    __slots__ = ("name", "type_code", "nullable")

    def __init__(self, name: str, type_code: str, nullable: bool = True):
        # Dots are allowed so the query layer can synthesise qualified
        # (table.column) names for join output schemas.
        if not name or not name.replace("_", "").replace(".", "").isalnum():
            raise SchemaError(f"bad field name {name!r}")
        if type_code not in FIELD_TYPES:
            raise SchemaError(
                f"unknown field type {type_code!r} (expected one of "
                f"{sorted(FIELD_TYPES)})")
        self.name = name.lower()
        self.type_code = type_code
        self.nullable = nullable

    def check_value(self, value) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this field."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"field {self.name!r} is not nullable")
            return
        if not FIELD_TYPES[self.type_code](value):
            raise SchemaError(
                f"field {self.name!r} expects {self.type_code}, got "
                f"{type(value).__name__} {value!r}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.name, self.type_code, self.nullable)
                == (other.name, other.type_code, other.nullable))

    def __hash__(self) -> int:
        return hash((self.name, self.type_code, self.nullable))

    def __repr__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"Field({self.name} {self.type_code}{null})"


class Schema:
    """An ordered collection of fields describing a relation's records."""

    def __init__(self, name: str, fields: Sequence[Field]):
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema {name!r}")
        self.name = name.lower()
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._index = {f.name: i for i, f in enumerate(self.fields)}
        self._page_decoders: dict = {}
        self._bytes_at = tuple(i for i, f in enumerate(self.fields)
                               if f.type_code == "BYTES")

    # -- lookups -------------------------------------------------------------
    def field_index(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no field {name!r} "
                f"(fields: {', '.join(self._index)})") from None

    def field(self, name: str) -> Field:
        return self.fields[self.field_index(name)]

    def indexes_of(self, names: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.field_index(n) for n in names)

    @cached_property
    def encoder(self):
        """``encode(record) -> bytes`` for this record layout, compiled on
        first use."""
        return compile_encoder(self.name, self.fields)

    @cached_property
    def decoder(self):
        """``decode(buf, offset=0) -> tuple`` for this record layout,
        compiled on first use (join schemas never decode a page)."""
        return compile_decoder(self.fields)

    def page_decoder(self, wanted: Tuple[int, ...]):
        """``decode_page(buf, offsets) -> columns`` of the ``wanted``
        field positions, compiled once per wanted set."""
        try:
            return self._page_decoders[wanted]
        except KeyError:
            decoder = self._page_decoders[wanted] = compile_page_decoder(
                self.fields, wanted)
            return decoder

    # -- validation ----------------------------------------------------------
    def check_record(self, record: Sequence) -> Tuple:
        """Validate and normalise a record against this schema.

        Accepts any sequence of values in field order and returns the
        canonical tuple form, a BYTES ``bytearray`` as the hashable
        ``bytes`` it equals (as a heap decodes it).  Raises
        :class:`SchemaError` on arity or type mismatches.
        """
        if len(record) != len(self.fields):
            raise SchemaError(
                f"record has {len(record)} values, schema {self.name!r} "
                f"has {len(self.fields)} fields")
        for field, value in zip(self.fields, record):
            field.check_value(value)
        if self._bytes_at and any(record[i].__class__ is bytearray
                                  for i in self._bytes_at):
            return tuple(bytes(value) if value.__class__ is bytearray
                         else value for value in record)
        return tuple(record)

    def check_partial(self, updates: dict) -> dict:
        """Validate a {field name: value} partial update; returns
        {field index: value}."""
        normalised = {}
        for name, value in updates.items():
            i = self.field_index(name)
            self.fields[i].check_value(value)
            normalised[i] = value
        return normalised

    def apply_update(self, record: Sequence, updates: dict) -> Tuple:
        """Return a new record tuple with ``updates`` ({index: value})
        applied.  The values are not validated here: ``check_partial``
        made ``updates``, and the data manager checks every record it is
        given to store."""
        values = list(record)
        for i, value in updates.items():
            values[i] = value
        return tuple(values)

    def orderable(self, name: str) -> bool:
        return self.field(name).type_code in ORDERABLE_TYPES

    def comparable(self, index: int, value) -> bool:
        """Whether ``value`` orders against field ``index``'s values."""
        return isinstance(value, ORDERABLE_TYPES.get(
            self.fields[index].type_code, ()))

    # -- value protocol --------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Schema) and self.name == other.name
                and self.fields == other.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name} {f.type_code}" for f in self.fields)
        return f"Schema({self.name}: {cols})"
