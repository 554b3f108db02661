"""Common record and field-value representation.

The paper: "The most obvious interface convention is the common record and
field value representations needed to allow communication with the generic
operations comprising the storage method and attachment extensions."

Every storage method and attachment in this library exchanges records in
one canonical form: a tuple of Python field values ordered by the relation
schema, plus a binary wire form used on pages.  The binary form is a small
row format — a null bitmap, then the non-null field values in schema order,
fixed-width values as they are and variable-length ones behind a two-byte
length — that the schema's compiled decoder reads where it lies, while the
row is still in the buffer pool.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence, Tuple

from ..errors import SchemaError

__all__ = ["Box", "encode_value", "decode_value", "encode_record", "decode_record",
           "compile_decoder", "compile_page_decoder", "RecordView"]


class Box:
    """An axis-aligned rectangle, the value type of spatial (BOX) fields.

    Used by the R-tree attachment to evaluate the spatial predicates the
    paper names (``ENCLOSES``) plus the usual companions.  Coordinates are
    floats; ``lo`` is the lower-left corner and ``hi`` the upper-right.
    """

    __slots__ = ("x_lo", "y_lo", "x_hi", "y_hi")

    def __init__(self, x_lo: float, y_lo: float, x_hi: float, y_hi: float):
        if x_lo > x_hi or y_lo > y_hi:
            raise SchemaError(f"degenerate box: ({x_lo},{y_lo})..({x_hi},{y_hi})")
        self.x_lo = float(x_lo)
        self.y_lo = float(y_lo)
        self.x_hi = float(x_hi)
        self.y_hi = float(y_hi)

    # -- spatial predicates -------------------------------------------------
    def encloses(self, other: "Box") -> bool:
        """True when this box fully contains ``other`` (paper's ENCLOSES)."""
        return (self.x_lo <= other.x_lo and self.y_lo <= other.y_lo
                and self.x_hi >= other.x_hi and self.y_hi >= other.y_hi)

    def enclosed_by(self, other: "Box") -> bool:
        return other.encloses(self)

    def overlaps(self, other: "Box") -> bool:
        return not (self.x_hi < other.x_lo or other.x_hi < self.x_lo
                    or self.y_hi < other.y_lo or other.y_hi < self.y_lo)

    # -- geometry helpers used by the R-tree --------------------------------
    def area(self) -> float:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

    def union(self, other: "Box") -> "Box":
        return Box(min(self.x_lo, other.x_lo), min(self.y_lo, other.y_lo),
                   max(self.x_hi, other.x_hi), max(self.y_hi, other.y_hi))

    def enlargement(self, other: "Box") -> float:
        """Area growth needed for this box to cover ``other``."""
        return self.union(other).area() - self.area()

    # -- value protocol ------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Box)
                and (self.x_lo, self.y_lo, self.x_hi, self.y_hi)
                == (other.x_lo, other.y_lo, other.x_hi, other.y_hi))

    def __hash__(self) -> int:
        return hash((self.x_lo, self.y_lo, self.x_hi, self.y_hi))

    def __repr__(self) -> str:
        return f"Box({self.x_lo}, {self.y_lo}, {self.x_hi}, {self.y_hi})"


# ---------------------------------------------------------------------------
# Binary field encoding.
#
# Wire format per value (type tags come from the schema, not the wire):
#   INT    -> 8-byte signed little-endian
#   FLOAT  -> 8-byte IEEE double
#   BOOL   -> 1 byte
#   STRING -> u16 length + utf-8 bytes
#   BYTES  -> u16 length + raw bytes
#   BOX    -> 4 IEEE doubles
# ---------------------------------------------------------------------------

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_BOOL = struct.Struct("<B")
_LEN = struct.Struct("<H")
_BOX = struct.Struct("<dddd")


def encode_value(type_code: str, value) -> bytes:
    """Encode one non-null field value to its binary wire form."""
    if type_code == "INT":
        return _INT.pack(value)
    if type_code == "FLOAT":
        return _FLOAT.pack(value)
    if type_code == "BOOL":
        return _BOOL.pack(1 if value else 0)
    if type_code == "STRING":
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise SchemaError(f"string too long ({len(raw)} bytes)")
        return _LEN.pack(len(raw)) + raw
    if type_code == "BYTES":
        if len(value) > 0xFFFF:
            raise SchemaError(f"bytes too long ({len(value)} bytes)")
        return _LEN.pack(len(value)) + bytes(value)
    if type_code == "BOX":
        return _BOX.pack(value.x_lo, value.y_lo, value.x_hi, value.y_hi)
    raise SchemaError(f"unknown field type {type_code!r}")


def decode_value(type_code: str, buf: memoryview, offset: int):
    """Decode one field value; returns ``(value, next_offset)``."""
    if type_code == "INT":
        return _INT.unpack_from(buf, offset)[0], offset + 8
    if type_code == "FLOAT":
        return _FLOAT.unpack_from(buf, offset)[0], offset + 8
    if type_code == "BOOL":
        return bool(_BOOL.unpack_from(buf, offset)[0]), offset + 1
    if type_code == "STRING":
        (n,) = _LEN.unpack_from(buf, offset)
        start = offset + 2
        return bytes(buf[start:start + n]).decode("utf-8"), start + n
    if type_code == "BYTES":
        (n,) = _LEN.unpack_from(buf, offset)
        start = offset + 2
        return bytes(buf[start:start + n]), start + n
    if type_code == "BOX":
        x_lo, y_lo, x_hi, y_hi = _BOX.unpack_from(buf, offset)
        return Box(x_lo, y_lo, x_hi, y_hi), offset + 32
    raise SchemaError(f"unknown field type {type_code!r}")


def encode_record(schema, record: Sequence) -> bytes:
    """Encode a full record to the on-page wire form.

    Layout: null bitmap (one bit per field, 1 = NULL), then the non-null
    field values in schema order.
    """
    n = len(schema.fields)
    if len(record) != n:
        raise SchemaError(
            f"record has {len(record)} fields, schema {schema.name!r} has {n}")
    bitmap = bytearray((n + 7) // 8)
    parts = [bytes(bitmap)]  # placeholder, replaced below
    body = []
    for i, (field, value) in enumerate(zip(schema.fields, record)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
        else:
            body.append(encode_value(field.type_code, value))
    parts[0] = bytes(bitmap)
    return b"".join(parts + body)


def decode_record(schema, raw, offset: int = 0) -> Tuple:
    """Decode the on-page wire form back to a value tuple.

    ``raw`` is any buffer holding the record at ``offset`` — a pinned
    page's ``bytearray`` as well as record bytes on their own — read by
    the schema's compiled decoder (:func:`compile_decoder`).
    """
    return schema.decoder(raw, offset)


def _decode_with_nulls(fields, buf, offset: int) -> Tuple:
    """The general decode: one bitmap test and one ``decode_value`` a field."""
    pos = offset + (len(fields) + 7) // 8
    values = []
    for i, field in enumerate(fields):
        if buf[offset + i // 8] & (1 << (i % 8)):
            values.append(None)
        else:
            value, pos = decode_value(field.type_code, buf, pos)
            values.append(value)
    return tuple(values)


_FIXED_FORMATS = {"INT": "q", "FLOAT": "d", "BOOL": "B", "BOX": "dddd"}


def _record_reads(fields, wanted, on_null, indent):
    """The generated body that reads one record at ``off`` of ``buf``:
    the statements (a record with a NULL bit set runs ``on_null``, where
    ``general`` decodes it whole), the value expression of each
    ``wanted`` field position, and the names the statements use.

    A record without NULLs has a layout the field types alone decide:
    each run of fixed-width fields, with the length prefix of the
    variable-length field that follows, is one ``unpack_from`` — pad
    bytes stand for the fields nobody asked for — a string is sliced out
    of ``buf`` only when wanted, and nothing past the last wanted field
    is read at all.
    """
    names = {"fields": fields, "general": _decode_with_nulls, "Box": Box}
    bitmap = (len(fields) + 7) // 8
    null_test = "buf[off]" if bitmap == 1 else f"any(buf[off:off + {bitmap}])"
    lines = [f"if {null_test}:", *("    " + line for line in on_null),
             f"p = off + {bitmap}"]
    last = max(wanted, default=-1)
    values = {}
    i = 0
    while i <= last:
        fmt, targets, unpack = "<", [], f"s{i}"
        while i <= last and fields[i].type_code in _FIXED_FORMATS:
            type_code = fields[i].type_code
            code = _FIXED_FORMATS[type_code]
            if i not in wanted:
                code = f"{struct.calcsize('<' + code)}x"
            elif type_code == "BOX":
                corners = [f"v{i}_{c}" for c in range(4)]
                targets += corners
                values[i] = f"Box({', '.join(corners)})"
            else:
                targets.append(f"v{i}")
                values[i] = f"v{i} != 0" if type_code == "BOOL" else f"v{i}"
            fmt += code
            i += 1
        # A STRING or BYTES field ends the run: its length rides along.
        run = struct.Struct(fmt + "H" if i <= last else fmt)
        names[unpack] = run.unpack_from
        if i <= last:
            targets.append("n")
        lines.append(f"{', '.join(targets)}, = {unpack}(buf, p)")
        if i in wanted:
            value = "str(buf[p:e], 'utf-8')" \
                if fields[i].type_code == "STRING" else "bytes(buf[p:e])"
            lines += [f"p += {run.size}", "e = p + n", f"v{i} = {value}",
                      "p = e"]
            values[i] = f"v{i}"
        elif i <= last:
            lines.append(f"p += {run.size} + n")
        i += 1
    return [indent + line for line in lines], values, names


def compile_decoder(fields):
    """Build ``decode(buf, offset=0) -> tuple`` for one field list
    (generated, see :func:`_record_reads`)."""
    reads, values, names = _record_reads(
        fields, range(len(fields)), ["return general(fields, buf, off)"],
        "    ")
    lines = ["def decode(buf, off=0):", *reads, "    return (%s,)"
             % ", ".join(values[i] for i in range(len(fields)))]
    exec("\n".join(lines), names)  # built from type codes only
    return names["decode"]


def compile_page_decoder(fields, wanted: Sequence[int]):
    """Build ``decode_page(buf, offsets) -> columns`` for one field list
    and one wanted field set: a single pass over the records at
    ``offsets`` (a page's live slots) fills one list per entry of
    ``wanted``, in its order, reading only what those fields need — the
    empty set reads nothing."""
    distinct = sorted(set(wanted))
    if not distinct:
        return lambda buf, offsets: ()
    reads, values, names = _record_reads(
        fields, distinct, ["row = general(fields, buf, off)",
                           *(f"a{i}(row[{i}])" for i in distinct),
                           "continue"], " " * 8)
    lines = ["def decode_page(buf, offsets):",
             *(f"    c{i} = []; a{i} = c{i}.append" for i in distinct),
             "    for off in offsets:", *reads,
             *(f"        a{i}({values[i]})" for i in distinct),
             f"    return ({''.join(f'c{i}, ' for i in wanted)})"]
    exec("\n".join(lines), names)  # built from type codes only
    return names["decode_page"]


class RecordView:
    """A partial view of a record: only selected fields are materialised.

    Access paths evaluate filter predicates against the fields available in
    their keys *before* fetching the full record (the paper's early
    filtering).  A ``RecordView`` lets the common predicate evaluator treat
    a full record and a partial key uniformly: it maps schema field index →
    value and reports which fields are available.
    """

    __slots__ = ("_values", "_available")

    def __init__(self, values: dict):
        self._values = values
        self._available = frozenset(values)

    @classmethod
    def from_record(cls, record: Sequence) -> "RecordView":
        return cls({i: v for i, v in enumerate(record)})

    @classmethod
    def from_fields(cls, indexes: Sequence[int], values: Sequence) -> "RecordView":
        return cls(dict(zip(indexes, values)))

    @property
    def available(self) -> frozenset:
        return self._available

    def covers(self, indexes: Iterable[int]) -> bool:
        """True when every listed field position is available in the view."""
        return all(i in self._available for i in indexes)

    def __getitem__(self, index: int):
        try:
            return self._values[index]
        except KeyError:
            raise SchemaError(f"field {index} not available in this view") from None

    def get(self, index: int, default=None):
        return self._values.get(index, default)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}={self._values[i]!r}" for i in sorted(self._values))
        return f"RecordView({inner})"
