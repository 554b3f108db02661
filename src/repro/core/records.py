"""Common record and field-value representation.

The paper: "The most obvious interface convention is the common record and
field value representations needed to allow communication with the generic
operations comprising the storage method and attachment extensions."

Every storage method and attachment in this library exchanges records in
one canonical form: a tuple of Python field values ordered by the relation
schema, plus a binary wire form used on pages.  The binary form is a small
row format — a null bitmap, every fixed-width field at its full width (zero
bytes when NULL), a two-byte length per variable-length field, then the
variable-length bytes — so every fixed field and every length sits at an
offset the schema alone decides.  The schema's compiled encoder packs that
prefix with one ``Struct.pack``, and its compiled decoders read a record's
wanted fields with one ``unpack_from`` where the record lies, while it is
still in the buffer pool.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence, Tuple

from ..errors import SchemaError

__all__ = ["Box", "encode_record", "decode_record", "compile_encoder",
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
# Binary record layout (field types come from the schema, not the wire):
#   1. the null bitmap, one bit a field (1 = NULL);
#   2. every fixed-width field in schema order, zero bytes when NULL:
#        INT -> 8-byte signed, FLOAT -> 8-byte IEEE double, BOOL -> 1 byte,
#        BOX -> 4 IEEE doubles;
#   3. one u16 length a STRING / BYTES field in schema order, 0 when NULL;
#   4. the variable-length bytes (utf-8 for STRING) in schema order.
# All little-endian.  Everything before (4) sits at offsets the schema
# alone decides, so one ``struct`` reads or writes it whole.
# ---------------------------------------------------------------------------

_FIXED_FORMATS = {"INT": "q", "FLOAT": "d", "BOOL": "?", "BOX": "dddd"}
_NO_BOX = Box(0, 0, 0, 0)


def _layout(fields):
    """``(bitmap bytes, fixed-width positions, variable-length positions,
    struct format of everything before the variable-length bytes)`` of
    one field list."""
    bitmap = (len(fields) + 7) // 8
    fixed = [i for i, f in enumerate(fields) if f.type_code in _FIXED_FORMATS]
    variable = [i for i, f in enumerate(fields)
                if f.type_code not in _FIXED_FORMATS]
    codes = "".join(_FIXED_FORMATS[fields[i].type_code] for i in fixed)
    return bitmap, fixed, variable, f"<{'B' * bitmap}{codes}" + \
        "H" * len(variable)


def compile_encoder(name, fields):
    """Build ``encode(record) -> bytes`` for one field list: the bitmap,
    fixed-width fields and lengths in one ``Struct.pack``, the
    variable-length bytes behind them.  A string or bytes value over
    0xFFFF bytes (or any value ``struct`` refuses) raises
    :class:`SchemaError`."""
    n = len(fields)
    bitmap, fixed, variable, fmt = _layout(fields)
    values = [f"v{i}" for i in range(n)]
    lines = ["def encode(record):",
             f"    if len(record) != {n}:",
             "        raise SchemaError(f'record has {len(record)} fields, "
             f"schema {{name!r}} has {n}')",
             f"    {', '.join(values)}, = record",
             *(f"    m{b} = 0" for b in range(bitmap))]
    for i, field in enumerate(fields):
        empty = {"STRING": "b''", "BYTES": "b''", "BOX": "no_box"}.get(
            field.type_code, "0")
        lines += [f"    if v{i} is None:",
                  f"        m{i // 8} |= {1 << i % 8}; v{i} = {empty}"]
        if field.type_code == "STRING":
            lines += ["    else:", f"        v{i} = v{i}.encode('utf-8')"]
    args = [f"m{b}" for b in range(bitmap)]
    for i in fixed:
        args += [f"v{i}.{c}" for c in Box.__slots__] \
            if fields[i].type_code == "BOX" else [f"v{i}"]
    args += [f"len(v{i})" for i in variable]
    lines += ["    try:",
              f"        return pack({', '.join(args)})"
              + "".join(f" + v{i}" for i in variable),
              "    except struct_error as exc:",
              "        raise SchemaError(f'record does not fit schema "
              "{name!r}: {exc}') from None"]
    names = {"pack": struct.Struct(fmt).pack, "struct_error": struct.error,
             "SchemaError": SchemaError, "no_box": _NO_BOX, "name": name}
    exec("\n".join(lines), names)  # built from type codes only
    return names["encode"]


def encode_record(schema, record: Sequence) -> bytes:
    """Encode a full record to the on-page wire form with the schema's
    compiled encoder (:func:`compile_encoder`)."""
    return schema.encoder(record)


def decode_record(schema, raw, offset: int = 0) -> Tuple:
    """Decode the on-page wire form back to a value tuple.

    ``raw`` is any buffer holding the record at ``offset`` — a pinned
    page's ``bytearray`` as well as record bytes on their own — read by
    the schema's compiled decoder (:func:`compile_decoder`).
    """
    return schema.decoder(raw, offset)


def _record_reads(fields, wanted, indent):
    """The generated body that reads one record at ``off`` of ``buf`` into
    ``v<i>`` for each ``wanted`` field position: its statements and the
    names they use.

    One ``unpack_from`` reads the bitmap bytes, fixed-width fields and
    string lengths the wanted fields need — pad bytes stand for the rest,
    and nothing past the last of them is read — then each wanted string
    is sliced out of ``buf``.  A set bit of the bitmap turns its wanted
    value into ``None``; a record without NULLs tests one byte.
    """
    bitmap, fixed, variable, prefix = _layout(fields)
    wanted = set(wanted)
    last = max((i for i in variable if i in wanted), default=-1)
    strings = [i for i in variable if i <= last]
    reads = [("B", f"m{b}") if any(i // 8 == b for i in wanted)
             else ("x", None) for b in range(bitmap)]
    for i in fixed:
        code = _FIXED_FORMATS[fields[i].type_code]
        if i not in wanted:
            reads.append((f"{struct.calcsize('<' + code)}x", None))
        elif code == "dddd":
            reads += [("d", f"v{i}_{c}") for c in range(4)]
        else:
            reads.append((code, f"v{i}"))
    reads += [("H", f"n{i}") for i in strings]
    while reads[-1][1] is None:
        reads.pop()                       # nothing past the last read
    unpack = struct.Struct("<" + "".join(code for code, __ in reads))
    names = {"unpack": unpack.unpack_from, "Box": Box}
    lines = [", ".join(t for __, t in reads if t) + ", = unpack(buf, off)"]
    lines += [f"v{i} = Box({', '.join(f'v{i}_{c}' for c in range(4))})"
              for i in fixed if i in wanted and fields[i].type_code == "BOX"]
    if strings:
        lines.append(f"p = off + {struct.calcsize(prefix)}")
    for i in strings:
        if i not in wanted:
            lines.append(f"p += n{i}")
            continue
        value = "str(buf[p:e], 'utf-8')" \
            if fields[i].type_code == "STRING" else "bytes(buf[p:e])"
        lines += [f"e = p + n{i}", f"v{i} = {value}", "p = e"]
    if strings:
        lines.pop()                       # nothing is read after it
    for b in range(bitmap):
        mine = sorted(i for i in wanted if i // 8 == b)
        if mine:
            lines += [f"if m{b}:", *(f"    if m{b} & {1 << i % 8}: v{i} = None"
                                     for i in mine)]
    return [indent + line for line in lines], names


def compile_decoder(fields):
    """Build ``decode(buf, offset=0) -> tuple`` for one field list
    (generated, see :func:`_record_reads`)."""
    reads, names = _record_reads(fields, range(len(fields)), "    ")
    lines = ["def decode(buf, off=0):", *reads, "    return (%s,)"
             % ", ".join(f"v{i}" for i in range(len(fields)))]
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
    reads, names = _record_reads(fields, distinct, " " * 8)
    lines = ["def decode_page(buf, offsets):",
             *(f"    c{i} = []; a{i} = c{i}.append" for i in distinct),
             "    for off in offsets:", *reads,
             *(f"        a{i}(v{i})" for i in distinct),
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
