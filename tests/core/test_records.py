"""Record and field-value representation: encoding, views, boxes."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import Box, RecordView, decode_record, encode_record
from repro.core.schema import Field, Schema
from repro.errors import SchemaError
from repro.services.pages import TOMBSTONE, PageView


@pytest.fixture
def schema():
    return Schema("t", [Field("id", "INT"), Field("name", "STRING"),
                        Field("score", "FLOAT"), Field("flag", "BOOL"),
                        Field("blob", "BYTES"), Field("area", "BOX")])


def test_record_roundtrip_all_types(schema):
    record = (42, "héllo", 3.25, True, b"\x00\x01", Box(1, 2, 3, 4))
    assert decode_record(schema, encode_record(schema, record)) == record


def test_record_roundtrip_with_nulls(schema):
    record = (None, None, None, None, None, None)
    assert decode_record(schema, encode_record(schema, record)) == record
    mixed = (7, None, 1.5, None, b"", Box(0, 0, 0, 0))
    assert decode_record(schema, encode_record(schema, mixed)) == mixed


def test_encode_record_arity_checked(schema):
    with pytest.raises(SchemaError):
        encode_record(schema, (1, 2))


def test_value_roundtrip_each_type():
    cases = [("INT", -2**40, 8), ("FLOAT", -0.125, 8), ("BOOL", False, 1),
             ("STRING", "ünïcode", 2 + 9), ("BYTES", b"abc", 2 + 3),
             ("BOX", Box(-1.5, 0, 2.5, 3), 32)]
    for code, value, width in cases:
        one = Schema("t", [Field("f", code)])
        raw = encode_record(one, (value,))
        assert decode_record(one, memoryview(raw)) == (value,)
        assert len(raw) == 1 + width


def test_string_length_limit():
    """A STRING or BYTES value over 0xFFFF bytes is a SchemaError from the
    record encoder; at the limit it round-trips."""
    both = Schema("t", [Field("s", "STRING"), Field("b", "BYTES")])
    for record in (("x" * 70000, b""), ("", b"x" * 0x10000),
                   ("é" * 0x8000, None)):      # 0x10000 bytes of utf-8
        with pytest.raises(SchemaError):
            encode_record(both, record)
    record = ("x" * 0xFFFF, b"y" * 0xFFFF)
    assert decode_record(both, encode_record(both, record)) == record


# ---------------------------------------------------------------------------
# RecordView
# ---------------------------------------------------------------------------

def test_view_from_record_covers_everything():
    view = RecordView.from_record((1, 2, 3))
    assert view.covers([0, 1, 2])
    assert view[1] == 2


def test_partial_view_reports_missing_fields():
    view = RecordView.from_fields((0, 3), ("a", "d"))
    assert view.covers([0, 3])
    assert not view.covers([1])
    assert view[3] == "d"
    assert view.get(1, "missing") == "missing"
    with pytest.raises(SchemaError):
        view[1]


# ---------------------------------------------------------------------------
# Box geometry
# ---------------------------------------------------------------------------

def test_box_degenerate_rejected():
    with pytest.raises(SchemaError):
        Box(5, 0, 1, 1)


def test_box_encloses_is_reflexive_and_antisymmetric():
    a = Box(0, 0, 10, 10)
    b = Box(2, 2, 5, 5)
    assert a.encloses(a)
    assert a.encloses(b)
    assert not b.encloses(a)
    assert b.enclosed_by(a)


def test_box_overlap_touching_edges_counts():
    assert Box(0, 0, 1, 1).overlaps(Box(1, 1, 2, 2))
    assert not Box(0, 0, 1, 1).overlaps(Box(1.01, 0, 2, 1))


def test_box_union_and_enlargement():
    a = Box(0, 0, 1, 1)
    b = Box(2, 2, 3, 3)
    union = a.union(b)
    assert (union.x_lo, union.y_lo, union.x_hi, union.y_hi) == (0, 0, 3, 3)
    assert a.enlargement(b) == union.area() - a.area()
    assert a.enlargement(Box(0.2, 0.2, 0.8, 0.8)) == 0


def test_box_equality_and_hash():
    assert Box(0, 0, 1, 1) == Box(0, 0, 1, 1)
    assert hash(Box(0, 0, 1, 1)) == hash(Box(0, 0, 1, 1))
    assert Box(0, 0, 1, 1) != Box(0, 0, 1, 2)


# ---------------------------------------------------------------------------
# The compiled decoder against a per-field reference decode
# ---------------------------------------------------------------------------

_VALUES = {
    "INT": st.integers(-2**63, 2**63 - 1),
    "FLOAT": st.floats(allow_nan=False),
    "BOOL": st.booleans(),
    "STRING": st.text(max_size=12),        # multi-byte and empty included
    "BYTES": st.binary(max_size=12),
    "BOX": st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                     st.floats(0, 1e6), st.floats(0, 1e6))
    .map(lambda b: Box(b[0], b[1], b[0] + b[2], b[1] + b[3])),
}


def field_codes(max_size):
    """Field type lists: any mix, all STRING or all BYTES."""
    return st.one_of(
        st.lists(st.sampled_from(sorted(_VALUES)), min_size=1,
                 max_size=max_size),
        *(st.lists(st.just(code), min_size=1, max_size=max_size)
          for code in ("STRING", "BYTES")))


@st.composite
def record_of(draw, codes, nulls):
    """One record of ``codes``: no NULLs (``"none"``), a NULL anywhere
    (``"some"``), or at least half the fields NULL (``"heavy"``)."""
    if nulls == "heavy":
        null = draw(st.sets(st.integers(0, len(codes) - 1),
                            min_size=(len(codes) + 1) // 2))
    elif nulls == "some":
        null = draw(st.sets(st.integers(0, len(codes) - 1)))
    else:
        null = ()
    return tuple(None if i in null else draw(_VALUES[code])
                 for i, code in enumerate(codes))


NULLS = st.sampled_from(["none", "some", "heavy"])


@st.composite
def schema_and_record(draw):
    codes = draw(field_codes(12))   # up to two null-bitmap bytes
    fields = [Field(f"f{i}", code) for i, code in enumerate(codes)]
    return Schema("t", fields), draw(record_of(codes, draw(NULLS)))


_FIXED = {"INT": "<q", "FLOAT": "<d", "BOOL": "<B", "BOX": "<dddd"}


def reference_decode(schema, buf, offset):
    """Each field read on its own from the layout — bitmap, fixed-width
    fields at full width, a u16 length per STRING / BYTES field, then
    their bytes — the decode the compiled one must equal, kept here on
    purpose.  A NULL must have left zero bytes and a zero length."""
    fields = schema.fields
    view = bytes(buf)
    pos = offset + (len(fields) + 7) // 8
    at = {}
    for i, field in enumerate(fields):              # the fixed prefix
        if field.type_code in _FIXED:
            at[i] = pos
            pos += struct.calcsize(_FIXED[field.type_code])
    for i, field in enumerate(fields):              # the lengths
        if field.type_code not in _FIXED:
            at[i] = struct.unpack_from("<H", view, pos)[0]
            pos += 2
    values = []
    for i, field in enumerate(fields):
        null = view[offset + i // 8] >> (i % 8) & 1
        code = field.type_code
        if code in _FIXED:
            width = struct.calcsize(_FIXED[code])
            raw = view[at[i]:at[i] + width]
            parts = struct.unpack(_FIXED[code], raw)
            value = Box(*parts) if code == "BOX" else \
                bool(parts[0]) if code == "BOOL" else parts[0]
        else:
            raw = view[pos:pos + at[i]]
            pos += at[i]
            value = raw.decode("utf-8") if code == "STRING" else raw
        if null:
            assert raw == bytes(len(raw))
            value = None
        values.append(value)
    return tuple(values), pos


@settings(max_examples=300, deadline=None)
@given(schema_and_record(), st.integers(1, 40), st.binary(max_size=8))
def test_compiled_decoder_in_place_equals_reference(pair, offset, tail):
    schema, record = pair
    raw = encode_record(schema, record)
    page = bytearray(b"\xff" * offset) + raw + tail     # not at offset 0
    want, end = reference_decode(schema, page, offset)
    assert end == offset + len(raw)
    assert want == record
    for buf in (page, bytes(page), memoryview(page)):
        got = decode_record(schema, buf, offset)
        assert got == record
        assert [type(v) for v in got] == [type(v) for v in want]
    assert decode_record(schema, raw) == record


@settings(max_examples=200, deadline=None)
@given(schema_and_record())
def test_encoded_length_is_bitmap_fixed_widths_lengths_and_bytes(pair):
    schema, record = pair
    widths = {"INT": 8, "FLOAT": 8, "BOOL": 1, "BOX": 32}
    codes = [field.type_code for field in schema.fields]
    variable = [value for code, value in zip(codes, record)
                if code not in widths]
    assert len(encode_record(schema, record)) == (
        (len(codes) + 7) // 8
        + sum(widths.get(code, 2) for code in codes)
        + sum(len(v.encode("utf-8") if isinstance(v, str) else v)
              for v in variable if v is not None))


def test_decoder_is_compiled_once_per_schema(schema):
    assert schema.decoder is schema.decoder
    other = Schema("u", schema.fields)
    assert other.decoder is not schema.decoder
    assert schema.page_decoder((0, 2)) is schema.page_decoder((0, 2))
    assert schema.page_decoder((0,)) is not schema.page_decoder((0, 2))


# ---------------------------------------------------------------------------
# The page decoder against the row decoder, over a real slotted page
# ---------------------------------------------------------------------------

@st.composite
def schema_page_and_wanted(draw):
    codes = draw(field_codes(10))
    schema = Schema("t", [Field(f"f{i}", code)
                          for i, code in enumerate(codes)])
    nulls = draw(NULLS)
    records = draw(st.lists(record_of(codes, nulls), max_size=8))
    dead = draw(st.sets(st.integers(0, max(len(records) - 1, 0))))
    # Any order, repeats allowed, and the empty set (COUNT(*)).
    wanted = tuple(draw(st.lists(st.integers(0, len(codes) - 1),
                                 max_size=len(codes) + 1)))
    return schema, records, dead, wanted


@settings(max_examples=300, deadline=None)
@given(schema_page_and_wanted())
def test_page_decoder_columns_equal_row_decoder(case):
    schema, records, dead, wanted = case
    page = PageView.format(7, bytearray(8192), 1)
    for record in records:
        page.insert(encode_record(schema, record))
    for slot in dead:
        if slot < len(records):
            page.delete(slot)
    live = [offset for offset in page.directory()[0] if offset != TOMBSTONE]
    rows = [decode_record(schema, page.data, offset) for offset in live]
    assert rows == [record for slot, record in enumerate(records)
                    if slot not in dead]
    columns = schema.page_decoder(wanted)(page.data, live)
    assert len(columns) == len(wanted)
    for column, j in zip(columns, wanted):
        assert column == [row[j] for row in rows]
        assert [type(v) for v in column] == [type(row[j]) for row in rows]
