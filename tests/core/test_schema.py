"""Schemas: field typing, validation, partial updates."""

import pytest

from repro.core.schema import Field, Schema
from repro.errors import SchemaError


def test_field_rejects_unknown_type():
    with pytest.raises(SchemaError):
        Field("x", "VARCHAR")


def test_field_rejects_bad_name():
    with pytest.raises(SchemaError):
        Field("", "INT")
    with pytest.raises(SchemaError):
        Field("has space", "INT")


def test_field_names_normalised_to_lowercase():
    assert Field("Salary", "FLOAT").name == "salary"


def test_schema_rejects_duplicates_and_empty():
    with pytest.raises(SchemaError):
        Schema("t", [])
    with pytest.raises(SchemaError):
        Schema("t", [Field("a", "INT"), Field("A", "INT")])


def test_field_lookup_case_insensitive():
    schema = Schema("t", [Field("id", "INT"), Field("name", "STRING")])
    assert schema.field_index("NAME") == 1
    assert schema.field_index("Id") == 0
    with pytest.raises(SchemaError):
        schema.field_index("missing")


def test_check_record_types_and_arity():
    schema = Schema("t", [Field("id", "INT", False), Field("name", "STRING")])
    assert schema.check_record([1, "x"]) == (1, "x")
    with pytest.raises(SchemaError):
        schema.check_record([1])
    with pytest.raises(SchemaError):
        schema.check_record(["one", "x"])
    with pytest.raises(SchemaError):
        schema.check_record([None, "x"])  # NOT NULL
    assert schema.check_record([2, None]) == (2, None)


def test_bool_is_not_an_int():
    schema = Schema("t", [Field("n", "INT")])
    with pytest.raises(SchemaError):
        schema.check_record([True])


def test_int_accepted_for_float_field():
    schema = Schema("t", [Field("x", "FLOAT")])
    assert schema.check_record([3]) == (3,)


def test_partial_update_validation():
    schema = Schema("t", [Field("id", "INT"), Field("name", "STRING")])
    updates = schema.check_partial({"name": "new"})
    assert updates == {1: "new"}
    with pytest.raises(SchemaError):
        schema.check_partial({"name": 42})
    with pytest.raises(SchemaError):
        schema.check_partial({"ghost": 1})


def test_apply_update_produces_new_tuple():
    schema = Schema("t", [Field("id", "INT"), Field("name", "STRING")])
    assert schema.apply_update((1, "old"), {1: "new"}) == (1, "new")


def test_orderable_types():
    schema = Schema("t", [Field("n", "INT"), Field("b", "BOX")])
    assert schema.orderable("n")
    assert not schema.orderable("b")


def test_indexes_of():
    schema = Schema("t", [Field("a", "INT"), Field("b", "INT"),
                          Field("c", "INT")])
    assert schema.indexes_of(["c", "a"]) == (2, 0)


def test_int_outside_64_bits_is_a_schema_error(db):
    """Refused by the type check, before the encoder's ``struct`` sees it:
    nothing reaches the relation."""
    table = db.create_table("t", [("id", "INT"), ("name", "STRING")])
    for value in (2**63, -2**63 - 1):
        with pytest.raises(SchemaError):
            table.insert((value, "a"))
    assert table.scan() == []
    table.insert_many([(2**63 - 1, "a"), (-2**63, "b")])
    assert sorted(r for __, r in table.scan()) == [(-2**63, "b"),
                                                   (2**63 - 1, "a")]
