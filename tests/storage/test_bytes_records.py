"""A BYTES value given as a ``bytearray`` is stored as the ``bytes`` it
equals, by every storage method: the columnar hash join and GROUP BY
hash it, as they hash what a heap decodes."""

from __future__ import annotations

import pytest

from repro import Database


@pytest.mark.parametrize("storage", ["memory", "heap"])
def test_bytearray_values_join_and_group(storage):
    db = Database()
    orders = db.create_table("o", [("oid", "INT"), ("b", "BYTES")], storage)
    tags = db.create_table("t", [("a", "INT"), ("b", "BYTES")], storage)
    orders.insert_many([(i, bytearray([i % 2])) for i in range(5)])
    tags.insert_many([(10, bytearray(b"\x00")), (11, b"\x01")])
    orders.update_where("oid = 4", {"b": bytearray(b"\x01")})
    assert sorted(db.execute("SELECT o.oid, t.a FROM o JOIN t "
                             "ON o.b = t.b")) == \
        [(0, 10), (1, 11), (2, 10), (3, 11), (4, 11)]
    assert db.execute("SELECT b, COUNT(*) FROM o GROUP BY b") == \
        [(b"\x00", 2), (b"\x01", 3)]
    assert {type(record[1]) for record in orders.rows()} == {bytes}
