"""Direct-by-key reads on every updatable built-in storage method: a
``fetch`` is the one-key ``fetch_many`` (sharded ships its own), and both
test the filter and lay out the projection alike."""

import pytest

from repro import Database
from repro.services.predicate import Predicate

SCHEMA = [("id", "INT"), ("v", "STRING"), ("n", "FLOAT")]
ROWS = [(i, f"v{i}", i / 2) for i in range(10)]


def build(storage: str) -> Database:
    db = Database(page_size=1024)
    attributes = {"btree_file": {"key": ["id"]},
                  "sharded": {"shards": 3}}.get(storage)
    if storage == "foreign":
        remote = Database(page_size=1024)
        remote.create_table("r", SCHEMA)
        attributes = {"database": remote, "relation": "r"}
    db.create_table("t", SCHEMA, storage_method=storage,
                    attributes=attributes).insert_many(ROWS)
    return db


@pytest.mark.parametrize("storage", ["heap", "btree_file", "memory",
                                     "sharded", "foreign"])
def test_fetch_and_fetch_many_filter_and_project_alike(storage):
    db = build(storage)
    table = db.table("t")
    keys = [key for key, __ in table.scan()]
    handle = table.handle
    predicate = Predicate.parse("n > 2.0 AND v <> 'v7'", handle.schema)
    want = {row[0]: (row[2], row[0]) for row in ROWS
            if row[2] > 2.0 and row[0] != 7}
    with db.autocommit() as ctx:
        one = [db.data.fetch(ctx, handle, key, (2, 0), predicate)
               for key in keys]
        many = db.data.fetch_many(ctx, handle, keys, (2, 0), predicate)
        whole = [db.data.fetch(ctx, handle, key) for key in keys]
    assert sorted(whole) == ROWS
    assert sorted(v for v in one if v is not None) == sorted(want.values())
    assert many == [(key, v) for key, v in zip(keys, one) if v is not None]
