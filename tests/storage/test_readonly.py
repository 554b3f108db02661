"""Read-only publishing storage method."""

import pytest

from repro import Database
from repro.errors import PageError, ReadOnlyError, SchemaError, \
    StorageError


def publish(db, name="pub", n=20):
    db.create_table(name, [("id", "INT"), ("title", "STRING")],
                    storage_method="readonly")
    handle = db.catalog.handle(name)
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with db.autocommit() as ctx:
        method.publish(ctx, handle, [(i, f"title_{i}") for i in range(n)])
    return db.table(name)


def keys_of(table):
    """Record keys are heap addresses: learn them from a scan."""
    return [key for key, __ in table.scan()]


def test_publish_then_read(db):
    table = publish(db)
    assert table.count() == 20
    keys = keys_of(table)
    assert table.fetch(keys[0]) == (0, "title_0")
    assert table.fetch(keys[19]) == (19, "title_19")
    page, slot = keys[19]
    assert table.fetch((page, slot + 1)) is None


def test_ordinal_keys_in_publication_order(db):
    table = publish(db)
    pairs = table.scan()
    assert [record[0] for __, record in pairs] == list(range(20))
    assert len({key for key, __ in pairs}) == 20


def test_modifications_rejected(db):
    table = publish(db)
    key = keys_of(table)[0]
    with pytest.raises(ReadOnlyError):
        table.insert((99, "x"))
    with pytest.raises(ReadOnlyError):
        table.delete(key)
    with pytest.raises(ReadOnlyError):
        table.update(key, {"title": "x"})


def test_double_publish_rejected(db):
    publish(db)
    handle = db.catalog.handle("pub")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with pytest.raises(ReadOnlyError):
        with db.autocommit() as ctx:
            method.publish(ctx, handle, [(1, "again")])


def test_published_data_survives_crash_without_logging(db):
    log_before = len(db.services.wal)
    table = publish(db, n=50)
    key = keys_of(table)[25]
    # Publishing wrote no UPDATE log records (only the DDL entry exists).
    from repro.services import wal
    data_records = [r for r in db.services.wal.forward(log_before + 1)
                    if r.kind == wal.UPDATE and r.resource != "ddl"]
    assert data_records == []
    db.restart()
    assert table.count() == 50
    assert table.fetch(key) == (25, "title_25")


@pytest.mark.parametrize("bad,error", [
    ((30, 31), SchemaError),              # refused by the schema check
    ((30, "t" * 2000), PageError),        # larger than an empty page
])
def test_a_failed_publish_leaves_nothing(db, bad, error):
    db.create_table("pub", [("id", "INT"), ("title", "STRING")],
                    storage_method="readonly")
    handle = db.catalog.handle("pub")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    table, held = db.table("pub"), db.services.disk.allocated_pages
    with pytest.raises(error):
        with db.autocommit() as ctx:
            method.publish(ctx, handle, [(i, f"title_{i}") for i in range(30)]
                           + [bad])
    assert table.count() == 0 and table.rows() == []
    assert db.services.disk.allocated_pages == held
    with db.autocommit() as ctx:
        assert method.publish(ctx, handle, [(i, "again") for i in range(5)]) \
            == 5
    assert sorted(table.rows()) == [(i, "again") for i in range(5)]


def test_scan_with_filter(db):
    table = publish(db)
    assert table.rows(where="id >= 18") == [(18, "title_18"),
                                            (19, "title_19")]


def test_attachments_on_published_relation(db):
    """Indexes can be attached after mastering (built from a scan)."""
    table = publish(db, n=30)
    key = keys_of(table)[7]
    db.create_index("pub_id", "pub", ["id"])
    from repro import AccessPath
    att = db.registry.attachment_type_by_name("btree_index")
    assert table.fetch((7,), access_path=AccessPath(att.type_id, "pub_id")) \
        == [key]


def test_queries_over_published_relation(db):
    publish(db, n=30)
    assert db.execute("SELECT COUNT(*) FROM pub") == [(30,)]
    assert db.execute("SELECT title FROM pub WHERE id = 3") \
        == [("title_3",)]


def test_attribute_validation(db):
    with pytest.raises(StorageError):
        db.create_table("bad", [("id", "INT")], storage_method="readonly",
                        attributes={"records_hint": -2})


class _CountingPages(list):
    """A page list that counts the linear searches made in it."""

    def __init__(self, pages):
        super().__init__(pages)
        self.searches = 0

    def index(self, *args):
        self.searches += 1
        return super().index(*args)


def test_a_scan_finds_its_place_in_the_page_list_once_per_batch():
    """Each page run used to search the page list for its page, which made
    a scan quadratic in the relation's pages."""
    db = Database(page_size=512)
    table = publish(db, n=400)
    descriptor = db.catalog.handle("pub").descriptor.storage_descriptor
    pages = descriptor["pages"] = _CountingPages(descriptor["pages"])
    assert len(pages) > 10
    handle = db.catalog.handle("pub")
    method = db.registry.storage_method(handle.descriptor.storage_method_id)
    with db.autocommit() as ctx:
        scan = method.open_scan(ctx, handle)
        got, calls = [], 0
        while batch := scan.next_batch(150):
            got += [record for __, record in batch]
            calls += 1
            assert pages.searches <= calls
    assert got == table.rows() and len(got) == 400
