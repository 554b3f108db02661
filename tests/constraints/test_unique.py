"""Uniqueness constraint attachment (constraint with its own storage)."""

import pytest

from repro import Database, UniqueViolation
from repro.errors import StorageError
from tests.conftest import tree_pages


@pytest.fixture
def uniq(db):
    table = db.create_table("users", [("id", "INT"), ("email", "STRING")])
    db.create_attachment("users", "unique", "users_email",
                         {"columns": ["email"]})
    return db, table


def test_duplicates_vetoed(uniq):
    db, table = uniq
    table.insert((1, "a@example.com"))
    with pytest.raises(UniqueViolation):
        table.insert((2, "a@example.com"))
    assert table.count() == 1


def test_nulls_are_exempt(uniq):
    db, table = uniq
    table.insert((1, None))
    table.insert((2, None))
    assert table.count() == 2


def test_update_into_collision_vetoed(uniq):
    db, table = uniq
    table.insert((1, "a@x"))
    key = table.insert((2, "b@x"))
    with pytest.raises(UniqueViolation):
        table.update(key, {"email": "a@x"})
    assert table.fetch(key) == (2, "b@x")


def test_update_keeping_value_allowed(uniq):
    db, table = uniq
    key = table.insert((1, "a@x"))
    table.update(key, {"id": 99})  # unique column unchanged
    assert table.fetch(key) == (99, "a@x")


def test_delete_frees_value_for_reuse(uniq):
    db, table = uniq
    key = table.insert((1, "a@x"))
    table.delete(key)
    table.insert((2, "a@x"))
    assert table.count() == 1


def test_build_over_existing_duplicates_fails(db):
    table = db.create_table("t", [("v", "STRING")])
    table.insert_many([("dup",), ("dup",)])
    with pytest.raises(UniqueViolation):
        db.create_attachment("t", "unique", "t_v", {"columns": ["v"]})


def test_abort_releases_reservation(uniq):
    db, table = uniq
    db.begin()
    table.insert((1, "a@x"))
    db.rollback()
    table.insert((2, "a@x"))  # the aborted insert's entry must be gone
    assert table.count() == 1


def test_vetoed_insert_under_multiple_constraints(db):
    """A veto by the second unique constraint undoes the first's entry."""
    table = db.create_table("t", [("a", "INT"), ("b", "INT")])
    db.create_attachment("t", "unique", "t_a", {"columns": ["a"]})
    db.create_attachment("t", "unique", "t_b", {"columns": ["b"]})
    table.insert((1, 1))
    with pytest.raises(UniqueViolation):
        table.insert((2, 1))  # a=2 passes t_a, b=1 trips t_b
    # a=2 must be insertable again: t_a's entry was rolled back.
    table.insert((2, 2))
    assert table.count() == 2


def test_composite_unique_key(db):
    table = db.create_table("t", [("a", "INT"), ("b", "INT")])
    db.create_attachment("t", "unique", "t_ab", {"columns": ["a", "b"]})
    table.insert((1, 1))
    table.insert((1, 2))
    with pytest.raises(UniqueViolation):
        table.insert((1, 1))


def test_rebuilt_after_crash(uniq):
    db, table = uniq
    table.insert((1, "a@x"))
    db.restart()
    with pytest.raises(UniqueViolation):
        table.insert((2, "a@x"))


def unique_tree(db, type_name="unique", name="users_email"):
    from repro.access.btree_core import BTree
    att = db.registry.attachment_type_by_name(type_name)
    field = db.catalog.handle("users").descriptor.attachment_field(att.type_id)
    instance = field["instances"][name]
    return BTree(db.services.buffer, instance["tree"]), instance


def tree_bytes(db, tree):
    return tree_pages(db.services.buffer, tree)


def test_batch_is_probed_whole_before_any_entry_is_added():
    """The existence probe walks the tree once for the batch and vetoes —
    naming the instance and the first offending row in *batch* order —
    with no page of the enforcement tree written.  The constraint and a
    unique B-tree index are one body, so both flavours answer alike."""
    for type_name, attributes in (("unique", {"columns": ["email"]}),
                                  ("btree_index", {"columns": ["email"],
                                                   "unique": True})):
        db = Database(page_size=1024, buffer_capacity=128)
        table = db.create_table("users", [("id", "INT"), ("email", "STRING")])
        db.create_attachment("users", type_name, "users_email", attributes)
        table.insert_many([(i, f"u{i:03d}@example.com") for i in range(200)])
        tree, instance = unique_tree(db, type_name)
        state = dict(instance["tree"])
        pages = tree_bytes(db, tree)
        fresh = [(1000 + i, f"n{i:03d}@example.com") for i in range(150)]
        for batch, offender in (
                (fresh + [(2000, "u007@example.com")], 150),    # the last row
                (fresh[:70] + [(2000, "u150@example.com"),
                               (2001, "u003@example.com")] + fresh[70:], 70),
                (fresh + [(2000, None), (2001, "n004@example.com")], 151)):
            with pytest.raises(UniqueViolation) as veto:
                table.insert_many(batch)
            assert veto.value.batch_index == offender, type_name
            assert veto.value.attachment == "users_email"
            assert tree_bytes(db, tree) == pages and instance["tree"] == state
        assert table.count() == 200
        pins = db.services.stats.get("buffer.pins")
        assert tree.first_duplicate(
            [(f"n{i:03d}@example.com",) for i in range(150)]) is None
        # One descent and a hop per leaf touched, not a descent per key.
        assert db.services.stats.get("buffer.pins") - pins <= 4 * tree.height


def test_build_and_undo_go_through_the_batch_body(db, node_dumps):
    dumps = node_dumps
    table = db.create_table("users", [("id", "INT"), ("email", "STRING")])
    table.insert_many([(i, f"u{i:04d}@example.com" if i % 10 else None)
                       for i in range(1000)])
    db.create_attachment("users", "unique", "users_email",
                         {"columns": ["email"]})
    assert len(dumps) <= 150           # 900 entries, 256 records a batch
    tree, __ = unique_tree(db)
    tree.validate()
    assert tree.entry_count == 900
    del dumps[:]
    db.begin()
    keys = table.insert_many([(2000 + i, f"x{i}@example.com")
                              for i in range(300)])
    table.delete_many(keys[:100])
    db.rollback()
    assert len(dumps) <= 80            # four batches, leaves not entries
    tree, __ = unique_tree(db)
    tree.validate()
    assert tree.entry_count == 900 and table.count() == 1000


def test_the_planner_is_not_offered_the_constraint(uniq):
    """The constraint keeps a B-tree over ``email`` but is no access path:
    an equality on the column is planned as a scan."""
    db, table = uniq
    table.insert_many([(i, f"u{i}@x") for i in range(300)])
    plan = db.explain("SELECT * FROM users WHERE email = 'u7@x'")
    assert plan["access"]["route"] == "storage scan (access path zero)"
    assert db.execute("SELECT id FROM users WHERE email = 'u7@x'") == [(7,)]


@pytest.mark.parametrize("extra", [{"unique": False}, {"max_entries": 8}])
def test_ddl_takes_only_columns(db, extra):
    db.create_table("t", [("v", "INT")])
    with pytest.raises(StorageError):
        db.create_attachment("t", "unique", "t_v",
                             dict({"columns": ["v"]}, **extra))


def test_composite_key_with_a_null_past_the_leading_field(db):
    """A NULL in ``b`` exempts the record (and marks the tree partial,
    which only withdraws routes the constraint never offers); a fully
    non-NULL duplicate is still vetoed, before and after a restart."""
    table = db.create_table("t", [("a", "INT"), ("b", "INT")])
    db.create_attachment("t", "unique", "t_ab", {"columns": ["a", "b"]})
    table.insert_many([(1, 1), (1, None), (1, None), (None, 1)])
    for __ in range(2):
        table.insert((1, None))
        with pytest.raises(UniqueViolation):
            table.insert((1, 1))
        with pytest.raises(UniqueViolation) as veto:
            table.insert_many([(2, None), (2, 2), (2, 2)])
        assert veto.value.batch_index == 2
        db.restart()
    assert table.count() == 6
