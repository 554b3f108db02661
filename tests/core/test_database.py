"""Database session semantics: transactions, savepoints, restart."""

import pytest

from repro import Database, TransactionAborted
from repro.errors import TransactionError


def test_autocommit_per_statement(db):
    table = db.create_table("t", [("id", "INT")])
    table.insert((1,))
    assert not db.in_transaction
    assert table.rows() == [(1,)]


def test_explicit_transaction_groups_statements(db):
    table = db.create_table("t", [("id", "INT")])
    db.begin()
    table.insert((1,))
    table.insert((2,))
    db.rollback()
    assert table.rows() == []
    db.begin()
    table.insert((3,))
    db.commit()
    assert table.rows() == [(3,)]


def test_nested_begin_rejected(db):
    db.begin()
    with pytest.raises(TransactionError):
        db.begin()
    db.rollback()


def test_commit_without_begin_rejected(db):
    with pytest.raises(TransactionError):
        db.commit()
    with pytest.raises(TransactionError):
        db.rollback()


def test_transaction_context_manager_commits(db):
    table = db.create_table("t", [("id", "INT")])
    with db.transaction():
        table.insert((1,))
    assert table.rows() == [(1,)]


def test_transaction_context_manager_aborts_on_error(db):
    table = db.create_table("t", [("id", "INT")])
    with pytest.raises(RuntimeError):
        with db.transaction():
            table.insert((1,))
            raise RuntimeError("boom")
    assert table.rows() == []


def test_savepoint_api(db):
    table = db.create_table("t", [("id", "INT")])
    db.begin()
    table.insert((1,))
    db.savepoint("sp")
    table.insert((2,))
    table.insert((3,))
    undone = db.rollback_to("sp")
    assert undone >= 2
    db.commit()
    assert table.rows() == [(1,)]


def test_restart_clears_session_transaction(db):
    table = db.create_table("t", [("id", "INT")])
    db.begin()
    table.insert((1,))
    db.restart()
    assert not db.in_transaction
    assert table.rows() == []  # the open transaction was a loser


def test_restart_preserves_committed_heap_data(db):
    table = db.create_table("t", [("id", "INT"), ("v", "STRING")])
    table.insert_many([(i, f"v{i}") for i in range(20)])
    db.restart()
    assert sorted(r[0] for r in table.rows()) == list(range(20))


def test_restart_resets_temporary_relations(db):
    """Temporary relations do not survive restart (the paper's
    recoverable vs temporary storage method distinction)."""
    temp = db.create_table("scratch", [("id", "INT")],
                           storage_method="memory")
    durable = db.create_table("keep", [("id", "INT")])
    temp.insert((1,))
    durable.insert((1,))
    db.restart()
    assert temp.rows() == []
    assert durable.rows() == [(1,)]


def test_restart_reads_a_relation_once_for_all_its_rebuilds(db):
    """Shaped like the ``bulk_write`` workload: a unique B-tree, a hash
    index, a check and statistics.  The two indexes are rebuilt from one
    scan; the statistics, which lost nothing, are kept."""
    table = db.create_table("emp", [("id", "INT"), ("name", "STRING"),
                                    ("salary", "FLOAT")])
    table.insert_many([(i, f"n{i}", float(i)) for i in range(300)])
    db.create_index("emp_id", "emp", ["id"], unique=True)
    db.create_index("emp_name", "emp", ["name"], kind="hash_index")
    db.add_check("salary_nonneg", "emp", "salary >= 0")
    db.create_attachment("emp", "statistics", "emp_stats")
    table.delete_where("id < 40")
    stats = db.services.stats
    before = stats.snapshot()
    summary = db.restart()
    delta = stats.delta(before)
    assert delta["heap.tuples_scanned"] == 260
    assert summary["attachment_types_rebuilt"] == 2
    assert delta["btree_index.rebuilds"] == delta["hash_index.rebuilds"] == 1
    assert "statistics.rebuilds" not in delta
    assert db.execute("SELECT COUNT(*) FROM emp WHERE name = 'n77'") \
        == [(1,)]


def test_create_table_accepts_schema_and_tuples(db):
    from repro import Field, Schema
    schema = Schema("s1", [Field("a", "INT")])
    db.create_table("s1", schema)
    db.create_table("s2", [("a", "INT", False), ("b", "STRING")])
    assert not db.catalog.handle("s2").schema.fields[0].nullable


def test_vetoed_autocommit_operation_leaves_no_trace(db):
    from repro import CheckViolation
    table = db.create_table("t", [("id", "INT")])
    db.add_check("positive", "t", "id > 0")
    with pytest.raises(CheckViolation):
        table.insert((-1,))
    assert table.rows() == []
    assert db.services.transactions.active_transactions() == ()


def test_veto_inside_explicit_transaction_keeps_transaction_alive(db):
    from repro import CheckViolation
    table = db.create_table("t", [("id", "INT")])
    db.add_check("positive", "t", "id > 0")
    db.begin()
    table.insert((1,))
    with pytest.raises(CheckViolation):
        table.insert((-2,))
    # The operation was undone, but the transaction continues.
    table.insert((3,))
    db.commit()
    assert sorted(r[0] for r in table.rows()) == [1, 3]
