"""Precomputed aggregate attachment: incremental maintenance."""

import pytest

from repro import Database
from repro.errors import StorageError


def value_of(db, relation, instance_name):
    handle = db.catalog.handle(relation)
    att = db.registry.attachment_type_by_name("aggregate")
    instance = handle.descriptor.attachment_field(att.type_id)["instances"][
        instance_name]
    with db.autocommit() as ctx:
        return att.value(ctx, handle, instance)


@pytest.fixture
def counted(db, employee):
    db.create_attachment("employee", "aggregate", "emp_count",
                         {"function": "count"})
    db.create_attachment("employee", "aggregate", "emp_salary_sum",
                         {"function": "sum", "column": "salary"})
    db.create_attachment("employee", "aggregate", "emp_salary_max",
                         {"function": "max", "column": "salary"})
    return db, employee


def test_initial_computation_over_existing_records(counted):
    db, employee = counted
    assert value_of(db, "employee", "emp_count") == 5
    assert value_of(db, "employee", "emp_salary_sum") == pytest.approx(
        sum(r[3] for r in employee.rows()))
    assert value_of(db, "employee", "emp_salary_max") == 120000.0


def test_incremental_maintenance(counted):
    db, employee = counted
    employee.insert((6, "frank", "ops", 50000.0))
    assert value_of(db, "employee", "emp_count") == 6
    key = employee.scan(where="id = 6")[0][0]
    employee.update(key, {"salary": 60000.0})
    assert value_of(db, "employee", "emp_salary_sum") == pytest.approx(
        sum(r[3] for r in employee.rows()))
    employee.delete(key)
    assert value_of(db, "employee", "emp_count") == 5


def test_max_recomputed_lazily_when_extreme_deleted(counted):
    db, employee = counted
    key = employee.scan(where="salary = 120000.0")[0][0]
    employee.delete(key)
    # The stale flag forces one recomputation on read.
    before = db.services.stats.get("aggregate.recomputations")
    assert value_of(db, "employee", "emp_salary_max") == 105000.0
    assert db.services.stats.get("aggregate.recomputations") == before + 1


def test_nulls_ignored(db):
    table = db.create_table("t", [("v", "INT")])
    db.create_attachment("t", "aggregate", "t_sum",
                         {"function": "sum", "column": "v"})
    table.insert((None,))
    table.insert((5,))
    assert value_of(db, "t", "t_sum") == 5


def test_sum_of_empty_relation_is_null(db):
    db.create_table("t", [("v", "INT")])
    db.create_attachment("t", "aggregate", "t_sum",
                         {"function": "sum", "column": "v"})
    assert value_of(db, "t", "t_sum") is None


def test_abort_restores_aggregate_state(counted):
    db, employee = counted
    db.begin()
    employee.insert((9, "x", "y", 1.0))
    employee.insert((10, "x", "y", 1.0))
    db.rollback()
    assert value_of(db, "employee", "emp_count") == 5


def test_count_star_fast_path_in_queries(counted):
    db, employee = counted
    before = db.services.stats.get("heap.tuples_scanned")
    assert db.execute("SELECT COUNT(*) FROM employee") == [(5,)]
    assert db.services.stats.get("executor.aggregate_fast_paths") >= 1
    assert db.services.stats.get("heap.tuples_scanned") == before


def test_attribute_validation(db, employee):
    with pytest.raises(StorageError):
        db.create_attachment("employee", "aggregate", "bad",
                             {"function": "median", "column": "salary"})
    with pytest.raises(StorageError):
        db.create_attachment("employee", "aggregate", "bad",
                             {"function": "sum"})
    with pytest.raises(StorageError):
        db.create_attachment("employee", "aggregate", "bad",
                             {"function": "sum", "column": "name"})


def test_recompute_after_crash(counted):
    db, employee = counted
    employee.insert((6, "frank", "ops", 50000.0))
    db.restart()
    assert value_of(db, "employee", "emp_count") == 6


def test_rollback_after_a_concurrent_commit_keeps_the_commit(db):
    """Undo of the logged before-image must not restore it over a change
    another transaction made and committed since."""
    table = db.create_table("n", [("v", "INT")])
    table.insert_many([(i,) for i in range(10)])
    db.create_attachment("n", "aggregate", "n_sum",
                         {"function": "sum", "column": "v"})
    db.create_attachment("n", "aggregate", "n_count", {"function": "count"})
    first, second = db.connect(), db.connect()
    first.begin()
    first.table("n").insert((100,))
    with second.transaction():
        second.table("n").insert((200,))
    first.rollback()
    assert value_of(db, "n", "n_sum") == 245
    assert value_of(db, "n", "n_count") == 11
    db.restart()
    assert value_of(db, "n", "n_sum") == 245


def test_restart_that_lost_nothing_keeps_the_state(counted):
    db, employee = counted
    employee.insert((6, "frank", "ops", 50000.0))
    before = db.services.stats.snapshot()
    db.restart()
    delta = db.services.stats.delta(before)
    assert delta.get("aggregate.rebuilds", 0) == 0
    assert delta.get("aggregate.recomputations", 0) == 0
    assert value_of(db, "employee", "emp_count") == 6
