"""Relation facade conveniences."""

import pytest

from repro import Database
from repro.errors import SchemaError, StorageError
from repro.services.predicate import Predicate


def test_insert_many_is_one_transaction(db):
    from repro import CheckViolation
    table = db.create_table("t", [("v", "INT")])
    db.add_check("pos", "t", "v > 0")
    with pytest.raises(CheckViolation):
        table.insert_many([(1,), (2,), (-3,)])
    # The veto aborted the whole batch.
    assert table.count() == 0


def test_update_validates_field_names(employee):
    key = employee.scan(where="id = 1")[0][0]
    with pytest.raises(SchemaError):
        employee.update(key, {"ghost": 1})
    with pytest.raises(SchemaError):
        employee.update(key, {"salary": "not a float"})


def test_mistyped_update_where_changes_nothing(employee):
    before = sorted(employee.rows())
    with pytest.raises(SchemaError):
        employee.update_where("salary > 0", {"salary": "not a float"})
    assert sorted(employee.rows()) == before


def test_update_checks_each_new_record_once(employee, monkeypatch):
    schema = employee.handle.schema
    checked = []
    check = schema.check_record
    monkeypatch.setattr(schema, "check_record",
                        lambda record: checked.append(record) or check(record))
    assert employee.update_where("salary > 0", {"salary": 1.0}) == 5
    assert len(checked) == 5 and all(r[3] == 1.0 for r in checked)
    checked.clear()
    key = employee.scan(where="id = 1")[0][0]
    employee.update(key, {"salary": 2.0})
    assert len(checked) == 1


def test_update_missing_record(employee):
    with pytest.raises(StorageError):
        employee.update((999, 9), {"salary": 1.0})


def test_delete_where_returns_count(employee):
    assert employee.delete_where("dept = 'eng'") == 3
    assert employee.count() == 2


def test_delete_where_with_params(employee):
    assert employee.delete_where("salary < :cap", {"cap": 90000.0}) == 2


def test_rows_with_field_projection(employee):
    rows = employee.rows(where="id = 1", fields=["name", "salary"])
    assert rows == [("alice", 120000.0)]


def test_scan_accepts_prebuilt_predicate(employee):
    predicate = Predicate.parse("salary > :floor", employee.schema)
    rows = employee.rows(where=predicate, params={"floor": 100000.0})
    assert sorted(r[0] for r in rows) == [1, 5]


def test_count_with_and_without_predicate(employee):
    assert employee.count() == 5
    assert employee.count(where="dept = 'eng'") == 3


def test_table_lookup_fails_fast(db):
    with pytest.raises(Exception):
        db.table("nothing")


def test_scan_inside_transaction_sees_own_writes(db):
    table = db.create_table("t", [("v", "INT")])
    db.begin()
    table.insert((1,))
    assert table.rows() == [(1,)]
    db.commit()
