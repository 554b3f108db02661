"""Join index attachment: pair maintenance across both relations."""

import pytest

from repro import AccessPath, Database


@pytest.fixture
def joined(db):
    dept = db.create_table("dept", [("dname", "STRING"), ("budget", "FLOAT")])
    emp = db.create_table("emp", [("id", "INT"), ("dept", "STRING")])
    dept.insert_many([("eng", 10.0), ("sales", 5.0)])
    emp.insert_many([(1, "eng"), (2, "eng"), (3, "sales")])
    db.create_attachment("emp", "join_index", "emp_dept_ji",
                         {"other": "dept", "column": "dept",
                          "other_column": "dname"})
    att = db.registry.attachment_type_by_name("join_index")
    return db, emp, dept, att


def instance_of(db, att):
    handle = db.catalog.handle("emp")
    return handle.descriptor.attachment_field(att.type_id)["instances"][
        "emp_dept_ji"]


def test_initial_build_computes_pairs(joined):
    db, emp, dept, att = joined
    instance = instance_of(db, att)
    assert instance["pairs"]["count"] == 3


def test_mirror_installed_on_other_relation(joined):
    """The descriptor embeds references to the other relation."""
    db, emp, dept, att = joined
    dept_field = db.catalog.handle("dept").descriptor.attachment_field(
        att.type_id)
    assert dept_field is not None
    assert "emp_dept_ji@right" in dept_field["instances"]


def test_fetch_maps_left_key_to_right_keys(joined):
    db, emp, dept, att = joined
    left_key = emp.scan(where="id = 1")[0][0]
    ap = AccessPath(att.type_id, "emp_dept_ji")
    right_keys = emp.fetch(left_key, access_path=ap)
    assert [dept.fetch(k)[0] for k in right_keys] == ["eng"]


def test_left_side_modifications_maintain_pairs(joined):
    db, emp, dept, att = joined
    emp.insert((4, "sales"))
    assert instance_of(db, att)["pairs"]["count"] == 4
    key = emp.scan(where="id = 4")[0][0]
    emp.update(key, {"dept": "eng"})
    instance = instance_of(db, att)
    assert instance["pairs"]["count"] == 4
    emp.delete(key)
    assert instance_of(db, att)["pairs"]["count"] == 3


def test_right_side_modifications_maintain_pairs(joined):
    """Modifying the *other* relation drives the mirror instance."""
    db, emp, dept, att = joined
    dept_key = dept.scan(where="dname = 'eng'")[0][0]
    dept.delete(dept_key)
    assert instance_of(db, att)["pairs"]["count"] == 1
    dept.insert(("eng", 20.0))
    assert instance_of(db, att)["pairs"]["count"] == 3


def test_abort_undoes_pair_changes(joined):
    db, emp, dept, att = joined
    db.begin()
    emp.insert((9, "eng"))
    dept.insert(("ops", 1.0))
    db.rollback()
    assert instance_of(db, att)["pairs"]["count"] == 3


def test_planner_chooses_join_index_when_relations_are_large():
    """On tiny relations reading both sides is genuinely cheaper; once
    the relations outgrow the set of joining pairs, the precomputed
    pairs win."""
    db = Database(page_size=1024, buffer_capacity=256)
    dept = db.create_table("dept", [("dname", "STRING"), ("budget", "FLOAT")])
    emp = db.create_table("emp", [("id", "INT"), ("dept", "STRING")])
    dept.insert_many([(f"d{i}", float(i)) for i in range(40)])
    emp.insert_many([(i, f"d{i}") for i in range(800)])
    db.create_attachment("emp", "join_index", "emp_dept_ji",
                         {"other": "dept", "column": "dept",
                          "other_column": "dname"})
    plan = db.explain("SELECT * FROM emp e JOIN dept d ON e.dept = d.dname")
    assert plan["join"]["method"] == "join_index"
    rows = db.execute(
        "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.dname")
    assert sorted(rows) == [(i, float(i)) for i in range(40)]
    assert db.services.stats.get("executor.join_index_joins") == 1


def test_small_join_executes_correctly_whatever_the_method(joined):
    db, emp, dept, att = joined
    rows = db.execute(
        "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.dname")
    assert sorted(rows) == [(1, 10.0), (2, 10.0), (3, 5.0)]


def test_join_result_correct_after_modifications(joined):
    db, emp, dept, att = joined
    emp.insert((4, "sales"))
    rows = db.execute(
        "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.dname")
    assert sorted(rows) == [(1, 10.0), (2, 10.0), (3, 5.0), (4, 5.0)]


def test_drop_removes_mirror(joined):
    db, emp, dept, att = joined
    db.drop_attachment("emp_dept_ji")
    assert db.catalog.handle("dept").descriptor.attachment_field(
        att.type_id) is None


def test_rebuild_after_crash(joined):
    db, emp, dept, att = joined
    emp.insert((4, "eng"))
    db.restart()
    assert instance_of(db, att)["pairs"]["count"] == 4
