"""An access path defined outside the library, with no change to it: the
planner chooses it for ``=``, the executor runs the route it binds, an
index nested-loop join probes it for the inner side, and a referential
check probes it for the parent, through the one equality probe."""

import pytest

from repro import Database, ReferentialViolation
from repro.core.attachment import AttachmentType
from repro.query.cost import AccessCost, implied_conjuncts
from repro.query.parser import parse_statement
from repro.query.planner import plan_select
from repro.services.scans import ShippedRows, ShippedScan

from . import reference


class DictIndex(AttachmentType):
    """Exact match on one field: a dict from value to record keys, kept in
    the instance descriptor.  NULL has no entry."""

    name = "dict_index"
    is_access_path = True

    def validate_attributes(self, schema, attributes):
        schema.field(attributes["column"])
        return {"column": attributes["column"]}

    def create_instance(self, ctx, handle, instance_name, attributes):
        instance = {"name": instance_name, "entries": {},
                    "field": handle.schema.field_index(attributes["column"])}
        for batch in self.stored_batches(ctx, handle):
            for key, record in batch:
                self._add(instance, key, record)
        return instance

    def destroy_instance(self, ctx, handle, instance_name, instance):
        instance["entries"].clear()

    @staticmethod
    def _add(instance, key, record):
        value = record[instance["field"]]
        if value is not None:
            instance["entries"].setdefault(value, []).append(key)

    @staticmethod
    def _remove(instance, key, record):
        value = record[instance["field"]]
        if value is not None:
            instance["entries"][value].remove(key)

    def on_insert(self, ctx, handle, field, key, new_record):
        for instance in field["instances"].values():
            self._add(instance, key, new_record)

    def on_update(self, ctx, handle, field, old_key, new_key, old_record,
                  new_record):
        for instance in field["instances"].values():
            self._remove(instance, old_key, old_record)
            self._add(instance, new_key, new_record)

    def on_delete(self, ctx, handle, field, key, old_record):
        for instance in field["instances"].values():
            self._remove(instance, key, old_record)

    # -- the access-path vector ----------------------------------------------
    def fetch(self, ctx, handle, instance, input_key):
        ctx.stats.bump("dict_index.fetches")
        return list(instance["entries"].get(input_key[0], ()))

    def equality_key(self, instance):
        return (instance["field"],)

    def bind_route(self, handle, instance, relevant, values):
        """The values the relevant equalities name, exact: two that differ
        name no record."""
        return tuple(set(values)), True

    def open_scan(self, ctx, handle, instance, predicate=None, route=None):
        if route is None:  # every entry
            found = [key for keys in instance["entries"].values()
                     for key in keys]
        else:
            found = instance["entries"].get(route[0], ()) \
                if len(route) == 1 else ()
        scan = ShippedScan(ctx, ShippedRows([(key, None) for key in found]),
                           "dict_index.entries_scanned")
        ctx.services.scans.register(scan)
        return scan

    def estimate_cost(self, ctx, handle, instance_name, instance, eligible):
        relevant = [p for p in eligible if p.is_simple and p.op == "="
                    and p.field_index == instance["field"]]
        if not relevant:
            return None
        return AccessCost(io_pages=1, cpu_tuples=1, expected_tuples=1,
                          relevant=relevant,
                          consumed=implied_conjuncts(relevant, eligible))


def counted(db, call, *args):
    """``call(*args)`` and the counters it moved."""
    before = db.services.stats.snapshot()
    out = call(*args)
    return out, db.services.stats.delta(before)


@pytest.fixture
def db():
    db = Database(page_size=1024, buffer_capacity=128)
    db.registry.register_attachment_type(DictIndex())
    dept = db.create_table("dept", [("did", "INT", False),
                                    ("dname", "STRING")])
    dept.insert_many([(i, f"d{i}") for i in range(40)])
    emp = db.create_table("emp", [("eid", "INT", False), ("did", "INT"),
                                  ("tag", "STRING")])
    emp.insert_many([(i, i % 45 if i % 9 else None, f"t{i % 7}")
                     for i in range(300)])
    db.create_attachment("dept", "dict_index", "dept_did",
                         {"column": "did"})
    db.create_attachment("emp", "dict_index", "emp_tag", {"column": "tag"})
    return db


@pytest.mark.parametrize("text,params", [
    ("SELECT eid FROM emp WHERE tag = 't3'", None),
    ("SELECT eid, did FROM emp WHERE tag = :tag AND did > 20",
     {"tag": "t5"}),
    ("SELECT COUNT(*) FROM emp WHERE tag = :tag AND tag = 't1'",
     {"tag": "t2"}),
])
def test_chosen_for_equality_and_answered_by_the_executor(db, text, params):
    assert "dict_index" in db.explain(text)["access"]["route"]
    rows, delta = counted(db, db.execute, text, params)
    assert reference.same_rows(rows, reference.run(db, text, params))
    assert delta.get("heap.tuples_scanned", 0) == 0


def test_not_chosen_for_a_range(db):
    text = "SELECT eid FROM emp WHERE tag > 't3'"
    assert "storage" in db.explain(text)["access"]["route"]


def test_answers_update_and_delete(db):
    assert db.execute("UPDATE emp SET tag = 'x' WHERE tag = 't4'") == 43
    assert db.execute("DELETE FROM emp WHERE tag = 'x'") == 43
    assert db.execute("SELECT COUNT(*) FROM emp WHERE tag = 'x'") == [(0,)]
    assert db.table("emp").count() == 257


def test_probed_as_the_inner_side_of_an_index_nested_loop_join(db):
    text = ("SELECT e.eid, d.dname FROM emp e JOIN dept d "
            "ON e.did = d.did WHERE e.tag = 't1'")
    with db.autocommit() as ctx:
        plan = plan_select(ctx, parse_statement(text), text)
        plan.join.method = "index_nl"
        executor = db.query_engine.executor
        rows, delta = counted(db, executor.run_select, ctx, plan, {})
    assert reference.same_rows(rows, reference.run(db, text))
    assert delta["executor.index_nl_joins"] == 1
    assert delta["dict_index.fetches"] == sum(
        1 for i in range(300) if i % 7 == 1 and i % 9)
    assert delta.get("heap.tuples_scanned", 0) == 0


def test_probed_by_a_referential_check(db):
    db.create_table("assignment", [("did", "INT")])
    db.create_attachment("assignment", "referential", "assignment_fk",
                         {"parent": "dept", "columns": ["did"],
                          "parent_columns": ["did"]})
    assignment = db.table("assignment")
    __, delta = counted(db, assignment.insert_many, [(3,), (39,), (None,)])
    assert delta["dict_index.fetches"] == 2
    assert delta.get("heap.tuples_scanned", 0) == 0
    with pytest.raises(ReferentialViolation):
        assignment.insert((40,))
    assert assignment.count() == 3
