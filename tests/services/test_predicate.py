"""Common predicate evaluator: parsing, three-valued logic, analysis."""

import os
import subprocess
import sys

import pytest

import repro
from repro import Database
from repro.core.records import Box, RecordView
from repro.core.schema import Field, Schema
from repro.errors import PredicateError
from repro.services.predicate import (And, Between, Cmp, Col, Const, Func,
                                      InList, IsNull, Like, Not, Or, Param,
                                      Predicate, conjuncts, parse_expression,
                                      register_function, simple_comparison)
from repro.services.vectors import ColumnBatch


@pytest.fixture
def schema():
    return Schema("t", [Field("id", "INT", False), Field("name", "STRING"),
                        Field("salary", "FLOAT"), Field("active", "BOOL"),
                        Field("region", "BOX")])


def match(schema, text, record, params=None):
    return Predicate.parse(text, schema, params).matches(record)


ROW = (1, "alice", 100.0, True, Box(0, 0, 10, 10))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_comparison_and_precedence(schema):
    expr = parse_expression("salary + 10 * 2 >= 120")
    bound = expr.bind(schema)
    assert bound.eval(RecordView.from_record(ROW)) is True


def test_parse_and_or_not_precedence(schema):
    # AND binds tighter than OR.
    assert match(schema, "id = 2 or id = 1 and active", ROW)
    assert not match(schema, "not (id = 1)", ROW)


def test_parse_string_escapes(schema):
    assert match(schema, "name != 'it''s'", ROW)


def test_parse_in_between_like(schema):
    assert match(schema, "id in (3, 2, 1)", ROW)
    assert match(schema, "salary between 50 and 150", ROW)
    assert match(schema, "name like 'al%'", ROW)
    assert match(schema, "name like '_lice'", ROW)
    assert not match(schema, "name like 'al'", ROW)
    assert match(schema, "id not in (5, 6)", ROW)
    assert match(schema, "salary not between 200 and 300", ROW)


def test_parse_is_null(schema):
    row = (1, None, 100.0, True, None)
    assert match(schema, "name is null", row)
    assert match(schema, "salary is not null", row)


def test_parse_functions(schema):
    assert match(schema, "upper(name) = 'ALICE'", ROW)
    assert match(schema, "length(name) = 5", ROW)
    assert match(schema, "abs(0 - salary) = 100", ROW)


def test_parse_spatial_predicates(schema):
    assert match(schema, "region encloses box(2, 2, 3, 3)", ROW)
    assert match(schema, "region enclosed_by box(0, 0, 100, 100)", ROW)
    assert match(schema, "region overlaps box(5, 5, 50, 50)", ROW)
    assert not match(schema, "region encloses box(5, 5, 50, 50)", ROW)


def test_parse_errors_are_reported(schema):
    with pytest.raises(PredicateError):
        parse_expression("salary >")
    with pytest.raises(PredicateError):
        parse_expression("salary = 1 extra")
    with pytest.raises(PredicateError):
        parse_expression("@nonsense")
    with pytest.raises(PredicateError):
        parse_expression("unknown_fn(1)")


def test_unknown_column_fails_at_bind_time(schema):
    with pytest.raises(Exception):
        Predicate.parse("no_such = 1", schema)


def test_to_text_roundtrips_through_parser(schema):
    texts = ["salary >= 100 AND id = 1", "name LIKE 'a%' OR id IN (1, 2)",
             "NOT (active = true)", "salary BETWEEN 1 AND 2"]
    for text in texts:
        expr = parse_expression(text)
        again = parse_expression(expr.to_text())
        view = RecordView.from_record(ROW)
        assert expr.bind(schema).eval(view) == again.bind(schema).eval(view)


def _roundtrip(expr):
    """``expr`` → text → tree → text is a fixed point, and the reparsed
    tree has the same shape (``to_text`` is injective up to the parser's
    own flattening of nested AND/OR)."""
    text = expr.to_text()
    again = parse_expression(text)
    assert again.to_text() == text
    return again


def test_to_text_escapes_quote_in_like_pattern(schema):
    again = _roundtrip(Like(Col("name"), "O'B%"))
    assert again.pattern == "O'B%"
    row = (1, "O'Brien", 1.0, True, None)
    assert again.bind(schema).eval(RecordView.from_record(row)) is True


def test_to_text_parenthesises_comparison_under_is_null(schema):
    again = _roundtrip(IsNull(Cmp("=", Col("id"), Col("salary"))))
    assert isinstance(again, IsNull) and isinstance(again.item, Cmp)
    view = RecordView.from_record((1, "a", None, True, None))
    assert again.bind(schema).eval(view) is True


def test_to_text_parenthesises_comparison_nested_in_comparison(schema):
    again = _roundtrip(Cmp("=", Cmp("<", Col("id"), Const(5)), Col("active")))
    assert isinstance(again.left, Cmp) and again.left.op == "<"
    assert again.bind(schema).eval(RecordView.from_record(ROW)) is True


def test_to_text_parenthesises_by_precedence_only_where_needed():
    for text in ["a - (b - c)", "a - b - c", "a * (b + c)", "a + b * c",
                 "-(a + b)", "NOT a = 1 AND b = 2", "NOT (a = 1 AND b = 2)",
                 "(a = 1 OR b = 2) AND c = 3", "a = 1 OR b = 2 AND c = 3",
                 "(NOT a) = b", "a IN (b + 1, -c)",
                 "(a = 1) BETWEEN (b < 2) AND c"]:
        assert parse_expression(text).to_text() == text


def test_small_float_constant_roundtrips_through_exponent_form(schema):
    expr = Cmp("=", Col("salary"), Const(0.00001))
    assert "e-05" in expr.to_text()
    again = _roundtrip(expr)
    assert again.right.value == 0.00001


def test_number_token_accepts_an_exponent(schema):
    assert parse_expression("1e5").value == 100000.0
    assert parse_expression("2.5E-3").value == 0.0025
    assert isinstance(parse_expression("15").value, int)
    assert match(schema, "salary = 1e2", ROW)


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------

def test_null_comparison_is_unknown(schema):
    row = (1, None, None, True, None)
    predicate = Predicate.parse("salary > 10", schema)
    view = RecordView.from_record(row)
    assert predicate.expr.eval(view) is None
    assert predicate.matches(row) is False  # unknown rows are filtered out


def test_kleene_and_or(schema):
    row = (1, None, None, True, None)
    view = RecordView.from_record(row)
    # unknown AND false = false; unknown OR true = true
    assert parse_expression("salary > 1 and id = 99").bind(schema) \
        .eval(view) is False
    assert parse_expression("salary > 1 or id = 1").bind(schema) \
        .eval(view) is True
    assert parse_expression("salary > 1 or id = 99").bind(schema) \
        .eval(view) is None
    assert parse_expression("not (salary > 1)").bind(schema).eval(view) is None


def test_null_in_list_semantics(schema):
    view = RecordView.from_record((1, "alice", 100.0, True, None))
    assert parse_expression("id in (2, null)").bind(schema).eval(view) is None
    assert parse_expression("id in (1, null)").bind(schema).eval(view) is True


# ---------------------------------------------------------------------------
# Parameters and partial views
# ---------------------------------------------------------------------------

def test_parameters_supplied_at_evaluation(schema):
    predicate = Predicate.parse("salary > :floor", schema,
                                {"floor": 50.0})
    assert predicate.matches(ROW)
    rebound = predicate.with_params({"floor": 500.0})
    assert not rebound.matches(ROW)


def test_missing_parameter_raises(schema):
    predicate = Predicate.parse("salary > :floor", schema)
    with pytest.raises(PredicateError):
        predicate.matches(ROW)


def test_partial_view_evaluation(schema):
    """Access paths evaluate predicates on key fields only."""
    predicate = Predicate.parse("id > 0", schema)
    view = RecordView.from_fields((0,), (1,))
    assert predicate.evaluable_on(view.available)
    assert predicate.expr.eval(view) is True
    salary_pred = Predicate.parse("salary > 0", schema)
    assert not salary_pred.evaluable_on(view.available)


# ---------------------------------------------------------------------------
# Planner-facing analysis
# ---------------------------------------------------------------------------

def test_conjuncts_flatten_nested_ands(schema):
    expr = parse_expression("a1 = 1 and (a1 = 2 and a1 = 3) and a1 = 4")
    assert len(conjuncts(expr)) == 4


def test_simple_comparison_recognises_column_vs_constant(schema):
    expr = parse_expression("salary >= 100").bind(schema)
    index, op, operand = simple_comparison(expr)
    assert index == schema.field_index("salary")
    assert op == ">="
    assert operand.eval(RecordView({})) == 100


def test_simple_comparison_normalises_flipped_operands(schema):
    expr = parse_expression("100 < salary").bind(schema)
    index, op, __ = simple_comparison(expr)
    assert index == schema.field_index("salary")
    assert op == ">"


def test_simple_comparison_rejects_column_vs_column(schema):
    expr = parse_expression("id = salary").bind(schema)
    assert simple_comparison(expr) is None


def test_simple_comparison_accepts_parameters(schema):
    expr = parse_expression("id = :target").bind(schema)
    index, op, operand = simple_comparison(expr)
    assert (index, op) == (schema.field_index("id"), "=")


def test_register_function_extends_evaluator(schema):
    register_function("double_it", lambda v: v * 2)
    assert match(schema, "double_it(id) = 2", ROW)


def test_function_without_arguments_fills_the_batch(schema):
    """No argument vector to take the batch length from: the batch entry
    point must still answer one value per row."""
    register_function("seven", lambda: 7)
    predicate = Predicate.parse("seven() = id + 6", schema)
    rows = [ROW, (2,) + ROW[1:], ROW]
    assert predicate.select(ColumnBatch(rows, len(schema))) == [0, 2]
    assert [predicate.matches(row) for row in rows] == [True, False, True]


def test_function_registered_after_plan_is_cached_reaches_both_entry_points():
    """Functions are looked up by name at evaluation time, so the bound
    tree a cached plan holds sees a later ``register_function`` — through
    ``eval`` (UPDATE … SET, per record) and through ``run`` (SELECT)."""
    db = Database()
    db.create_table("t", [("a", "INT")]).insert_many([(1,), (2,), (3,)])
    register_function("scaled", lambda v: v * 2)
    select = "SELECT scaled(a) FROM t WHERE scaled(a) > 2"
    update = "UPDATE t SET a = scaled(a) WHERE a = 3"
    assert sorted(db.execute(select)) == [(4,), (6,)]
    db.execute(update)
    assert sorted(db.execute("SELECT a FROM t")) == [(1,), (2,), (6,)]
    translations = db.services.stats.get("plan_cache.translations")
    register_function("scaled", lambda v: v * 10)
    assert sorted(db.execute(select)) == [(10,), (20,), (60,)]
    db.execute("UPDATE t SET a = 3 WHERE a = 6")
    db.execute(update)
    assert sorted(db.execute("SELECT a FROM t")) == [(1,), (2,), (30,)]
    # select and update ran from their cached plans the second time.
    assert db.services.stats.get("plan_cache.translations") \
        == translations + 1


def test_predicate_service_does_not_reach_up_into_the_query_layer():
    """Building, binding and batch-filtering a predicate in a fresh
    interpreter loads no query-layer module.  (``import repro`` itself
    loads ``repro.query.cost``: the core's extension interfaces are
    declared in terms of its cost structs.)"""
    script = """
import sys
import repro.services.predicate as predicate
from repro.core.schema import Field, Schema
from repro.services.vectors import ColumnBatch
before = {m for m in sys.modules if m.startswith("repro.query")}
assert before <= {"repro.query", "repro.query.cost"}, before
schema = Schema("t", [Field("a", "INT"), Field("b", "STRING")])
bound = predicate.Predicate.parse(
    "a + 1 > :n AND (b LIKE 'x%' OR upper(b) IN ('Y', 'Z'))", schema,
    {"n": 2})
rows = [(1, "x"), (2, "xy"), (3, None), (4, "y"), (None, "z")]
assert bound.select(ColumnBatch(rows, 2)) == [1, 3]
assert [bound.matches(row) for row in rows] == [False, True, False, True,
                                                 False]
after = {m for m in sys.modules if m.startswith("repro.query")}
assert after == before, after - before
"""
    source = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, "-c", script], cwd=source,
                          env={**os.environ, "PYTHONPATH": source},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_qualified_column_names_parse():
    expr = parse_expression("e.salary > 10")
    assert expr.column_names() == {"e.salary"}
