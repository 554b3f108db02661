"""The code a bound expression tree generates, against ``eval``.

``Predicate.select`` and ``predicate.evaluate`` run one generated
comprehension per tree shape.  Row by row, wherever that code answers it
must answer what ``eval`` answers, exactly (``True`` is not ``1``, NaN
is not NULL); where ``eval`` raises, the code must raise too (it
evaluates every sub-expression, so it may raise where ``eval``
short-circuits, never the other way round); and through the retry the
batch answer — value, selection or ``PredicateError`` — is ``eval``'s.
The code is cached by shape, with a cap and counters.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.records import Box, RecordView
from repro.core.schema import Field, Schema
from repro.errors import PredicateError
from repro.services import predicate
from repro.services.predicate import (And, Arith, Between, Cmp, Col, Const,
                                      Func, InList, IsNull, Like, Neg, Not,
                                      Or, Param, Predicate, parse_expression)
from repro.services.vectors import ColumnBatch

SCHEMA = Schema("g", [Field("i", "INT"), Field("f", "FLOAT"),
                      Field("s", "STRING"), Field("m", "INT"),
                      Field("b", "BOX"), Field("t", "BOOL")])
NAN = float("nan")
PARAMS = {"p": 2, "z": 0, "n": None, "x": NAN, "w": "ab"}

_ints = st.integers(-3, 3)
_floats = st.sampled_from([-2.5, -0.0, 0.0, 0.5, 2.0, NAN])
_strings = st.sampled_from(["", "a", "ab", "b%"])
_boxes = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                   _ints, _ints, st.integers(0, 2), st.integers(0, 2))
_rows = st.tuples(
    st.none() | _ints, st.none() | _floats, st.none() | _strings,
    st.none() | _ints | _floats | _strings | st.booleans(),  # mixed types
    st.none() | _boxes, st.none() | st.booleans())
_params = st.sampled_from([Param("p"), Param("z"), Param("n"), Param("x")])


def _numbers(depth):
    leaves = st.one_of(
        st.sampled_from([Col("i"), Col("f"), Col("m")]), _params,
        st.builds(Const, st.none() | _ints | _floats))
    if depth == 0:
        return leaves
    sub = _numbers(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Arith, st.sampled_from(["+", "-", "*", "/", "%"]),
                  sub, sub),
        st.builds(Neg, sub),
        st.builds(lambda a: Func("abs", [a]), sub),
        st.builds(lambda a, b: Func("max", [a, b]), sub, sub))


def _texts():
    return st.one_of(st.sampled_from([Col("s"), Col("m"), Param("w")]),
                     st.builds(Const, st.none() | _strings))


def _regions():
    return st.one_of(st.just(Col("b")), st.builds(Const, st.none() | _boxes),
                     st.just(Func("box", [])))      # raises on every row


def _truths(depth):
    numbers, texts, regions = _numbers(1), _texts(), _regions()
    comparison = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    candidates = st.one_of(_params, st.builds(Const, st.none() | _ints
                                              | _floats | _strings))
    atoms = st.one_of(
        st.just(Col("t")),
        st.builds(Cmp, comparison, numbers, numbers),
        st.builds(Cmp, comparison, numbers, texts),     # mixed types
        st.builds(Cmp, st.sampled_from(["ENCLOSES", "ENCLOSED_BY",
                                        "OVERLAPS"]), regions,
                  st.one_of(regions, numbers)),
        st.builds(Between, numbers, numbers, st.one_of(numbers, texts)),
        st.builds(Like, st.one_of(texts, numbers),
                  st.sampled_from(["a%", "_b", "%"])),
        st.builds(InList, st.one_of(numbers, texts),     # NULL members too
                  st.lists(candidates, min_size=1, max_size=3)),
        st.builds(InList, numbers, st.lists(numbers, min_size=1, max_size=2)),
        st.builds(IsNull, st.one_of(numbers, texts, regions), st.booleans()))
    if depth == 0:
        return atoms
    # A number as a connective's item: not FALSE and not NULL is true.
    sub = st.one_of(_truths(depth - 1), _numbers(0))
    return st.one_of(
        atoms, st.builds(Not, sub),
        st.builds(lambda items: And(items), st.lists(sub, min_size=2,
                                                     max_size=3)),
        st.builds(lambda items: Or(items), st.lists(sub, min_size=2,
                                                    max_size=3)))


@st.composite
def _batches(draw):
    rows = draw(st.lists(_rows, max_size=6))
    selection = None
    if rows and draw(st.booleans()):
        selection = sorted(set(draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=6))))
    return rows, selection


def _same(value) -> str:
    """A value compared exactly: its type and, for NaN, its NaN-ness."""
    return repr(value)


def _row_by_row(bound, rows):
    """Per row: ``eval``'s value, or the ``PredicateError`` text."""
    out = []
    for row in rows:
        try:
            out.append(_same(bound.eval(RecordView.from_record(row), PARAMS)))
        except PredicateError as exc:
            out.append(("PredicateError", str(exc)))
    return out


_SHORT_CIRCUITS = [
    "i = 0 OR 10 / i > 1",
    "NOT (i = 0 OR 10 / i > 1)",
    "i != 0 AND 10 / i > 1",
    "i IS NULL OR (i != 0 AND 10 % i = 1) OR s LIKE 'a%'",
    "t AND NOT (m = 0 OR 1 / m < 2)",
    "i IN (1, 2, :n) OR f / :z > 1",
]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_truths(2), _numbers(2)), _batches())
@example(parse_expression(_SHORT_CIRCUITS[0]),
         ([(0, 0.0, "", 0, None, True), (5, NAN, "a", 1, None, None)], None))
@example(parse_expression(_SHORT_CIRCUITS[4]),
         ([(0, 0.0, "", 0, None, True), (5, NAN, "a", 1, None, False),
           (1, None, None, None, None, None)], [0, 2]))
def test_generated_code_agrees_with_eval_row_by_row(expr, batch):
    rows, selection = batch
    bound = expr.bind(SCHEMA)
    kernel = predicate._compile(bound, None)
    assert kernel is not None, "every built-in node class emits"
    chosen = rows if selection is None else [rows[i] for i in selection]
    expected = _row_by_row(bound, chosen)
    column_batch = ColumnBatch(rows, len(SCHEMA))
    chosen_batch = column_batch if selection is None \
        else column_batch.narrow(selection)
    selects, values_of = kernel
    try:
        values = values_of(chosen_batch, PARAMS)
    except predicate._RETRIED:
        values = None  # allowed: the code reaches past short-circuits
    if values is not None:
        # It answered, so no row may raise under ``eval`` (the code never
        # evaluates less), and every value is ``eval``'s exactly.
        assert [_same(v) for v in values] == expected
    try:
        selected = selects(chosen_batch, PARAMS)
    except predicate._RETRIED:
        selected = None
    if selected is not None:  # the same for the selection
        assert selected == [i for i, e in enumerate(expected) if e == "True"]

    # Through the retry the batch answer is eval's: values, selection,
    # or the first row's error.
    errors = [e for e in expected if isinstance(e, tuple)]
    if errors:
        with pytest.raises(PredicateError) as raised:
            predicate.evaluate(bound, column_batch, PARAMS, None, selection)
        assert str(raised.value) == errors[0][1]
    else:
        assert [_same(v) for v in predicate.evaluate(
            bound, column_batch, PARAMS, None, selection)] == expected
    if selection is None:
        if errors:
            with pytest.raises(PredicateError):
                predicate.select(bound, column_batch, PARAMS)
        else:
            assert predicate.select(bound, column_batch, PARAMS) == [
                i for i, e in enumerate(expected) if e == "True"]


@pytest.mark.parametrize("text", _SHORT_CIRCUITS)
def test_short_circuits_surface_evals_error_or_none(text):
    """The generated code divides where ``eval`` never does; the retry
    answers as ``eval`` does, error or not."""
    bound = parse_expression(text).bind(SCHEMA)
    rows = [(0, 0.0, "ab", 0, None, True), (2, 1.0, "a", 2, None, True),
            (None, NAN, None, None, None, None)]
    stats = Database().services.stats
    expected = _row_by_row(bound, rows)
    batch = ColumnBatch(rows, len(SCHEMA))
    try:
        got = [_same(v) for v in predicate.evaluate(bound, batch, PARAMS,
                                                    stats)]
    except PredicateError as exc:
        got = [("PredicateError", str(exc))]
        expected = [e for e in expected if isinstance(e, tuple)][:1]
    assert got == expected
    assert stats.get("predicate.row_evals") in (0, len(rows))


def test_nan_is_a_value_not_null():
    bound = parse_expression("f IN (:x, 1.0) OR f IS NULL").bind(SCHEMA)
    nan = PARAMS["x"]
    rows = [(0, nan, "", 0, None, None), (0, 1.0, "", 0, None, None),
            (0, None, "", 0, None, None)]
    # The same NaN object as the parameter: equal to nothing, even itself.
    assert predicate.select(bound, ColumnBatch(rows, len(SCHEMA)),
                            PARAMS) == [1, 2]
    assert predicate.evaluate(bound, ColumnBatch(rows, len(SCHEMA)),
                              PARAMS) == [False, True, True]


# ---------------------------------------------------------------------------
# The code cache: keyed by shape, capped, counted
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_code(monkeypatch):
    """An empty code cache for the test (other tests fill the shared one)."""
    monkeypatch.setattr(predicate, "_CODE", {})
    return predicate


def _code_counts(stats, before):
    delta = stats.delta(before)
    return (delta.get("predicate.compilations", 0),
            delta.get("predicate.code_hits", 0),
            delta.get("predicate.code_evictions", 0))


def test_the_cache_evicts_past_its_cap_and_still_answers(fresh_code,
                                                        monkeypatch):
    monkeypatch.setattr(predicate, "_CODE_CAP", 4)
    stats = Database().services.stats
    rows = [(i, float(i), str(i), i, None, i % 2 == 0) for i in range(8)]
    batch = ColumnBatch(rows, len(SCHEMA))
    shapes = ["i > 2", "i < 2", "i = 2", "f > 2", "f < 2", "m >= 2",
              "i + m > 5", "NOT t", "i BETWEEN 1 AND 3", "s IN ('1', '7')"]
    before = stats.snapshot()
    for _round in range(2):
        for text in shapes:
            bound = parse_expression(text).bind(SCHEMA)
            assert predicate.select(bound, batch, None, stats) == [
                i for i, row in enumerate(rows)
                if bound.eval(RecordView.from_record(row)) is True]
    # Every round finds its shapes evicted: the cache never grows past 4.
    assert len(predicate._CODE) == 4
    assert _code_counts(stats, before) == (20, 0, 16)


def test_a_reparsed_predicate_of_one_shape_compiles_once(fresh_code):
    db = Database()
    table = db.create_table("emp", [("id", "INT"), ("dept", "STRING"),
                                    ("salary", "FLOAT")])
    table.insert_many([(i, f"d{i % 5}", 100.0 * i) for i in range(40)])
    stats = db.services.stats
    before = stats.snapshot()
    for n in range(50):
        table.update_where("dept = :d", {"salary": float(n)},
                           {"d": f"d{n % 5}"})
    compilations, hits, __ = _code_counts(stats, before)
    assert compilations == 1
    assert hits >= 49
    assert {row[2] for row in table.rows() if row[1] == "d4"} == {49.0}


def test_constants_are_arguments_not_part_of_the_shape(fresh_code):
    schema = Schema("e", [Field("salary", "FLOAT")])
    stats = Database().services.stats
    batch = ColumnBatch([(float(i),) for i in range(-2, 8)], 1)
    low = Predicate.parse("salary >= 0", schema)
    high = Predicate.parse("salary >= 5", schema)
    before = stats.snapshot()
    assert low.select(batch, stats) == list(range(2, 10))
    assert high.select(batch, stats) == list(range(7, 10))
    (low_selects, __), (high_selects, __) = low.expr._kernel, high.expr._kernel
    assert low_selects.__code__ is high_selects.__code__
    assert _code_counts(stats, before) == (1, 1, 0)


def test_a_plan_cache_hit_compiles_nothing(fresh_code):
    db = Database()
    table = db.create_table("emp", [("id", "INT"), ("dept", "STRING"),
                                    ("salary", "FLOAT")])
    table.insert_many([(i, f"d{i % 5}", 10.0 * i) for i in range(60)])
    stats = db.services.stats
    statement = ("SELECT dept, salary * 2 FROM emp "
                 "WHERE salary > :s AND dept != 'd1'")
    first = db.execute(statement, {"s": 100.0})
    before = stats.snapshot()
    again = db.execute(statement, {"s": 300.0})
    assert stats.delta(before)["plan_cache.hits"] == 1
    assert _code_counts(stats, before) == (0, 0, 0)
    assert len(again) < len(first)
    assert all(value > 600.0 for __, value in again)
