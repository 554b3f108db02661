"""Property-based tests of the three-valued predicate logic."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import Box, RecordView
from repro.core.schema import Field, Schema
from repro.errors import PredicateError
from repro.services.predicate import (And, Arith, Between, Cmp, Col, Const,
                                      Func, InList, IsNull, Like, Neg, Not,
                                      Or, Param, Predicate, evaluate,
                                      parse_expression)
from repro.services.vectors import ColumnBatch

SCHEMA = Schema("t", [Field("a", "INT"), Field("b", "INT"),
                      Field("c", "INT")])

_values = st.one_of(st.none(), st.integers(-5, 5))


def _atom(column, op, constant):
    return Cmp(op, Col(column), Const(constant))


_atoms = st.builds(_atom, st.sampled_from(["a", "b", "c"]),
                   st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                   st.integers(-5, 5))


def _exprs(depth=2):
    if depth == 0:
        return _atoms
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Not, sub),
        st.builds(lambda l, r: And([l, r]), sub, sub),
        st.builds(lambda l, r: Or([l, r]), sub, sub))


def _eval(expr, row):
    return expr.bind(SCHEMA).eval(RecordView.from_record(row))


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.tuples(_values, _values, _values))
def test_double_negation_preserved_in_3vl(expr, row):
    assert _eval(Not(Not(expr)), row) == _eval(expr, row)


@settings(max_examples=200, deadline=None)
@given(_exprs(1), _exprs(1), st.tuples(_values, _values, _values))
def test_de_morgan_under_3vl(left, right, row):
    lhs = _eval(Not(And([left, right])), row)
    rhs = _eval(Or([Not(left), Not(right)]), row)
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(_exprs(1), _exprs(1), st.tuples(_values, _values, _values))
def test_and_or_commute(left, right, row):
    assert _eval(And([left, right]), row) == _eval(And([right, left]), row)
    assert _eval(Or([left, right]), row) == _eval(Or([right, left]), row)


@settings(max_examples=200, deadline=None)
@given(_atoms, st.tuples(_values, _values, _values))
def test_atom_against_python_semantics(expr, row):
    value = row[SCHEMA.field_index(expr.left.name)]
    constant = expr.right.value
    got = _eval(expr, row)
    if value is None:
        assert got is None
    else:
        import operator
        ops = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        assert got == ops[expr.op](value, constant)


@settings(max_examples=150, deadline=None)
@given(_exprs(), st.tuples(_values, _values, _values))
def test_text_roundtrip_preserves_semantics(expr, row):
    reparsed = parse_expression(expr.to_text())
    assert _eval(reparsed, row) == _eval(expr, row)


@settings(max_examples=150, deadline=None)
@given(_exprs(), st.tuples(_values, _values, _values))
def test_matches_is_true_only(expr, row):
    """Filter semantics: unknown is not a match."""
    predicate = Predicate(expr, SCHEMA)
    assert predicate.matches(row) == (_eval(expr, row) is True)


# ---------------------------------------------------------------------------
# The two entry points of the one tree agree: its generated code per batch
# (through ``predicate.evaluate``) against ``eval`` per record, over the
# whole AST.
# ---------------------------------------------------------------------------

WIDE = Schema("w", [Field("i", "INT"), Field("f", "FLOAT"),
                    Field("s", "STRING"), Field("m", "INT"),
                    Field("g", "BOX")])

_ints = st.integers(-3, 3)
_floats = st.sampled_from([-2.5, -0.0, 0.0, 0.5, 2.0, 1e-05])
_strings = st.sampled_from(["", "a", "ab", "O'B", "b%"])
_boxes = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                   _ints, _ints, st.integers(0, 3), st.integers(0, 3))
_wide_rows = st.tuples(
    st.none() | _ints, st.none() | _floats, st.none() | _strings,
    st.none() | _ints | _floats | _strings,    # ``m``: a mixed column
    st.none() | _boxes)
_PARAMS = {"p": 2, "q": "ab", "z": 0, "n": None}


def _numbers(depth):
    leaves = st.one_of(
        st.sampled_from([Col("i"), Col("f"), Col("m"), Param("p"),
                         Param("z"), Param("n"), Param("missing")]),
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
        st.builds(lambda a, b: Func("mod", [a, b]), sub, sub),
        st.builds(lambda a: Func("length", [a]), _texts()))


def _texts():
    return st.one_of(
        st.sampled_from([Col("s"), Col("m"), Param("q")]),
        st.builds(Const, st.none() | _strings),
        st.builds(lambda a: Func("upper", [a]),
                  st.sampled_from([Col("s"), Col("m")])))


def _regions(depth):
    sub = _numbers(depth)
    return st.one_of(
        st.just(Col("g")), st.builds(Const, st.none() | _boxes),
        st.builds(lambda a, b, c, d: Func("box", [a, b, c, d]),
                  sub, sub, sub, sub),
        st.builds(lambda a, b, c: Func("box", [a, b, c]), sub, sub, sub))


def _truths(depth):
    numbers, texts, regions = _numbers(depth), _texts(), _regions(depth)
    comparison = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    spatial = st.sampled_from(["ENCLOSES", "ENCLOSED_BY", "OVERLAPS"])
    atoms = st.one_of(
        st.builds(Cmp, comparison, numbers, numbers),
        st.builds(Cmp, comparison, texts, texts),
        st.builds(Cmp, comparison, numbers, texts),    # ill-typed on purpose
        st.builds(Cmp, spatial, regions, regions),
        st.builds(Cmp, spatial, regions, numbers),     # ill-typed on purpose
        st.builds(Between, numbers, numbers, numbers),
        st.builds(Between, texts, numbers, texts),
        st.builds(Like, texts, st.sampled_from(["a%", "_b", "O'B%", "%"])),
        st.builds(Like, numbers, st.just("%")),
        st.builds(InList, numbers,
                  st.lists(st.builds(Const, st.none() | _ints), min_size=1,
                           max_size=3)),
        st.builds(InList, regions,                     # unhashable candidates
                  st.lists(st.builds(Const, st.none() | _boxes), min_size=1,
                           max_size=3)),
        st.builds(InList, numbers,                     # column candidates
                  st.lists(numbers, min_size=1, max_size=3)),
        st.builds(IsNull, st.one_of(numbers, texts, regions), st.booleans()))
    if depth == 0:
        return atoms
    sub = _truths(depth - 1)
    return st.one_of(
        atoms, st.builds(Not, sub),
        st.builds(lambda l, r: And([l, r]), sub, sub),
        st.builds(lambda l, r: Or([l, r]), sub, sub),
        st.builds(IsNull, sub),
        st.builds(Cmp, st.just("="), sub, sub))


@st.composite
def _batches(draw):
    rows = draw(st.lists(_wide_rows, max_size=6))
    selection = None
    if draw(st.booleans()):
        selection = draw(st.lists(st.integers(0, len(rows) - 1), max_size=8)) \
            if rows else []
    return rows, selection


def _outcome(compute):
    """Values with their exact types (``True`` is not ``1``, ``-0.0`` is
    not ``0.0``), or the one typed error both entry points may raise."""
    try:
        return [repr(value) for value in compute()]
    except PredicateError:
        return "PredicateError"


_SHORT_CIRCUIT = Or([Cmp("=", Col("i"), Const(0)),
                     Cmp(">", Arith("/", Const(10), Col("i")), Const(1))])


@settings(max_examples=400, deadline=None)
@given(st.one_of(_truths(2), _numbers(2), _texts(), _regions(1)), _batches())
@example(_SHORT_CIRCUIT, ([(0, 0.0, "", 0, None), (5, 0.0, "", 0, None),
                           (20, 0.0, "", 0, None), (None,) * 5], None))
# ``%`` between strings is formatting, whose failure is a ValueError.
@example(Arith("%", Col("m"), Col("m")),
         ([(None, None, None, "b%", None)], None))
def test_batch_entry_point_equals_record_entry_point(expr, batch):
    rows, selection = batch
    bound = expr.bind(WIDE)
    chosen = rows if selection is None else [rows[i] for i in selection]
    expected = _outcome(lambda: [
        bound.eval(RecordView.from_record(row), _PARAMS) for row in chosen])
    got = _outcome(lambda: evaluate(
        bound, ColumnBatch(rows, len(WIDE)), _PARAMS, None, selection))
    assert got == expected
    if selection is None:
        # The storage-pushdown entry point is the same tree again.
        predicate = Predicate.from_bound(bound, WIDE, _PARAMS)
        assert _outcome(lambda: predicate.select(
            ColumnBatch(rows, len(WIDE)))) == (
            expected if expected == "PredicateError" else
            [repr(i) for i, v in enumerate(expected) if v == "True"])


def test_short_circuit_retry_is_counted():
    from repro import Database
    stats = Database().services.stats
    rows = [(0,), (5,), (20,), (None,)]
    bound = _SHORT_CIRCUIT.bind(Schema("t", [Field("i", "INT")]))
    assert evaluate(bound, ColumnBatch(rows, 1), None, stats) \
        == [True, True, False, None]
    assert stats.get("predicate.row_evals") == len(rows)
