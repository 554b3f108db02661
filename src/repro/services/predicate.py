"""Filter-predicate expressions and the common predicate evaluator.

The paper: "Another common service interface supports the evaluation of
filter predicates during direct-by-key and key-sequential accesses, and
supports integrity constraint checking ...  The intention of this common
service facility is to allow filter predicates to be evaluated while the
field values from the relation storage or access path are still in the
buffer pool.  The predicate evaluation facility is also available to the
integrity constraint attachments and to the query execution engine."

This module provides exactly that shared facility:

* an expression AST (:class:`Expr` subclasses) with constants, columns,
  named parameters, arithmetic, comparisons, boolean connectives with SQL
  three-valued (Kleene) logic, ``IS [NOT] NULL``, ``IN``, ``BETWEEN``,
  ``LIKE``, registered scalar functions, and the spatial predicates the
  paper names for the R-tree access path (``ENCLOSES``, plus
  ``ENCLOSED_BY`` and ``OVERLAPS``) — one tree with two entry points,
  ``eval`` for one record and ``run`` for a batch
  (:mod:`.vectors`), both reading each operator's meaning from the same
  scalar tables, and :func:`evaluate`, which makes the batch answer
  agree with the per-record one where short-circuit evaluation matters;
* a text parser (``parse_expression`` / :meth:`Predicate.parse`), used both
  by the mini-SQL front end and by DDL attribute lists (check-constraint
  predicates arrive as strings);
* binding against a :class:`~repro.core.schema.Schema` (names → field
  indexes) so extensions evaluate against partial
  :class:`~repro.core.records.RecordView` objects without copying records
  out of the buffer pool;
* the analysis entry points the query planner needs: conjunct splitting and
  simple-comparison recognition ("eligible predicates").
"""

from __future__ import annotations

import operator
import re
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..errors import PredicateError
from ..core.records import Box, RecordView
from .vectors import VectorOps

__all__ = ["Expr", "Const", "Col", "Param", "Cmp", "And", "Or", "Not",
           "Arith", "Neg", "IsNull", "InList", "Between", "Like", "Func",
           "Predicate", "parse_expression", "conjuncts", "simple_comparison",
           "register_function", "evaluate", "COMPARISON_OPS", "SPATIAL_OPS"]

# ---------------------------------------------------------------------------
# What each operator means, once: the scalar tables both entry points
# (``Expr.eval`` per record, ``Expr.run`` per batch) read.
# ---------------------------------------------------------------------------

_ARITHMETIC: Dict[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod}


def _spatial(op: str, test: Callable) -> Callable:
    def fn(lhs, rhs):
        if not isinstance(lhs, Box) or not isinstance(rhs, Box):
            raise PredicateError(
                f"{op} needs BOX operands, got "
                f"{type(lhs).__name__} and {type(rhs).__name__}")
        return test(lhs, rhs)
    return fn


_SPATIAL_TESTS = {"ENCLOSES": Box.encloses, "ENCLOSED_BY": Box.enclosed_by,
                  "OVERLAPS": Box.overlaps}
_COMPARISON: Dict[str, Callable] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    **{op: _spatial(op, test) for op, test in _SPATIAL_TESTS.items()}}

SPATIAL_OPS = frozenset(_SPATIAL_TESTS)
COMPARISON_OPS = frozenset(_COMPARISON) - SPATIAL_OPS

_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "ENCLOSES": "ENCLOSED_BY", "ENCLOSED_BY": "ENCLOSES"}


def _member(needle, candidates):
    """``needle IN candidates`` under three-valued logic.  ``candidates``
    is consumed lazily: nothing after the first hit is evaluated."""
    if needle is None:
        return None
    unknown = False
    for candidate in candidates:
        if candidate is None:
            unknown = True
        elif candidate == needle:
            return True
    return None if unknown else False


def _box(*coordinates):
    if len(coordinates) != 4:
        raise PredicateError("box() takes four coordinates")
    return Box(*coordinates)


# Scalar function registry (the paper's evaluator "will be able to call
# functions that are passed to it").  Looked up by name at every
# evaluation, so a function registered after a plan was cached is seen.
_FUNCTIONS: Dict[str, Callable] = {}


def register_function(name: str, fn: Callable) -> None:
    """Register a scalar function usable in predicate expressions."""
    _FUNCTIONS[name.lower()] = fn


for _name, _fn in [
    ("abs", abs),
    ("lower", lambda s: s.lower()),
    ("upper", lambda s: s.upper()),
    ("length", len),
    ("round", round),
    ("mod", lambda a, b: a % b),
    ("min", min),
    ("max", max),
    ("area", lambda b: b.area()),
    ("box", _box),
]:
    register_function(_name, _fn)


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

def _domain_size(batch, selection) -> int:
    return len(batch) if selection is None else len(selection)


def _eval_rows(expr: "Expr", batch, params, selection) -> list:
    """``expr.eval`` for each row of the batch restricted to ``selection``,
    over views of the columns ``expr`` reads (a batch need hold no more)."""
    indexes = sorted(expr.columns())
    columns = [batch.column(index) for index in indexes]
    domain = range(len(batch)) if selection is None else selection
    return [expr.eval(RecordView({index: column[i] for index, column
                                  in zip(indexes, columns)}), params)
            for i in domain]


def _operand(expr: "Expr", level: int) -> str:
    """``expr``'s text for a position that binds at ``level``, in
    parentheses when ``expr`` binds looser (the levels are the parser's:
    OR 1, AND 2, NOT 3, comparison 4, additive 5, multiplicative 6,
    unary minus 7, primary 8)."""
    text = expr.to_text()
    return f"({text})" if expr._level < level else text


class Expr:
    """Base expression node: one tree, two entry points.

    ``eval(view, params)`` is the value for one record, computed while
    the record is in the buffer pool; ``run(batch, params, backend,
    selection)`` is the value for each row of a batch restricted to
    ``selection`` (``None`` = every row), as a list with ``None`` for SQL
    NULL, computed by handing whole vectors to ``backend`` (a
    :class:`~.vectors.VectorOps`) so dispatch cost is O(tree size) per
    batch, not per row.  ``run`` evaluates every sub-expression over the
    whole batch and so cannot short-circuit: call it through
    :func:`evaluate`.  A node class that defines only ``eval`` inherits a
    row-at-a-time ``run``.
    """

    __slots__ = ()
    #: Attributes holding sub-expressions (one node or a tuple of nodes),
    #: in evaluation order — what ``bind``/``columns``/``column_names`` walk.
    _children: Tuple[str, ...] = ()
    #: Binding strength of the node's text (see :func:`_operand`).
    _level = 8

    def eval(self, view: RecordView, params: Optional[dict] = None):
        raise NotImplementedError

    def run(self, batch, params: Optional[dict], backend,
            selection: Optional[Sequence[int]]) -> list:
        return _eval_rows(self, batch, params, selection)

    def children(self) -> List["Expr"]:
        out: List[Expr] = []
        for name in self._children:
            child = getattr(self, name)
            if isinstance(child, Expr):
                out.append(child)
            else:
                out.extend(child)
        return out

    def bind(self, schema) -> "Expr":
        """Resolve column names to field indexes; returns a bound copy,
        rebuilt through the constructor (whose arguments are the class's
        ``__slots__``, in order)."""
        children = self._children
        if not children:
            return self
        arguments = []
        for name in self.__slots__:
            value = getattr(self, name)
            if name in children:
                value = (value.bind(schema) if isinstance(value, Expr)
                         else [v.bind(schema) for v in value])
            arguments.append(value)
        return type(self)(*arguments)

    def columns(self) -> Set[int]:
        """Field indexes referenced (bound expressions only)."""
        out: Set[int] = set()
        for child in self.children():
            out |= child.columns()
        return out

    def column_names(self) -> Set[str]:
        """Column names referenced (works bound or unbound)."""
        out: Set[str] = set()
        for child in self.children():
            out |= child.column_names()
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"

    def to_text(self) -> str:
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, view, params=None):
        return self.value

    def run(self, batch, params, backend, selection):
        return [self.value] * _domain_size(batch, selection)

    def to_text(self):
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        if isinstance(self.value, Box):
            return (f"box({self.value.x_lo}, {self.value.y_lo}, "
                    f"{self.value.x_hi}, {self.value.y_hi})")
        if self.value is None:
            return "NULL"
        return repr(self.value)


class Col(Expr):
    __slots__ = ("name", "index")

    def __init__(self, name: str, index: Optional[int] = None):
        self.name = name.lower()
        self.index = index

    def eval(self, view, params=None):
        if self.index is None:
            raise PredicateError(f"column {self.name!r} is unbound")
        return view[self.index]

    def run(self, batch, params, backend, selection):
        index, = self.columns()
        column = batch.column(index)
        if selection is None:
            return column
        return backend.gather(column, selection)

    def bind(self, schema):
        return Col(self.name, schema.field_index(self.name))

    def columns(self):
        if self.index is None:
            raise PredicateError(f"column {self.name!r} is unbound")
        return {self.index}

    def column_names(self):
        return {self.name}

    def to_text(self):
        return self.name


class Param(Expr):
    """A named parameter (``:name``), supplied at evaluation time."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name.lower()

    def eval(self, view, params=None):
        if not params or self.name not in params:
            raise PredicateError(f"parameter :{self.name} was not supplied")
        return params[self.name]

    def run(self, batch, params, backend, selection):
        return [self.eval(None, params)] * _domain_size(batch, selection)

    def to_text(self):
        return f":{self.name}"


class Cmp(Expr):
    """A comparison.  NULL operands make the result unknown (``None``)."""

    __slots__ = ("op", "left", "right")
    _children = ("left", "right")
    _level = 4

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _COMPARISON:
            raise PredicateError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, view, params=None):
        lhs = self.left.eval(view, params)
        rhs = self.right.eval(view, params)
        if lhs is None or rhs is None:
            return None
        try:
            return _COMPARISON[self.op](lhs, rhs)
        except TypeError as exc:
            raise PredicateError(
                f"cannot compare {lhs!r} {self.op} {rhs!r}") from exc

    def run(self, batch, params, backend, selection):
        left = self.left.run(batch, params, backend, selection)
        right = self.right.run(batch, params, backend, selection)
        if self.op in SPATIAL_OPS:
            return backend.apply(_COMPARISON[self.op], [left, right])
        return backend.compare(self.op, left, right)

    def to_text(self):
        return (f"{_operand(self.left, 5)} {self.op} "
                f"{_operand(self.right, 5)}")


class And(Expr):
    __slots__ = ("items",)
    _children = ("items",)
    _level = 2

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)

    def eval(self, view, params=None):
        unknown = False
        for item in self.items:
            value = item.eval(view, params)
            if value is False:
                return False
            if value is None:
                unknown = True
        return None if unknown else True

    def run(self, batch, params, backend, selection):
        return backend.logical_and(
            [item.run(batch, params, backend, selection)
             for item in self.items])

    def to_text(self):
        return " AND ".join(_operand(i, 3) for i in self.items)


class Or(Expr):
    __slots__ = ("items",)
    _children = ("items",)
    _level = 1

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)

    def eval(self, view, params=None):
        unknown = False
        for item in self.items:
            value = item.eval(view, params)
            if value is True:
                return True
            if value is None:
                unknown = True
        return None if unknown else False

    def run(self, batch, params, backend, selection):
        return backend.logical_or(
            [item.run(batch, params, backend, selection)
             for item in self.items])

    def to_text(self):
        return " OR ".join(_operand(i, 2) for i in self.items)


class Not(Expr):
    __slots__ = ("item",)
    _children = ("item",)
    _level = 3

    def __init__(self, item: Expr):
        self.item = item

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        return None if value is None else not value

    def run(self, batch, params, backend, selection):
        return backend.logical_not(
            self.item.run(batch, params, backend, selection))

    def to_text(self):
        return f"NOT {_operand(self.item, 3)}"


class Arith(Expr):
    __slots__ = ("op", "left", "right")
    _children = ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITHMETIC:
            raise PredicateError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    @property
    def _level(self):
        return 5 if self.op in "+-" else 6

    def eval(self, view, params=None):
        lhs = self.left.eval(view, params)
        rhs = self.right.eval(view, params)
        if lhs is None or rhs is None:
            return None
        try:
            return _ARITHMETIC[self.op](lhs, rhs)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PredicateError(
                f"cannot evaluate {lhs!r} {self.op} {rhs!r}") from exc

    def run(self, batch, params, backend, selection):
        return backend.arith(self.op,
                             self.left.run(batch, params, backend, selection),
                             self.right.run(batch, params, backend, selection))

    def to_text(self):
        # Left-associative: an equal-strength right operand keeps its
        # parentheses (``a - (b - c)``).
        level = self._level
        return (f"{_operand(self.left, level)} {self.op} "
                f"{_operand(self.right, level + 1)}")


class Neg(Expr):
    __slots__ = ("item",)
    _children = ("item",)
    _level = 7

    def __init__(self, item: Expr):
        self.item = item

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        try:
            return None if value is None else -value
        except TypeError as exc:
            raise PredicateError(f"cannot negate {value!r}") from exc

    def run(self, batch, params, backend, selection):
        return backend.neg(self.item.run(batch, params, backend, selection))

    def to_text(self):
        return f"-{_operand(self.item, 7)}"


class IsNull(Expr):
    __slots__ = ("item", "negated")
    _children = ("item",)
    _level = 4

    def __init__(self, item: Expr, negated: bool = False):
        self.item = item
        self.negated = negated

    def eval(self, view, params=None):
        is_null = self.item.eval(view, params) is None
        return not is_null if self.negated else is_null

    def run(self, batch, params, backend, selection):
        return backend.is_null(
            self.item.run(batch, params, backend, selection), self.negated)

    def to_text(self):
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{_operand(self.item, 5)} {suffix}"


class InList(Expr):
    __slots__ = ("item", "values")
    _children = ("item", "values")
    _level = 4

    def __init__(self, item: Expr, values: Sequence[Expr]):
        self.item = item
        self.values = tuple(values)

    def eval(self, view, params=None):
        return _member(self.item.eval(view, params),
                       (value.eval(view, params) for value in self.values))

    def run(self, batch, params, backend, selection):
        needles = self.item.run(batch, params, backend, selection)
        if not all(isinstance(v, (Const, Param)) for v in self.values):
            # Candidates that may depend on the row: x IN (a, b) ≡
            # x = a OR x = b under three-valued logic, as in ``_member``.
            return backend.logical_or(
                [backend.compare(
                    "=", needles, value.run(batch, params, backend, selection))
                 for value in self.values])
        # Constants and parameters: evaluated once per batch.
        candidates = [value.eval(None, params) for value in self.values]
        try:
            members = {c for c in candidates if c is not None}
        except TypeError:
            # Unhashable candidates (boxes): elementwise equality.
            return [_member(needle, candidates) for needle in needles]
        return backend.in_list(needles, members, None in candidates)

    def to_text(self):
        inner = ", ".join(_operand(v, 5) for v in self.values)
        return f"{_operand(self.item, 5)} IN ({inner})"


class Between(Expr):
    __slots__ = ("item", "lo", "hi")
    _children = ("item", "lo", "hi")
    _level = 4

    def __init__(self, item: Expr, lo: Expr, hi: Expr):
        self.item = item
        self.lo = lo
        self.hi = hi

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        lo = self.lo.eval(view, params)
        hi = self.hi.eval(view, params)
        if value is None or lo is None or hi is None:
            return None
        try:
            return lo <= value <= hi
        except TypeError as exc:
            raise PredicateError(
                f"cannot compare {value!r} BETWEEN {lo!r} AND {hi!r}") \
                from exc

    def run(self, batch, params, backend, selection):
        return backend.between(
            self.item.run(batch, params, backend, selection),
            self.lo.run(batch, params, backend, selection),
            self.hi.run(batch, params, backend, selection))

    def to_text(self):
        return (f"{_operand(self.item, 5)} BETWEEN {_operand(self.lo, 5)} "
                f"AND {_operand(self.hi, 5)}")


class Like(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one character)."""

    __slots__ = ("item", "pattern", "_regex")
    _children = ("item",)
    _level = 4

    def __init__(self, item: Expr, pattern: str):
        self.item = item
        self.pattern = pattern
        self._regex = re.compile(self._translate(pattern), re.DOTALL)

    @staticmethod
    def _translate(pattern: str) -> str:
        out = []
        for ch in pattern:
            if ch == "%":
                out.append(".*")
            elif ch == "_":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return "^" + "".join(out) + "$"

    def match(self, value) -> bool:
        if not isinstance(value, str):
            raise PredicateError(f"LIKE needs a string, got {value!r}")
        return self._regex.match(value) is not None

    def bind(self, schema):
        return Like(self.item.bind(schema), self.pattern)  # not ``_regex``

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        return None if value is None else self.match(value)

    def run(self, batch, params, backend, selection):
        return backend.apply(
            self.match, [self.item.run(batch, params, backend, selection)])

    def to_text(self):
        escaped = self.pattern.replace("'", "''")
        return f"{_operand(self.item, 5)} LIKE '{escaped}'"


class Func(Expr):
    __slots__ = ("name", "args")
    _children = ("args",)

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.lower()
        if self.name not in _FUNCTIONS:
            raise PredicateError(f"unknown function {self.name!r}")
        self.args = tuple(args)

    def call(self, *values):
        try:
            return _FUNCTIONS[self.name](*values)
        except PredicateError:
            raise
        except Exception as exc:
            raise PredicateError(
                f"function {self.name}({list(values)!r}) failed: {exc}") \
                from exc

    def eval(self, view, params=None):
        values = [a.eval(view, params) for a in self.args]
        if any(v is None for v in values):
            return None
        return self.call(*values)

    def run(self, batch, params, backend, selection):
        if not self.args:
            return [self.call() for __ in range(_domain_size(batch, selection))]
        return backend.apply(
            self.call, [a.run(batch, params, backend, selection)
                        for a in self.args])

    def to_text(self):
        inner = ", ".join(a.to_text() for a in self.args)
        return f"{self.name}({inner})"


def evaluate(expr: Expr, batch, params: Optional[dict], backend, stats=None,
             selection: Optional[Sequence[int]] = None) -> list:
    """``expr``'s value for each row of the batch (restricted to
    ``selection``): the batch entry point, with the retry that makes it
    agree with the per-record one.

    ``run`` evaluates whole sub-expressions; ``eval`` short-circuits
    (``a = 0 OR 10 / a > 1`` never divides where ``a`` is 0).  When
    ``run`` raises a ``PredicateError`` this batch is re-evaluated row by
    row, so the error surfaces — or not — exactly as the per-record
    definition says.
    """
    try:
        return expr.run(batch, params, backend, selection)
    except PredicateError:
        if stats is not None:
            stats.bump_many({"predicate.row_evals":
                             _domain_size(batch, selection)})
        return _eval_rows(expr, batch, params, selection)


# ---------------------------------------------------------------------------
# Planner-facing analysis
# ---------------------------------------------------------------------------

def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten top-level ANDs into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: List[Expr] = []
        for item in expr.items:
            out.extend(conjuncts(item))
        return out
    return [expr]


def simple_comparison(expr: Expr) -> Optional[Tuple[int, str, Expr]]:
    """Recognise ``column op constant-ish`` conjuncts.

    Returns ``(field index, op, operand expression)`` when ``expr`` compares
    one bound column against an expression with no column references (a
    constant, parameter, or computation over them) — the form access paths
    accept as an "eligible predicate".  Comparisons are normalised so the
    column is on the left.  Returns ``None`` otherwise.
    """
    if not isinstance(expr, Cmp):
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Col) and not right.column_names():
        pass
    elif isinstance(right, Col) and not left.column_names():
        left, right = right, left
        op = _FLIPPED.get(op, op)
    else:
        return None
    if left.index is None:
        return None
    return (left.index, op, right)


# ---------------------------------------------------------------------------
# Parser (recursive descent / Pratt)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<string>'(?:[^']|'')*')
      | (?P<param>:[A-Za-z_][A-Za-z_0-9]*)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\+|-|\*|/|%|\.|;)
    )""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "null", "is", "in", "between", "like",
             "true", "false", "encloses", "enclosed_by", "overlaps"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match or match.end() == pos:
                remainder = text[pos:].strip()
                if not remainder:
                    break
                raise PredicateError(
                    f"cannot tokenise {remainder[:20]!r} in {text!r}")
            pos = match.end()
            for kind in ("number", "string", "param", "name", "op"):
                value = match.group(kind)
                if value is not None:
                    if kind == "name" and value.lower() in _KEYWORDS:
                        self.items.append(("kw", value.lower()))
                    else:
                        self.items.append((kind, value))
                    break
        self.pos = 0

    def peek(self) -> Tuple[str, str]:
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "")

    def next(self) -> Tuple[str, str]:
        token = self.peek()
        self.pos += 1
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise PredicateError(
                f"expected {value or kind!r}, got {v!r} in {self.text!r}")
        return v


def parse_expression(text: str) -> Expr:
    """Parse a predicate/scalar expression from text (unbound)."""
    tokens = _Tokens(text)
    expr = _parse_or(tokens)
    kind, value = tokens.peek()
    if kind != "eof":
        raise PredicateError(f"trailing input {value!r} in {text!r}")
    return expr


def _parse_or(tokens: _Tokens) -> Expr:
    items = [_parse_and(tokens)]
    while tokens.accept("kw", "or"):
        items.append(_parse_and(tokens))
    return items[0] if len(items) == 1 else Or(items)


def _parse_and(tokens: _Tokens) -> Expr:
    items = [_parse_not(tokens)]
    while tokens.accept("kw", "and"):
        items.append(_parse_not(tokens))
    return items[0] if len(items) == 1 else And(items)


def _parse_not(tokens: _Tokens) -> Expr:
    if tokens.accept("kw", "not"):
        return Not(_parse_not(tokens))
    return _parse_comparison(tokens)


def _parse_comparison(tokens: _Tokens) -> Expr:
    left = _parse_additive(tokens)
    kind, value = tokens.peek()
    if kind == "op" and value in ("=", "!=", "<>", "<", "<=", ">", ">="):
        tokens.next()
        op = "!=" if value == "<>" else value
        return Cmp(op, left, _parse_additive(tokens))
    if kind == "kw" and value in ("encloses", "enclosed_by", "overlaps"):
        tokens.next()
        return Cmp(value.upper(), left, _parse_additive(tokens))
    if kind == "kw" and value == "is":
        tokens.next()
        negated = tokens.accept("kw", "not")
        tokens.expect("kw", "null")
        return IsNull(left, negated)
    negated = False
    if kind == "kw" and value == "not":
        # NOT here must introduce IN / BETWEEN / LIKE
        tokens.next()
        kind, value = tokens.peek()
        negated = True
    if kind == "kw" and value == "in":
        tokens.next()
        tokens.expect("op", "(")
        values = [_parse_additive(tokens)]
        while tokens.accept("op", ","):
            values.append(_parse_additive(tokens))
        tokens.expect("op", ")")
        expr: Expr = InList(left, values)
        return Not(expr) if negated else expr
    if kind == "kw" and value == "between":
        tokens.next()
        lo = _parse_additive(tokens)
        tokens.expect("kw", "and")
        hi = _parse_additive(tokens)
        expr = Between(left, lo, hi)
        return Not(expr) if negated else expr
    if kind == "kw" and value == "like":
        tokens.next()
        raw = tokens.expect("string")
        expr = Like(left, raw[1:-1].replace("''", "'"))
        return Not(expr) if negated else expr
    if negated:
        raise PredicateError("NOT must be followed by IN, BETWEEN, or LIKE here")
    return left


def _parse_additive(tokens: _Tokens) -> Expr:
    left = _parse_multiplicative(tokens)
    while True:
        kind, value = tokens.peek()
        if kind == "op" and value in ("+", "-"):
            tokens.next()
            left = Arith(value, left, _parse_multiplicative(tokens))
        else:
            return left


def _parse_multiplicative(tokens: _Tokens) -> Expr:
    left = _parse_unary(tokens)
    while True:
        kind, value = tokens.peek()
        if kind == "op" and value in ("*", "/", "%"):
            tokens.next()
            left = Arith(value, left, _parse_unary(tokens))
        else:
            return left


def _parse_unary(tokens: _Tokens) -> Expr:
    if tokens.accept("op", "-"):
        return Neg(_parse_unary(tokens))
    if tokens.accept("op", "+"):
        return _parse_unary(tokens)
    return _parse_primary(tokens)


def _parse_primary(tokens: _Tokens) -> Expr:
    kind, value = tokens.next()
    if kind == "number":
        return Const(int(value) if value.isdigit() else float(value))
    if kind == "string":
        return Const(value[1:-1].replace("''", "'"))
    if kind == "param":
        return Param(value[1:])
    if kind == "kw" and value == "null":
        return Const(None)
    if kind == "kw" and value == "true":
        return Const(True)
    if kind == "kw" and value == "false":
        return Const(False)
    if kind == "name":
        if tokens.accept("op", "."):
            # Qualified column reference (table.column), used by the query
            # layer's join schemas.
            qualifier = value
            value = tokens.expect("name")
            return Col(f"{qualifier}.{value}")
        if tokens.accept("op", "("):
            args = []
            if not tokens.accept("op", ")"):
                args.append(_parse_or(tokens))
                while tokens.accept("op", ","):
                    args.append(_parse_or(tokens))
                tokens.expect("op", ")")
            return Func(value, args)
        return Col(value)
    if kind == "op" and value == "(":
        inner = _parse_or(tokens)
        tokens.expect("op", ")")
        return inner
    raise PredicateError(f"unexpected token {value!r}")


# ---------------------------------------------------------------------------
# Bound predicate wrapper — what storage methods and attachments receive
# ---------------------------------------------------------------------------

#: What batch scans filter with.  The storage-pushdown path has no
#: per-database backend handle and stays on the pure-Python primitives,
#: which keeps it deterministic; the operator IR passes the database's
#: configured backend to :func:`evaluate` instead.
_VECTOR_OPS = VectorOps()


class Predicate:
    """A filter predicate bound to a schema.

    Storage methods and access-path attachments receive a ``Predicate``
    (plus the list of fields the caller needs, see the dispatch layer) and
    call :meth:`matches` against a :class:`RecordView` while the record (or
    access-path key) is still in the buffer pool.  Rows for which the
    predicate is unknown (NULL) are rejected, as in SQL.

    Batch scans call :meth:`select` instead: the same bound tree filters
    each batch column-at-a-time with O(1) Python-level dispatch,
    producing a selection vector.
    """

    def __init__(self, expr: Expr, schema, params: Optional[dict] = None):
        self.schema = schema
        self.expr = expr.bind(schema)
        self.params = dict(params) if params else {}
        self.fields_needed: frozenset = frozenset(self.expr.columns())

    @classmethod
    def parse(cls, text: str, schema, params: Optional[dict] = None
              ) -> "Predicate":
        return cls(parse_expression(text), schema, params)

    @classmethod
    def from_bound(cls, expr: Expr, schema, params: Optional[dict] = None
                   ) -> "Predicate":
        """Wrap an expression that is already bound (no re-binding).

        The query layer binds expressions against qualified (alias.column)
        schemas whose *indexes* match the base relation; re-binding by name
        would fail, so it wraps the bound tree directly.
        """
        self = object.__new__(cls)
        self.schema = schema
        self.expr = expr
        self.params = dict(params) if params else {}
        self.fields_needed = frozenset(expr.columns())
        return self

    def matches(self, view: Union[RecordView, Sequence]) -> bool:
        if not isinstance(view, RecordView):
            view = RecordView.from_record(view)
        return self.expr.eval(view, self.params) is True

    def select(self, batch, stats=None) -> List[int]:
        """Selection vector: sorted ordinals of the rows of ``batch`` that
        match.  ``batch`` need hold only :attr:`fields_needed`.

        The expression's truth vector is computed column-at-a-time over
        the whole batch (see :func:`evaluate` for the row-by-row retry);
        the result is exactly the rows for which the predicate is *true*.
        """
        truth = evaluate(self.expr, batch, self.params, _VECTOR_OPS, stats)
        if stats is not None:
            stats.bump_many({"predicate.vector_selects": 1,
                             "predicate.vector_rows": len(batch)})
        return _VECTOR_OPS.select_true(truth)

    def evaluable_on(self, available_fields) -> bool:
        """True when every referenced field is in ``available_fields`` —
        the early-filtering test access paths run against their keys."""
        return self.fields_needed <= frozenset(available_fields)

    def conjuncts(self) -> List[Expr]:
        return conjuncts(self.expr)

    def with_params(self, params: dict) -> "Predicate":
        clone = object.__new__(Predicate)
        clone.schema = self.schema
        clone.expr = self.expr
        clone.params = dict(params)
        clone.fields_needed = self.fields_needed
        return clone

    def __repr__(self) -> str:
        return f"Predicate({self.expr.to_text()})"
