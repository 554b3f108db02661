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
  ``ENCLOSED_BY`` and ``OVERLAPS``);
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

import re
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import PredicateError
from ..core.records import Box, RecordView

__all__ = ["Expr", "Const", "Col", "Param", "Cmp", "And", "Or", "Not",
           "Arith", "Neg", "IsNull", "InList", "Between", "Like", "Func",
           "Predicate", "parse_expression", "conjuncts", "simple_comparison",
           "register_function", "COMPARISON_OPS", "SPATIAL_OPS"]

COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})
SPATIAL_OPS = frozenset({"ENCLOSES", "ENCLOSED_BY", "OVERLAPS"})

_NEGATED = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# ---------------------------------------------------------------------------
# Scalar function registry (the paper's evaluator "will be able to call
# functions that are passed to it").
# ---------------------------------------------------------------------------

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
]:
    register_function(_name, _fn)


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class Expr:
    """Base expression node."""

    def eval(self, view: RecordView, params: Optional[dict] = None):
        raise NotImplementedError

    def bind(self, schema) -> "Expr":
        """Resolve column names to field indexes; returns a bound copy."""
        raise NotImplementedError

    def columns(self) -> Set[int]:
        """Field indexes referenced (bound expressions only)."""
        raise NotImplementedError

    def column_names(self) -> Set[str]:
        """Column names referenced (works bound or unbound)."""
        raise NotImplementedError

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

    def bind(self, schema):
        return self

    def columns(self):
        return set()

    def column_names(self):
        return set()

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

    def bind(self, schema):
        return self

    def columns(self):
        return set()

    def column_names(self):
        return set()

    def to_text(self):
        return f":{self.name}"


class Cmp(Expr):
    """A comparison.  NULL operands make the result unknown (``None``)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in COMPARISON_OPS and op not in SPATIAL_OPS:
            raise PredicateError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, view, params=None):
        lhs = self.left.eval(view, params)
        rhs = self.right.eval(view, params)
        if lhs is None or rhs is None:
            return None
        if self.op in SPATIAL_OPS:
            if not isinstance(lhs, Box) or not isinstance(rhs, Box):
                raise PredicateError(
                    f"{self.op} needs BOX operands, got "
                    f"{type(lhs).__name__} and {type(rhs).__name__}")
            if self.op == "ENCLOSES":
                return lhs.encloses(rhs)
            if self.op == "ENCLOSED_BY":
                return lhs.enclosed_by(rhs)
            return lhs.overlaps(rhs)
        try:
            if self.op == "=":
                return lhs == rhs
            if self.op == "!=":
                return lhs != rhs
            if self.op == "<":
                return lhs < rhs
            if self.op == "<=":
                return lhs <= rhs
            if self.op == ">":
                return lhs > rhs
            return lhs >= rhs
        except TypeError as exc:
            raise PredicateError(
                f"cannot compare {lhs!r} {self.op} {rhs!r}") from exc

    def bind(self, schema):
        return Cmp(self.op, self.left.bind(schema), self.right.bind(schema))

    def columns(self):
        return self.left.columns() | self.right.columns()

    def column_names(self):
        return self.left.column_names() | self.right.column_names()

    def to_text(self):
        return f"{self.left.to_text()} {self.op} {self.right.to_text()}"


class And(Expr):
    __slots__ = ("items",)

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

    def bind(self, schema):
        return And([i.bind(schema) for i in self.items])

    def columns(self):
        return set().union(*(i.columns() for i in self.items))

    def column_names(self):
        return set().union(*(i.column_names() for i in self.items))

    def to_text(self):
        return " AND ".join(
            f"({i.to_text()})" if isinstance(i, Or) else i.to_text()
            for i in self.items)


class Or(Expr):
    __slots__ = ("items",)

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

    def bind(self, schema):
        return Or([i.bind(schema) for i in self.items])

    def columns(self):
        return set().union(*(i.columns() for i in self.items))

    def column_names(self):
        return set().union(*(i.column_names() for i in self.items))

    def to_text(self):
        return " OR ".join(i.to_text() for i in self.items)


class Not(Expr):
    __slots__ = ("item",)

    def __init__(self, item: Expr):
        self.item = item

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        return None if value is None else not value

    def bind(self, schema):
        return Not(self.item.bind(schema))

    def columns(self):
        return self.item.columns()

    def column_names(self):
        return self.item.column_names()

    def to_text(self):
        return f"NOT ({self.item.to_text()})"


class Arith(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in ("+", "-", "*", "/", "%"):
            raise PredicateError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, view, params=None):
        lhs = self.left.eval(view, params)
        rhs = self.right.eval(view, params)
        if lhs is None or rhs is None:
            return None
        try:
            if self.op == "+":
                return lhs + rhs
            if self.op == "-":
                return lhs - rhs
            if self.op == "*":
                return lhs * rhs
            if self.op == "/":
                return lhs / rhs
            return lhs % rhs
        except (TypeError, ZeroDivisionError) as exc:
            raise PredicateError(
                f"cannot evaluate {lhs!r} {self.op} {rhs!r}") from exc

    def bind(self, schema):
        return Arith(self.op, self.left.bind(schema), self.right.bind(schema))

    def columns(self):
        return self.left.columns() | self.right.columns()

    def column_names(self):
        return self.left.column_names() | self.right.column_names()

    def to_text(self):
        return f"({self.left.to_text()} {self.op} {self.right.to_text()})"


class Neg(Expr):
    __slots__ = ("item",)

    def __init__(self, item: Expr):
        self.item = item

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        return None if value is None else -value

    def bind(self, schema):
        return Neg(self.item.bind(schema))

    def columns(self):
        return self.item.columns()

    def column_names(self):
        return self.item.column_names()

    def to_text(self):
        return f"-{self.item.to_text()}"


class IsNull(Expr):
    __slots__ = ("item", "negated")

    def __init__(self, item: Expr, negated: bool = False):
        self.item = item
        self.negated = negated

    def eval(self, view, params=None):
        is_null = self.item.eval(view, params) is None
        return not is_null if self.negated else is_null

    def bind(self, schema):
        return IsNull(self.item.bind(schema), self.negated)

    def columns(self):
        return self.item.columns()

    def column_names(self):
        return self.item.column_names()

    def to_text(self):
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.item.to_text()} {suffix}"


class InList(Expr):
    __slots__ = ("item", "values")

    def __init__(self, item: Expr, values: Sequence[Expr]):
        self.item = item
        self.values = tuple(values)

    def eval(self, view, params=None):
        needle = self.item.eval(view, params)
        if needle is None:
            return None
        unknown = False
        for value in self.values:
            candidate = value.eval(view, params)
            if candidate is None:
                unknown = True
            elif candidate == needle:
                return True
        return None if unknown else False

    def bind(self, schema):
        return InList(self.item.bind(schema),
                      [v.bind(schema) for v in self.values])

    def columns(self):
        out = self.item.columns()
        for value in self.values:
            out |= value.columns()
        return out

    def column_names(self):
        out = self.item.column_names()
        for value in self.values:
            out |= value.column_names()
        return out

    def to_text(self):
        inner = ", ".join(v.to_text() for v in self.values)
        return f"{self.item.to_text()} IN ({inner})"


class Between(Expr):
    __slots__ = ("item", "lo", "hi")

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
        return lo <= value <= hi

    def bind(self, schema):
        return Between(self.item.bind(schema), self.lo.bind(schema),
                       self.hi.bind(schema))

    def columns(self):
        return self.item.columns() | self.lo.columns() | self.hi.columns()

    def column_names(self):
        return (self.item.column_names() | self.lo.column_names()
                | self.hi.column_names())

    def to_text(self):
        return (f"{self.item.to_text()} BETWEEN {self.lo.to_text()} "
                f"AND {self.hi.to_text()}")


class Like(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one character)."""

    __slots__ = ("item", "pattern", "_regex")

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

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        if value is None:
            return None
        if not isinstance(value, str):
            raise PredicateError(f"LIKE needs a string, got {value!r}")
        return self._regex.match(value) is not None

    def bind(self, schema):
        return Like(self.item.bind(schema), self.pattern)

    def columns(self):
        return self.item.columns()

    def column_names(self):
        return self.item.column_names()

    def to_text(self):
        return f"{self.item.to_text()} LIKE '{self.pattern}'"


class Func(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.lower()
        if self.name != "box" and self.name not in _FUNCTIONS:
            raise PredicateError(f"unknown function {self.name!r}")
        self.args = tuple(args)

    def eval(self, view, params=None):
        values = [a.eval(view, params) for a in self.args]
        if any(v is None for v in values):
            return None
        if self.name == "box":
            if len(values) != 4:
                raise PredicateError("box() takes four coordinates")
            return Box(*values)
        try:
            return _FUNCTIONS[self.name](*values)
        except PredicateError:
            raise
        except Exception as exc:
            raise PredicateError(
                f"function {self.name}({values!r}) failed: {exc}") from exc

    def bind(self, schema):
        return Func(self.name, [a.bind(schema) for a in self.args])

    def columns(self):
        return set().union(set(), *(a.columns() for a in self.args))

    def column_names(self):
        return set().union(set(), *(a.column_names() for a in self.args))

    def to_text(self):
        inner = ", ".join(a.to_text() for a in self.args)
        return f"{self.name}({inner})"


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
        if op in SPATIAL_OPS and expr.op == "ENCLOSES":
            op = "ENCLOSED_BY"
        elif op in SPATIAL_OPS and expr.op == "ENCLOSED_BY":
            op = "ENCLOSES"
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
        (?P<number>\d+\.\d*|\.\d+|\d+)
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
        return Const(float(value) if "." in value else int(value))
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

#: Sentinel: the predicate has not attempted kernel compilation yet
#: (``None`` in the box means "tried, not vectorizable").
_KERNEL_UNSET = object()

# Lazily imported kernel module (predicate is imported by the query layer;
# importing it eagerly here would create a cycle).
_kernels = None


class Predicate:
    """A filter predicate bound to a schema.

    Storage methods and access-path attachments receive a ``Predicate``
    (plus the list of fields the caller needs, see the dispatch layer) and
    call :meth:`matches` against a :class:`RecordView` while the record (or
    access-path key) is still in the buffer pool.  Rows for which the
    predicate is unknown (NULL) are rejected, as in SQL.

    Batch scans call :meth:`match_indexes` instead: the expression is
    compiled once into a column-at-a-time kernel tree (when it falls in
    the vectorizable subset) and each batch is filtered with O(1)
    Python-level dispatch, producing a selection vector.  The compiled
    kernel lives in a shared one-slot box so :meth:`with_params` clones —
    one per cached-plan execution — reuse the compilation.
    """

    def __init__(self, expr: Expr, schema, params: Optional[dict] = None):
        self.schema = schema
        self.expr = expr.bind(schema)
        self.params = dict(params) if params else {}
        self.fields_needed: frozenset = frozenset(self.expr.columns())
        self._kernel_box = [_KERNEL_UNSET]

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
        self._kernel_box = [_KERNEL_UNSET]
        return self

    def matches(self, view: Union[RecordView, Sequence]) -> bool:
        if not isinstance(view, RecordView):
            view = RecordView.from_record(view)
        return self.expr.eval(view, self.params) is True

    def match_indexes(self, records: Sequence[Sequence],
                      stats=None) -> List[int]:
        """Selection vector: sorted ordinals of ``records`` that match.

        The expression is filtered column-at-a-time through its kernel
        tree (compiled on first use, shared across parameter clones),
        falling back to row-at-a-time evaluation for a batch whose kernel
        raised (see :func:`~repro.query.kernels.evaluate`).  Either way
        the result is exactly the rows for which the predicate is *true*.
        """
        global _kernels
        if _kernels is None:
            from ..query import kernels as _kernel_module
            _kernels = _kernel_module
        kernel = self._kernel_box[0]
        if kernel is _KERNEL_UNSET:
            kernel = _kernels.compile_filter(self.expr)
            self._kernel_box[0] = kernel
        if kernel is not None:
            batch = _kernels.ColumnBatch.from_rows(records, self.schema)
            selection = kernel.select(batch, self.params, stats)
            if stats is not None:
                stats.bump_many({"predicate.vector_selects": 1,
                                 "predicate.vector_rows": len(records)})
            return selection
        if stats is not None:
            stats.bump_many({"predicate.row_evals": len(records)})
        return [i for i, record in enumerate(records)
                if self.matches(record)]

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
        clone._kernel_box = self._kernel_box  # share the compiled kernel
        return clone

    def __repr__(self) -> str:
        return f"Predicate({self.expr.to_text()})"
