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
  ``eval`` for one record and, for a batch (:mod:`.vectors`), the
  Python source each node's ``emit`` returns, compiled once per tree
  shape into one selection and one value-vector comprehension;
  :func:`select` and :func:`evaluate` run those, and re-evaluate a
  batch row by row where short-circuit evaluation matters;
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

__all__ = ["Expr", "Const", "Col", "Param", "Cmp", "And", "Or", "Not",
           "Arith", "Neg", "IsNull", "InList", "Between", "Like", "Func",
           "Predicate", "parse_expression", "conjuncts", "simple_comparison",
           "register_function", "evaluate", "select", "COMPARISON_OPS",
           "SPATIAL_OPS"]

# ---------------------------------------------------------------------------
# What each operator means, once: the scalar tables ``Expr.eval`` reads
# (generated code inlines the comparison and arithmetic symbols, and
# calls the rest).
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

def _eval_rows(expr: "Expr", batch, params) -> list:
    """``expr.eval`` for each row of the batch, over views of the columns
    ``expr`` reads (a batch need hold no more)."""
    indexes = sorted(expr.columns())
    columns = [batch.column(index) for index in indexes]
    return [expr.eval(RecordView({index: column[i] for index, column
                                  in zip(indexes, columns)}), params)
            for i in range(len(batch))]


def _operand(expr: "Expr", level: int) -> str:
    """``expr``'s text for a position that binds at ``level``, in
    parentheses when ``expr`` binds looser (the levels are the parser's:
    OR 1, AND 2, NOT 3, comparison 4, additive 5, multiplicative 6,
    unary minus 7, primary 8)."""
    text = expr.to_text()
    return f"({text})" if expr._level < level else text


def _param(params, name: str):
    if not params or name not in params:
        raise PredicateError(f"parameter :{name} was not supplied")
    return params[name]


class _Emitter:
    """What one ``emit`` walk collects besides the expression's source:
    the columns it reads (``r<i>`` holds schema position ``i`` of the
    row), the constants the code is made with (``k<n>``), the lines run
    once per batch (``h<n>``) and fresh temporaries (``t<n>``)."""

    def __init__(self):
        self.columns: Set[int] = set()
        self.constants: list = []
        self.prologue: List[str] = []
        self.temps = 0

    def column(self, index: int) -> str:
        self.columns.add(index)
        return f"r{index}"

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def operand(self, source: str) -> Tuple[str, str]:
        """``(first use, later uses)`` of a value read more than once: a
        name as it is, anything else bound to a temporary on first use."""
        if source.isidentifier():
            return source, source
        self.temps += 1
        return f"(t{self.temps} := {source})", f"t{self.temps}"

    def strict(self, sources: Sequence[str], body: Callable) -> str:
        """``body(*names)``, or NULL if an operand is.  Every operand is
        evaluated first, as ``eval`` does; a test over names alone may
        stop at the first NULL."""
        uses = [self.operand(source) for source in sources]
        names = [name for __, name in uses]
        if all(first == name for first, name in uses):
            test = " or ".join(f"{name} is None" for name in names)
        else:
            test = " | ".join(f"({first} is None)" for first, __ in uses)
        return f"(None if {test} else {body(*names)})"


class Expr:
    """Base expression node: one tree, two entry points.

    ``eval(view, params)`` is the value for one record, computed while
    the record is in the buffer pool.  ``emit(emitter)`` is the Python
    source of the same value for the row in the ``r<i>`` variables, in
    the same three-valued logic (NULL is ``None``), compiled once per tree
    *shape* into comprehensions over a batch's columns (:func:`select`,
    :func:`evaluate`).  That code evaluates every sub-expression — it
    never short-circuits — so when it raises, the batch is re-evaluated
    row by row with ``eval``.  A tree with a node class that defines only
    ``eval`` is always evaluated row by row.
    """

    __slots__ = ("_kernel",)
    #: Attributes holding sub-expressions (one node or a tuple of nodes),
    #: in evaluation order — what ``bind``/``columns``/``column_names`` walk.
    _children: Tuple[str, ...] = ()
    #: Binding strength of the node's text (see :func:`_operand`).
    _level = 8

    def eval(self, view: RecordView, params: Optional[dict] = None):
        raise NotImplementedError

    def emit(self, emitter: _Emitter) -> str:
        raise NotImplementedError

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

    def emit(self, emitter):
        return emitter.constant(self.value)

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

    def emit(self, emitter):
        index, = self.columns()
        return emitter.column(index)

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
        return _param(params, self.name)

    def emit(self, emitter):
        # Looked up once per batch; the name is a constant, so the code
        # serves every parameter.
        name = f"h{len(emitter.prologue)}"
        emitter.prologue.append(
            f"{name} = _param(P, {emitter.constant(self.name)})")
        return name

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

    def emit(self, emitter):
        operands = [self.left.emit(emitter), self.right.emit(emitter)]
        if self.op in SPATIAL_OPS:
            test = emitter.constant(_COMPARISON[self.op])
            return emitter.strict(operands, lambda a, b: f"{test}({a}, {b})")
        op = "==" if self.op == "=" else self.op
        return emitter.strict(operands, lambda a, b: f"{a} {op} {b}")

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

    def emit(self, emitter):
        return _conjunction(emitter, self.items)[0]

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

    def emit(self, emitter):
        # Every item is evaluated, past a TRUE one: as the per-node
        # evaluator did, ``a = 0 OR 10 / a > 1`` divides and its batch
        # is retried row by row (``predicate.row_evals`` counts it).
        uses = [emitter.operand(item.emit(emitter)) for item in self.items]
        hit = " | ".join(f"({first} is True)" for first, __ in uses)
        unknown = " or ".join(f"{name} is None" for __, name in uses)
        return f"(True if {hit} else (None if {unknown} else False))"

    def to_text(self):
        return " OR ".join(_operand(i, 2) for i in self.items)


def _conjunction(emitter: _Emitter, items) -> Tuple[str, str]:
    """An AND's value and its test (the value is TRUE): the items are
    evaluated as ``eval`` evaluates them, in order up to a FALSE one."""
    uses = [emitter.operand(item.emit(emitter)) for item in items]
    reached = " or ".join(f"{first} is False" for first, __ in uses)
    unknown = " or ".join(f"{name} is None" for __, name in uses)
    test = [f"{first} is not False" for first, __ in uses] \
        + [f"{name} is not None" for __, name in uses]
    return (f"(False if {reached} else (None if {unknown} else True))",
            " and ".join(test))


class Not(Expr):
    __slots__ = ("item",)
    _children = ("item",)
    _level = 3

    def __init__(self, item: Expr):
        self.item = item

    def eval(self, view, params=None):
        value = self.item.eval(view, params)
        return None if value is None else not value

    def emit(self, emitter):
        return emitter.strict([self.item.emit(emitter)], lambda a: f"not {a}")

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

    def emit(self, emitter):
        op = self.op
        return emitter.strict(
            [self.left.emit(emitter), self.right.emit(emitter)],
            lambda a, b: f"{a} {op} {b}")

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

    def emit(self, emitter):
        return emitter.strict([self.item.emit(emitter)], lambda a: f"-{a}")

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

    def emit(self, emitter):
        test = "is not" if self.negated else "is"
        return f"({self.item.emit(emitter)} {test} None)"

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

    def emit(self, emitter):
        needle = self.item.emit(emitter)
        candidates = ", ".join(value.emit(emitter) for value in self.values)
        return f"_member({needle}, ({candidates},))"  # all evaluated

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

    def emit(self, emitter):
        return emitter.strict(
            [self.item.emit(emitter), self.lo.emit(emitter),
             self.hi.emit(emitter)],
            lambda value, lo, hi: f"{lo} <= {value} <= {hi}")

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

    def emit(self, emitter):
        match = emitter.constant(self.match)
        return emitter.strict([self.item.emit(emitter)],
                              lambda a: f"{match}({a})")

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

    def emit(self, emitter):
        call = emitter.constant(self.call)
        if not self.args:
            return f"{call}()"
        return emitter.strict([a.emit(emitter) for a in self.args],
                              lambda *a: f"{call}({', '.join(a)})")

    def to_text(self):
        inner = ", ".join(a.to_text() for a in self.args)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# Generated code: one selection and one value vector per tree shape
# ---------------------------------------------------------------------------

#: What generated code may raise where ``eval`` would not (it evaluates
#: past a short-circuit), or where it would raise a ``PredicateError``:
#: the batch is then re-evaluated row by row.
_RETRIED = (TypeError, ValueError, ArithmeticError, PredicateError)

_TEMPLATE = """\
def make({constants}):
    def selects(batch, P):
{prologue}        return [i for i, ({row}) in enumerate({rows}) if {test}]
    def values(batch, P):
{prologue}        return [{body} for ({row}) in {rows}]
    return selects, values
"""

#: Generated code by source text.  The source names columns by schema
#: position and no value of the tree (constants are ``make``'s arguments,
#: parameters ``P``), so it is the tree's shape: a re-parsed or re-bound
#: predicate of a shape seen before finds its code here.  Least recently
#: used first; at most ``_CODE_CAP`` entries.
_CODE: Dict[str, Callable] = {}
_CODE_CAP = 256


def _compile(expr: Expr, stats) -> Optional[Tuple[Callable, Callable]]:
    """``expr``'s generated ``(selects, values)`` (``None``: it evaluates
    row by row), from the cache when its shape is there."""
    emitter = _Emitter()
    try:
        # A conjunction, the common filter, selects by its own test.
        body, test = _conjunction(emitter, expr.items) \
            if isinstance(expr, And) else (expr.emit(emitter), None)
    except (NotImplementedError, PredicateError):
        return None  # a node class without ``emit``, or an unbound column
    columns = sorted(emitter.columns)
    prologue = [f"c{i} = batch.column({i})" for i in columns] \
        + emitter.prologue
    row = ", ".join(f"r{i}" for i in columns) or "_"
    rows = f"zip({', '.join(f'c{i}' for i in columns)})" if columns[1:] \
        else f"c{columns[0]}" if columns else "range(len(batch))"
    source = _TEMPLATE.format(
        constants=", ".join(f"k{n}" for n in range(len(emitter.constants))),
        prologue="".join(f"        {line}\n" for line in prologue),
        body=body, test=test or f"{body} is True", row=row, rows=rows)
    make = _CODE.pop(source, None)
    if make is None:
        namespace = {"_param": _param, "_member": _member}
        exec(source, namespace)  # built from node classes and positions
        make = namespace["make"]
        while len(_CODE) >= _CODE_CAP:
            del _CODE[next(iter(_CODE))]
            if stats is not None:
                stats.bump("predicate.code_evictions")
        if stats is not None:
            stats.bump("predicate.compilations")
    elif stats is not None:
        stats.bump("predicate.code_hits")
    _CODE[source] = make
    return make(*emitter.constants)


def evaluate(expr: Expr, batch, params: Optional[dict], stats=None,
             selection: Optional[Sequence[int]] = None) -> list:
    """``expr``'s value for each row of the batch (restricted to
    ``selection``): the generated value vector, with the retry that makes
    it agree with ``eval``.

    The generated code evaluates more than ``eval`` (every operand and
    every OR item), which short-circuits (``a = 0 OR 10 / a > 1`` never
    divides where ``a`` is 0).  When the code raises, this batch is
    re-evaluated row by row, so the error surfaces — or not — exactly as
    the per-record definition says.
    """
    if selection is not None:
        batch = batch.narrow(selection)
    return _run(expr, batch, params, stats, 1)


def select(expr: Expr, batch, params: Optional[dict], stats=None
           ) -> List[int]:
    """Sorted ordinals of the rows of ``batch`` for which ``expr`` is
    *true*: the generated selection, with :func:`evaluate`'s retry."""
    return _run(expr, batch, params, stats, 0)


def _run(expr, batch, params, stats, entry: int):
    """The generated ``selects`` (``entry`` 0) or ``values`` (1), or the
    same answer from ``eval`` row by row when the code raised.  The code
    is made on the tree's first use and kept on it."""
    try:
        kernel = expr._kernel
    except AttributeError:
        kernel = expr._kernel = _compile(expr, stats)
    if kernel is not None:
        try:
            return kernel[entry](batch, params)
        except _RETRIED:
            pass
    if stats is not None:
        stats.bump("predicate.row_evals", len(batch))
    values = _eval_rows(expr, batch, params)
    return values if entry else [i for i, v in enumerate(values) if v is True]


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

class Predicate:
    """A filter predicate bound to a schema.

    Storage methods and access-path attachments receive a ``Predicate``
    (plus the list of fields the caller needs, see the dispatch layer).
    The built-ins call :meth:`select` while the records (or access-path
    keys) are still in the buffer pool: the tree's generated selection
    filters a batch in one comprehension over its columns.  :meth:`matches`
    tests one record, for an extension that reads record at a time.  Rows
    for which the predicate is unknown (NULL) are rejected, as in SQL.
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
        """Selection vector: :func:`select` — sorted ordinals of the rows
        of ``batch`` for which the predicate is *true*.  ``batch`` need
        hold only :attr:`fields_needed`."""
        selected = select(self.expr, batch, self.params, stats)
        if stats is not None:
            stats.bump_many({"predicate.vector_selects": 1,
                             "predicate.vector_rows": len(batch)})
        return selected

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
