"""Column-at-a-time operator kernels.

Each kernel performs one logical operation for a whole
:class:`~.columnar.ColumnBatch` with O(1) Python-level dispatch per
batch: the per-row work happens inside C-implemented primitives
(comprehension loops over one column, ``zip``, ``sum``/``min``/``max``,
set membership) instead of a tree-walking ``expr.eval`` plus a
``RecordView`` per row per operator.

There is one vector evaluator: :func:`compile_expression` maps *any*
bound scalar expression tree — arithmetic, comparisons, boolean
connectives with three-valued logic, ``IS NULL`` / ``IN`` / ``BETWEEN`` /
``LIKE``, scalar functions, spatial operators — recursively onto composed
:class:`ValueKernel` nodes whose per-batch work runs through a pluggable
:mod:`.backends` backend.  The filter side (:func:`compile_filter`) wraps
the compiled truth vector in a filter kernel producing a **selection
vector** — the sorted ordinals of qualifying rows: a row is selected iff
the predicate is *true* (unknown rows are rejected, as in
:meth:`Predicate.matches`).  NULL propagation matches :meth:`Expr.eval`
exactly; only the dispatch count changes.  The one thing a vector kernel
cannot reproduce is short-circuit evaluation, so every whole-batch
evaluation goes through :func:`evaluate`, which re-evaluates a batch row
by row when — and only when — a kernel raised a ``PredicateError``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.records import Box, RecordView
from ..errors import PredicateError
from ..services import predicate as _predicate
from ..services.predicate import (And, Arith, Between, Cmp, Col, Const,
                                  Func, InList, IsNull, Like, Neg, Not, Or,
                                  Param, SPATIAL_OPS)
from .columnar import ColumnBatch

__all__ = ["compile_filter", "compile_expression", "evaluate",
           "ValueKernel", "project_rows", "zip_vectors", "fold_aggregate"]

_EMPTY_VIEW = RecordView({})


# ---------------------------------------------------------------------------
# Filter kernels → selection vectors
# ---------------------------------------------------------------------------

class FilterKernel:
    """Base: ``select`` returns the sorted ordinals of the batch's rows
    where the predicate is true."""

    __slots__ = ()

    def select(self, batch: ColumnBatch, params: Optional[dict],
               stats=None) -> List[int]:
        raise NotImplementedError


def compile_filter(expr) -> Optional[FilterKernel]:
    """Compile a bound predicate expression into a filter kernel.

    Every bound predicate compiles through :func:`compile_expression`
    into a truth-vector filter; ``None`` is returned only for expressions
    referencing unbound columns.
    """
    if expr is None:
        return None
    value = compile_expression(expr)
    if value is None:
        return None
    return _ExprFilter(expr, value)


# ---------------------------------------------------------------------------
# Value kernels — arbitrary scalar expressions, column-at-a-time
# ---------------------------------------------------------------------------

#: Backend used by filters compiled through :func:`compile_filter` (the
#: storage-pushdown path, which has no per-database backend handle).  The
#: pure-Python backend keeps that path deterministic; the operator IR
#: passes the database's configured backend explicitly instead.
_EXPR_BACKEND = None


def _expr_backend():
    global _EXPR_BACKEND
    if _EXPR_BACKEND is None:
        from .backends import PythonBackend
        _EXPR_BACKEND = PythonBackend()
    return _EXPR_BACKEND


class ValueKernel:
    """Base: ``run`` returns the expression's value for each row of the
    batch restricted to ``selection`` (``None`` = every row), as a list
    with ``None`` for SQL NULL.  Composed nodes hand whole vectors to the
    backend, so dispatch cost is O(tree size) per batch, not per row."""

    __slots__ = ()

    def run(self, batch: ColumnBatch, params: Optional[dict], backend,
            selection: Optional[Sequence[int]]) -> list:
        raise NotImplementedError


def _domain_size(batch, selection):
    return len(batch) if selection is None else len(selection)


class _ConstValue(ValueKernel):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def run(self, batch, params, backend, selection):
        return [self.value] * _domain_size(batch, selection)


class _ParamValue(ValueKernel):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def run(self, batch, params, backend, selection):
        if not params or self.name not in params:
            raise PredicateError(f"parameter :{self.name} was not supplied")
        return [params[self.name]] * _domain_size(batch, selection)


class _ColumnValue(ValueKernel):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def run(self, batch, params, backend, selection):
        column = batch.column(self.index)
        if selection is None:
            return column
        return backend.gather(column, selection)


class _ArithValue(ValueKernel):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def run(self, batch, params, backend, selection):
        return backend.arith(self.op,
                             self.left.run(batch, params, backend, selection),
                             self.right.run(batch, params, backend, selection))


class _NegValue(ValueKernel):
    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    def run(self, batch, params, backend, selection):
        return backend.neg(self.item.run(batch, params, backend, selection))


class _CompareValue(ValueKernel):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def run(self, batch, params, backend, selection):
        return backend.compare(
            self.op,
            self.left.run(batch, params, backend, selection),
            self.right.run(batch, params, backend, selection))


def _spatial_fn(op: str):
    def fn(lhs, rhs):
        if not isinstance(lhs, Box) or not isinstance(rhs, Box):
            raise PredicateError(
                f"{op} needs BOX operands, got "
                f"{type(lhs).__name__} and {type(rhs).__name__}")
        if op == "ENCLOSES":
            return lhs.encloses(rhs)
        if op == "ENCLOSED_BY":
            return lhs.enclosed_by(rhs)
        return lhs.overlaps(rhs)
    return fn


class _SpatialValue(ValueKernel):
    __slots__ = ("op", "fn", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.fn = _spatial_fn(op)
        self.left = left
        self.right = right

    def run(self, batch, params, backend, selection):
        return backend.apply(
            self.op, self.fn,
            [self.left.run(batch, params, backend, selection),
             self.right.run(batch, params, backend, selection)])


class _AndValue(ValueKernel):
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    def run(self, batch, params, backend, selection):
        return backend.logical_and(
            [item.run(batch, params, backend, selection)
             for item in self.items])


class _OrValue(ValueKernel):
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    def run(self, batch, params, backend, selection):
        return backend.logical_or(
            [item.run(batch, params, backend, selection)
             for item in self.items])


class _NotValue(ValueKernel):
    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    def run(self, batch, params, backend, selection):
        return backend.logical_not(
            self.item.run(batch, params, backend, selection))


class _IsNullValue(ValueKernel):
    __slots__ = ("item", "negated")

    def __init__(self, item, negated: bool):
        self.item = item
        self.negated = negated

    def run(self, batch, params, backend, selection):
        return backend.is_null(
            self.item.run(batch, params, backend, selection), self.negated)


class _BetweenValue(ValueKernel):
    __slots__ = ("item", "lo", "hi")

    def __init__(self, item, lo, hi):
        self.item = item
        self.lo = lo
        self.hi = hi

    def run(self, batch, params, backend, selection):
        return backend.between(
            self.item.run(batch, params, backend, selection),
            self.lo.run(batch, params, backend, selection),
            self.hi.run(batch, params, backend, selection))


class _InListValue(ValueKernel):
    """``item IN (constants/params)`` — the candidate list is evaluated
    once per batch (no column references; column-referencing candidates
    compile to an OR of equality kernels instead)."""

    __slots__ = ("item", "values")

    def __init__(self, item, values):
        self.item = item
        self.values = tuple(values)

    def run(self, batch, params, backend, selection):
        candidates = [v.eval(_EMPTY_VIEW, params) for v in self.values]
        has_null = any(c is None for c in candidates)
        needles = self.item.run(batch, params, backend, selection)
        try:
            members = {c for c in candidates if c is not None}
        except TypeError:
            # Unhashable candidates (e.g. boxes): elementwise equality,
            # same three-valued result as ``InList.eval``.
            out = []
            for v in needles:
                if v is None:
                    out.append(None)
                    continue
                unknown = False
                hit = False
                for c in candidates:
                    if c is None:
                        unknown = True
                    elif c == v:
                        hit = True
                        break
                out.append(True if hit else (None if unknown else False))
            return out
        return backend.in_list(needles, members, has_null)


class _LikeValue(ValueKernel):
    __slots__ = ("item", "regex")

    def __init__(self, item, regex):
        self.item = item
        self.regex = regex

    def run(self, batch, params, backend, selection):
        return backend.like(
            self.item.run(batch, params, backend, selection), self.regex)


class _FuncValue(ValueKernel):
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)

    def run(self, batch, params, backend, selection):
        vectors = [a.run(batch, params, backend, selection)
                   for a in self.args]
        if self.name == "box":
            def fn(*values):
                if len(values) != 4:
                    raise PredicateError("box() takes four coordinates")
                return Box(*values)
        else:
            fn = _predicate._FUNCTIONS[self.name]
        return backend.apply(self.name, fn, vectors)


def compile_expression(expr) -> Optional[ValueKernel]:
    """Recursively map a bound scalar expression tree onto composed
    value kernels (TQP-style expression-to-vector-op lowering).

    Covers the whole :class:`~..services.predicate.Expr` AST with NULL
    propagation identical to ``Expr.eval``; returns ``None`` only when
    the tree references an unbound column.
    """
    if isinstance(expr, Const):
        return _ConstValue(expr.value)
    if isinstance(expr, Col):
        if expr.index is None:
            return None
        return _ColumnValue(expr.index)
    if isinstance(expr, Param):
        return _ParamValue(expr.name)
    if isinstance(expr, Cmp):
        left = compile_expression(expr.left)
        right = compile_expression(expr.right)
        if left is None or right is None:
            return None
        if expr.op in SPATIAL_OPS:
            return _SpatialValue(expr.op, left, right)
        return _CompareValue(expr.op, left, right)
    if isinstance(expr, Arith):
        left = compile_expression(expr.left)
        right = compile_expression(expr.right)
        if left is None or right is None:
            return None
        return _ArithValue(expr.op, left, right)
    if isinstance(expr, Neg):
        item = compile_expression(expr.item)
        return None if item is None else _NegValue(item)
    if isinstance(expr, And):
        items = [compile_expression(i) for i in expr.items]
        if any(i is None for i in items):
            return None
        return _AndValue(items)
    if isinstance(expr, Or):
        items = [compile_expression(i) for i in expr.items]
        if any(i is None for i in items):
            return None
        return _OrValue(items)
    if isinstance(expr, Not):
        item = compile_expression(expr.item)
        return None if item is None else _NotValue(item)
    if isinstance(expr, IsNull):
        item = compile_expression(expr.item)
        return None if item is None else _IsNullValue(item, expr.negated)
    if isinstance(expr, Between):
        parts = [compile_expression(e)
                 for e in (expr.item, expr.lo, expr.hi)]
        if any(p is None for p in parts):
            return None
        return _BetweenValue(*parts)
    if isinstance(expr, InList):
        item = compile_expression(expr.item)
        if item is None:
            return None
        if any(v.column_names() for v in expr.values):
            # Row-dependent candidates: x IN (a, b) ≡ x = a OR x = b
            # under three-valued logic, exactly as ``InList.eval``.
            equals = []
            for value in expr.values:
                candidate = compile_expression(value)
                if candidate is None:
                    return None
                equals.append(_CompareValue("=", item, candidate))
            return _OrValue(equals)
        return _InListValue(item, expr.values)
    if isinstance(expr, Like):
        item = compile_expression(expr.item)
        return None if item is None else _LikeValue(item, expr._regex)
    if isinstance(expr, Func):
        args = [compile_expression(a) for a in expr.args]
        if any(a is None for a in args):
            return None
        return _FuncValue(expr.name, args)
    return None


def evaluate(expr, kernel: ValueKernel, batch, params: Optional[dict],
             backend, stats=None,
             selection: Optional[Sequence[int]] = None) -> list:
    """``expr``'s value for each row of the batch (restricted to
    ``selection``), through its compiled ``kernel``.

    Vector kernels evaluate whole sub-expressions; ``Expr.eval``
    short-circuits (``a = 0 OR 10 / a > 1`` never divides where ``a`` is
    0).  When a kernel raises a ``PredicateError`` this batch is
    re-evaluated row by row, so the error surfaces — or not — exactly as
    the per-row definition says.
    """
    try:
        return kernel.run(batch, params, backend, selection)
    except PredicateError:
        rows = batch.rows()
        if selection is not None:
            rows = [rows[i] for i in selection]
        if stats is not None:
            stats.bump_many({"predicate.row_evals": len(rows)})
        return [expr.eval(RecordView.from_record(row), params)
                for row in rows]


class _ExprFilter(FilterKernel):
    """Generic filter: evaluate the compiled expression's truth vector
    over the batch and keep the rows where it is *true* (unknown
    rejected, as in ``Predicate.matches``)."""

    __slots__ = ("expr", "kernel")

    def __init__(self, expr, kernel: ValueKernel):
        self.expr = expr
        self.kernel = kernel

    def select(self, batch, params, stats=None):
        truth = evaluate(self.expr, self.kernel, batch, params,
                         _expr_backend(), stats)
        return [i for i, t in enumerate(truth) if t is True]


# ---------------------------------------------------------------------------
# Projection / aggregation kernels
# ---------------------------------------------------------------------------

def zip_vectors(vectors: Sequence[Sequence]) -> List[tuple]:
    """Row tuples from parallel value vectors."""
    if len(vectors) == 1:
        return [(value,) for value in vectors[0]]
    return list(zip(*vectors))


def project_rows(batch, indexes: Sequence[int]) -> List[tuple]:
    """Project a batch onto ``indexes``: one column pick plus one zip for
    the whole batch instead of per-row expression evaluation."""
    if not len(batch):
        return []
    return zip_vectors([batch.column(i) for i in indexes])


def fold_aggregate(kind: str, values: list, row_count: int):
    """Finish one aggregate from its accumulated non-NULL value list.

    ``sum`` runs over the values in arrival order, so a float fold is
    bit-identical on every backend and to a per-row fold over a scan.
    """
    if kind == "count_star":
        return row_count
    if kind == "count":
        return len(values)
    if not values:
        return None
    if kind == "sum":
        return sum(values)
    if kind == "min":
        return min(values)
    if kind == "max":
        return max(values)
    if kind == "avg":
        return sum(values) / len(values)
    raise PredicateError(f"unknown aggregate kernel {kind!r}")
