"""The batch substrate of the common predicate service.

The predicate service evaluates an expression two ways: per record while
the record is still in the buffer pool (``Expr.eval``) and per *batch*
(``Expr.run``).  The batch entry point needs two things, and both live
here, below the query layer, because storage methods filter their
``next_batch`` pages with them:

* :class:`ColumnBatch` — one block of rows pivoted into columns exactly
  once, so an expression touches each *column* with a constant number of
  Python-level operations per batch and lets the C-implemented
  primitives (``zip``, comprehension bytecode) do the per-row work;
* :class:`VectorOps` — the pure-Python vector primitives ``Expr.run`` is
  written against.  The query layer's kernel backends
  (:mod:`repro.query.backends`) extend this class with the join and
  grouping primitives and, for NumPy, with packed fast paths.

A batch answers ``len()``, ``column(i)``, ``rows()`` and
``narrow(selection)`` — the protocol the operator IR's filter and sinks
are written against (:class:`~repro.query.ir.PairBatch`, a join result
held as selection-vector pairs, answers the same four).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PredicateError

__all__ = ["ColumnBatch", "VectorOps"]


class ColumnBatch:
    """One batch of row tuples, pivoted into columns on demand.

    Columns and null bitmaps are derived lazily and cached, so a kernel
    pipeline that only needs the rows never pays for the transpose.
    """

    __slots__ = ("_rows", "width", "_columns", "_nulls")

    def __init__(self, rows: Sequence[Tuple], width: int):
        self._rows = rows
        self.width = width
        self._columns: Optional[List[tuple]] = None
        self._nulls: Dict[int, Optional[bytearray]] = {}

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple], schema=None) -> "ColumnBatch":
        """Wrap one batch of record tuples (no copying, no transpose yet)."""
        if schema is not None:
            width = len(schema)
        elif rows:
            width = len(rows[0])
        else:
            width = 0
        return cls(rows, width)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Sequence[Tuple]:
        """The batch in arrival order."""
        return self._rows

    def column(self, index: int) -> tuple:
        """Column ``index`` as a tuple (transposed once per batch)."""
        columns = self._columns
        if columns is None:
            if self._rows:
                # One C-level transpose materialises every column.
                columns = list(zip(*self._rows))
            else:
                columns = [()] * self.width
            self._columns = columns
        return columns[index]

    def narrow(self, selection: Sequence[int]) -> "ColumnBatch":
        """The selected rows (in selection order) as a batch of their own."""
        rows = self._rows
        return ColumnBatch([rows[i] for i in selection], self.width)

    def null_mask(self, index: int) -> Optional[bytearray]:
        """Per-row null bitmap for one column, or ``None`` when the column
        holds no NULLs (the common case pays one membership test)."""
        try:
            return self._nulls[index]
        except KeyError:
            pass
        column = self.column(index)
        if None in column:
            mask = bytearray(v is None for v in column)
        else:
            mask = None
        self._nulls[index] = mask
        return mask

    def __repr__(self) -> str:
        return f"ColumnBatch({len(self._rows)} rows x {self.width} cols)"


class VectorOps:
    """Pure-Python vector primitives for scalar expressions.

    Every method takes and returns plain Python sequences; ``None``
    elements are SQL NULL.  Truth vectors hold ``True``/``False``/``None``
    (three-valued logic).  Selection vectors are sorted lists of row
    ordinals.  Each method is one Python-level dispatch per batch; the
    per-row work runs inside C-implemented primitives.  This is the
    reference implementation every kernel backend must match bit-for-bit.

    What an operator *means* is defined once, by the scalar tables in
    :mod:`.predicate`.  ``arith`` and ``compare`` nevertheless spell
    their operators out as one comprehension each instead of calling the
    table's function per element: they are the measured batch path
    (every scan filter and computed projection), and an inlined ``a > b``
    costs a fifth less per row than ``operator.gt(a, b)``.  Whatever they
    raise is re-derived row by row from the table (``predicate.evaluate``).
    """

    name = "python"

    # -- scalar expression primitives ----------------------------------
    def arith(self, op: str, left, right) -> list:
        try:
            if op == "+":
                return [None if a is None or b is None else a + b
                        for a, b in zip(left, right)]
            if op == "-":
                return [None if a is None or b is None else a - b
                        for a, b in zip(left, right)]
            if op == "*":
                return [None if a is None or b is None else a * b
                        for a, b in zip(left, right)]
            if op == "/":
                return [None if a is None or b is None else a / b
                        for a, b in zip(left, right)]
            if op == "%":
                return [None if a is None or b is None else a % b
                        for a, b in zip(left, right)]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PredicateError(f"cannot evaluate vector {op}: {exc}") \
                from exc
        raise PredicateError(f"unknown arithmetic operator {op!r}")

    def neg(self, values) -> list:
        try:
            return [None if v is None else -v for v in values]
        except TypeError as exc:
            raise PredicateError(f"cannot negate: {exc}") from exc

    def compare(self, op: str, left, right) -> list:
        try:
            if op == "=":
                return [None if a is None or b is None else a == b
                        for a, b in zip(left, right)]
            if op == "!=":
                return [None if a is None or b is None else a != b
                        for a, b in zip(left, right)]
            if op == "<":
                return [None if a is None or b is None else a < b
                        for a, b in zip(left, right)]
            if op == "<=":
                return [None if a is None or b is None else a <= b
                        for a, b in zip(left, right)]
            if op == ">":
                return [None if a is None or b is None else a > b
                        for a, b in zip(left, right)]
            if op == ">=":
                return [None if a is None or b is None else a >= b
                        for a, b in zip(left, right)]
        except TypeError as exc:
            raise PredicateError(f"cannot compare vector {op}: {exc}") \
                from exc
        raise PredicateError(f"unknown comparison operator {op!r}")

    def logical_not(self, values) -> list:
        return [None if v is None else not v for v in values]

    def logical_and(self, vectors: Sequence[list]) -> list:
        # SQL three-valued AND: False dominates, then unknown.
        out = list(vectors[0])
        for vector in vectors[1:]:
            out = [False if a is False or b is False
                   else (None if a is None or b is None else True)
                   for a, b in zip(out, vector)]
        return out

    def logical_or(self, vectors: Sequence[list]) -> list:
        out = list(vectors[0])
        for vector in vectors[1:]:
            out = [True if a is True or b is True
                   else (None if a is None or b is None else False)
                   for a, b in zip(out, vector)]
        return out

    def is_null(self, values, negated: bool) -> list:
        if negated:
            return [v is not None for v in values]
        return [v is None for v in values]

    def between(self, values, lo, hi) -> list:
        try:
            return [None if v is None or a is None or b is None
                    else a <= v <= b
                    for v, a, b in zip(values, lo, hi)]
        except TypeError as exc:
            raise PredicateError(f"cannot range-compare: {exc}") from exc

    def in_list(self, values, members: set, has_null: bool) -> list:
        if has_null:
            # ``x IN (..., NULL)``: a match is True, a miss is unknown.
            return [None if v is None else (True if v in members else None)
                    for v in values]
        return [None if v is None else v in members for v in values]

    def apply(self, fn, arg_vectors: Sequence[list]) -> list:
        """``fn`` over the zipped argument vectors, NULL in → NULL out.
        ``fn`` is a scalar from the predicate tables: it raises nothing
        but ``PredicateError``."""
        if len(arg_vectors) == 1:
            return [None if a is None else fn(a) for a in arg_vectors[0]]
        return [None if None in args else fn(*args)
                for args in zip(*arg_vectors)]

    # -- selection / materialisation -----------------------------------
    def select_true(self, values) -> List[int]:
        return [i for i, v in enumerate(values) if v is True]

    def gather(self, values, selection: Sequence[int]) -> list:
        return [values[i] for i in selection]
