"""The batch substrate of the common predicate service.

The predicate service evaluates an expression two ways: per record while
the record is still in the buffer pool (``Expr.eval``) and per *batch*
(``Expr.run``).  The batch entry point needs two things, and both live
here, below the query layer, because storage methods filter their
``next_batch`` pages with them:

* :class:`ColumnBatch` — one block of records held as columns (decoded
  that way by the heap, or pivoted from rows exactly once), so an
  expression touches each *column* with a constant number of
  Python-level operations per batch and lets the C-implemented
  primitives (``zip``, comprehension bytecode) do the per-row work;
* :class:`VectorOps` — the pure-Python vector primitives ``Expr.run`` is
  written against.  The query layer's kernel backend
  (:mod:`repro.query.backends`) extends this class with the join
  primitives.

A batch answers ``len()``, ``column(i)``, ``rows()`` and
``narrow(selection)`` — the protocol the operator IR's filter and sinks
are written against (:class:`~repro.query.ir.PairBatch`, a join result
held as selection-vector pairs, answers the same four).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PredicateError, QueryError

__all__ = ["ColumnBatch", "VectorOps"]


class ColumnBatch:
    """One batch of records, resident as rows, as columns, or both.

    A heap scan builds it columns-first, straight from the page, holding
    only the ``fields`` it was asked to decode; the keyed joins and the
    fetch routes build it rows-first.  The other residency is derived on
    demand and cached.  ``column(i)`` and ``rows()`` speak schema
    positions and whole records (what expressions and sinks read); a
    batch that carries its record ``keys`` is also the sequence of
    ``(key, record)`` pairs a storage scan returns, each record laid out
    as ``fields`` says (``None`` = the whole record).
    """

    __slots__ = ("width", "fields", "keys", "_count", "_rows", "_columns")

    def __init__(self, rows: Sequence[Tuple], width: int, keys=None,
                 fields: Optional[Tuple[int, ...]] = None):
        self.width = width
        self.fields = fields
        self.keys = keys
        self._count = len(rows)
        self._rows: Optional[Sequence[Tuple]] = rows
        self._columns: Optional[Dict[int, Sequence]] = None

    @classmethod
    def from_columns(cls, columns: Dict[int, Sequence], count: int,
                     width: int, keys=None, fields=None) -> "ColumnBatch":
        """A column-resident batch of ``count`` rows; ``columns`` maps the
        schema positions it holds to their values."""
        self = cls((), width, keys, fields)
        self._count, self._rows, self._columns = count, None, columns
        return self

    @classmethod
    def concat(cls, batches, width: int) -> "ColumnBatch":
        """Every batch of one route as a single batch: column lists are
        joined when all of them are column-resident, rows otherwise."""
        batches = list(batches)
        fields = batches[0].fields if batches else None
        if batches and all(b._columns is not None for b in batches):
            columns = {index: list(chain.from_iterable(
                b._columns[index] for b in batches))
                for index in batches[0]._columns}
            return cls.from_columns(columns, sum(map(len, batches)), width,
                                    fields=fields)
        return cls(list(chain.from_iterable(b.records() for b in batches)),
                   width, fields=fields)

    def __len__(self) -> int:
        return self._count

    def _layout(self) -> Sequence[int]:
        return range(self.width) if self.fields is None else self.fields

    def column(self, index: int) -> Sequence:
        """The values at schema position ``index`` (rows are pivoted once
        per batch).  A position the batch does not hold is an error: the
        scan was told which fields its statement reads."""
        columns = self._columns
        if columns is None:
            # One C-level transpose materialises every column.
            columns = self._columns = \
                dict(zip(self._layout(), zip(*self._rows))) \
                if self._rows else dict.fromkeys(self._layout(), ())
        try:
            return columns[index]
        except KeyError:
            raise QueryError(
                f"field {index} is not in this batch: the scan decoded "
                f"only fields {sorted(columns)}") from None

    def records(self) -> Sequence[Tuple]:
        """The record tuples in arrival order, laid out as ``fields``."""
        if self._rows is None:
            self._rows = \
                list(zip(*[self.column(i) for i in self._layout()])) \
                if self._layout() else [()] * self._count
        return self._rows

    def rows(self) -> Sequence[Tuple]:
        """The batch as whole records, in arrival order."""
        if self.fields is not None:
            return list(zip(*[self.column(i) for i in range(self.width)]))
        return self._rows if self._rows is not None else self.records()

    def narrow(self, selection: Sequence[int]) -> "ColumnBatch":
        """The selected rows (in selection order) as a batch of their own,
        in the residency this one has."""
        keys = self.keys
        if keys is not None:
            keys = [keys[i] for i in selection]
        if self._columns is None:
            rows = self._rows
            return ColumnBatch([rows[i] for i in selection], self.width,
                               keys, self.fields)
        columns = {index: [column[i] for i in selection]
                   for index, column in self._columns.items()}
        return ColumnBatch.from_columns(columns, len(selection), self.width,
                                        keys, self.fields)

    # -- the list of (key, record) pairs a storage scan returns ----------
    def __iter__(self):
        return zip(self.keys, self.records())

    def __getitem__(self, item):
        return list(self)[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, ColumnBatch)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColumnBatch({self._count} rows x {self.width} cols)"


class VectorOps:
    """Pure-Python vector primitives for scalar expressions.

    Every method takes and returns plain Python sequences; ``None``
    elements are SQL NULL.  Truth vectors hold ``True``/``False``/``None``
    (three-valued logic).  Selection vectors are sorted lists of row
    ordinals.  Each method is one Python-level dispatch per batch; the
    per-row work runs inside C-implemented primitives.

    What an operator *means* is defined once, by the scalar tables in
    :mod:`.predicate`.  ``arith`` and ``compare`` nevertheless spell
    their operators out as one comprehension each instead of calling the
    table's function per element: they are the measured batch path
    (every scan filter and computed projection), and an inlined ``a > b``
    costs a fifth less per row than ``operator.gt(a, b)``.  Whatever they
    raise is re-derived row by row from the table (``predicate.evaluate``).
    """

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
