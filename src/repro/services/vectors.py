"""The batch substrate of the common predicate service.

The predicate service evaluates an expression two ways: per record while
the record is still in the buffer pool (``Expr.eval``) and per *batch*,
through the code each bound tree generates (``predicate.select`` /
``predicate.evaluate``: one comprehension over the columns it reads).
Both batch entry points read a :class:`ColumnBatch`, which lives here,
below the query layer, because storage methods filter their
``next_batch`` pages with it: one block of records held as columns
(decoded that way by the heap, or pivoted from rows exactly once), so an
expression touches each *column* once per batch and lets the
C-implemented primitives (``zip``, comprehension bytecode) do the
per-row work.

A batch answers ``len()``, ``column(i)``, ``rows()`` and
``narrow(selection)`` — the protocol the operator IR's filter and sinks
are written against (:class:`~repro.query.ir.PairBatch`, a join result
held as selection-vector pairs, answers the same four).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Sequence, Tuple

from ..errors import QueryError

__all__ = ["ColumnBatch"]


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
