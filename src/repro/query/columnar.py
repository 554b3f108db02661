"""Columnar batch representation for set-at-a-time query processing.

The paper's cost-estimation interface has extensions reason about "the
I/O and CPU costs to return the record fields or keys that satisfy the
predicates"; this module attacks the CPU half.  Above the scan boundary,
rows arrive in blocks (``next_batch``); a :class:`ColumnBatch` pivots one
block into columns exactly once, so the kernel library (:mod:`.kernels`)
can touch each *column* with a constant number of Python-level operations
per batch and let the C-implemented primitives (``zip``, ``sum``,
``min``, comprehension bytecode) do the per-row work.

Two ingredients of the representation:

* **lazy columns** — every column is materialised by one ``zip``
  transpose, the first time any of them is asked for;
* **null bitmaps** — per-column null masks computed once per batch, so
  SQL's NULL semantics cost one pass instead of one branch per operator
  per row.

A batch answers ``len()``, ``column(i)``, ``rows()`` and
``narrow(selection)`` — the protocol the operator IR's filter and sinks
are written against (:class:`~.ir.PairBatch`, a join result held as
selection-vector pairs, answers the same four).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ColumnBatch"]


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
