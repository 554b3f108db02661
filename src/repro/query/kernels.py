"""Column-at-a-time operator kernels.

Each kernel performs one logical operation for a whole
:class:`~repro.services.vectors.ColumnBatch` with O(1) Python-level
dispatch per batch: the per-row work happens inside C-implemented
primitives (comprehension loops over one column, ``zip``,
``sum``/``min``/``max``) instead of a tree-walking ``expr.eval`` plus a
``RecordView`` per row per operator.

Scalar expressions have no kernel here: the bound
:class:`~repro.services.predicate.Expr` tree generates its own, one
comprehension per tree shape, and the predicate service's ``evaluate``
re-evaluates a batch row by row when — and only when — that code
raised, because the one thing a whole-row evaluation cannot reproduce is
short-circuit evaluation.  What is left here is what the sinks do with
the vectors: projection and folds.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import PredicateError

__all__ = ["project_rows", "zip_vectors", "fold_aggregate"]


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
    bit-identical to a per-row fold over a scan.
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
