"""Reference evaluator: what a bound SELECT means, computed the slow way.

Every query test that needs "the right answer" gets it here instead of
from a second engine.  The evaluator takes the rows of
``Relation.scan()``, forms the cross product for a join, and applies the
statement with ``Expr.eval`` one row at a time — no access routes, no
batches, no kernels, no counters.  It shares with the engine only the
parser, the binder (column names → positions) and ``Expr.eval``.

Row order follows the definition too: scan order (left-major for a
join), groups in ``repr(key)`` order, ORDER BY as a stable multi-key
sort in which NULL is the greatest value, LIMIT as a slice.  Where the
engine reads through an index the
arrival order is the route's, so unordered results are compared with
:func:`same_rows` (as multisets); where both read in scan order ``==``
holds and the tests use it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.records import RecordView
from repro.query.parser import parse_statement
from repro.query.planner import plan_select

__all__ = ["run", "same_rows"]


def run(scope, text: str, params: Optional[dict] = None) -> List[tuple]:
    """Evaluate SELECT ``text`` as seen by ``scope`` — a Database or a
    Session (whose open snapshot, if any, its scans honour)."""
    params = params or {}
    statement = parse_statement(text)
    with scope.autocommit() as ctx:
        plan = plan_select(ctx, statement, text)
    rows = scope.table(plan.table).rows()
    join = plan.join
    if join is not None:
        inner = scope.table(join.right).rows()
        rows = [tuple(left) + tuple(right) for left in rows
                for right in inner
                if left[join.left_index] is not None
                and left[join.left_index] == right[join.right_index]]
    if statement.where is not None:
        where = statement.where.bind(plan.combined_schema)
        rows = [row for row in rows
                if where.eval(RecordView.from_record(row), params) is True]

    if any(aggregate for __, __, aggregate in plan.items):
        if plan.order_by or plan.limit is not None:
            raise NotImplementedError(
                "ORDER BY / LIMIT over aggregates is outside the dialect "
                "the engine defines")
        if plan.group_index is None:
            return [_fold(plan.items, rows, params)]
        groups = {}
        for row in rows:
            groups.setdefault(row[plan.group_index], []).append(row)
        return [_fold(plan.items, groups[key], params)
                for key in sorted(groups, key=repr)]

    for index, ascending in reversed(plan.order_by):
        # NULL sorts as greater than every value: last ASC, first DESC.
        rows.sort(key=lambda row: (row[index] is None, row[index]),
                  reverse=not ascending)
    if plan.limit is not None:
        rows = rows[:plan.limit]
    if plan.star:
        return rows
    return [tuple(expr.eval(RecordView.from_record(row), params)
                  for expr, __, __a in plan.items) for row in rows]


def _fold(items, rows: List[tuple], params: dict) -> tuple:
    out = []
    for expr, __, aggregate in items:
        if aggregate is None:
            # A plain item beside aggregates takes its value from the
            # group's first row (the grouping column, in practice).
            out.append(expr.eval(RecordView.from_record(rows[0]), params)
                       if rows else None)
            continue
        if expr is None:  # COUNT(*)
            out.append(len(rows))
            continue
        values = [value for value in
                  (expr.eval(RecordView.from_record(row), params)
                   for row in rows) if value is not None]
        if aggregate == "count":
            out.append(len(values))
        elif not values:
            out.append(None)
        elif aggregate == "avg":
            out.append(sum(values) / len(values))
        else:
            out.append({"sum": sum, "min": min, "max": max}[aggregate](
                values))
    return tuple(out)


def same_rows(got: List[tuple], expected: List[tuple]) -> bool:
    """Equal as multisets (for results whose order the route decides)."""
    return sorted(got, key=repr) == sorted(expected, key=repr)
