"""Cost model types shared by storage methods, attachments, and the planner.

The paper: "Given a list of 'eligible' predicates supplied by the query
planner, the storage method or access attachment can determine the
'relevance' of the predicates to the access path instance and then estimate
the I/O and CPU costs to return the record fields or keys that satisfy the
predicates."

This module deliberately has no dependencies on the rest of the library so
that every extension can import it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = ["AccessCost", "EligiblePredicate", "DEFAULT_SELECTIVITY",
           "default_selectivity", "implied_conjuncts"]

#: Selectivity guesses per comparison operator, used when an extension has
#: no better information (classic System R constants).
DEFAULT_SELECTIVITY = {
    "=": 0.05,
    "!=": 0.95,
    "<": 0.33,
    "<=": 0.33,
    ">": 0.33,
    ">=": 0.33,
    "ENCLOSES": 0.02,
    "ENCLOSED_BY": 0.02,
    "OVERLAPS": 0.05,
}


def default_selectivity(eligible) -> float:
    """The combined selectivity of ``eligible`` predicates from the
    defaults alone (a predicate that is not simple counts one half)."""
    selectivity = 1.0
    for pred in eligible:
        selectivity *= (DEFAULT_SELECTIVITY.get(pred.op, 0.5)
                        if pred.is_simple else 0.5)
    return selectivity


def implied_conjuncts(relevant, eligible) -> tuple:
    """The conjuncts all of whose ``eligible`` predicates are ``relevant``:
    those a route exact over ``relevant`` implies, in conjunct order (a
    ``BETWEEN`` is offered as two bounds and implied only by both)."""
    implied = []
    for pred in eligible:
        if pred.expr not in implied and all(
                p in relevant for p in eligible if p.expr is pred.expr):
            implied.append(pred.expr)
    return tuple(implied)


class EligiblePredicate:
    """One conjunct offered to an extension for relevance testing.

    ``field_index``/``op``/``operand`` are filled for simple
    column-vs-constant comparisons (the form access paths can exploit);
    ``expr`` always carries the full bound expression so extensions can do
    deeper analysis if they wish.
    """

    __slots__ = ("expr", "field_index", "op", "operand")

    def __init__(self, expr, field_index=None, op=None, operand=None):
        self.expr = expr
        self.field_index = field_index
        self.op = op
        self.operand = operand

    @property
    def is_simple(self) -> bool:
        return self.field_index is not None

    def __repr__(self) -> str:
        if self.is_simple:
            return f"EligiblePredicate(col{self.field_index} {self.op} ...)"
        return f"EligiblePredicate({self.expr!r})"


class AccessCost:
    """An extension's estimate for one access route.

    * ``io_pages`` — page reads expected;
    * ``cpu_tuples`` — tuples or entries touched (CPU work);
    * ``expected_tuples`` — result cardinality estimate;
    * ``relevant`` — the eligible predicates this route will apply itself
      (the planner re-checks the rest as residual filters);
    * ``ordered_by`` — field indexes the output is ordered by, or None;
    * ``consumed`` — the conjuncts every record the route yields satisfies,
      which nothing tests again (see :func:`implied_conjuncts`);
    * ``route`` — opaque extension data naming the search the estimate
      assumed (an access path's: its ``bind_route`` of the literal
      operands).  Nothing executes it: the executor binds the route it
      runs at every run, under the statement's parameters.
    """

    __slots__ = ("io_pages", "cpu_tuples", "expected_tuples", "relevant",
                 "ordered_by", "route", "consumed")

    def __init__(self, io_pages: float, cpu_tuples: float,
                 expected_tuples: float,
                 relevant: Sequence[EligiblePredicate] = (),
                 ordered_by: Optional[Tuple[int, ...]] = None,
                 route=None, consumed: tuple = ()):
        self.io_pages = float(io_pages)
        self.cpu_tuples = float(cpu_tuples)
        self.expected_tuples = float(expected_tuples)
        self.relevant = tuple(relevant)
        self.ordered_by = ordered_by
        self.route = route
        self.consumed = consumed

    #: Relative weight of a page read versus touching one tuple.
    IO_WEIGHT = 10.0

    @property
    def total(self) -> float:
        """Scalar cost used for comparisons: weighted I/O plus CPU."""
        return self.IO_WEIGHT * self.io_pages + self.cpu_tuples

    def __lt__(self, other: "AccessCost") -> bool:
        return self.total < other.total

    def __repr__(self) -> str:
        return (f"AccessCost(io={self.io_pages:.1f}, cpu={self.cpu_tuples:.1f}, "
                f"rows={self.expected_tuples:.1f}, total={self.total:.1f})")
