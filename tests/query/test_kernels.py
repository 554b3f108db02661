"""Columnar kernel micro-tests.

Correctness is checked against per-row evaluation (``Predicate.matches``
is the ground truth for selection vectors), and the O(1)-dispatch claim
is checked through counters: kernel invocations must scale with the
number of *batches*, never with the number of rows.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.schema import Field, Schema
from repro.errors import PredicateError, QueryError
from repro.query import kernels
from repro.services.predicate import Expr, Predicate, evaluate
from repro.services.vectors import ColumnBatch

SCHEMA = Schema("t", [Field("id", "INT", nullable=False),
                      Field("name", "STRING"), Field("score", "FLOAT"),
                      Field("active", "BOOL")])

ROWS = [
    (0, "ada", 1.5, True),
    (1, None, -2.0, False),
    (2, "bob", None, True),
    (3, "cyd", 8.25, None),
    (4, "dee", 8.25, True),
    (5, None, None, False),
    (6, "eve", 0.0, True),
]


def BATCH():
    return ColumnBatch(ROWS, len(SCHEMA))


def selection_by_rows(predicate):
    return [i for i, row in enumerate(ROWS) if predicate.matches(row)]


FILTERS = [
    "id >= 3",
    "id != 2",
    "name = 'bob'",
    "score > 1.0",
    "score <= 8.25",
    "name IS NULL",
    "score IS NOT NULL",
    "id BETWEEN 2 AND 5",
    "NOT (id BETWEEN 2 AND 5)",
    "name IN ('ada', 'eve')",
    "name NOT IN ('ada', 'eve')",
    "NOT name = 'bob'",
    "NOT score < 1.0",
    "active = TRUE",
    "id > 1 AND score IS NOT NULL",
    "name IS NULL OR score > 8.0",
    "id < 2 OR (active = TRUE AND score >= 0.0)",
]


@pytest.mark.parametrize("text", FILTERS)
def test_kernel_selection_matches_row_evaluation(text):
    predicate = Predicate.parse(text, SCHEMA)
    batch = ColumnBatch(ROWS, len(SCHEMA))
    truth = evaluate(predicate.expr, batch, {})
    assert [i for i, value in enumerate(truth) if value is True] \
        == selection_by_rows(predicate)


@pytest.mark.parametrize("text", FILTERS)
def test_match_indexes_agrees_with_row_fallback(text):
    """A ``run`` that raises ``PredicateError`` sends its batch down
    ``evaluate``'s per-row retry; both ways select the same rows."""
    predicate = Predicate.parse(text, SCHEMA)
    vectorized = predicate.select(BATCH())

    class Raising(Expr):
        """A third-party node whose batch entry point always fails."""
        _children = ("item",)

        def __init__(self, item):
            self.item = item

        def eval(self, view, params=None):
            return self.item.eval(view, params)

        def run(self, batch, params, backend, selection):
            raise PredicateError("forced")

    stats = Database().services.stats
    fallback = Predicate.from_bound(Raising(predicate.expr), SCHEMA) \
        .select(BATCH(), stats)
    assert stats.get("predicate.row_evals") == len(ROWS)
    assert vectorized == fallback == selection_by_rows(predicate)


@pytest.mark.parametrize("text", [
    "name LIKE 'a%'",            # LIKE over a column vector
    "id + 1 = 3",                # arithmetic over a column
    "id = score",                # column-to-column comparison
    "NOT (id > 1 AND score > 0)",  # NOT over a conjunction
])
def test_general_shapes_compile_via_expression_kernels(text):
    """Shapes beyond column-vs-constant comparisons filter a batch
    through ``run`` itself — no row retry — and agree with per-row
    evaluation."""
    predicate = Predicate.parse(text, SCHEMA)
    stats = Database().services.stats
    assert predicate.select(BATCH(), stats) == selection_by_rows(predicate)
    assert stats.get("predicate.row_evals") == 0
    assert stats.get("predicate.vector_rows") == len(ROWS)


def test_parameterized_predicate_shares_compiled_kernel():
    predicate = Predicate.parse("id >= :n", SCHEMA)
    first = predicate.with_params({"n": 3})
    second = predicate.with_params({"n": 5})
    assert first.select(BATCH()) == [3, 4, 5, 6]
    # The clones share the one bound tree: it is the kernel.
    assert second.expr is first.expr is predicate.expr
    assert second.select(BATCH()) == [5, 6]


def test_null_comparison_selects_nothing():
    predicate = Predicate.parse("name = :n", SCHEMA)
    assert predicate.with_params({"n": None}).select(BATCH()) == []


# ---------------------------------------------------------------------------
# ColumnBatch representation
# ---------------------------------------------------------------------------

def test_column_batch_residencies():
    """Rows-first and columns-first batches answer the same protocol;
    each derives the other residency on demand."""
    by_rows = ColumnBatch(ROWS, len(SCHEMA), keys=list("abcdefg"))
    assert len(by_rows) == len(ROWS)
    assert by_rows.column(0) == tuple(range(7))
    columns = {i: list(by_rows.column(i)) for i in range(len(SCHEMA))}
    by_columns = ColumnBatch.from_columns(columns, len(ROWS), len(SCHEMA),
                                          keys=list("abcdefg"))
    assert by_columns.rows() == ROWS == by_rows.rows()
    assert by_columns == by_rows == list(zip("abcdefg", ROWS))
    assert by_columns[2] == ("c", ROWS[2]) and by_columns != []
    for batch in (by_rows, by_columns):
        narrowed = batch.narrow([5, 1])
        assert list(narrowed) == [("f", ROWS[5]), ("b", ROWS[1])]
        assert narrowed.column(2) in ([None, -2.0], (None, -2.0))
    # A partial batch: pairs in the ``fields`` layout, no whole rows.
    partial = ColumnBatch.from_columns({2: columns[2], 0: columns[0]},
                                       len(ROWS), len(SCHEMA),
                                       keys=list("abcdefg"), fields=(2, 0))
    assert partial[1] == ("b", (-2.0, 1))
    assert ColumnBatch([(r[2], r[0]) for r in ROWS], len(SCHEMA),
                       fields=(2, 0)).column(0) == by_rows.column(0)
    with pytest.raises(QueryError, match="field 1 is not in this batch"):
        partial.rows()
    joined = ColumnBatch.concat([by_columns, by_columns.narrow([0])], 4)
    assert len(joined) == 8 and joined.column(1)[-1] == "ada"
    assert ColumnBatch.concat([by_rows, by_columns], 4).rows() == ROWS * 2
    assert len(ColumnBatch.concat([], 4)) == 0
    assert ColumnBatch.concat([], 4).column(3) == ()


def test_project_rows_kernel():
    batch = ColumnBatch([(1, "a", 2.0), (3, "b", 4.0)], 3)
    assert kernels.project_rows(batch, [2, 0]) == [(2.0, 1), (4.0, 3)]
    assert kernels.project_rows(batch, [1]) == [("a",), ("b",)]
    assert kernels.project_rows(ColumnBatch([], 1), [0]) == []


def test_fold_aggregate_kernel():
    assert kernels.fold_aggregate("count_star", [], 9) == 9
    assert kernels.fold_aggregate("count", [1, 2], 9) == 2
    assert kernels.fold_aggregate("sum", [1.5, 2.5], 9) == 4.0
    assert kernels.fold_aggregate("min", [3, 1], 9) == 1
    assert kernels.fold_aggregate("max", [3, 1], 9) == 3
    assert kernels.fold_aggregate("avg", [3.0, 1.0], 9) == 2.0
    assert kernels.fold_aggregate("sum", [], 9) is None


# ---------------------------------------------------------------------------
# O(1) Python-level dispatch per batch, asserted via counters
# ---------------------------------------------------------------------------

def _bulk_db(rows):
    db = Database(page_size=1024, buffer_capacity=128)
    table = db.create_table("n", [("id", "INT", False), ("val", "FLOAT")])
    table.insert_many([(i, float(i % 97)) for i in range(rows)])
    return db


def test_kernel_calls_scale_with_batches_not_rows():
    db = _bulk_db(2000)
    stats = db.services.stats
    db.execute("SELECT id, val FROM n WHERE val > 50.0")  # warm plan
    before = stats.snapshot()
    db.execute("SELECT id, val FROM n WHERE val > 50.0")
    delta = stats.delta(before)
    batches = delta["executor.columnar.batches"]
    assert delta["executor.columnar.rows"] >= 900
    # One dispatch per batch plus one final projection call.
    assert delta["executor.columnar.kernel_calls"] <= batches + 1
    # The scan filtered column-at-a-time: one select per page/window,
    # zero per-row predicate evaluations, zero per-row projections.
    assert delta.get("predicate.row_evals", 0) == 0
    assert delta.get("executor.row_ops", 0) == 0
    assert 0 < delta["predicate.vector_selects"] <= \
        delta["predicate.vector_rows"] // 10


def test_aggregate_kernel_calls_scale_with_batches():
    db = _bulk_db(2000)
    stats = db.services.stats
    statement = "SELECT COUNT(*), SUM(val), AVG(val) FROM n"
    db.execute(statement)
    before = stats.snapshot()
    db.execute(statement)
    delta = stats.delta(before)
    batches = delta["executor.columnar.batches"]
    # Two value-collecting aggregates (SUM, AVG share a column but keep
    # their own lists) -> at most two kernel calls per batch.
    assert delta["executor.columnar.kernel_calls"] <= 2 * batches
    assert delta.get("executor.row_ops", 0) == 0
