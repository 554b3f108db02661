"""Precomputed statistics attachment: maintenance, estimates, planning."""

import pytest

from repro import Database
from repro.access.statistics import (_KMV_K, predicate_selectivity,
                                     statistics_for)
from repro.errors import SchemaError, StorageError

ID, NAME, DEPT, SALARY = 0, 1, 2, 3


def with_stats(db, relation, fn):
    """Run ``fn`` over the relation's :class:`TableStatistics` view inside
    one autocommit context (repairs may scan)."""
    handle = db.catalog.handle(relation)
    with db.autocommit() as ctx:
        return fn(statistics_for(ctx, handle))


@pytest.fixture
def tracked(db, employee):
    db.create_attachment("employee", "statistics", "emp_stats")
    return db, employee


# ---------------------------------------------------------------------------
# Build and incremental maintenance
# ---------------------------------------------------------------------------

def test_initial_computation_over_existing_records(tracked):
    db, employee = tracked
    assert with_stats(db, "employee", lambda s: s.row_count) == 5
    column = with_stats(db, "employee", lambda s: s.column(SALARY))
    assert column["min"] == 70000.0 and column["max"] == 120000.0
    assert with_stats(db, "employee", lambda s: s.distinct(DEPT)) == 3
    assert with_stats(db, "employee",
                      lambda s: s.column(NAME)["nulls"] / s.row_count) == 0.0


def test_columns_attribute_restricts_tracking(db, employee):
    db.create_attachment("employee", "statistics", "emp_stats",
                         {"columns": ["dept"]})
    assert with_stats(db, "employee", lambda s: s.tracks(DEPT))
    assert not with_stats(db, "employee", lambda s: s.tracks(SALARY))
    assert with_stats(db, "employee", lambda s: s.column(SALARY)) is None
    assert with_stats(db, "employee",
                      lambda s: s.selectivity(SALARY, "=", None)) is None


def test_attribute_validation(db, employee):
    with pytest.raises(SchemaError):
        db.create_attachment("employee", "statistics", "bad",
                             {"columns": ["no_such"]})
    with pytest.raises(StorageError):
        db.create_attachment("employee", "statistics", "bad",
                             {"columns": []})
    with pytest.raises(StorageError):
        db.create_attachment("employee", "statistics", "bad",
                             {"histogram": True})


def test_incremental_maintenance(tracked):
    db, employee = tracked
    employee.insert((6, None, "ops", 200000.0))
    assert with_stats(db, "employee", lambda s: s.row_count) == 6
    assert with_stats(db, "employee", lambda s: s.distinct(DEPT)) == 4
    assert with_stats(db, "employee",
                      lambda s: s.column(SALARY))["max"] == 200000.0
    assert with_stats(db, "employee",
                      lambda s: s.column(NAME)["nulls"] / s.row_count) \
        == pytest.approx(1 / 6)

    key = employee.scan(where="id = 6")[0][0]
    employee.update(key, {"name": "frank"})
    assert with_stats(db, "employee",
                      lambda s: s.column(NAME)["nulls"] / s.row_count) == 0.0

    employee.delete(key)
    assert with_stats(db, "employee", lambda s: s.row_count) == 5


def test_batch_maintenance_logs_one_batch(tracked):
    db, employee = tracked
    stats = db.services.stats
    before = stats.snapshot()
    employee.insert_many([(10 + i, f"n{i}", "ops", 1.0) for i in range(20)])
    delta = stats.delta(before)
    assert delta["statistics.maintenance_batches"] == 1
    assert delta["statistics.maintenance_ops"] == 20
    assert with_stats(db, "employee", lambda s: s.row_count) == 25


def test_stale_extreme_repaired_lazily(tracked):
    db, employee = tracked
    key = employee.scan(where="salary = 120000.0")[0][0]
    employee.delete(key)
    stats = db.services.stats
    # Without repair the stale maximum is still visible...
    column = with_stats(db, "employee", lambda s: s.column(SALARY))
    assert column["stale"] and column["max"] == 120000.0
    # ...one repairing read recomputes by a single scan.
    before = stats.get("statistics.recomputations")
    column = with_stats(db, "employee",
                        lambda s: s.column(SALARY, repair=True))
    assert not column["stale"] and column["max"] == 105000.0
    assert stats.get("statistics.recomputations") == before + 1


def test_abort_restores_statistics_state(tracked):
    db, employee = tracked
    db.begin()
    employee.insert_many([(20, "x", "qa", 999999.0),
                          (21, "y", "qa", 1.0)])
    assert with_stats(db, "employee", lambda s: s.row_count) == 7
    db.rollback()
    assert with_stats(db, "employee", lambda s: s.row_count) == 5
    column = with_stats(db, "employee", lambda s: s.column(SALARY))
    assert column["max"] == 120000.0 and column["min"] == 70000.0
    assert with_stats(db, "employee", lambda s: s.distinct(DEPT)) == 3


def test_restart_that_lost_nothing_keeps_statistics(tracked):
    db, employee = tracked
    employee.insert((6, "frank", "ops", 50000.0))
    stats = db.services.stats
    before = stats.snapshot()
    summary = db.restart()
    delta = stats.delta(before)
    assert summary["attachment_types_rebuilt"] == 0
    assert delta.get("statistics.rebuilds", 0) == 0
    assert delta.get("statistics.recomputations", 0) == 0
    assert with_stats(db, "employee", lambda s: s.row_count) == 6
    assert with_stats(db, "employee", lambda s: s.distinct(DEPT)) == 4


@pytest.mark.parametrize("flushed", [True, False],
                         ids=["undone_at_restart", "lost_in_crash"])
def test_restart_that_lost_or_undid_an_insert_derives_again(tracked,
                                                             flushed):
    db, employee = tracked
    employee.insert((6, "frank", "ops", 50000.0))
    db.begin()
    employee.insert((7, "grace", "lab", 1.0))
    if flushed:
        db.services.wal.flush()  # the loser's records survive: undone
    stats = db.services.stats
    before = stats.get("statistics.rebuilds")
    summary = db.restart()
    assert stats.get("statistics.rebuilds") == before + 1
    assert summary["undone"] == (2 if flushed else 0)
    assert with_stats(db, "employee", lambda s: s.row_count) == 6
    assert with_stats(db, "employee", lambda s: s.distinct(DEPT)) == 4
    column = with_stats(db, "employee", lambda s: s.column(SALARY))
    assert column["min"] == 50000.0


def test_rollback_after_a_concurrent_commit_keeps_the_commit(tracked):
    """Undo of a whole-state before-image must not restore it over a
    change another transaction made and committed since."""
    db, employee = tracked
    first, second = db.connect(), db.connect()
    first.begin()
    first.table("employee").insert((6, "frank", "ops", 1.0))
    with second.transaction():
        second.table("employee").insert((7, "grace", "lab", 2.0))
    first.rollback()
    assert employee.count() == 6
    assert with_stats(db, "employee", lambda s: s.row_count) == 6
    assert with_stats(db, "employee", lambda s: s.distinct(DEPT)) == 4
    # Re-derived once by that read, then kept through a restart.
    db.restart()
    assert with_stats(db, "employee", lambda s: s.row_count) == 6


# ---------------------------------------------------------------------------
# Distinct-value sketch
# ---------------------------------------------------------------------------

def test_kmv_exact_below_sketch_capacity(db):
    table = db.create_table("k", [("v", "INT")])
    table.insert_many([(i % 40,) for i in range(200)])
    db.create_attachment("k", "statistics", "k_stats")
    assert with_stats(db, "k", lambda s: s.distinct(0)) == 40


def test_kmv_estimates_above_sketch_capacity(db):
    table = db.create_table("k", [("v", "INT")])
    table.insert_many([(i,) for i in range(1000)])
    db.create_attachment("k", "statistics", "k_stats")
    estimate = with_stats(db, "k", lambda s: s.distinct(0))
    assert estimate > _KMV_K          # genuinely estimating, not saturated
    assert 500 <= estimate <= 2000    # within 2x of the 1000 truth


def test_kmv_survives_deletion_and_rebuild_resets(db):
    table = db.create_table("k", [("v", "INT")])
    table.insert_many([(i % 50,) for i in range(100)])
    db.create_attachment("k", "statistics", "k_stats")
    for key, __ in table.scan(where="v >= 10"):
        table.delete(key)
    # The sketch cannot forget: still reports the historical 50 ...
    assert with_stats(db, "k", lambda s: s.distinct(0)) == 50
    # ... until a rebuild re-derives it from the live records ...
    db.rebuild_attachment("k_stats")
    assert with_stats(db, "k", lambda s: s.distinct(0)) == 10
    # ... while a restart, which lost nothing, leaves the sketch alone.
    table.insert_many([(i,) for i in range(10, 20)])
    db.restart()
    assert with_stats(db, "k", lambda s: s.distinct(0)) == 20


# ---------------------------------------------------------------------------
# Selectivity estimates and planner integration
# ---------------------------------------------------------------------------

def test_equality_selectivity_uses_distinct_count(tracked):
    db, __ = tracked
    stats = db.services.stats
    before = stats.get("statistics.consultations")
    sel = with_stats(db, "employee", lambda s: s.selectivity(DEPT, "=", None))
    assert sel == pytest.approx(1 / 3)
    neq = with_stats(db, "employee", lambda s: s.selectivity(DEPT, "!=", None))
    assert neq == pytest.approx(2 / 3)
    assert stats.get("statistics.consultations") == before + 2


def test_range_selectivity_interpolates_min_max(db):
    table = db.create_table("r", [("v", "INT", False)])
    table.insert_many([(i,) for i in range(100)])
    db.create_attachment("r", "statistics", "r_stats")
    sel = with_stats(db, "r", lambda s: s.selectivity(0, "<", 25))
    assert sel == pytest.approx(25 / 99, abs=0.01)
    sel = with_stats(db, "r", lambda s: s.selectivity(0, ">=", 90))
    assert sel == pytest.approx(9 / 99, abs=0.01)


def test_string_ranges_do_not_interpolate(tracked):
    db, __ = tracked
    assert with_stats(
        db, "employee", lambda s: s.selectivity(DEPT, "<", "m")) is None


def test_null_fraction_scales_selectivity(db):
    table = db.create_table("n", [("v", "INT")])
    table.insert_many([(None,)] * 50 + [(i,) for i in range(50)])
    db.create_attachment("n", "statistics", "n_stats")
    assert with_stats(db, "n",
                      lambda s: s.column(0)["nulls"] / s.row_count) == 0.5
    sel = with_stats(db, "n", lambda s: s.selectivity(0, "<", 25))
    # Half the rows are NULL and cannot satisfy any comparison.
    assert sel == pytest.approx(0.5 * 25 / 49, abs=0.01)


def test_predicate_selectivity_handles_params_and_consts(tracked):
    db, __ = tracked

    class FakePred:
        is_simple = True
        field_index = DEPT
        op = "="
        operand = None

    sel = with_stats(db, "employee",
                     lambda s: predicate_selectivity(s, FakePred()))
    assert sel == pytest.approx(1 / 3)   # equality works without a literal

    class RangeOnParam(FakePred):
        field_index = SALARY
        op = "<"

    assert with_stats(
        db, "employee",
        lambda s: predicate_selectivity(s, RangeOnParam())) is None
    assert predicate_selectivity(None, FakePred()) is None


def test_planner_switches_access_path_with_statistics(db):
    """A low-cardinality index looks selective under the System R default
    (1/10th); real statistics reveal it returns half the relation, and
    the planner falls back to the cheaper sequential scan."""
    table = db.create_table("t", [("id", "INT", False), ("flag", "STRING")])
    table.insert_many([(i, "on" if i % 2 else "off") for i in range(2000)])
    db.create_attachment("t", "btree_index", "t_flag", {"columns": ["flag"]})

    statement = "SELECT id FROM t WHERE flag = 'on'"
    before_route = db.explain(statement)["access"]["route"]
    assert "btree_index" in before_route
    expected = db.execute(statement)
    assert len(expected) == 1000

    db.create_attachment("t", "statistics", "t_stats")
    after = db.explain(statement)["access"]
    assert after["route"] == "storage scan (access path zero)"
    assert after["estimated_rows"] >= 500
    assert db.execute(statement) == expected
    assert db.services.stats.get("statistics.consultations") >= 1


def test_unique_index_still_wins_with_statistics(db):
    table = db.create_table("u", [("id", "INT", False), ("v", "FLOAT")])
    table.insert_many([(i, float(i)) for i in range(1000)])
    db.create_attachment("u", "btree_index", "u_id",
                         {"columns": ["id"], "unique": True})
    db.create_attachment("u", "statistics", "u_stats")
    route = db.explain("SELECT v FROM u WHERE id = 3")
    assert "btree_index" in route["access"]["route"]
    assert route["access"]["estimated_rows"] == 1.0
