"""Cost-based access selection and join planning."""

import pytest

from repro import Database
from repro.query.planner import QualifiedSchema
from repro.core.schema import Field, Schema


@pytest.fixture
def big(db):
    table = db.create_table("big", [("id", "INT"), ("grp", "INT"),
                                    ("v", "STRING")])
    table.insert_many([(i, i % 20, "pad" * 20) for i in range(400)])
    return table


def test_storage_scan_without_predicates(db, big):
    plan = db.explain("SELECT * FROM big")
    assert "storage scan" in plan["access"]["route"]


def test_index_chosen_for_selective_equality(db, big):
    db.create_index("big_id", "big", ["id"], unique=True)
    plan = db.explain("SELECT * FROM big WHERE id = 17")
    assert "btree_index" in plan["access"]["route"]
    assert plan["access"]["candidates_considered"] == 2


def test_scan_still_chosen_for_unselective_range(db, big):
    db.create_index("big_id", "big", ["id"], unique=True)
    plan = db.explain("SELECT * FROM big WHERE id >= 0")
    assert "storage scan" in plan["access"]["route"]


def test_cheapest_among_multiple_access_paths(db, big):
    db.create_index("big_btree", "big", ["id"], unique=True)
    db.create_attachment("big", "hash_index", "big_hash",
                         {"columns": ["id"]})
    plan = db.explain("SELECT * FROM big WHERE id = 5")
    assert plan["access"]["candidates_considered"] == 3
    assert "hash_index" in plan["access"]["route"]  # 1 probe beats descent


def test_irrelevant_predicates_fall_back_to_scan(db, big):
    db.create_index("big_id", "big", ["id"])
    plan = db.explain("SELECT * FROM big WHERE grp = 3")
    assert "storage scan" in plan["access"]["route"]


def test_explain_reports_estimates(db, big):
    plan = db.explain("SELECT * FROM big WHERE id = 1")
    access = plan["access"]
    assert access["estimated_rows"] >= 1
    assert access["estimated_io"] > 0


def test_join_method_selection_index_nested_loop(db):
    """A few outer rows probing a keyed inner relation undercut reading
    the inner relation whole; many outer rows do not."""
    left = db.create_table("l", [("id", "INT"), ("fk", "INT")])
    right = db.create_table("r", [("k", "INT"), ("v", "STRING")])
    right.insert_many([(i, f"v{i}") for i in range(2000)])
    left.insert_many([(i, i % 200) for i in range(50)])
    db.create_index("r_k", "r", ["k"], unique=True)
    plan = db.explain("SELECT * FROM l JOIN r ON l.fk = r.k")
    assert plan["join"]["method"] == "index_nl"
    plan = db.explain("SELECT * FROM r JOIN l ON l.fk = r.k")
    assert plan["join"]["method"] == "hash"


def test_keyed_join_is_costed_on_the_filtered_outer(db):
    """The outer side of a keyed join costs what its access returns —
    one row here — not what the relation holds."""
    left = db.create_table("l", [("id", "INT"), ("fk", "INT")])
    right = db.create_table("r", [("k", "INT"), ("v", "STRING")])
    right.insert_many([(i, f"v{i}") for i in range(400)])
    left.insert_many([(i, i % 400) for i in range(400)])
    db.create_index("l_id", "l", ["id"], unique=True)
    db.create_index("r_k", "r", ["k"], unique=True)
    join = "SELECT * FROM l JOIN r ON l.fk = r.k"
    assert db.explain(join)["join"]["method"] == "hash"
    plan = db.explain(join + " WHERE l.id = 7")
    assert plan["join"]["method"] == "index_nl"
    assert plan["join"]["estimated_cost"] < 100


def test_join_falls_back_to_hash(db):
    """No keyed route on the inner join column: the hash join (which
    replaced the nested loop as the method of last resort)."""
    left = db.create_table("l", [("id", "INT"), ("fk", "INT")])
    right = db.create_table("r", [("k", "INT")])
    left.insert((1, 1))
    right.insert((1,))
    plan = db.explain("SELECT * FROM l JOIN r ON l.fk = r.k")
    assert plan["join"]["method"] == "hash"


def test_order_by_satisfied_by_btree_file_storage(db):
    db.create_table("o", [("k", "INT"), ("v", "STRING")],
                    storage_method="btree_file", attributes={"key": ["k"]})
    table = db.table("o")
    table.insert_many([(i, "v") for i in range(20)])
    plan = db.explain("SELECT * FROM o ORDER BY k")
    assert plan["needs_sort"] is False
    plan = db.explain("SELECT * FROM o ORDER BY v")
    assert plan["needs_sort"] is True


def test_between_decomposed_for_index_use(db, big):
    db.create_index("big_id", "big", ["id"], unique=True)
    plan = db.explain("SELECT v FROM big WHERE id BETWEEN 100 AND 110")
    assert "btree_index" in plan["access"]["route"]
    rows = db.execute("SELECT id FROM big WHERE id BETWEEN 100 AND 110")
    assert sorted(r[0] for r in rows) == list(range(100, 111))


def test_range_selectivity_interpolated_from_index(db, big):
    """The index's min/max keys refine range estimates far below the
    fixed one-third guess."""
    db.create_index("big_id", "big", ["id"], unique=True)
    plan = db.explain("SELECT v FROM big WHERE id < 5")
    assert plan["access"]["estimated_rows"] < 40  # not 400 * 0.33


# ---------------------------------------------------------------------------
# QualifiedSchema
# ---------------------------------------------------------------------------

def test_qualified_schema_resolution():
    left = Schema("emp", [Field("id", "INT"), Field("dept", "STRING")])
    right = Schema("dept", [Field("dname", "STRING"), Field("id", "INT")])
    combined = QualifiedSchema.combine([("e", left), ("d", right)])
    assert combined.field_index("e.id") == 0
    assert combined.field_index("d.id") == 3
    assert combined.field_index("dname") == 2  # unambiguous suffix
    with pytest.raises(Exception):
        combined.field_index("id")  # ambiguous
    with pytest.raises(Exception):
        combined.field_index("ghost")


def test_explain_shows_the_rollup_split(db):
    """A hash join grouped by a column of the JOIN relation, aggregating
    the FROM relation, names the column its partial groups are by;
    shapes the split refuses show nothing."""
    fact = db.create_table("sales", [("id", "INT"), ("region", "STRING"),
                                     ("amount", "INT"), ("rate", "FLOAT")])
    dim = db.create_table("region_info", [("region", "STRING"),
                                          ("zone", "INT")])
    fact.insert_many([(i, f"r{i % 8}", i, i / 2) for i in range(400)])
    dim.insert_many([(f"r{i}", i % 3) for i in range(8)])
    join = "FROM sales s JOIN region_info ON s.region = region_info.region"
    plan = db.explain(f"SELECT zone, COUNT(*), SUM(s.amount) {join} "
                      "GROUP BY zone")
    assert plan["join"]["method"] == "hash"
    assert plan["rollup"] == {"by": "s.region"}
    for refused in (f"SELECT zone, SUM(s.rate) {join} GROUP BY zone",
                    f"SELECT zone, COUNT(*) {join} WHERE s.id < zone "
                    "GROUP BY zone",
                    f"SELECT * {join}",
                    "SELECT region, COUNT(*) FROM sales GROUP BY region"):
        assert "rollup" not in db.explain(refused)
