"""The examples are part of the public contract: run them."""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with redirect_stdout(out):
        module.main()
    assert out.getvalue()  # every example narrates what it did


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "spatial_catalog", "orders_referential",
            "publishing", "federation", "custom_extension"} <= names


def test_tuple_at_a_time_extension_meets_the_single_contract():
    """``custom_extension.py`` implements only the per-record hooks.  The
    core drives the batch vectors alone, so its two classes must plug in
    through the base-class defaults: single inserts, sets, a veto in the
    middle of a set (located and fully rolled back), and crash restart."""
    from repro import Database, VetoError

    path = Path(__file__).parent.parent / "examples" / "custom_extension.py"
    spec = importlib.util.spec_from_file_location("example_contract", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for cls in (module.AppendLogStorage, module.RowCounterAttachment):
        assert not any(name.endswith("_batch") for name in vars(cls))

    db = Database(page_size=1024)
    db.registry.register_storage_method(module.AppendLogStorage(),
                                        db.services.recovery)
    db.registry.register_attachment_type(module.RowCounterAttachment())
    events = db.create_table("events", [("kind", "STRING"), ("n", "INT")],
                             storage_method="append_log")
    db.create_attachment("events", "row_counter", "cap", {"capacity": 6})

    assert events.insert(("click", 0)) == 0
    assert events.insert_many([("click", 1), ("click", 2)]) == [1, 2]
    assert events.count() == 3

    # Records 3..5 fit under the capacity; the fourth of this set does not.
    with pytest.raises(VetoError) as excinfo:
        events.insert_many([("click", n) for n in range(3, 8)])
    veto = excinfo.value
    assert veto.batch_index == 3
    assert (veto.relation, veto.attachment_id, veto.operation) == \
        ("events", "row_counter", "insert")
    assert events.rows() == [("click", 0), ("click", 1), ("click", 2)]

    # append_log is a temporary method: restart must come up clean with
    # the relation and its attachment still registered and usable.
    db.restart()
    assert events.count() == 0
    assert db.execute("SELECT COUNT(*) FROM events") == [(0,)]
    handle = db.catalog.handle("events")
    field = handle.descriptor.attachment_field(
        db.registry.attachment_type_by_name("row_counter").type_id)
    assert "cap" in field["instances"]
