"""Differential: the batch hooks of the check, statistics, B-tree and hash
attachments against the record-at-a-time bodies they replaced, kept here
as the reference.

Random batches carry NULLs, NaN, duplicate keys, long strings (so updated
records move to other pages) and a BOX column; each check compares the
state, or the veto, a batch leaves with what a loop over its rows (and,
within a row, over the instances) leaves.
"""

import copy
import math
from bisect import bisect_left, insort
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.access import hash_index
from repro.access.btree_core import BTree
from repro.access.statistics import _KMV_K
from repro.core.hashing import stable_hash
from repro.core.records import Box, RecordView
from repro.errors import CheckViolation, ReproError, UniqueViolation
from repro.services.predicate import Predicate
from repro.services.scans import index_key

COLUMNS = [("i", "INT"), ("f", "FLOAT"), ("s", "STRING"), ("b", "BOX")]
NAN = float("nan")

values_i = st.none() | st.integers(-3, 3)
values_f = st.none() | st.sampled_from([NAN, 0.0, -1.0, 1.0, 2.5]) \
    | st.floats(-5, 5)
#: Short strings, and long ones that move an updated record to another page.
values_s = st.none() | st.sampled_from(["", "a", "b"]) \
    | st.text(alphabet="xyz", max_size=8) \
    | st.integers(150, 300).map("x".__mul__)
values_b = st.none() | st.sampled_from(
    [Box(0, 0, 1, 1), Box(0, 0, 2, 2), Box(-1, -1, 0, 0)])
rows = st.tuples(values_i, values_f, values_s, values_b)
batches = st.lists(rows, min_size=1, max_size=12)
#: Which live records a batch updates (``index % len(live)``) and with what.
updates = st.lists(st.tuples(st.integers(0, 10 ** 6), rows),
                   min_size=1, max_size=12)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def new_table(*attachments):
    db = Database(page_size=1024, buffer_capacity=128)
    table = db.create_table("t", COLUMNS)
    for args in attachments:
        db.create_attachment("t", *args)
    return db, table


def instance(db, type_name, name):
    field = db.catalog.handle("t").descriptor.attachment_field(
        db.registry.attachment_type_by_name(type_name).type_id)
    return field["instances"][name]


def pick(live: dict, chosen) -> list:
    """``(key, new record)`` for distinct live keys, in ``chosen`` order."""
    keys, items = sorted(live), {}
    for at, row in chosen:
        items.setdefault(keys[at % len(keys)], row)
    return list(items.items())


# ---------------------------------------------------------------------------
# Statistics: the per-value fold
# ---------------------------------------------------------------------------

def absorb(column: dict, value) -> None:
    if value is None:
        column["nulls"] += 1
        return
    try:
        if column["min"] is None or value < column["min"]:
            column["min"] = value
        if column["max"] is None or value > column["max"]:
            column["max"] = value
    except TypeError:
        pass
    kmv, h = column["kmv"], stable_hash(value)
    at = bisect_left(kmv, h)
    if at < len(kmv) and kmv[at] == h:
        return
    if len(kmv) < _KMV_K:
        insort(kmv, h)
    elif h < kmv[-1]:
        insort(kmv, h)
        kmv.pop()


def retire(column: dict, value) -> None:
    if value is None:
        column["nulls"] -= 1
    elif value == column["min"] or value == column["max"]:
        column["stale"] = True


def plain(state: dict) -> dict:
    """``state`` with NaN spelled out, so that two states compare."""
    def value(v):
        return "NaN" if isinstance(v, float) and math.isnan(v) else v
    return {"row_count": state["row_count"],
            "columns": {index: {name: value(v) for name, v in column.items()}
                        for index, column in state["columns"].items()}}


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(["insert", "update", "delete"]),
                          batches, updates), min_size=1, max_size=6))
def test_statistics_state_is_the_per_value_fold(ops):
    db, table = new_table(("statistics", "t_stats"))
    stats = instance(db, "statistics", "t_stats")
    expected = copy.deepcopy(stats["state"])
    columns = expected["columns"]
    live = {}
    for op, batch, chosen in ops:
        if op == "insert" or not live:
            live.update(zip(table.insert_many(batch), batch))
            expected["row_count"] += len(batch)
            for index, column in columns.items():
                for record in batch:
                    absorb(column, record[index])
        elif op == "update":
            items = pick(live, chosen)
            olds = [table.fetch(key) for key, __ in items]
            new_keys = table.update_many(items)
            for index, column in columns.items():
                for old, (__, new) in zip(olds, items):
                    if old[index] != new[index]:
                        retire(column, old[index])
                        absorb(column, new[index])
            for (key, new), new_key in zip(items, new_keys):
                del live[key]
                live[new_key] = new
        else:
            keys = [key for key, __ in pick(live, chosen)]
            olds = [table.fetch(key) for key in keys]
            table.delete_many(keys)
            expected["row_count"] -= len(keys)
            for index, column in columns.items():
                for old in olds:
                    retire(column, old[index])
            for key in keys:
                del live[key]
        assert plain(stats["state"]) == plain(expected)
    # A rebuild folds the stored records a batch at a time, across batches.
    pairs = list(live.items())
    derived = copy.deepcopy(stats)
    derived["state"] = {"row_count": len(pairs), "columns": {
        index: {"nulls": 0, "min": None, "max": None, "stale": False,
                "kmv": []} for index in columns}}
    for index, column in derived["state"]["columns"].items():
        for __, record in pairs:
            absorb(column, record[index])
    attachment = db.registry.attachment_type_by_name("statistics")
    with db.autocommit() as ctx:
        attachment._recompute(ctx, db.catalog.handle("t"), stats,
                              [pairs[:5], pairs[5:]])
    assert plain(stats["state"]) == plain(derived["state"])


# ---------------------------------------------------------------------------
# Check: a row at a time, an instance at a time within a row
# ---------------------------------------------------------------------------

CHECKS = ["f >= 0", "i > -2", "i = 0 OR 10 / i > 1", "10 / i > 1", "f",
          "NOT (s = 'a')", "area(b) < 3", "length(s) < 250"]
#: Deferred checks only queue; this one passes at commit too.
DEFERRED = "i IS NULL OR i > -9"


def first_failure(schema, checks, records):
    """``(row, evaluations, exception)`` of the first record an immediate
    check rejects, tested record by record as the per-record hook did."""
    evaluations = 0
    for row, record in enumerate(records):
        view = RecordView.from_record(record)
        for text, deferred in checks:
            if not deferred:
                try:
                    value = Predicate.parse(text, schema).expr.eval(view, {})
                except ReproError as exc:
                    return row, evaluations, exc
                if value is False:
                    return row, evaluations, CheckViolation(
                        f"c{checks.index((text, deferred))}",
                        f"record {record!r} violates CHECK ({text})")
            evaluations += 1
    return None, evaluations, None


def ints(*values):
    return [(value, None, None, None) for value in values]


@SETTINGS
@given(st.lists(st.sampled_from(CHECKS + [DEFERRED]), min_size=1, max_size=3,
                unique=True), batches, updates)
@example(["i > -2", "10 / i > 1"], ints(1, 0, -3), [])   # raises at row 1
@example(["i = 0 OR 10 / i > 1", DEFERRED], ints(0, 1),  # run raises, eval
         [(0, (-1, None, None, None))])                 # short-circuits
@example(["f >= 0", "i > -2"], [(-3, 1.0, None, None), (0, -1.0, None, None)],
         [])                                             # the second check
def test_check_vetoes_the_row_a_record_loop_vetoes(texts, batch, chosen):
    checks = [(text, text == DEFERRED) for text in texts]
    db, table = new_table()
    for position, (text, deferred) in enumerate(checks):
        db.create_attachment("t", "check", f"c{position}",
                             {"predicate": text, "deferred": deferred})
    schema, stats = db.catalog.handle("t").schema, db.services.stats
    for op in ("insert", "update"):
        if op == "insert":
            records = batch
            run = lambda: table.insert_many(batch)   # noqa: E731
        else:
            items = pick(dict(zip(keys, batch)), chosen)
            records = [new for __, new in items]
            run = lambda: table.update_many(items)   # noqa: E731
        row, evaluations, failure = first_failure(schema, checks, records)
        contents = sorted(map(repr, table.rows()))
        before = stats.snapshot()
        try:
            keys = run()
        except ReproError as exc:
            assert failure is not None, exc
            assert (type(exc), exc.batch_index, str(exc)) \
                == (type(failure), row, str(failure))
            assert sorted(map(repr, table.rows())) == contents
        else:
            assert failure is None
            deferred = sum(deferred for __, deferred in checks)
            assert stats.delta(before).get(
                "check.deferred_evaluations", 0) == deferred * len(records)
        assert stats.delta(before).get("check.evaluations", 0) == evaluations
        if failure is not None and op == "insert":
            return  # nothing stored to update


# ---------------------------------------------------------------------------
# B-tree and hash file: updates with changed and unchanged keys
# ---------------------------------------------------------------------------

#: (type, instance, key fields, unique) in creation order.
INDEXES = [("btree_index", "t_i", [0], True),
           ("btree_index", "t_sf", [2, 1], True),
           ("hash_index", "h_s", [2], False),
           ("hash_index", "h_ib", [0, 3], False)]


def key(fields, record) -> tuple:
    return index_key([record[i] for i in fields])


def entries(db) -> dict:
    """Every index instance's ``Counter`` of (index key, record key)."""
    buffer, out = db.services.buffer, {}
    for type_name, name, __, __ in INDEXES:
        state = instance(db, type_name, name)
        if type_name == "btree_index":
            pairs = ((tuple(k), v) for k, v in BTree(
                buffer, state["tree"], state["max_entries"]).range())
        else:
            pairs = ((k, v) for slot, span in enumerate(state["spans"])
                     if slot < span
                     for image in hash_index._chain(buffer,
                                                    state["buckets"][slot])
                     for k, held in image.entries.items() for v in held)
        out[name] = Counter(pairs)
    return out


def update_reference(held: dict, items) -> tuple:
    """Apply ``(old key, new key, old, new)`` items a row at a time, an
    index at a time within a row, as ``on_update`` did: ``(vetoing row,
    vetoing instance, skips, moves)``; ``held`` is updated in place."""
    skips = {name: 0 for __, name, __, __ in INDEXES}
    moves = dict.fromkeys(skips, 0)
    for row, (old_key, new_key, old, new) in enumerate(items):
        for type_name, name, fields, unique in INDEXES:
            old_index_key, new_index_key = key(fields, old), key(fields, new)
            if old_index_key == new_index_key and old_key == new_key:
                skips[name] += 1
                continue
            if type_name == "btree_index":
                if unique and None not in new_index_key \
                        and old_index_key != new_index_key \
                        and any(k == new_index_key for k, __ in +held[name]):
                    return row, name, skips, moves
                if None not in old_index_key:
                    held[name][(old_index_key, old_key)] -= 1
                if None not in new_index_key:
                    held[name][(new_index_key, new_key)] += 1
            else:
                held[name][(old_index_key, old_key)] -= 1
                held[name][(new_index_key, new_key)] += 1
            moves[name] += 1
    return None, None, skips, moves


@SETTINGS
@given(st.lists(rows, min_size=4, max_size=24),
       st.lists(updates, min_size=1, max_size=4))
@example([(i, None, "a", None) for i in range(-3, 4)],  # records move
         [[(j, (j - 3, None, "x" * 250, None)) for j in range(4)],
          [(j, (None, 1.0, "a", None)) for j in range(7)]])
def test_index_updates_leave_what_a_row_loop_leaves(initial, rounds):
    db, table = new_table(*[(type_name, name, {"columns": [
        COLUMNS[i][0] for i in fields]} | ({"unique": True} if unique else {}))
        for type_name, name, fields, unique in INDEXES])
    live = {}
    for record in initial:
        try:
            live[table.insert(record)] = record
        except UniqueViolation:
            pass
    stats = db.services.stats
    for chosen in rounds:
        if not live:
            return
        items = pick(live, chosen)
        olds = [table.fetch(old_key) for old_key, __ in items]
        # Which row a unique index vetoes does not depend on where the
        # records moved: the walk before the update keeps their keys.
        quads = [(old_key, old_key, old, new)
                 for (old_key, new), old in zip(items, olds)]
        held = entries(db)
        row, name, __, __ = update_reference(copy.deepcopy(held), quads)
        before = stats.snapshot()
        try:
            new_keys = table.update_many(items)
        except UniqueViolation as exc:
            assert (exc.batch_index, exc.attachment) == (row, name)
            assert entries(db) == held
            continue
        assert row is None
        quads = [(old_key, new_key, old, new) for (old_key, new), old, new_key
                 in zip(items, olds, new_keys)]
        row, name, skips, moves = update_reference(held, quads)
        assert row is None
        assert entries(db) == {name: +counts for name, counts in held.items()}
        delta = stats.delta(before)
        for type_name in ("btree_index", "hash_index"):
            names = [n for t, n, __, __ in INDEXES if t == type_name]
            assert delta.get(f"{type_name}.update_skips", 0) \
                == sum(skips[n] for n in names)
            assert delta.get(f"{type_name}.maintenance_ops", 0) \
                == sum(moves[n] for n in names)
        for (old_key, __), new_key in zip(items, new_keys):
            del live[old_key]
        live.update(zip(new_keys, [new for __, new in items]))
