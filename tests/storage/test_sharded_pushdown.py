"""Cross-shard query pushdown: equivalence matrix, gating, fallback,
failover, and the lazy merged scan."""

import pytest

from repro import Database
from repro.access.statistics import kmv_union, kmv_union_estimate
from repro.core.context import ExecutionContext
from repro.core.hashing import stable_hashes
from repro.errors import (FencingError, GatewayError, InjectedFault,
                          QueryError, StorageError)

from ..query.test_rollup import join_path

DEPTS = 4


def make_emp(shards=2, **attributes):
    db = Database(page_size=1024)
    attrs = {"shards": shards}
    attrs.update(attributes)
    db.create_table("emp",
                    [("id", "INT"), ("dept", "STRING"), ("pay", "INT")],
                    storage_method="sharded", attributes=attrs)
    return db, db.table("emp")


def fill(table, n=30):
    """NULL-heavy fill: every third ``pay`` is NULL."""
    table.insert_many([
        (i, f"d{i % DEPTS}", None if i % 3 == 0 else i * 10)
        for i in range(n)])


def both_paths(db, statement, params=None):
    """(pushdown result, pull-up result) for one statement."""
    executor = db.query_engine.executor
    executor.pushdown_enabled = True
    push = db.execute(statement, params)
    executor.pushdown_enabled = False
    pull = db.execute(statement, params)
    executor.pushdown_enabled = True
    return push, pull


def assert_equivalent(db, statement, params=None):
    push, pull = both_paths(db, statement, params)
    assert push == pull
    # bit-identical, not merely ==: 5 vs 5.0 must not slip through
    assert repr(push) == repr(pull)
    return push


# -- the equivalence matrix ---------------------------------------------------------

MATRIX = [
    ("SELECT * FROM emp", None),
    ("SELECT id, pay FROM emp", None),
    ("SELECT * FROM emp WHERE pay > 40", None),
    ("SELECT id FROM emp WHERE dept = 'd1'", None),
    ("SELECT COUNT(*) FROM emp", None),
    ("SELECT COUNT(pay) FROM emp", None),
    ("SELECT SUM(pay) FROM emp", None),
    ("SELECT AVG(pay) FROM emp", None),
    ("SELECT MIN(pay), MAX(pay) FROM emp", None),
    ("SELECT COUNT(*), SUM(pay), AVG(pay), MIN(id), MAX(id) "
     "FROM emp WHERE id >= 6", None),
    ("SELECT COUNT(*) FROM emp WHERE pay > :p", {"p": 40}),
    ("SELECT dept, COUNT(*) FROM emp GROUP BY dept", None),
    ("SELECT dept, SUM(pay), AVG(pay) FROM emp GROUP BY dept", None),
    ("SELECT dept, COUNT(pay), MIN(pay), MAX(pay) FROM emp "
     "GROUP BY dept", None),
    ("SELECT * FROM emp ORDER BY id LIMIT 5", None),
    ("SELECT id, dept FROM emp ORDER BY id DESC LIMIT 7", None),
    ("SELECT * FROM emp ORDER BY dept LIMIT 9", None),  # heavy ties
    ("SELECT * FROM emp ORDER BY dept, id DESC", None),
    ("SELECT SUM(pay) FROM emp WHERE pay > 100000", None),  # empty
]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_pushdown_matches_pullup_bit_for_bit(shards):
    db, table = make_emp(shards=shards)
    fill(table, 30)
    for statement, params in MATRIX:
        assert_equivalent(db, statement, params)
    assert db.services.stats.get("sharded.pushdown.queries") > 0


@pytest.mark.parametrize("shards", [1, 3])
def test_order_by_a_nullable_column_pushes_down(shards):
    """NULL is the greatest value on both paths (it used to be a
    ``TypeError`` in the children's sort and in the coordinator's merge)."""
    db, table = make_emp(shards=shards)
    fill(table, 30)
    pays = sorted(i * 10 for i in range(30) if i % 3)
    for statement, expected in [
            ("SELECT pay FROM emp ORDER BY pay LIMIT 25",
             pays + [None] * 5),
            ("SELECT pay FROM emp ORDER BY pay DESC LIMIT 12",
             [None] * 10 + pays[:-3:-1]),
            ("SELECT * FROM emp ORDER BY pay DESC, id", None),
            ("SELECT id, pay FROM emp ORDER BY dept, pay LIMIT 20", None)]:
        push = assert_equivalent(db, statement)
        if expected is not None:
            assert [row[0] for row in push] == expected


def test_aggregate_pushdown_ships_one_partial_row_per_shard():
    db, table = make_emp(shards=4)
    fill(table, 120)
    stats = db.services.stats
    before_rows = stats.get("fragment.rows")
    before_messages = stats.get("remote.messages")
    push = db.execute("SELECT COUNT(*), SUM(pay) FROM emp")
    wire_rows = stats.get("fragment.rows") - before_rows
    messages = stats.get("remote.messages") - before_messages
    assert wire_rows == 4          # one partial state per shard
    assert messages == 4           # the whole fragment is one call/shard
    executor = db.query_engine.executor
    executor.pushdown_enabled = False
    before_scanned = stats.get("remote.tuples_scanned")
    pull = db.execute("SELECT COUNT(*), SUM(pay) FROM emp")
    executor.pushdown_enabled = True
    assert push == pull
    assert stats.get("remote.tuples_scanned") - before_scanned == 120


def test_grouped_pushdown_ships_groups_not_rows():
    db, table = make_emp(shards=4)
    fill(table, 120)
    stats = db.services.stats
    before = stats.get("fragment.rows")
    db.execute("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
    wire_rows = stats.get("fragment.rows") - before
    assert 0 < wire_rows <= 4 * DEPTS < 120
    assert stats.get("sharded.pushdown.queries") >= 1


def test_per_shard_fragment_counters_are_namespaced():
    db, table = make_emp(shards=2)
    fill(table, 20)
    db.execute("SELECT COUNT(*) FROM emp")
    stats = db.services.stats
    per_shard = (stats.get("shard.0.fragment.calls")
                 + stats.get("shard.1.fragment.calls"))
    assert stats.get("fragment.calls") == per_shard == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_kth_message_of_a_pushed_statement_goes_to_shard_k_minus_1(k):
    """Fragments leave in shard order on one thread: losing the k-th
    message loses shard k-1's, and a second run loses the same one, moves
    the same counters and returns the same answer."""
    statement = "SELECT dept, COUNT(*), SUM(pay) FROM emp GROUP BY dept"

    def run():
        db, table = make_emp(shards=4)
        fill(table, 40)
        expected = db.execute(statement)
        before = db.services.stats.snapshot()
        db.services.faults.arm("shard.remote_call", error=GatewayError,
                               nth=k)
        result = db.execute(statement)
        moved = {name: amount for name, amount
                 in db.services.stats.delta(before).items()
                 if not name.endswith("fragment.micros")}  # wall clock
        return expected, result, moved

    expected, result, moved = run()
    assert result == expected
    assert {name for name in moved if name.endswith("retry.attempts")} == {
        "remote.gateway.retry.attempts",
        f"shard.{k - 1}.remote.gateway.retry.attempts"}
    assert moved["faults.injected.shard.remote_call"] == 1
    assert moved["remote.messages"] == 4  # the lost one was never charged
    assert moved["sharded.pushdown.queries"] == 1
    assert run() == (expected, result, moved)


# -- gating -------------------------------------------------------------------------

def test_ordered_children_gate_pushdown_off():
    db = Database(page_size=1024)
    db.create_table("kv", [("k", "INT"), ("v", "STRING")],
                    storage_method="sharded",
                    attributes={"shards": 3, "child_storage": "btree_file",
                                "child_attributes": {"key": ["k"]}})
    db.table("kv").insert_many([(v, f"v{v}") for v in
                                (731, 17, 502, 88, 256, 913)])
    assert_equivalent(db, "SELECT COUNT(*) FROM kv")
    stats = db.services.stats
    assert stats.get("sharded.pushdown.gated_off") >= 1
    assert stats.get("sharded.pushdown.queries") == 0


def test_full_scan_without_limit_is_not_pushed():
    db, table = make_emp(shards=2)
    fill(table, 20)
    before = db.services.stats.get("sharded.pushdown.queries")
    assert_equivalent(db, "SELECT * FROM emp")
    assert db.services.stats.get("sharded.pushdown.queries") == before


def test_child_statistics_feed_group_gating_with_kmv_union():
    db, table = make_emp(shards=4, child_statistics=True)
    fill(table, 60)
    assert_equivalent(db, "SELECT dept, COUNT(*) FROM emp GROUP BY dept")
    stats = db.services.stats
    assert stats.get("sharded.pushdown.kmv_unions") >= 1
    assert stats.get("sharded.pushdown.queries") >= 1


def test_child_statistics_refused_with_replicas():
    with pytest.raises(StorageError):
        make_emp(shards=2, child_statistics=True, replicas=1)


def test_kmv_union_estimates_global_distinct():
    sketches = [kmv_union([stable_hashes(range(shard * 10, shard * 10 + 10))])
                for shard in range(4)]
    assert kmv_union_estimate(sketches) == 40  # under K: exact
    assert kmv_union_estimate([sketches[0], sketches[0]]) == 10  # dedup
    assert kmv_union([]) == []
    big = [kmv_union([stable_hashes(range(shard * 1000, shard * 1000 + 500))])
           for shard in range(4)]
    assert 1400 <= kmv_union_estimate(big) <= 2600  # 2000 distinct


# -- fail-closed fallback -----------------------------------------------------------

def test_dead_shard_without_replicas_fails_closed():
    db, table = make_emp(shards=2)
    fill(table, 20)
    db.services.faults.arm("shard.1.primary", error=GatewayError, nth=1,
                           one_shot=False)
    with pytest.raises(GatewayError):
        db.execute("SELECT COUNT(*) FROM emp")
    stats = db.services.stats
    assert stats.get("sharded.pushdown.fallbacks") >= 1
    assert stats.get("executor.pushdown.fallbacks") >= 1


def test_dead_shard_with_degraded_reads_matches_pullup_partial_answer():
    db, table = make_emp(shards=2, degraded_reads=True)
    fill(table, 20)
    db.services.faults.arm("shard.1.primary", error=GatewayError, nth=1,
                           one_shot=False)
    push, pull = both_paths(db, "SELECT COUNT(*) FROM emp")
    assert push == pull
    assert push[0][0] < 20  # genuinely partial: shard 1 contributed nothing
    assert db.services.stats.get("remote.degraded_fragments") >= 1


def test_injected_fault_mid_fragment_falls_back_to_pullup():
    db, table = make_emp(shards=2)
    fill(table, 20)
    expected = db.execute("SELECT SUM(pay) FROM emp")
    # Default InjectedFault is not a GatewayError: no retry, no failover —
    # the fragment aborts whole and the pull-up path recomputes.
    db.services.faults.arm("shard.1.remote_call", nth=1)
    result = db.execute("SELECT SUM(pay) FROM emp")
    assert result == expected
    stats = db.services.stats
    assert stats.get("sharded.pushdown.fallbacks") == 1
    assert stats.get("executor.pushdown.fallbacks") == 1


ROLLUP = ("SELECT dept_info.zone, COUNT(*), SUM(emp.pay), AVG(emp.pay) "
          "FROM emp JOIN dept_info ON emp.dept = dept_info.dept "
          "GROUP BY zone")


#: Enough rows that, without statistics, the √n keys the gate assumes
#: leave over 16 rows per key.
ROLLUP_ROWS = 400


def with_dimension(db):
    """``dept_info`` (a heap): departments d0-d3 in zones 0, 1, 0, 1."""
    db.create_table("dept_info", [("dept", "STRING"), ("zone", "INT")]
                    ).insert_many([(f"d{i}", i % 2) for i in range(DEPTS)])
    return db


def test_kernel_fault_in_a_rollup_is_the_statements_query_error():
    """Pulled up, the partial groups are the coordinator's program (a
    pushed-down one runs in the children, under their own faults)."""
    db, table = make_emp(shards=2)
    fill(table, ROLLUP_ROWS)
    expected = with_dimension(db).execute(ROLLUP)
    db.query_engine.executor.pushdown_enabled = False
    db.services.faults.arm("columnar.kernel", nth=1)
    with pytest.raises(QueryError) as caught:
        db.execute(ROLLUP)
    assert isinstance(caught.value.__cause__, InjectedFault)
    assert db.execute(ROLLUP) == expected
    assert db.services.stats.get("executor.rollups") == 3


def test_fault_mid_rollup_fragment_falls_back_to_pullup_of_the_partial():
    db, table = make_emp(shards=2)
    fill(table, ROLLUP_ROWS)
    expected = with_dimension(db).execute(ROLLUP)
    assert expected == join_path(db, ROLLUP)[0]
    db.services.faults.arm("shard.1.remote_call", nth=1)
    stats = db.services.stats
    before = stats.snapshot()
    assert db.execute(ROLLUP) == expected
    delta = stats.delta(before)
    assert delta.get("executor.rollups") == 1
    assert delta.get("sharded.pushdown.fallbacks") == 1
    assert delta.get("executor.pushdown.fallbacks") == 1


def test_dead_shard_with_degraded_reads_rolls_up_the_join_partial_answer():
    db, table = make_emp(shards=2, degraded_reads=True)
    fill(table, ROLLUP_ROWS)
    with_dimension(db)
    db.services.faults.arm("shard.1.primary", error=GatewayError, nth=1,
                           one_shot=False)
    rolled = db.execute(ROLLUP)
    assert rolled == join_path(db, ROLLUP)[0]
    assert 0 < sum(count for __, count, __s, __a in rolled) < ROLLUP_ROWS
    stats = db.services.stats
    assert stats.get("executor.rollups") == 1
    assert stats.get("remote.degraded_fragments") >= 1


def test_fencing_error_falls_back_instead_of_failing_over():
    db, table = make_emp(shards=2)
    fill(table, 20)
    expected = db.execute("SELECT COUNT(*) FROM emp")
    db.services.faults.arm("shard.0.remote_call", error=FencingError, nth=1)
    result = db.execute("SELECT COUNT(*) FROM emp")
    assert result == expected
    assert db.services.stats.get("sharded.pushdown.fallbacks") == 1


def test_fragment_fails_over_to_standby_when_primary_dies():
    db, table = make_emp(shards=2, replicas=1)
    fill(table, 20)
    db.services.faults.arm("shard.1.primary", error=GatewayError, nth=1,
                           one_shot=False)
    result = db.execute("SELECT COUNT(*) FROM emp")
    assert result == [(20,)]  # the standby served shard 1 in full
    stats = db.services.stats
    assert stats.get("repl.stale_reads") >= 1
    assert stats.get("sharded.pushdown.queries") >= 1
    assert stats.get("sharded.pushdown.fallbacks") == 0


# -- the lazy merged scan -----------------------------------------------------------

def _ordered_kv(values):
    db = Database(page_size=1024)
    db.create_table("kv", [("k", "INT"), ("v", "STRING")],
                    storage_method="sharded",
                    attributes={"shards": 3, "child_storage": "btree_file",
                                "child_attributes": {"key": ["k"]}})
    db.table("kv").insert_many([(v, f"v{v}") for v in values])
    return db


def test_merged_scan_is_batch_pulled():
    values = [731, 17, 502, 88, 256, 913, 64, 401, 5, 620]
    db = _ordered_kv(values)
    got = [record[0] for __, record in db.table("kv").scan()]
    assert got == sorted(values)
    stats = db.services.stats
    assert stats.get("sharded.merged_scans") == 1
    assert stats.get("sharded.merge.batches") >= 1


def test_merged_scan_replays_deterministically_on_position_restore():
    values = [731, 17, 502, 88, 256, 913, 64, 401, 5, 620]
    db = _ordered_kv(values)
    txn = db.services.transactions.begin()
    ctx = ExecutionContext(txn, db.services, db)
    try:
        handle = db.catalog.handle("kv")
        method = db.registry.storage_method(
            handle.descriptor.storage_method_id)
        scan = method.open_scan(ctx, handle, None, None)
        first = scan.next_batch(4)
        saved = scan.save_position()
        second = scan.next_batch(4)
        scan.restore_position(saved)
        assert scan.next_batch(4) == second  # backward seek replays
        rest = scan.next_batch(10)
        got = [record[0] for __, record in first + second + rest]
        assert got == sorted(values)
        assert db.services.stats.get("sharded.merge.batches") >= 4
    finally:
        db.services.transactions.abort(txn)


# -- the foreign gateway ------------------------------------------------------------

def _foreign_pair(n=30):
    remote = Database(page_size=1024)
    schema = [("id", "INT"), ("dept", "STRING"), ("pay", "INT")]
    remote.create_table("emp", schema)
    remote.table("emp").insert_many([
        (i, f"d{i % DEPTS}", None if i % 3 == 0 else i * 10)
        for i in range(n)])
    local = Database(page_size=1024)
    local.create_table("emp", schema, storage_method="foreign",
                       attributes={"database": remote, "relation": "emp"})
    return local, remote


def test_foreign_pushdown_runs_the_whole_query_remotely():
    local, remote = _foreign_pair(30)
    assert_equivalent(local,
                      "SELECT dept, COUNT(*), SUM(pay) FROM emp "
                      "GROUP BY dept")
    assert_equivalent(local, "SELECT * FROM emp ORDER BY id DESC LIMIT 5")
    stats = local.services.stats
    assert stats.get("foreign.pushdown.queries") >= 2
    assert stats.get("foreign.fragment.rows") < 30


def test_foreign_pushdown_falls_back_on_gateway_failure():
    local, remote = _foreign_pair(30)
    expected = local.execute("SELECT COUNT(*) FROM emp")
    local.services.faults.arm("foreign.remote_call", error=GatewayError,
                              nth=1)
    result = local.execute("SELECT COUNT(*) FROM emp")
    assert result == expected
    assert local.services.stats.get("foreign.pushdown.fallbacks") >= 0
