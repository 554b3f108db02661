"""Hash index attachment: equality access, resizing, maintenance."""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro import AccessPath, Database
from repro.access import hash_index
from repro.core.hashing import stable_hash
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice
from repro.services.pages import PageView, stamp_checksum


@pytest.fixture
def hashed(db, employee):
    db.create_attachment("employee", "hash_index", "emp_hash",
                         {"columns": ["id"], "buckets": 4})
    att = db.registry.attachment_type_by_name("hash_index")
    return db, employee, att


def test_probe_returns_record_keys(hashed):
    db, employee, att = hashed
    keys = employee.fetch((3,), access_path=AccessPath(att.type_id,
                                                       "emp_hash"))
    assert [employee.fetch(k)[1] for k in keys] == ["carol"]


def test_probe_miss_returns_empty(hashed):
    db, employee, att = hashed
    assert employee.fetch((99,), access_path=AccessPath(att.type_id,
                                                        "emp_hash")) == []


def test_maintenance_on_modifications(hashed):
    db, employee, att = hashed
    ap = AccessPath(att.type_id, "emp_hash")
    employee.insert((6, "frank", "ops", 1.0))
    assert employee.fetch((6,), access_path=ap)
    key = employee.scan(where="id = 6")[0][0]
    employee.update(key, {"id": 60})
    assert employee.fetch((6,), access_path=ap) == []
    assert employee.fetch((60,), access_path=ap)
    new_key = employee.scan(where="id = 60")[0][0]
    employee.delete(new_key)
    assert employee.fetch((60,), access_path=ap) == []


def hash_instance(db, table_name, instance_name):
    att = db.registry.attachment_type_by_name("hash_index")
    return db.catalog.handle(table_name).descriptor.attachment_field(
        att.type_id)["instances"][instance_name]


def chain_of(buffer, head) -> list:
    """``(page id, image)`` of each page of the chain that starts at ``head``."""
    images = list(hash_index._chain(buffer, head))
    return list(zip([head] + [image.next_page for image in images], images))


def chain_pages(db, instance) -> dict:
    """``{first slot of a bucket: [its chain's page ids]}``."""
    return {slot: [page_id for page_id, __ in chain_of(
        db.services.buffer, instance["buckets"][slot])]
        for slot, span in enumerate(instance["spans"]) if slot < span}


def test_directory_doubles_under_load(db):
    """The directory grows: a bucket whose page fills splits, and only
    that one — the directory repeats itself when it must, no other bucket
    page is rewritten."""
    table = db.create_table("t", [("id", "INT")])
    db.create_attachment("t", "hash_index", "t_hash",
                         {"columns": ["id"], "buckets": 2})
    instance = hash_instance(db, "t", "t_hash")
    assert len(instance["buckets"]) == 2
    table.insert_many([(i,) for i in range(400)])
    assert len(instance["buckets"]) > 2
    assert db.services.stats.get("hash_index.splits") >= 2
    chains = chain_pages(db, instance)
    assert all(len(chain) == 1 for chain in chains.values())
    assert instance["pages"] == {chain[0] for chain in chains.values()}
    ap = AccessPath(db.registry.attachment_type_by_name("hash_index").type_id,
                    "t_hash")
    for i in range(400):
        assert table.fetch((i,), access_path=ap)
    # One more entry into one bucket dirties that bucket's page alone.
    db.services.buffer.flush_all()
    before = db.services.stats.get("disk.writes")
    table.insert((400,))
    db.services.buffer.flush_all()
    written = db.services.stats.get("disk.writes") - before
    assert written <= 4  # heap page, bucket page (two if it split), catalog


def test_abort_undoes_hash_maintenance(hashed):
    db, employee, att = hashed
    ap = AccessPath(att.type_id, "emp_hash")
    db.begin()
    employee.insert((7, "gina", "ops", 1.0))
    db.rollback()
    assert employee.fetch((7,), access_path=ap) == []


def test_planner_uses_hash_for_equality_only(db):
    table = db.create_table("t", [("id", "INT"), ("v", "INT")])
    table.insert_many([(i, i) for i in range(500)])
    db.create_attachment("t", "hash_index", "t_hash", {"columns": ["id"]})
    equality = db.explain("SELECT * FROM t WHERE id = 5")
    assert "hash_index" in equality["access"]["route"]
    assert db.execute("SELECT v FROM t WHERE id = 5") == [(5,)]
    ranged = db.explain("SELECT * FROM t WHERE id < 5")
    assert "hash_index" not in ranged["access"]["route"]


def test_rebuild_after_crash(hashed):
    db, employee, att = hashed
    employee.insert((8, "henk", "ops", 1.0))
    db.restart()
    ap = AccessPath(att.type_id, "emp_hash")
    assert employee.fetch((8,), access_path=ap)
    assert employee.fetch((1,), access_path=ap)


def test_multi_column_hash_key(db):
    table = db.create_table("mc", [("a", "INT"), ("b", "STRING")])
    db.create_attachment("mc", "hash_index", "mc_h",
                         {"columns": ["a", "b"]})
    table.insert((1, "x"))
    att = db.registry.attachment_type_by_name("hash_index")
    ap = AccessPath(att.type_id, "mc_h")
    assert table.fetch((1, "x"), access_path=ap)
    assert table.fetch((1, "y"), access_path=ap) == []


def test_a_low_cardinality_key_chains():
    """Eight distinct keys over 10 000 rows: no split can tell equal keys
    apart, so a bucket grows a chain of pages.  Every probe is complete,
    the index survives a restart, and deleting the rows gives the chain
    pages back."""
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT"), ("k", "INT")])
    db.create_attachment("t", "hash_index", "t_k", {"columns": ["k"]})
    instance = hash_instance(db, "t", "t_k")
    ap = AccessPath(db.registry.attachment_type_by_name("hash_index").type_id,
                    "t_k")
    empty_pages = len(instance["pages"])
    loaded = 0
    for __ in range(250):
        table.insert_many([(loaded + j, j % 8) for j in range(40)])
        loaded += 40

    def probes():
        return [len(table.fetch((k,), access_path=ap)) for k in range(8)]

    assert loaded == 10_000 == instance["nentries"]
    assert probes() == [1250] * 8
    chains = chain_pages(db, instance)
    assert max(map(len, chains.values())) > 10
    assert instance["pages"] == {page_id for chain in chains.values()
                                 for page_id in chain}
    # The directory did not grow to tell apart what it cannot.
    assert len(instance["buckets"]) <= 64
    # A single record and an update into a chained bucket work too.
    table.insert((loaded, 3))
    victim = table.scan(where="k = 4")[0][0]
    table.update(victim, {"k": 3})
    assert probes() == [1250, 1250, 1250, 1252, 1249, 1250, 1250, 1250]
    db.restart()
    assert probes() == [1250, 1250, 1250, 1252, 1249, 1250, 1250, 1250]
    assert sorted(table.fetch((3,), access_path=ap)) \
        == sorted(key for key, __ in table.scan(where="k = 3"))
    # Building over the stored rows chains as inserting them did.
    assert max(map(len, chain_pages(db, instance).values())) > 10
    allocated = db.services.disk.allocated_pages
    chained = len(instance["pages"])
    assert table.delete_where("k >= 0") == loaded + 1
    assert probes() == [0] * 8 and instance["nentries"] == 0
    assert len(instance["pages"]) == len(chain_pages(db, instance)) \
        <= max(empty_pages, len(instance["buckets"]))
    assert db.services.disk.allocated_pages \
        == allocated - (chained - len(instance["pages"]))


def test_a_nan_key_goes_with_its_record():
    """A NaN equals no other NaN, so an entry keyed by one could not be
    found to be removed: it is stored as NULL, and deleting or updating
    its record takes it away."""
    nan = float("nan")
    db = Database(page_size=1024)
    table = db.create_table("t", [("id", "INT"), ("f", "FLOAT")])
    db.create_attachment("t", "hash_index", "t_f", {"columns": ["f"]})
    instance = hash_instance(db, "t", "t_f")
    table.insert_many([(i, nan if i % 2 else float(i)) for i in range(20)])
    assert db.execute("SELECT id FROM t WHERE f = :p", {"p": nan}) == []
    assert db.execute("UPDATE t SET f = 1.0 WHERE id = 3") == 1
    assert db.execute("SELECT id FROM t WHERE f = 1.0") == [(3,)]
    assert table.delete_where("id >= 0") == 20
    assert instance["nentries"] == 0
    check_hash_file(db, instance, [])


def test_build_writes_each_bucket_once(db, monkeypatch):
    """``_build`` sizes the directory once from the entry count and hands
    the whole scan to the body ``on_insert_batch`` uses: each bucket page
    is filled by one ``insert_many`` — it used to be 4 080 page
    allocations to double 8 buckets into 2 048."""
    from repro.services.pages import PageView
    table = db.create_table("t", [("id", "INT"), ("name", "STRING")])
    table.insert_many([(i, f"n{i}") for i in range(1200)])
    fills = []
    real_fill = PageView.insert_many
    monkeypatch.setattr(
        PageView, "insert_many", lambda page, raws, *args:
        fills.append(page.page_id) or real_fill(page, raws, *args))
    allocated = db.services.stats.get("disk.allocations")
    db.create_attachment("t", "hash_index", "t_hash", {"columns": ["name"]})
    instance = hash_instance(db, "t", "t_hash")

    def check_built():
        assert instance["nentries"] == 1200
        owned = instance["pages"]
        assert owned == set(instance["buckets"])  # no chain, no split left
        filled = [page_id for page_id in fills if page_id in owned]
        assert len(filled) == len(set(filled)) <= len(owned)
        del fills[:]

    check_built()
    assert db.services.stats.get("disk.allocations") - allocated \
        <= len(instance["buckets"]) + 2  # + the catalog's own
    # 1 200 entries of ~30 bytes fill 64 one-kilobyte pages to ~60 %.
    assert len(instance["buckets"]) == 64
    db.restart()
    check_built()
    att = db.registry.attachment_type_by_name("hash_index")
    ap = AccessPath(att.type_id, "t_hash")
    assert all(table.fetch((f"n{i}",), access_path=ap) for i in range(1200))
    assert db.services.stats.get("hash_index.builds") == 2
    assert db.services.stats.get("hash_index.rebuilds") == 1


# ---------------------------------------------------------------------------
# A stateful machine: the hash file against a dict, on a pool that evicts
# ---------------------------------------------------------------------------

def shadow_pool(db) -> BufferPool:
    """A pool of its own over the device's pages overlaid with the resident
    frames: what the bytes say, read without touching the pool under test."""
    device = db.services.disk
    shadow = BlockDevice(page_size=device.page_size)
    shadow._pages = dict(device._pages)
    for page_id, frame in db.services.buffer._frames.items():
        data = bytearray(frame.data)
        stamp_checksum(data)
        shadow._pages[page_id] = bytes(data)
    return BufferPool(shadow, capacity=256)


def check_hash_file(db, instance, expected_pairs):
    """The invariants of the hash file, from its bytes alone."""
    pool = db.services.buffer
    for page_id, frame in pool._frames.items():
        if isinstance(frame.image, hash_index._Bucket):
            fresh = hash_index._Bucket.load(PageView(page_id, frame.data))
            assert (frame.image.entries, frame.image.next_page) \
                == (fresh.entries, fresh.next_page), page_id
    assert all(pool.pin_count(page_id) == 0 for page_id in pool._frames)
    buckets, spans = instance["buckets"], instance["spans"]
    assert len(buckets) == len(spans)
    shadow, pairs, owned = shadow_pool(db), [], set()
    for slot, span in enumerate(spans):
        assert len(buckets) % span == 0
        assert buckets[slot] == buckets[slot % span]
        assert spans[slot] == spans[slot % span]
        if slot >= span:
            continue
        chain = chain_of(shadow, buckets[slot])
        assert not owned & {page_id for page_id, __ in chain}
        owned.update(page_id for page_id, __ in chain)
        for __, image in chain[1:] if len(chain) > 1 else ():
            assert image.entries  # an emptied chain page went back
        for __, image in chain:
            for key, held in image.entries.items():
                # in exactly the chain its stable hash selects
                assert hash_index._hash(key) % span == slot
                assert hash_index._hash(key) == stable_hash(
                    [float(v) if isinstance(v, int) else v for v in key])
                pairs.extend((key, value) for value in held)
    assert sorted(pairs) == sorted(expected_pairs)
    assert instance["nentries"] == len(pairs)
    assert owned == instance["pages"]
    device = db.services.disk
    assert not owned & set(device._free) and not owned & device._freed
    assert all(device.exists(page_id) for page_id in owned)


class HashFileMachine(RuleBasedStateMachine):
    """insert / insert_many / delete / delete_many / an update that moves
    the key / fetch / full scan on a heap with a hash index on a
    low-cardinality column, against ``{id: k}``; a pool of 4-8 frames so
    chains and images are evicted, pages of 512-1 024 bytes so tens of
    entries split and chain; each change may run in a transaction that
    aborts or under a savepoint that is rolled back; flushes, crashes."""

    ks = st.integers(0, 3) | st.integers(0, 60)

    def __init__(self):
        super().__init__()
        self.model = {}      # id -> k, committed
        self.serial = 0

    @initialize(capacity=st.integers(4, 8),
                page_size=st.sampled_from([512, 768, 1024]),
                buckets=st.integers(1, 5))
    def build(self, capacity, page_size, buckets):
        self.db = Database(page_size=page_size, buffer_capacity=capacity)
        self.table = self.db.create_table("t", [("id", "INT"), ("k", "INT")])
        self.db.create_attachment("t", "hash_index", "t_k",
                                  {"columns": ["k"], "buckets": buckets})
        self.instance = hash_instance(self.db, "t", "t_k")
        self.ap = AccessPath(self.db.registry.attachment_type_by_name(
            "hash_index").type_id, "t_k")

    def change(self, how, body, result):
        """Run ``body()``: committed (``result`` then updates the model),
        in a transaction that aborts, or under a savepoint rolled back."""
        if how == "commit":
            body()
            result()
            return
        self.db.begin()
        if how == "savepoint":
            self.db.savepoint("sp")
            body()
            self.db.rollback_to("sp")
            self.db.commit()
        else:
            body()
            self.db.rollback()

    hows = st.sampled_from(["commit", "commit", "abort", "savepoint"])

    @rule(ks=st.lists(ks, min_size=1, max_size=8)
          | st.lists(ks, min_size=25, max_size=60), how=hows)
    def insert_many(self, ks, how):
        rows = [(self.serial + i, k) for i, k in enumerate(ks)]
        self.serial += len(rows)
        self.change(how, lambda: self.table.insert_many(rows),
                    lambda: self.model.update(rows))

    @rule(k=st.integers(0, 3), count=st.integers(17, 50), how=hows)
    def insert_a_run_of_one_key(self, k, count, how):
        self.insert_many([k] * count, how)

    @rule(k=ks, how=hows)
    def insert(self, k, how):
        row = (self.serial, k)
        self.serial += 1
        self.change(how, lambda: self.table.insert(row),
                    lambda: self.model.update([row]))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), how=hows)
    def delete(self, data, how):
        row_id = data.draw(st.sampled_from(sorted(self.model)))
        self.change(how, lambda: self.table.delete_where(
            "id = :i", {"i": row_id}), lambda: self.model.pop(row_id))

    @rule(k=ks, how=hows)
    def delete_many(self, k, how):
        doomed = [i for i, held in self.model.items() if held == k]
        deleted = []
        self.change(how, lambda: deleted.append(self.table.delete_where(
            "k = :k", {"k": k})), lambda: [self.model.pop(i) for i in doomed])
        assert deleted == [len(doomed)]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), k=ks, how=hows)
    def update_moves_the_key(self, data, k, how):
        row_id = data.draw(st.sampled_from(sorted(self.model)))
        self.change(how, lambda: self.table.update_where(
            "id = :i", {"k": k}, {"i": row_id}),
            lambda: self.model.update([(row_id, k)]))

    @rule(k=ks)
    def fetch(self, k):
        keys = self.table.fetch((k,), access_path=self.ap)
        assert len(keys) == len(set(keys))
        assert sorted(self.table.fetch(key)[0] for key in keys) \
            == sorted(i for i, held in self.model.items() if held == k)

    @rule(batch=st.sampled_from([1, 3, 64]))
    def full_scan(self, batch):
        att = self.db.registry.attachment_type_by_name("hash_index")
        with self.db.autocommit() as ctx:
            scan = att.open_scan(ctx, self.db.catalog.handle("t"),
                                 self.instance)
            got = []
            while True:
                items = scan.next_batch(batch)
                if not items:
                    break
                # Each item is (record key, the index key (k,)).
                got.extend((index_key[0], self.table.fetch(key)[0])
                           for key, index_key in items)
        assert sorted(got) == sorted((k, i) for i, k in self.model.items())

    @rule()
    def flush_all(self):
        self.db.services.buffer.flush_all()

    @rule()
    def crash_and_restart(self):
        self.db.restart()

    @invariant()
    def the_file_is_what_the_model_says(self):
        if not hasattr(self, "db"):
            return
        stored = self.table.scan()
        assert sorted(record for __, record in stored) \
            == sorted(self.model.items())
        check_hash_file(self.db, self.instance,
                        [((record[1],), key) for key, record in stored])


HashFileMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None,
    suppress_health_check=list(HealthCheck))
test_property_hash_file_matches_its_model = HashFileMachine.TestCase


# ---------------------------------------------------------------------------
# Placement does not depend on the process: stable_hash, not hash()
# ---------------------------------------------------------------------------

DETERMINISM_SCRIPT = """
import json
from repro import Database
db = Database(page_size=1024)
table = db.create_table("t", [("id", "INT"), ("name", "STRING")])
table.insert_many([(i, f"name_{i}") for i in range(600)])
db.create_attachment("t", "hash_index", "t_name", {"columns": ["name"]})
for start in range(600, 1500, 300):
    table.insert_many([(i, f"name_{i}") for i in range(start, start + 300)])
table.delete_where("id >= 200 AND id < 500")
table.update_where("id = 7", {"name": "renamed"})
db.restart()
att = db.registry.attachment_type_by_name("hash_index")
instance = db.catalog.handle("t").descriptor.attachment_field(
    att.type_id)["instances"]["t_name"]
print(json.dumps({"directory": instance["buckets"],
                  "pages": sorted(instance["pages"]),
                  "pins": db.services.stats.get("buffer.pins"),
                  "device_pages": db.services.disk.allocated_pages}))
"""


def test_placement_is_the_same_under_any_hash_seed():
    """Two processes with different ``PYTHONHASHSEED`` build the same
    index over the same rows: the same directory, pin for pin and page
    for page (with the salted builtin ``hash()`` they differed)."""
    import json
    import os
    import subprocess
    import sys
    reports = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + sys.path))
        done = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        reports.append(json.loads(done.stdout))
    assert reports[0] == reports[1]
    assert len(reports[0]["directory"]) > 8


@pytest.mark.parametrize("kind", [None, "btree_index", "hash_index"])
def test_a_bytearray_probe_answers_as_a_scan_does(kind):
    """A ``bytearray`` equals the ``bytes`` a BYTES field holds, as a
    probe value and as the value a record was inserted with."""
    db = Database()
    table = db.create_table("t", [("a", "INT"), ("b", "BYTES")])
    table.insert_many([(i, bytes([i])) for i in range(50)])
    if kind is not None:
        db.create_index("t_b", "t", ["b"], kind=kind)
        assert "t_b" in db.explain("SELECT a FROM t WHERE b = :p")[
            "access"]["route"]
    table.insert((99, bytearray(b"zz")))
    query = "SELECT a FROM t WHERE b = :p"
    assert db.execute(query, {"p": bytearray(b"\x05")}) == [(5,)]
    assert db.execute(query, {"p": b"zz"}) == [(99,)]
    assert db.execute(query, {"p": bytearray(b"zz")}) == [(99,)]
