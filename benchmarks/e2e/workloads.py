"""The five workloads: one configuration of the system each.

Every workload is a closed loop driven by one client thread.  A workload
is built (``build``: construct, DDL, load, warm-up — what ``setup_s``
times), then runs *rounds* of fixed op counts until the run's time is up,
then ``finish``es with crash-restarts and an audit of the whole table
against its model.

A round has two sections:

* ``native`` — the traffic the workload exists for (see ``why``).  Only
  this section feeds ``ops_per_s`` and the per-layer trace.
* ``probes`` — a thin slice of every operation class the native traffic
  lacks, run against the same configuration, so that each end-to-end
  metric has a value on each workload (the contract in BENCHMARK.json
  needs every metric everywhere).  A probe cell reads as "what this
  class of operation costs on this configuration".

Every answer is checked against a plain dict/list model kept here; a
mismatch or an unexpected exception is a failed operation.

Data sizes are constants (``--scale`` multiplies op counts, never a
size).  They are the issue's sizes scaled by 0.4 so that three timed
builds, the measured phase and three restarts of one workload fit the
driver's budget of about 30 s a run.
"""

from __future__ import annotations

from collections import deque
from math import isclose
from typing import Dict, List

from repro import CheckViolation, Database

from . import datagen as dg

EMPLOYEE = [("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
            ("salary", "FLOAT"), ("active", "BOOL")]
DEPARTMENT = [("dept", "STRING"), ("floor", "INT")]
#: Returned by ``Recorder.call`` when the operation raised.
FAILED = object()

SELECT_BY_ID = "SELECT * FROM employee WHERE id = :id"
INSERT_ROW = ("INSERT INTO employee VALUES "
              "(:id, :name, :dept, :salary, :active)")
UPDATE_SALARY = "UPDATE employee SET salary = :salary WHERE id = :id"
DELETE_BY_ID = "DELETE FROM employee WHERE id = :id"


def close(a, b) -> bool:
    """Equality that forgives the last bits of a float aggregate."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isclose(a, b, rel_tol=1e-9)
    return a == b


def employee_shape_sql(lo=None, hi=None) -> Dict[str, str]:
    """The four read-only shapes over ``employee``; ``lo``/``hi`` (ints
    or ``:param`` names) restrict them to an id range."""
    def within(column: str, lead: str) -> str:
        if lo is None:
            return ""
        return f"{lead}{column} >= {lo} AND {column} < {hi}"
    return {
        "scan": "SELECT id, name FROM employee WHERE salary > :s AND active"
                + within("id", " AND "),
        "group": "SELECT dept, COUNT(*), AVG(salary), MAX(salary) "
                 "FROM employee" + within("id", " WHERE ")
                 + " GROUP BY dept",
        "join": "SELECT department.floor, COUNT(*), AVG(employee.salary) "
                "FROM employee JOIN department "
                "ON employee.dept = department.dept"
                + within("employee.id", " WHERE ") + " GROUP BY floor",
        "topk": "SELECT id, salary FROM employee" + within("id", " WHERE ")
                + " ORDER BY salary DESC LIMIT 10",
    }


def grouped(rows, key_of, value_of) -> Dict[object, list]:
    """``key -> [count, sum, max]`` over ``rows``."""
    groups: Dict[object, list] = {}
    for row in rows:
        value = value_of(row)
        group = groups.get(key_of(row))
        if group is None:
            groups[key_of(row)] = [1, value, value]
        else:
            group[0] += 1
            group[1] += value
            if value > group[2]:
                group[2] = value
    return groups


def rolled_up(groups: Dict[object, list], parent: Dict) -> Dict[object, list]:
    """Fold ``key -> [count, sum, ...]`` through the dimension table."""
    out: Dict[object, list] = {}
    for key, (count, total, __) in groups.items():
        acc = out.setdefault(parent[key], [0, 0])
        acc[0] += count
        acc[1] += total
    return out


class Untimed:
    """Stands in for the recorder during set-up: the same code path
    loads and warms a workload, timing and checking nothing."""

    last = 0.0

    def call(self, cls, fn, *args, op=True):
        return fn(*args)

    def check(self, got, accept, what) -> None:
        pass

    def bulk(self, result, rows) -> None:
        pass

    def wrote(self, rows) -> None:
        pass

    def sample(self, cls, seconds) -> None:
        pass


class Workload:
    """Base: sizing, shared probes, restart and audit plumbing."""

    name = ""
    why = ""
    #: What one round takes on the baseline container; with ``--seconds``
    #: it fixes how many rounds a run does.
    ROUND_S = 1.0
    RESTART_BUDGET_S = 1.5

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.rng = dg.stream(seed, self.name)
        self.db: Database = None

    def n(self, count: int) -> int:
        """An op count under ``--scale`` (never below one)."""
        return max(1, round(count * self.scale))

    # -- the interface the harness drives -----------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def native(self, rec) -> None:
        raise NotImplementedError

    def probes(self, rec) -> None:
        raise NotImplementedError

    def audit(self, rec) -> None:
        raise NotImplementedError

    def live_rows(self) -> int:
        raise NotImplementedError

    def sample_rows(self) -> tuple:
        """``(schema, rows)`` for the record encode/decode micro-timing."""
        raise NotImplementedError

    def databases(self) -> List[Database]:
        """Every database instance whose counters and layers belong to
        this workload (a sharded one adds its children and standbys)."""
        return [self.db]

    def before_crash(self) -> None:
        """Hook: work an orderly client does before the audit's crash."""

    def checkpoint(self) -> None:
        """A sharp checkpoint of every database that will be crashed."""
        self.db.checkpoint("sharp")

    def restart(self) -> dict:
        return self.db.restart()

    def finish(self, rec, timed, restarts: int = 3) -> List[float]:
        """Crash and restart at least ``restarts`` times (the log is
        replayed from the same point each time; ``timed(fn)`` returns
        what one took), then audit every table against the model: every
        acknowledged write present, every delete absent.  A restart that
        takes milliseconds is repeated more often — up to five times as
        often, within ``RESTART_BUDGET_S`` — because a median of three
        short timings is not steady."""
        self.before_crash()
        times: List[float] = []
        while len(times) < restarts or (
                sum(times) < self.RESTART_BUDGET_S
                and len(times) < 5 * restarts):
            times.append(timed(self.restart))
        self.audit(rec)
        return times

    # -- probes shared by several workloads -----------------------------------
    def probe_writes(self, rec, table, row, change: dict) -> None:
        """Single-row insert, update and delete of one scratch row.  One
        ``point_write`` sample is the mean of the three: a median over
        three kinds of call with different costs would sit on the edge
        between two of them and jump."""
        key = rec.call("insert", table.insert, row)
        if key is FAILED:
            return
        total = rec.last
        moved = rec.call("update", table.update, key, change)
        total += rec.last
        gone = rec.call("delete", table.delete,
                        key if moved is FAILED else moved)
        if moved is not FAILED and gone is not FAILED:
            rec.sample("point_write", (total + rec.last) / 3)
        rec.wrote(3)

    def probe_txn(self, rec, session, table, rows) -> None:
        """One explicit multi-statement transaction: begin, two inserts,
        commit — then the rows are removed again."""
        def unit():
            session.begin()
            try:
                keys = [table.insert(row) for row in rows]
                session.commit()
                return keys
            except Exception:
                if session.in_transaction:
                    session.rollback()
                raise
        keys = rec.call("txn", unit)
        if keys is not FAILED:
            rec.call("cleanup", table.delete_many, keys)
            rec.wrote(2 * len(rows))

    def probe_bulk(self, rec, table, rows) -> None:
        """One set-at-a-time insert and the matching delete."""
        keys = rec.call("bulk", table.insert_many, rows)
        rec.bulk(keys, len(rows))
        if keys is not FAILED:
            rec.bulk(rec.call("bulk", table.delete_many, keys), len(rows))


class EmployeeWorkload(Workload):
    """Shared by the three workloads over the ``employee`` heap."""

    EMPLOYEES = 8000

    def load_employee(self, db: Database, count: int):
        table = db.create_table("employee", EMPLOYEE)
        db.create_table("department", DEPARTMENT).insert_many(
            dg.department_rows())
        rows = dg.employee_rows(self.rng, count)
        for start in range(0, count, 1000):
            table.insert_many(rows[start:start + 1000])
        self.model = {row[0]: row for row in rows}
        self.base_n = count
        self.next_id = count
        self.threshold = dg.salary_threshold(self.EMPLOYEES)
        self.session = db.connect()
        self.table = self.session.table("employee")

    def fresh(self, count: int) -> List[tuple]:
        rows = [dg.fresh_employee(i)
                for i in range(self.next_id, self.next_id + count)]
        self.next_id += count
        return rows

    def run_shapes(self, rec, sql: Dict[str, str], params: dict,
                   lo: int = None, hi: int = None) -> None:
        """Run the four shapes and check each against the model rows with
        ``lo <= id < hi`` (all rows when no range is given)."""
        model = self.model
        rows = [row for row in model.values()
                if lo is None or lo <= row[0] < hi]
        by_dept = grouped(rows, lambda r: r[2], lambda r: r[3])
        by_floor = rolled_up(by_dept, dg.FLOORS)
        want = {
            "scan": {(r[0], r[1]) for r in rows
                     if r[3] > self.threshold and r[4]},
            "group": sorted((d, c, s / c, m)
                            for d, (c, s, m) in by_dept.items()),
            "join": sorted((f, c, s / c) for f, (c, s) in by_floor.items()),
            "topk": sorted((r[3] for r in rows), reverse=True)[:10],
        }
        execute = self.session.execute
        got = rec.call("scan", execute, sql["scan"], params)
        rec.check(got, lambda g: len(g) == len(want["scan"])
                  and set(g) == want["scan"], "scan")
        got = rec.call("group", execute, sql["group"], params)
        rec.check(got, lambda g: close(sorted(g), want["group"]), "group")
        got = rec.call("join", execute, sql["join"], params)
        rec.check(got, lambda g: close(sorted(g), want["join"]), "join")
        got = rec.call("topk", execute, sql["topk"], params)
        rec.check(got, lambda g: [s for __, s in g] == want["topk"]
                  and all(model[i][3] == s for i, s in g), "topk")

    def point_read(self, rec, row_id: int) -> None:
        got = rec.call("point_read", self.session.execute, SELECT_BY_ID,
                       {"id": row_id})
        want = [self.model[row_id]]
        rec.check(got, lambda g: g == want, "point read")

    def audit(self, rec) -> None:
        rec.audit(sorted(self.table.rows()) == sorted(self.model.values()),
                  "employee matches the model after restart")

    def live_rows(self) -> int:
        return len(self.model)

    def sample_rows(self) -> tuple:
        return (self.table.schema,
                [self.model[i] for i in range(min(2000, self.base_n))])


class OltpPoint(EmployeeWorkload):
    name = "oltp_point"
    why = ("Indexed single-row statements on a cache-resident heap: the "
           "tuple-at-a-time path through plan cache, dispatch, B-tree, "
           "locks and WAL; scans and kernels do almost nothing.")
    ROUND_S = 0.9
    STATEMENTS = 2000
    RANGE = 400

    def build(self) -> None:
        # 1024 frames hold the heap and the B-tree: reads hit the pool.
        self.db = Database(buffer_capacity=1024)
        self.load_employee(self.db, self.EMPLOYEES)
        self.db.create_index("emp_id", "employee", ["id"], unique=True)
        self.db.add_check("salary_nonneg", "employee", "salary >= 0")
        writes = self.n(self.STATEMENTS // 10)
        self.quotas = {"select": self.n(self.STATEMENTS * 7 // 10),
                       "insert": writes, "update": writes, "delete": writes}
        # Deletes remove earlier inserts, oldest first; the queue starts
        # one round deep so a round's deletes never outrun its inserts.
        self.pending = deque()
        self.updates = 0
        lo = self.rng.randrange(self.base_n - self.RANGE)
        self.range = (lo, lo + self.RANGE)
        self.shape_sql = employee_shape_sql(*self.range)
        for row in self.fresh(writes):
            self.session.execute(INSERT_ROW, self._params(row))
            self.model[row[0]] = row
            self.pending.append(row[0])
        for row_id in range(0, self.base_n, max(1, self.base_n // 200)):
            self.session.execute(SELECT_BY_ID, {"id": row_id})
        self.session.execute(UPDATE_SALARY, {"id": 0, "salary":
                                             self.model[0][3]})

    @staticmethod
    def _params(row) -> dict:
        return dict(zip(("id", "name", "dept", "salary", "active"), row))

    def native(self, rec) -> None:
        execute = self.session.execute
        model, rng = self.model, self.rng
        for op in dg.op_mix(rng, self.quotas):
            if op == "select":
                self.point_read(rec, rng.randrange(self.base_n))
                continue
            if op == "insert":
                row = self.fresh(1)[0]
                got = rec.call("point_write", execute, INSERT_ROW,
                               self._params(row))
                if got is not FAILED:
                    model[row[0]] = row
                    self.pending.append(row[0])
            elif op == "update":
                row_id = rng.randrange(self.base_n)
                self.updates += 1
                salary = float(1000 + self.updates)
                got = rec.call("point_write", execute, UPDATE_SALARY,
                               {"id": row_id, "salary": salary})
                if got is not FAILED:
                    old = model[row_id]
                    model[row_id] = old[:3] + (salary,) + old[4:]
            else:
                row_id = self.pending.popleft()
                got = rec.call("point_write", execute, DELETE_BY_ID,
                               {"id": row_id})
                if got is not FAILED:
                    del model[row_id]
            rec.check(got, lambda g: g == 1, op)
            rec.wrote(1)

    def probes(self, rec) -> None:
        for __ in range(self.n(20)):
            self.probe_txn(rec, self.session, self.table, self.fresh(2))
        for __ in range(self.n(3)):
            self.probe_bulk(rec, self.table, self.fresh(100))
        self.run_shapes(rec, self.shape_sql, {"s": self.threshold},
                        *self.range)


class AnalyticScan(EmployeeWorkload):
    name = "analytic_scan"
    why = ("Four read-only query shapes over a heap larger than the "
           "buffer pool, no index: the scan leaf (heap scan, record "
           "decode, a lock per row, buffer misses) then the columnar IR.")
    ROUND_S = 1.4
    REPEATS = 2

    def build(self) -> None:
        # 48 frames < the ~90 heap pages: every sequential scan misses.
        self.db = Database(buffer_capacity=48)
        self.load_employee(self.db, self.EMPLOYEES)
        self.shape_sql = employee_shape_sql()
        self.params = {"s": self.threshold}
        for text in self.shape_sql.values():
            self.session.execute(text, self.params)
        self.session.execute(SELECT_BY_ID, {"id": 0})

    def native(self, rec) -> None:
        for __ in range(self.n(self.REPEATS)):
            self.run_shapes(rec, self.shape_sql, self.params)

    def probes(self, rec) -> None:
        for __ in range(self.n(3)):
            self.point_read(rec, self.rng.randrange(self.base_n))
        for __ in range(self.n(20)):
            self.probe_writes(rec, self.table, self.fresh(1)[0],
                              {"salary": 1.0})
            self.probe_txn(rec, self.session, self.table, self.fresh(2))
        for __ in range(self.n(3)):
            self.probe_bulk(rec, self.table, self.fresh(100))


class BulkWrite(EmployeeWorkload):
    name = "bulk_write"
    why = ("Set-at-a-time writes through the same dispatch, storage, "
           "attachment and WAL layers as oltp_point, with four attachments "
           "to maintain and rebuild: the two uses must not trade speed.")
    ROUND_S = 1.1
    PRELOAD = 4000
    BATCH = 400
    BATCHES = 3

    def build(self) -> None:
        self.db = Database(buffer_capacity=1024)
        self.load_employee(self.db, self.PRELOAD)
        self.db.create_index("emp_id", "employee", ["id"], unique=True)
        # The hash index stays on a high-cardinality column: see README.
        self.db.create_index("emp_name", "employee", ["name"],
                             kind="hash_index")
        self.db.add_check("salary_nonneg", "employee", "salary >= 0")
        self.db.create_attachment("employee", "statistics", "emp_stats")
        self.shape_sql = employee_shape_sql(":lo", ":hi")
        self.previous = None          # id range inserted by the last round
        self.current = None
        self.updates = 0
        warm = self.fresh(50)
        self.table.delete_many(self.table.insert_many(warm))
        self.table.update_where("dept = :d", {"salary": 1.0}, {"d": "none"})
        self.table.delete_where("id >= :lo AND id < :hi",
                                {"lo": -2, "hi": -1})
        self.session.execute(SELECT_BY_ID, {"id": 0})

    def native(self, rec) -> None:
        table, model = self.table, self.model
        if self.previous is not None:
            lo, hi = self.previous
            got = rec.call("bulk", table.delete_where,
                           "id >= :lo AND id < :hi", {"lo": lo, "hi": hi})
            rec.check(got, lambda g: g == hi - lo, "delete_where count")
            rec.bulk(got, hi - lo)
            for row_id in range(lo, hi):
                del model[row_id]
        lo = self.next_id
        for __ in range(self.n(self.BATCHES)):
            rows = self.fresh(self.BATCH)
            got = rec.call("bulk", table.insert_many, rows)
            rec.bulk(got, len(rows))
            if got is not FAILED:
                model.update((row[0], row) for row in rows)
        self.current = (lo, self.next_id)
        for __ in range(self.n(2)):
            dept = self.rng.choice(dg.DEPTS)
            self.updates += 1
            salary = float(1000 + self.updates)
            hit = [r for r in model.values() if r[2] == dept]
            got = rec.call("bulk", table.update_where, "dept = :d",
                           {"salary": salary}, {"d": dept})
            rec.check(got, lambda g: g == len(hit), "update_where count")
            rec.bulk(got, len(hit))
            if got is not FAILED:
                for row in hit:
                    model[row[0]] = row[:3] + (salary,) + row[4:]
        self._vetoed_batch(rec)
        self.previous = self.current

    def _vetoed_batch(self, rec) -> None:
        """A batch whose last row violates the check must raise
        ``CheckViolation`` and leave the relation unchanged."""
        rows = self.fresh(self.BATCH)
        rows[-1] = rows[-1][:3] + (-1.0,) + rows[-1][4:]

        def attempt() -> bool:
            try:
                self.table.insert_many(rows)
            except CheckViolation:
                return True
            return False
        got = rec.call("veto", attempt)
        rec.check(got, lambda g: g and self.table.count() == len(self.model),
                  "vetoed batch leaves the count unchanged")

    def probes(self, rec) -> None:
        lo, hi = self.current
        for __ in range(self.n(2)):
            self.run_shapes(rec, self.shape_sql,
                            {"s": self.threshold, "lo": lo, "hi": hi},
                            lo, hi)
        for __ in range(self.n(20)):
            self.point_read(rec, self.rng.randrange(self.base_n))
            self.probe_writes(rec, self.table, self.fresh(1)[0],
                              {"salary": 1.0})
            self.probe_txn(rec, self.session, self.table, self.fresh(2))


class ShardScatter(Workload):
    name = "shard_scatter"
    why = ("Two relations sharded over four child databases, one replicated: "
           "the coordinating layers (sharded, remote, scatter, replication, "
           "2PC) do the work; single-node layers only run inside children.")
    ROUND_S = 0.8
    SALES = 8000
    LEDGER = 2000
    BATCH = 50
    GROUP = ("SELECT region, COUNT(*), SUM(amount), AVG(amount) "
             "FROM sales GROUP BY region")
    JOIN = ("SELECT region_info.zone, COUNT(*), SUM(sales.amount) "
            "FROM sales JOIN region_info "
            "ON sales.region = region_info.region GROUP BY zone")
    TOPK = "SELECT id, amount FROM sales ORDER BY amount DESC LIMIT 10"

    def build(self) -> None:
        db = self.db = Database()
        self.sales = db.create_table(
            "sales", [("id", "INT"), ("region", "STRING"),
                      ("amount", "INT")],
            storage_method="sharded",
            attributes={"shards": 4, "child_statistics": True})
        db.create_table("region_info", [("region", "STRING"),
                                        ("zone", "INT")]
                        ).insert_many(dg.region_rows())
        self.ledger = db.create_table(
            "ledger", [("id", "INT"), ("acct", "INT"), ("amount", "INT")],
            storage_method="sharded",
            attributes={"shards": 4, "replicas": 1,
                        "replication": "semi-sync"})
        rows = dg.sales_rows(self.rng, self.SALES)
        for start in range(0, self.SALES, 1000):
            self.sales.insert_many(rows[start:start + 1000])
        # sales is never modified: its answers are computed once.
        self.sales_sorted = sorted(rows)
        by_region = grouped(rows, lambda r: r[1], lambda r: r[2])
        self.want_group = sorted((region, c, s, s / c)
                                 for region, (c, s, __) in by_region.items())
        self.want_join = sorted(
            (zone, c, s)
            for zone, (c, s) in rolled_up(by_region, dg.ZONES).items())
        self.want_topk = sorted(((r[0], r[2]) for r in rows),
                                key=lambda pair: -pair[1])[:10]
        self.next_id = 0
        self.model: Dict[int, tuple] = {}
        self.keys: Dict[int, object] = {}
        self.live: List[int] = []      # ledger ids, for uniform key picks
        self.batches = deque()         # per round: the ids it inserted
        for __ in range(self.LEDGER // self.BATCH):
            self._insert_batch(Untimed())   # the preload, never deleted
        self.db.execute(self.GROUP)
        self.db.execute(self.JOIN)
        self.db.execute(self.TOPK)
        self.ledger.fetch(self.keys[0])

    def _insert_batch(self, rec) -> List[int]:
        ids = list(range(self.next_id, self.next_id + self.BATCH))
        self.next_id += self.BATCH
        rows = [dg.ledger_row(i) for i in ids]
        keys = rec.call("txn", self.ledger.insert_many, rows)
        rec.bulk(keys, len(rows))
        if keys is FAILED:
            return []
        for row, key in zip(rows, keys):
            self.model[row[0]] = row
            self.keys[row[0]] = key
        self.live.extend(ids)
        return ids

    def native(self, rec) -> None:
        got = rec.call("group", self.db.execute, self.GROUP)
        rec.check(got, lambda g: close(sorted(g), self.want_group),
                  "pushed-down group")
        got = rec.call("scan", self.sales.scan)
        rec.check(got, lambda g: sorted(v for __, v in g)
                  == self.sales_sorted, "pull-up scan")
        inserted = []
        for __ in range(self.n(20)):
            inserted.extend(self._insert_batch(rec))
        self.batches.append(inserted)
        if len(self.batches) > 2:      # delete what round k-2 inserted
            ids = self.batches.popleft()
            got = rec.call("bulk", self.ledger.delete_many,
                           [self.keys[i] for i in ids])
            rec.bulk(got, len(ids))
            if got is not FAILED:
                gone = set(ids)
                for i in ids:
                    del self.model[i], self.keys[i]
                self.live = [i for i in self.live if i not in gone]
        for __ in range(self.n(200)):
            row_id = self.rng.choice(self.live)
            got = rec.call("point_read", self.ledger.fetch,
                           self.keys[row_id])
            want = self.model[row_id]
            rec.check(got, lambda g: g == want, "ledger fetch")

    def probes(self, rec) -> None:
        for __ in range(self.n(2)):
            got = rec.call("join", self.db.execute, self.JOIN)
            rec.check(got, lambda g: close(sorted(g), self.want_join),
                      "join")
            got = rec.call("topk", self.db.execute, self.TOPK)
            rec.check(got, lambda g: g == self.want_topk, "topk")
        for __ in range(self.n(20)):
            self.next_id += 1
            self.probe_writes(rec, self.ledger,
                              dg.ledger_row(self.next_id - 1),
                              {"amount": 1})

    def _descriptors(self):
        # No public call enumerates a sharded relation's children; the
        # storage descriptor is the one place the benchmark looks inside.
        for name in ("sales", "ledger"):
            yield self.db.catalog.handle(name).descriptor.storage_descriptor

    def databases(self) -> List[Database]:
        out = [self.db]
        for descriptor in self._descriptors():
            out.extend(descriptor["databases"])
            replication = descriptor.get("replication")
            if replication is not None:
                for index in range(descriptor["shards"]):
                    out.extend(standby.database for standby
                               in replication.standbys(index))
        return out

    def checkpoint(self) -> None:
        for database in self.databases():
            database.checkpoint("sharp")

    def restart(self) -> dict:
        """The whole cluster crashes: every primary child, then the
        coordinator (which resolves any in-doubt participant)."""
        for descriptor in self._descriptors():
            for child in descriptor["databases"]:
                child.restart()
        return self.db.restart()

    def audit(self, rec) -> None:
        rec.audit(sorted(self.sales.rows()) == self.sales_sorted,
                  "sales matches the model after restart")
        rec.audit(sorted(self.ledger.rows()) == sorted(self.model.values()),
                  "ledger matches the model after restart")

    def live_rows(self) -> int:
        return self.SALES + len(self.model)

    def sample_rows(self) -> tuple:
        return self.sales.schema, self.sales_sorted[:2000]


class SnapshotStorm(Workload):
    name = "snapshot_storm"
    why = ("Snapshot readers beside a storm of two-row transfers from "
           "four writer sessions: MVCC version store, group commit, and "
           "the snapshot downgrade of index routes to scans.")
    ROUND_S = 0.9
    ACCOUNTS = 5000
    WRITERS = 4
    READERS = 2
    WAVES = 25
    DEBIT = "UPDATE account SET balance = balance - :d WHERE id = :id"
    CREDIT = "UPDATE account SET balance = balance + :d WHERE id = :id"
    QUERIES = {
        "scan": "SELECT SUM(balance), COUNT(*) FROM account",
        "group": "SELECT branch, SUM(balance), COUNT(*) FROM account "
                 "GROUP BY branch",
        "join": "SELECT branch_info.region, SUM(account.balance) "
                "FROM account JOIN branch_info "
                "ON account.branch = branch_info.branch GROUP BY region",
        "topk": "SELECT id, balance FROM account "
                "ORDER BY balance DESC LIMIT 10",
    }
    POINT = "SELECT * FROM account WHERE id = :id"

    def build(self) -> None:
        db = self.db = Database(group_commit=4, max_sessions=8)
        account = db.create_table(
            "account", [("id", "INT", False), ("branch", "STRING"),
                        ("balance", "INT")])
        db.create_table("branch_info", [("branch", "STRING"),
                                        ("region", "INT")]
                        ).insert_many(dg.branch_rows())
        rows = dg.account_rows(self.rng, self.ACCOUNTS)
        account.insert_many(rows)
        db.create_index("account_id", "account", ["id"], unique=True)
        self.branch = [row[1] for row in rows]
        self.balance = [row[2] for row in rows]
        self.total = sum(self.balance)
        self.readers = [db.connect() for __ in range(self.READERS)]
        self.writers = [db.connect() for __ in range(self.WRITERS)]
        self.table = self.writers[0].table("account")
        self.next_id = self.ACCOUNTS
        self._wave(Untimed())
        warm = self.readers[0]
        warm.begin(snapshot=True)
        for text in self.QUERIES.values():
            warm.execute(text)
        warm.execute(self.POINT, {"id": 0})
        warm.commit()

    def _wave(self, rec) -> None:
        """Every writer opens a transfer, then they commit in turn.  A
        transfer's latency is the time inside its own four calls."""
        pairs = dg.transfer_ids(self.rng, self.ACCOUNTS, self.WRITERS)
        amount = self.rng.randrange(1, 20)
        spent = []
        for writer, (debit, credit) in zip(self.writers, pairs):
            rec.call("begin", writer.begin, op=False)
            total = rec.last
            for text, row_id in ((self.DEBIT, debit), (self.CREDIT, credit)):
                got = rec.call("point_write", writer.execute, text,
                               {"d": amount, "id": row_id}, op=False)
                rec.check(got, lambda g: g == 1, "transfer update")
                total += rec.last
            rec.wrote(2)
            spent.append(total)
        for writer, (debit, credit), total in zip(self.writers, pairs,
                                                  spent):
            if rec.call("commit", writer.commit, op=False) is not FAILED:
                rec.sample("txn", total + rec.last)
                self.balance[debit] -= amount
                self.balance[credit] += amount

    def native(self, rec) -> None:
        for reader in self.readers:
            rec.call("begin", reader.begin, True)
        # What the snapshots must see: the state before this round's waves.
        balance = list(self.balance)
        by_branch = grouped(range(self.ACCOUNTS),
                            lambda i: self.branch[i], lambda i: balance[i])
        want = {
            "scan": [(self.total, self.ACCOUNTS)],
            "group": sorted((b, s, c) for b, (c, s, __) in by_branch.items()),
            "join": sorted(
                (region, s) for region, (__, s)
                in rolled_up(by_branch, dg.BRANCH_REGION).items()),
            "topk": sorted(balance, reverse=True)[:10],
        }
        for __ in range(self.n(self.WAVES)):
            self._wave(rec)
        for reader in self.readers:
            got = rec.call("scan", reader.execute, self.QUERIES["scan"])
            rec.check(got, lambda g: g == want["scan"],
                      "snapshot total is invariant")
            for shape in ("group", "join"):
                got = rec.call(shape, reader.execute, self.QUERIES[shape])
                rec.check(got, lambda g: sorted(g) == want[shape],
                          "snapshot " + shape)
            got = rec.call("topk", reader.execute, self.QUERIES["topk"])
            rec.check(got, lambda g: [b for __, b in g] == want["topk"]
                      and all(balance[i] == b for i, b in g),
                      "snapshot topk")
            for __ in range(2):
                row_id = self.rng.randrange(self.ACCOUNTS)
                got = rec.call("point_read", reader.execute, self.POINT,
                               {"id": row_id})
                row = [(row_id, self.branch[row_id], balance[row_id])]
                rec.check(got, lambda g: g == row, "snapshot point read")
            rec.call("commit", reader.commit)

    def probes(self, rec) -> None:
        for __ in range(self.n(3)):
            rows = [(i, dg.BRANCHES[i % 8], 0)
                    for i in range(self.next_id, self.next_id + 100)]
            self.next_id += 100
            self.probe_bulk(rec, self.table, rows)

    def before_crash(self) -> None:
        # Group commit defers durability until a group of four fills; an
        # orderly client forces the last partial group before it relies
        # on its acknowledgements.
        self.db.commit_group()

    def audit(self, rec) -> None:
        want = [(i, self.branch[i], self.balance[i])
                for i in range(self.ACCOUNTS)]
        rec.audit(sorted(self.table.rows()) == want,
                  "account matches the model after restart")

    def live_rows(self) -> int:
        return self.ACCOUNTS

    def sample_rows(self) -> tuple:
        return self.table.schema, [(i, self.branch[i], self.balance[i])
                                   for i in range(2000)]


WORKLOADS = {cls.name: cls for cls in (OltpPoint, AnalyticScan, BulkWrite,
                                       ShardScatter, SnapshotStorm)}
