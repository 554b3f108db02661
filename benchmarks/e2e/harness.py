"""Measurement: build, run rounds, restart, and turn samples into metrics.

``run_workload`` is the whole benchmark for one workload.  Untraced it
reports the end-to-end metrics; traced it reports the per-layer metrics
(and never the other way round: end-to-end numbers are always taken with
no wrapper installed).

Noise hygiene: every duration is scaled to reference-speed seconds by
the run's :class:`~.calibrate.Calibrator` as it is taken (this host's
speed drifts by a fifth; see ``calibrate.py``); ``setup_s`` is the
median of several full builds; the measured phase starts after
``gc.collect()`` + ``gc.freeze()``; a rate is
the median over rounds of (ops in the round ÷ seconds inside them), a
latency is the median over every sample of its class; the three
count metrics are taken over exactly the first ``COUNT_ROUNDS`` rounds,
which every run completes, so they repeat exactly for a seed however
many rounds the clock allows.
"""

from __future__ import annotations

from time import perf_counter

_import_started = perf_counter()
import repro  # noqa: E402,F401  (timed: importing the program is set-up)
IMPORT_S = perf_counter() - _import_started

import gc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from statistics import median, quantiles  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

from repro.core.records import decode_record, encode_record  # noqa: E402

from .calibrate import Calibrator  # noqa: E402
from .trace import REMOTE_ACTION, ROOT, Tracer  # noqa: E402
from .workloads import FAILED, WORKLOADS, Workload  # noqa: E402

#: Rounds every run completes; the exact-count metrics cover these.
COUNT_ROUNDS = 3
READ_CLASSES = frozenset(("point_read", "scan", "group", "join", "topk"))
#: Operation classes scaled by the scan-heavy reference; every other
#: class is scaled by the call-heavy one (see calibrate.py).
SCAN_HEAVY = frozenset(("scan", "group", "join", "topk", "bulk", "veto"))

#: name -> (unit, operation class, scale from seconds)
LATENCY_METRICS = {
    "point_read_p50_us": ("us", "point_read", 1e6),
    "point_write_p50_us": ("us", "point_write", 1e6),
    "txn_commit_p50_us": ("us", "txn", 1e6),
    "scan_query_p50_ms": ("ms", "scan", 1e3),
    "group_query_p50_ms": ("ms", "group", 1e3),
    "join_query_p50_ms": ("ms", "join", 1e3),
    "topk_query_p50_ms": ("ms", "topk", 1e3),
}
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s",
    **{name: unit for name, (unit, __, ___) in LATENCY_METRICS.items()},
    "bulk_rows_per_s": "rows/s", "restart_s": "s",
    "log_records_per_write": "count", "page_accesses_per_op": "count",
    "disk_pages_per_krow": "count",
}

#: Layers with a ``.self_s`` (and, where listed, a ``.calls``) metric.
SELF_LAYERS = (
    "query.parser", "query.planner", "query.plans", "query.engine",
    "core.session", "query.executor", "query.ir", "query.backends",
    "query.fragments", "core.dispatch", "storage.heap", "storage.sharded",
    "access.btree_index", "access.hash_index", "access.statistics",
    "constraints.check", "services.locks", "services.buffer",
    "services.disk", "services.wal", "services.transactions",
    "services.remote", "services.scatter", "services.replication")
CALL_LAYERS = (
    "query.parser", "query.planner", "query.engine", "core.session",
    "query.executor", "core.dispatch", "storage.heap", "storage.sharded",
    "access.btree_index", "access.hash_index", "access.statistics",
    "constraints.check")


def noise_of(values: List[float]) -> float:
    """How far the median of ``values`` is expected to move between
    runs, as a share of it: their interquartile range over the root of
    their number (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values) / len(values) ** 0.5


def wall_timed(fn: Callable, *args) -> float:
    """Plain seconds ``fn(*args)`` took (the traced run's restart, whose
    parts are compared with raw span times)."""
    started = perf_counter()
    fn(*args)
    return perf_counter() - started


class Recorder:
    """Times operations (in reference-speed seconds), keeps their
    latencies by class, counts failures."""

    def __init__(self, calibrator: Calibrator, tracer: Tracer = None,
                 lsn_of: Callable = lambda: 0):
        self.calibrator = calibrator
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.native = True          # which section of the round is running
        self.last = 0.0             # seconds inside the latest call
        self.timed_ops = 0
        self.rows_modified = 0
        self.rows_returned = 0
        self.read_ops = 0
        self.read_log_records = 0
        self.rounds: List[dict] = []
        self.tracer = tracer
        self.lsn_of = lsn_of
        self.start_round()

    def start_round(self) -> None:
        self.ops = 0
        self.busy = 0.0
        self.bulk_rows = 0
        self.bulk_seconds = 0.0
        self._marks = {cls: len(v) for cls, v in self.latencies.items()}

    def end_round(self) -> None:
        """Close the round: its rates and its per-class median latency."""
        entry = {"ops": self.ops, "busy": self.busy,
                 "bulk_rows": self.bulk_rows,
                 "bulk_seconds": self.bulk_seconds}
        for cls, values in self.latencies.items():
            fresh = values[self._marks.get(cls, 0):]
            if fresh:
                entry[cls] = median(fresh)
        self.rounds.append(entry)

    def call(self, cls: str, fn: Callable, *args, op: bool = True):
        """Run ``fn(*args)`` as one timed operation of class ``cls``.
        Returns its result, or ``FAILED`` (counted) if it raised."""
        self.attempted += 1
        traced = self.tracer is not None and self.native
        if traced:
            args = (fn,) + args
            fn = self.tracer.root
        before = (self.lsn_of() if traced and cls in READ_CLASSES else None)
        calibrator = self.calibrator
        kind = "scan" if cls in SCAN_HEAVY else "point"
        factor = calibrator.factor(kind, perf_counter())
        started = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the run goes on and reports
            self.last = (perf_counter() - started) * factor
            self._fail(f"{cls}: {type(exc).__name__}: {exc}")
            return FAILED
        ended = perf_counter()
        elapsed = ended - started
        if elapsed > calibrator.INTERVAL:   # the speed may have moved
            factor = (factor + calibrator.factor(kind, ended)) / 2
        self.last = elapsed = elapsed * factor
        self.latencies[cls].append(elapsed)
        self.timed_ops += 1
        if self.native:
            self.busy += elapsed
            if op:
                self.ops += 1
            if traced and isinstance(result, list):
                self.rows_returned += len(result)
            if before is not None:
                self.read_ops += 1
                self.read_log_records += self.lsn_of() - before
        return result

    def sample(self, cls: str, seconds: float) -> None:
        """A latency assembled from several calls (a transaction whose
        statements interleave with other sessions'): one operation."""
        self.latencies[cls].append(seconds)
        if self.native:
            self.ops += 1

    def bulk(self, result, rows: int) -> None:
        """The latest call was set-at-a-time and modified ``rows`` rows."""
        if result is not FAILED:
            self.bulk_rows += rows
            self.bulk_seconds += self.last
            self.rows_modified += rows

    def wrote(self, rows: int) -> None:
        self.rows_modified += rows

    def check(self, got, accept: Callable, what: str) -> None:
        """``accept(got)`` must hold, unless the call already failed."""
        if got is not FAILED and not accept(got):
            self._fail(f"wrong answer: {what}")

    def audit(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"audit failed: {what}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def totals_of(databases) -> Counter:
    """Every stats counter summed over ``databases``, plus the log
    position, allocated pages and device I/O of each."""
    total: Counter = Counter()
    for db in databases:
        services = db.services
        total.update(services.stats.snapshot())
        total["wal.records"] += services.wal.current_lsn
        total["disk.allocated_pages"] += services.disk.allocated_pages
    return total


def delta_of(after: Counter, before: Counter) -> Dict[str, int]:
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


def build(name: str, seed: int, scale: float) -> Workload:
    workload = WORKLOADS[name](seed, scale)
    workload.build()
    return workload


def timed_builds(calibrator: Calibrator, name: str, seed: int, scale: float,
                 repeats: int):
    """Build the workload ``repeats`` times from the same seed; returns
    the last one, ``setup_s`` (import + the median build) and the build
    times."""
    times = []
    workload = None
    for __ in range(repeats):
        workload = None             # let the previous build be collected
        gc.collect()
        workload = WORKLOADS[name](seed, scale)
        times.append(calibrator.timed(workload.build))
    return workload, IMPORT_S + median(times), times


def rounds_for(workload: Workload, seconds: float, share: float = 1.0) -> int:
    """How many rounds fill ``share`` of ``seconds`` on the baseline
    container.  Op counts follow from ``--seconds`` and never from the
    clock: both sides of a comparison do identical work, which matters
    because some latencies grow with the work already done (README,
    "What the first run shows")."""
    return max(COUNT_ROUNDS, round(seconds * share / workload.ROUND_S))


def run_rounds(workload: Workload, rec: Recorder, rounds: int,
               around_native: Callable = nullcontext,
               after_round: Callable = None) -> None:
    """``rounds`` whole rounds: the native section, then the probes."""
    for done in range(1, rounds + 1):
        rec.start_round()
        rec.native = True
        with around_native():
            workload.native(rec)
        rec.native = False
        workload.probes(rec)
        rec.end_round()
        if after_round is not None:
            after_round(done)


def crash_and_audit(workload: Workload, rec: Recorder, timed: Callable,
                    restarts: int) -> List[float]:
    """A sharp checkpoint, one more round, then the crash-restarts: the
    log to redo is one round's worth however long the run was."""
    workload.checkpoint()
    run_rounds(workload, rec, 1)
    return workload.finish(rec, timed, restarts)


def rate(rounds: List[dict], ops_key: str, seconds_key: str) -> List[float]:
    return [r[ops_key] / r[seconds_key] for r in rounds
            if r[seconds_key] > 0]


def tails(rec: Recorder) -> Dict[str, dict]:
    """p95/p99 of each class that has at least ten samples beyond them."""
    out = {}
    for cls, values in rec.latencies.items():
        entry = {"samples": len(values)}
        cuts = quantiles(values, n=100) if len(values) >= 200 else None
        if cuts:
            entry["p95_us"] = cuts[94] * 1e6
            if len(values) >= 1000:
                entry["p99_us"] = cuts[98] * 1e6
        out[cls] = entry
    return out


def result_of(workload: Workload, rec: Recorder, seed: int, seconds: float,
              metrics: Dict[str, float], units: Dict[str, str],
              noise: Dict[str, float], extra: dict = None) -> dict:
    speeds = rec.calibrator.history
    out = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "correct": rec.failed == 0, "attempted": rec.attempted,
        "failed": rec.failed, "errors": rec.errors,
        "rounds": len(rec.rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "noise": noise, "tails": tails(rec),
        # how this host's speed moved during the run (1.0 = reference)
        "speed": {"median": median(speeds), "min": min(speeds),
                  "max": max(speeds)},
    }
    out.update(extra or {})
    return out


def run_untraced(name: str, seed: int, seconds: float, scale: float = 1.0,
                 setup_repeats: int = 3, restarts: int = 3) -> dict:
    """The end-to-end metrics of one workload; no wrapper is installed."""
    calibrator = Calibrator()
    workload, setup_s, build_times = timed_builds(calibrator, name, seed,
                                                  scale, setup_repeats)
    databases = workload.databases()
    rec = Recorder(calibrator)
    counts = {}

    def after_round(done: int) -> None:
        if done == COUNT_ROUNDS:
            moved = delta_of(totals_of(databases), start)
            counts["log_records_per_write"] = (
                moved["wal.records"] / rec.rows_modified)
            counts["page_accesses_per_op"] = (
                moved.get("buffer.pins", 0) / rec.timed_ops)
            counts["disk_pages_per_krow"] = (
                totals_of(databases)["disk.allocated_pages"]
                / (workload.live_rows() / 1000))

    gc.collect()
    gc.freeze()
    try:
        start = totals_of(databases)
        run_rounds(workload, rec, rounds_for(workload, seconds),
                   after_round=after_round)
        restart_times = crash_and_audit(workload, rec, calibrator.timed,
                                        restarts)
    finally:
        gc.unfreeze()

    ops = rate(rec.rounds, "ops", "busy")
    bulk = rate(rec.rounds, "bulk_rows", "bulk_seconds")
    metrics = {"setup_s": setup_s, "ops_per_s": median(ops)}
    noise = {"setup_s": noise_of(build_times), "ops_per_s": noise_of(ops)}
    for metric, (__, cls, factor) in LATENCY_METRICS.items():
        metrics[metric] = median(rec.latencies[cls]) * factor
        noise[metric] = noise_of([r[cls] for r in rec.rounds if cls in r])
    metrics["bulk_rows_per_s"] = median(bulk)
    noise["bulk_rows_per_s"] = noise_of(bulk)
    metrics["restart_s"] = median(restart_times)
    noise["restart_s"] = noise_of(restart_times)
    metrics.update(counts)
    return result_of(workload, rec, seed, seconds, metrics,
                     END_TO_END_UNITS, noise)


def record_codec_ns(workload: Workload) -> tuple:
    """Direct timing of ``encode_record``/``decode_record`` over the
    workload's own rows: (encode, decode) nanoseconds per row, the best
    of three passes."""
    schema, rows = workload.sample_rows()
    encode, decode = [], []
    for __ in range(3):
        started = perf_counter()
        raws = [encode_record(schema, row) for row in rows]
        middle = perf_counter()
        for raw in raws:
            decode_record(schema, raw)
        encode.append((middle - started) / len(rows) * 1e9)
        decode.append((perf_counter() - middle) / len(rows) * 1e9)
    return min(encode), min(decode)


def run_traced(name: str, seed: int, seconds: float, scale: float = 1.0
               ) -> dict:
    """The per-layer metrics of one workload.

    One build; a quarter of the rounds untraced (the rate the wrappers
    are compared with), then the wrappers go in and half the rounds run
    traced, with spans and counters taken over the native section of
    each round only.
    The wrappers stay in for one restart so that the recovery manager's
    share of it is measured, and are removed before the result is built.
    """
    calibrator = Calibrator()
    workload = build(name, seed, scale)
    databases = workload.databases()
    tracer = Tracer()
    moved: Counter = Counter()

    def lsn_of() -> int:
        return sum(db.services.wal.current_lsn for db in databases)

    @contextmanager
    def around_native():
        before = totals_of(databases)
        tracer.enabled = True
        try:
            yield
        finally:
            tracer.enabled = False
            moved.update(delta_of(totals_of(databases), before))

    rec = Recorder(calibrator, lsn_of=lsn_of)
    gc.collect()
    run_rounds(workload, rec, rounds_for(workload, seconds, 0.25))
    plain = list(rec.rounds)
    tracer.install(databases)
    try:
        rec.tracer = tracer
        run_rounds(workload, rec, rounds_for(workload, seconds, 0.5),
                   around_native)
        rec.tracer = None
        traced = rec.rounds[len(plain):]
        spans = tracer.totals()
        workload.checkpoint()
        run_rounds(workload, rec, 1)
        before = totals_of(databases)
        tracer.enabled = True
        restarts = workload.finish(rec, wall_timed, restarts=1)
        tracer.enabled = False
        recovery = delta_of(totals_of(databases), before)
        inside = tracer.totals().get(("services.recovery", "restart"),
                                     (0, 0.0, 0.0))[2]
    finally:
        tracer.uninstall()

    metrics = layer_metrics(spans, moved, rec, traced, tracer.scatter_tasks)
    encode_ns, decode_ns = record_codec_ns(workload)
    metrics.update({
        "core.records.encode_ns_per_row": encode_ns,
        "core.records.decode_ns_per_row": decode_ns,
        # per restart: a short one is repeated, each replays the same log
        "services.recovery.restart_s": inside / len(restarts),
        "services.recovery.rebuild_s":
            (sum(restarts) - inside) / len(restarts),
        "services.recovery.redone":
            recovery.get("recovery.redo.applied", 0) / len(restarts),
        "services.recovery.analysis_records":
            recovery.get("recovery.analysis.records", 0) / len(restarts),
        "trace.overhead_ratio": (median(rate(plain, "ops", "busy"))
                                 / median(rate(traced, "ops", "busy"))),
    })
    # Shares of the traced native time (plain seconds, like the spans).
    busy = spans.get(ROOT, (0, 0.0, 0.0))[2]
    shares = {name[:-len(".self_s")]: value / busy
              for name, value in metrics.items() if name.endswith(".self_s")}
    return result_of(workload, rec, seed, seconds, metrics,
                     PER_LAYER_UNITS, {},
                     {"traced_busy_s": busy, "self_share": shares})


def layer_metrics(spans: dict, moved: Dict[str, int], rec: Recorder,
                  rounds: List[dict], scatter_tasks: int
                  ) -> Dict[str, float]:
    """Fold the traced rounds' spans and counter deltas into the
    per-layer catalogue."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for (layer, __), (count, own, ___) in spans.items():
        self_s[layer] += own
        calls[layer] += count

    def boundary(layer: str, name: str) -> int:
        return spans.get((layer, name), (0, 0.0, 0.0))[0]

    def count(name: str) -> int:
        return moved.get(name, 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    native_ops = sum(r["ops"] for r in rounds)
    commits = boundary("services.transactions", "commit")
    micros = [value for name, value in moved.items()
              if name.startswith("shard.") and name.endswith(
                  ".fragment.micros") and value]
    out = {layer + ".self_s": self_s[layer] for layer in SELF_LAYERS}
    out.update({layer + ".calls": calls[layer] for layer in CALL_LAYERS})
    out.update({
        "query.plans.hit_ratio": ratio(
            count("plan_cache.hits"),
            count("plan_cache.hits") + count("plan_cache.translations")),
        "query.executor.rows_examined_per_row": ratio(
            count("heap.tuples_scanned") + count("heap.fetches"),
            rec.rows_returned),
        "query.ir.programs": count("executor.columnar.ir.programs"),
        "query.ir.fallbacks": count("executor.columnar.fallbacks"),
        "query.backends.kernel_calls":
            count("executor.columnar.ir.kernel_calls")
            + count("executor.columnar.kernel_calls"),
        "query.fragments.pushdown_ratio": ratio(
            count("sharded.pushdown.queries"),
            boundary("query.fragments", "fragment_for")),
        "core.dispatch.attached_calls": count("dispatch.attached_calls"),
        "storage.heap.tuples_scanned": count("heap.tuples_scanned"),
        "storage.sharded.child_busy_s":
            spans.get(REMOTE_ACTION, (0, 0.0, 0.0))[2],
        "storage.sharded.critical_path_ratio": ratio(
            max(micros, default=0), sum(micros)),
        "access.btree_index.entries_scanned":
            count("btree_index.entries_scanned"),
        "services.locks.acquire_calls": count("locks.acquire_calls"),
        "services.locks.acquires_per_op": ratio(
            count("locks.acquire_calls"), native_ops),
        "services.locks.deadlocks": count("locks.deadlocks_detected"),
        "services.buffer.pins": count("buffer.pins"),
        "services.buffer.hit_ratio": ratio(
            count("buffer.hits"),
            count("buffer.hits") + count("buffer.misses")),
        "services.buffer.evictions": count("buffer.evictions"),
        "services.disk.reads": count("disk.reads"),
        "services.disk.writes": count("disk.writes"),
        "services.wal.records": count("wal.records"),
        "services.wal.flushes": boundary("services.wal", "flush"),
        "services.wal.records_per_commit": ratio(count("wal.records"),
                                                 commits),
        "services.wal.records_per_read_stmt": ratio(rec.read_log_records,
                                                    rec.read_ops),
        "services.transactions.commits": commits,
        "services.transactions.aborts":
            boundary("services.transactions", "abort"),
        "services.transactions.group_flushes":
            count("txn.group_commit.flushes"),
        "services.transactions.versions_noted":
            count("mvcc.versions_noted"),
        "services.transactions.prepared":
            boundary("services.transactions", "prepare"),
        "services.remote.messages":
            count("remote.messages") + count("repl.messages"),
        "services.remote.retries": count("remote.gateway.retry.attempts"),
        "services.scatter.tasks": scatter_tasks,
        "services.replication.records_shipped": count("repl.ship.records"),
        "services.predicate.compilations":
            count("executor.predicate_compilations"),
        "services.predicate.cache_hit_ratio": ratio(
            count("executor.predicate_cache_hits"),
            count("executor.predicate_cache_hits")
            + count("executor.predicate_compilations")),
        "trace.unattributed_share": ratio(
            self_s[ROOT[0]], spans.get(ROOT, (0, 0.0, 0.0))[2]),
    })
    return out


def _unit_of(name: str) -> str:
    """Per-layer names end in what they measure."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_row"):
        return "ns"
    if name.endswith(("ratio", "_share", "_per_row", "_per_op",
                      "_per_commit", "_per_read_stmt")):
        return "ratio"
    return "count"


PER_LAYER_NAMES = (
    [layer + ".self_s" for layer in SELF_LAYERS]
    + [layer + ".calls" for layer in CALL_LAYERS]
    + ["query.plans.hit_ratio", "query.executor.rows_examined_per_row",
       "query.ir.programs", "query.ir.fallbacks",
       "query.backends.kernel_calls", "query.fragments.pushdown_ratio",
       "core.dispatch.attached_calls", "core.records.decode_ns_per_row",
       "core.records.encode_ns_per_row", "storage.heap.tuples_scanned",
       "storage.sharded.child_busy_s", "storage.sharded.critical_path_ratio",
       "access.btree_index.entries_scanned", "services.locks.acquire_calls",
       "services.locks.acquires_per_op", "services.locks.deadlocks",
       "services.buffer.pins", "services.buffer.hit_ratio",
       "services.buffer.evictions", "services.disk.reads",
       "services.disk.writes", "services.wal.records", "services.wal.flushes",
       "services.wal.records_per_commit",
       "services.wal.records_per_read_stmt",
       "services.transactions.commits", "services.transactions.aborts",
       "services.transactions.group_flushes",
       "services.transactions.versions_noted",
       "services.transactions.prepared", "services.recovery.restart_s",
       "services.recovery.rebuild_s", "services.recovery.redone",
       "services.recovery.analysis_records", "services.remote.messages",
       "services.remote.retries", "services.scatter.tasks",
       "services.replication.records_shipped",
       "services.predicate.compilations",
       "services.predicate.cache_hit_ratio", "trace.overhead_ratio",
       "trace.unattributed_share"])
PER_LAYER_UNITS = {name: _unit_of(name) for name in PER_LAYER_NAMES}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, setup_repeats: int = 3,
                 restarts: int = 3) -> dict:
    if trace:
        return run_traced(name, seed, seconds, scale)
    return run_untraced(name, seed, seconds, scale, setup_repeats, restarts)
