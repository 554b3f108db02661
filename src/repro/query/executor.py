"""Set-at-a-time plan execution.

The executor drives bound plans through the dispatch layer's direct
generic operations: storage scans with pushed-down filter predicates,
access-path probes that map input keys to record keys followed by
direct-by-key fetches ("first the access path is accessed to obtain a
record key, which is then used to access the relation record in the
storage method"), and the three join methods.

The executor owns the *access routes* and nothing else of a SELECT: it
turns the plan's routes into a stream of batches — scans are consumed
with ``next_batch`` (one dispatch call and one page pin amortised over
many tuples), index-probe routes translate a batch of record keys into
one ``fetch_many`` call, the keyed joins emit blocks of combined rows —
and hands that stream to the plan's :class:`~.ir.Program`, the one
engine that filters, folds, sorts and projects it on the database's
kernel backend; a failure inside the program is the statement's
``QueryError`` (a grouped join may roll up first: ``rollup_for``).  Filter
predicates are compiled once per plan (``CompiledPredicateCache``).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.attachment import equality_probe
from ..core.records import RecordView
from ..errors import QueryError
from ..services.vectors import ColumnBatch
from . import fragments, ir
from .planner import JoinStep, SelectPlan, TableAccess

__all__ = ["Executor"]

_EMPTY_VIEW = RecordView({})

#: First ``next_batch`` request; doubles per batch up to the cap, so a
#: LIMIT that stops early never paid for a deep scan.
_BATCH_MIN = 32
_BATCH_MAX = 512

#: Cap (distinct inner keys) on the join-index right-record memo;
#: least-recently-used entries are evicted past this, bounding a large
#: join's memory by a constant instead of the inner table.
_JOIN_MEMO_MAX = 1024


class Executor:
    """Executes bound plans against one database."""

    def __init__(self, database):
        self.database = database
        #: Offer eligible single-table plans to the storage method as
        #: pushed-down query fragments (sharded: parallel per-shard
        #: partial aggregation; foreign: the whole query in one remote
        #: message).  Results are bit-identical to the pull-up path —
        #: equivalence tests and benchmarks toggle this to compare.
        self.pushdown_enabled = True

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def run_select(self, ctx, plan: SelectPlan,
                   params: Optional[dict]) -> List[Tuple]:
        params = params or {}
        fast = self._aggregate_fast_path(ctx, plan)
        if fast is not None:
            return fast
        rollup = fragments.rollup_for(ctx, plan)
        if rollup is not None:
            # The roll-up split: partial groups from this ``run_select``,
            # then the JOIN relation's rows by the hash join's route.
            ctx.stats.bump("executor.rollups")
            right_handle = [*plan.handles.values()][-1]
            return fragments.merge_rollup(
                plan, self.run_select(ctx, rollup.partial, params),
                self._record_batches(ctx, right_handle, plan.join.right_access,
                                     params, rollup.right_fields))
        pushed = self._try_pushdown(ctx, plan, params)
        if pushed is not None:
            return pushed
        # The compiled program is cached on the bound plan; the plan
        # cache's descriptor-version revalidation discards the whole
        # plan — and with it this program — whenever a referenced
        # relation changes shape.
        program = plan.columnar
        if program is None:
            program = plan.columnar = ir.lower_select(plan)
        ctx.stats.bump_many({"executor.columnar.plans": 1,
                             "executor.columnar.ir.programs": 1})
        rt = ir.Runtime(ctx.stats, getattr(ctx.services, "faults", None),
                        params, self.database.kernel_backend)
        rt.source = self._source(ctx, plan, params, program, rt)
        try:
            return program.run(rt)
        finally:
            rt.source.close()

    def _try_pushdown(self, ctx, plan: SelectPlan,
                      params: dict) -> Optional[List[Tuple]]:
        """Offer the plan to the storage method as a pushed-down
        fragment; ``None`` means "not attempted" (the caller continues
        on the local paths — a fragment that *ran* returns its rows,
        even an empty list).

        Snapshot readers never push down: a fragment reads the remote
        side's current state, not the local transaction's snapshot.
        """
        if not self.pushdown_enabled or ctx.txn.snapshot is not None:
            return None
        if plan.join is not None or getattr(plan, "covering", False) \
                or not plan.access.is_storage:
            return None
        handle = plan.handles[plan.alias]
        method = self.database.registry.storage_method(
            handle.descriptor.storage_method_id)
        run_fragment = getattr(method, "run_fragment", None)
        if run_fragment is None:
            return None
        fragment = fragments.fragment_for(plan)
        if fragment is None:
            return None
        if not method.fragment_worthwhile(ctx, handle, plan, fragment):
            return None
        try:
            return run_fragment(ctx, handle, fragment, params)
        except fragments.FragmentFallback:
            # Fail closed: the pull-up path recomputes the whole answer
            # (and applies its own degraded-read semantics).
            ctx.stats.bump("executor.pushdown.fallbacks")
            return None

    def _source(self, ctx, plan: SelectPlan, params: dict,
                program: ir.Program, rt: ir.Runtime) -> Iterator:
        """The plan's access routes as one stream of batches; ``rt``
        learns here whether their order can be trusted."""
        left_handle = plan.handles[plan.alias]
        join: JoinStep = plan.join
        if ctx.txn.snapshot is not None:
            # A route emits the snapshot's images of patched records
            # ahead of its current hits, so its order — an elided sort, a
            # merge join — holds only when no relation is patched.
            images = self.database.data.snapshot_images
            rt.ordered = not any(images(ctx, handle)
                                 for handle in plan.handles.values())
        if join is None:
            return self._record_batches(ctx, left_handle, plan.access, params,
                                        program.left_fields, plan.limit,
                                        plan.covering)
        right_handle = next(handle for alias, handle in plan.handles.items()
                            if alias != plan.alias)
        method = join.method
        if method == "join_index" and not rt.ordered:
            # Join-index pairs are current state and carry no record to
            # re-check: with either relation patched a pair the snapshot
            # needs may be gone, and a pair it must not see present.  The
            # hash source over the two routes returns the right rows.
            ctx.stats.bump("mvcc.route_downgrades")
            method = "hash"
        if method == "hash":
            return program.hash_join(
                rt,
                self._record_batches(ctx, left_handle, plan.access, params,
                                     program.left_fields),
                self._record_batches(ctx, right_handle, join.right_access,
                                     params, program.right_fields))
        if method == "join_index":
            batches = self._join_via_index(ctx, plan, join, left_handle,
                                           right_handle, params)
        else:
            batches = self._join_index_nl(ctx, plan, join, left_handle,
                                          right_handle, params)
        return (ColumnBatch(rows, program.width) for rows in batches)

    # ------------------------------------------------------------------
    # Access routes
    # ------------------------------------------------------------------
    def _record_batches(self, ctx, handle, access: TableAccess,
                        params: dict, fields: Optional[Tuple[int, ...]],
                        limit: Optional[int] = None, covering: bool = False
                        ) -> Iterator[ColumnBatch]:
        """The route's batches as a program reads them.  A locking
        reader's storage scan is asked for ``fields`` alone and the
        heap's column-resident batch passes untouched; fetched records
        and snapshot images are whole.  A plain list of pairs is wrapped
        rows-first, in the layout it was asked for."""
        # A snapshot storage route reads whole records too, measured: with
        # ``fields`` its first statement on a page a writer dirtied decodes
        # only what it reads into the page image's column cache, and the
        # next statement pays the decode of the other columns per page
        # where a whole-record decode was paid once and cached
        # (snapshot_storm scan 5.0 -> 2.4-3.3 ms, but group 3.2 -> 4.0-4.9
        # and top-k 3.1 -> 3.6-3.8).
        if fields is not None and not (access.is_storage
                                       and ctx.txn.snapshot is None):
            fields = None
        width = len(handle.schema.fields)
        for batch in self._access_key_batches(ctx, handle, access, params,
                                              limit, fields, covering):
            if not isinstance(batch, ColumnBatch):
                batch = ColumnBatch([record for __, record in batch], width,
                                    fields=fields)
            yield batch

    def _access_key_batches(self, ctx, handle, access: TableAccess,
                            params: dict, limit: Optional[int],
                            fields: Optional[Tuple[int, ...]] = None,
                            covering: bool = False
                            ) -> Iterator[Sequence[Tuple[object, Tuple]]]:
        """Yield batches of (record key, record) through the chosen
        route — the one pump under SELECT sources, UPDATE and DELETE.
        Records are whole, except that the storage route hands ``fields``
        to the scan it opens, and a ``covering`` route answers from its
        keys alone: the key fields, NULL elsewhere.  The access path binds
        its route (``bind_route``); an exact one is handed the residual
        filter, tested by the scan's ``key_filter`` when the keys can
        answer it and by the fetch otherwise.

        Every route serves a snapshot reader by one rule: current hits
        outside the relation's patch, read as a locking reader reads them
        (for those, current state is the snapshot's), and the snapshot's
        images of the patched records that pass the whole predicate — a
        record whose indexed field has since moved is judged on the value
        the snapshot sees; an exact route tests only the images its bounds
        reach (``PatchImages.select``).  The storage route reads through
        dispatch, whose scan answers the images after its current hits; an
        access-path route answers them first.
        """
        database = self.database
        schema = handle.schema
        method = database.registry.storage_method(
            handle.descriptor.storage_method_id)
        if access.is_storage:
            predicate = access.compiled_predicate(schema, params, ctx.stats)
            opener = method if ctx.txn.snapshot is None else database.data
            yield from self._pump(
                ctx, opener.open_scan(ctx, handle, fields, predicate), access,
                limit)
            return
        __, type_id, instance_name, __ = access.access
        attachment = database.registry.attachment_type(type_id)
        field = handle.descriptor.attachment_field(type_id)
        if field is None:
            raise QueryError(
                f"plan refers to dropped attachments on {handle.name!r}")
        instance = attachment.instance(field, instance_name)
        values = [pred.operand.eval(_EMPTY_VIEW, params)
                  for pred in access.relevant]
        route, exact = attachment.bind_route(handle, instance,
                                             access.relevant, values)
        predicate = access.compiled_predicate(schema, params, ctx.stats,
                                              exact)
        patched = ()
        images = ctx.txn.snapshot is not None \
            and database.data.snapshot_images(ctx, handle)
        if images:
            # An exact route's bounds reach the images it tests.
            patched = images.keys
            found = images.select(
                ctx, lambda: access.compiled_predicate(schema, params,
                                                       ctx.stats),
                [(pred.field_index, pred.op, value) for pred, value
                 in zip(access.relevant, values)] if exact else ())
            if found:
                yield found
        scan = attachment.open_scan(ctx, handle, instance, predicate, route)
        if scan.key_filter is not None:
            predicate = None  # the scan tested it on the keys
        if covering:
            ctx.stats.bump("executor.covering_scans")
            key_fields = instance["key_fields"]
        for batch in self._pump(ctx, scan, access, limit):
            if covering:
                nulls = [None] * len(batch)
                rows = zip(*[batch.column(i) if i in key_fields else nulls
                             for i in range(len(schema))])
                yield [(key, row) for key, row in zip(batch.keys, rows)
                       if key not in patched]
                continue
            # The access path returned record keys; fetch the whole
            # batch of records via the storage method in one call,
            # filtering in the buffer pool.
            keys = [record_key for record_key, __ in batch
                    if record_key not in patched]
            yield list(method.fetch_many(ctx, handle, keys, None, predicate))

    def _pump(self, ctx, scan, access: TableAccess,
              limit: Optional[int]) -> Iterator[list]:
        """Drain ``scan`` in adaptively sized batches, then close it."""
        try:
            size = self._start_batch_size(ctx, access, limit)
            while True:
                batch = scan.next_batch(size)
                ctx.stats.bump("executor.scan_batches")
                if not batch:
                    return
                yield batch
                if size < _BATCH_MAX:
                    size *= 2
        finally:
            scan.close()
            ctx.services.scans.unregister(scan)

    @staticmethod
    def _start_batch_size(ctx, access: TableAccess,
                          limit: Optional[int]) -> int:
        """First ``next_batch`` request size.

        With no LIMIT to stop early for, the cost estimate's expected
        cardinality — grounded in precomputed statistics when a
        statistics attachment is installed — sizes the first batch, so a
        scan expected to return thousands of rows skips the 32-row
        warm-up doublings.
        """
        if limit is not None:
            return _BATCH_MIN
        expected = getattr(access.cost, "expected_tuples", 0.0) or 0.0
        if expected <= _BATCH_MIN:
            return _BATCH_MIN
        size = _BATCH_MIN
        while size < _BATCH_MAX and size < expected:
            size *= 2
        ctx.stats.bump("executor.batch_size_hints")
        return size

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_via_index(self, ctx, plan, join, left_handle, right_handle,
                        params) -> Iterator[List[Tuple]]:
        """Join-index source: one batch of combined rows per chunk of
        precomputed pairs."""
        database = self.database
        attachment = database.registry.attachment_type_by_name("join_index")
        field = left_handle.descriptor.attachment_field(attachment.type_id)
        instance = attachment.instance(field, join.join_index_instance)
        left_method = database.registry.storage_method(
            left_handle.descriptor.storage_method_id)
        right_method = database.registry.storage_method(
            right_handle.descriptor.storage_method_id)
        left_predicate = plan.access.compiled_predicate(
            left_handle.schema, params, ctx.stats)
        right_predicate = join.right_access.compiled_predicate(
            right_handle.schema, params, ctx.stats)
        ctx.stats.bump("executor.join_index_joins")
        # Many pairs share one inner record (foreign-key joins); memoise
        # right-side fetches for the duration of the operation (the locks
        # taken by the first fetch protect the cached copy).  The memo is
        # LRU-bounded: past ``_JOIN_MEMO_MAX`` distinct keys the coldest
        # entries are dropped and refetched on the next touch, so a huge
        # inner relation costs repeat fetches, not memory.
        right_cache: "OrderedDict[object, Optional[Tuple]]" = OrderedDict()
        pairs = iter(attachment.pairs(instance))
        while True:
            chunk = list(islice(pairs, _BATCH_MAX))
            if not chunk:
                return
            ctx.stats.bump("executor.row_ops", len(chunk))
            left_keys = list(dict.fromkeys(lk for lk, __ in chunk))
            left_found = dict(left_method.fetch_many(
                ctx, left_handle, left_keys, None, left_predicate))
            right_keys = []
            for right_key in dict.fromkeys(rk for __, rk in chunk):
                if right_key in right_cache:
                    right_cache.move_to_end(right_key)
                else:
                    right_keys.append(right_key)
            if right_keys:
                right_found = dict(right_method.fetch_many(
                    ctx, right_handle, right_keys, None, right_predicate))
                for right_key in right_keys:
                    right_cache[right_key] = right_found.get(right_key)
            rows = []
            for left_key, right_key in chunk:
                left_record = left_found.get(left_key)
                right_record = right_cache[right_key]
                if left_record is not None and right_record is not None:
                    rows.append(tuple(left_record) + tuple(right_record))
            yield rows
            # Trim after the chunk is emitted — every key the chunk
            # needed is still present while it is being joined.
            if len(right_cache) > _JOIN_MEMO_MAX:
                evicted = len(right_cache) - _JOIN_MEMO_MAX
                for __ in range(evicted):
                    right_cache.popitem(last=False)
                ctx.stats.bump("executor.join_memo_evictions", evicted)

    def _join_index_nl(self, ctx, plan, join, left_handle, right_handle,
                       params) -> Iterator[List[Tuple]]:
        """Index nested-loop source: probe the inner index per outer row,
        but resolve the resulting record keys a block of outer rows at a
        time — one ``fetch_many`` call and one batch of combined rows
        cover every inner record the block needs."""
        right_method = self.database.registry.storage_method(
            right_handle.descriptor.storage_method_id)
        right_predicate = join.right_access.compiled_predicate(
            right_handle.schema, params, ctx.stats)
        found = equality_probe(self.database, right_handle,
                               (join.right_index,))
        if found is None:
            raise QueryError(
                "index nested-loop plan lost its inner access path")
        probe = found[1]
        ctx.stats.bump("executor.index_nl_joins")
        # Under a snapshot a probe's patched keys are dropped, and the
        # inner images carrying the probed value join in their place,
        # selected once per distinct value in the statement.
        images = self.database.data.snapshot_images(ctx, right_handle)
        patched = images.keys if images else ()
        by_value: Dict[object, list] = {}

        def inner_images(value) -> list:
            found = by_value.get(value)
            if found is None:
                found = by_value[value] = images.select(
                    ctx, lambda: right_predicate,
                    ((join.right_index, "=", value),))
            return found

        def emit(block):
            keys = list(dict.fromkeys(
                key for __, right_keys, __i in block for key in right_keys))
            found = dict(right_method.fetch_many(ctx, right_handle, keys,
                                                 None, right_predicate))
            rows = []
            for left_record, right_keys, right_images in block:
                left_record = tuple(left_record)
                for right_key in right_keys:
                    right_record = found.get(right_key)
                    if right_record is not None:
                        rows.append(left_record + tuple(right_record))
                rows.extend(left_record + image for __, image in right_images)
            return rows

        block: List[Tuple[Tuple, List, List]] = []
        probe_ops = 0  # one op per outer-row index probe
        try:
            for __, left_record in chain.from_iterable(
                    self._access_key_batches(ctx, left_handle, plan.access,
                                             params, plan.limit)):
                value = left_record[join.left_index]
                if value is None:
                    continue
                probe_ops += 1
                right_keys = [key for key in probe(ctx, (value,))
                              if key not in patched]
                right_images = patched and inner_images(value)
                if right_keys or right_images:
                    block.append((left_record, right_keys, right_images))
                if len(block) >= _BATCH_MIN:
                    yield emit(block)
                    block = []
            if block:
                yield emit(block)
        finally:
            if probe_ops:
                ctx.stats.bump("executor.row_ops", probe_ops)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _aggregate_fast_path(self, ctx, plan: SelectPlan) -> Optional[List]:
        """Answer ``SELECT COUNT(*)`` from a precomputed aggregate
        attachment when one exists (no scan at all)."""
        if (plan.join is not None or plan.where is not None
                or plan.group_index is not None or plan.star
                or len(plan.items) != 1):
            return None
        expr, __, aggregate = plan.items[0]
        if aggregate != "count" or expr is not None:
            return None
        handle = plan.handles[plan.alias]
        attachment = self.database.registry.attachment_type_by_name(
            "aggregate")
        field = handle.descriptor.attachment_field(attachment.type_id)
        if field is None:
            return None
        for instance in field["instances"].values():
            if instance["function"] == "count":
                if ctx.txn.snapshot is not None:
                    # Precomputed aggregates track *current* state; a
                    # snapshot reader counts through the patched scan.
                    ctx.stats.bump("mvcc.fast_path_bypasses")
                    return None
                ctx.stats.bump("executor.aggregate_fast_paths")
                return [(attachment.value(ctx, handle, instance),)]
        return None

    # ------------------------------------------------------------------
    # Modification statements
    # ------------------------------------------------------------------
    def run_insert(self, ctx, handle, columns: Optional[List[str]],
                   rows: List[List], params: Optional[dict]) -> int:
        params = params or {}
        schema = handle.schema
        records = []
        for row_exprs in rows:
            values = [expr.eval(_EMPTY_VIEW, params) for expr in row_exprs]
            if columns is None:
                record = values
                if len(record) != len(schema.fields):
                    raise QueryError(
                        f"INSERT supplies {len(record)} values for "
                        f"{len(schema.fields)} columns")
            else:
                if len(columns) != len(values):
                    raise QueryError(
                        "INSERT column list and VALUES arity differ")
                record = [None] * len(schema.fields)
                for name, value in zip(columns, values):
                    record[schema.field_index(name)] = value
            records.append(tuple(record))
        self.database.data.insert_batch(ctx, handle, records)
        return len(records)

    def run_update(self, ctx, handle, access: TableAccess,
                   assignments: Dict[int, object],
                   params: Optional[dict]) -> int:
        params = params or {}
        items = []
        for key, record in chain.from_iterable(
                self._access_key_batches(ctx, handle, access, params, None)):
            view = RecordView.from_record(record)
            values = list(record)
            for index, expr in assignments.items():
                values[index] = expr.eval(view, params)
            items.append((key, tuple(values)))
        self.database.data.update_batch(ctx, handle, items)
        return len(items)

    def run_delete(self, ctx, handle, access: TableAccess,
                   params: Optional[dict]) -> int:
        params = params or {}
        # Keys only: the delete reads the records it removes.
        victims = [key for batch in self._access_key_batches(
                   ctx, handle, access, params, None, ()) for key, __ in batch]
        self.database.data.delete_batch(ctx, handle, victims)
        return len(victims)
