"""Cross-shard query pushdown: fragment plans and the merge program.

The coordinator's pull-up path ships every qualifying row back through
the gateway before the executor aggregates — an 8-shard COUNT ships
O(rows) over the wire and visits shards one at a time.  This module
splits a bound single-table ``SelectPlan`` at the scan boundary into

* a **shard-local fragment** — filters, projections and *partial*
  aggregates (COUNT/SUM/MIN/MAX; AVG as SUM+COUNT; GROUP BY as
  per-shard partial group states) that runs entirely inside each child
  database as one remote call, and
* a **coordinator merge program** — partial-state combine for
  aggregates, hash-merge for grouped partials, and a k-way ordered
  merge with top-k recombination for ORDER BY + LIMIT.

The split is only attempted for shapes whose merge provably reproduces
the pull-up answer bit-for-bit:

* SUM/AVG pushdown is restricted to plain INT/BOOL columns, where
  partial sums re-associate exactly (float addition does not);
* plain items inside aggregates ("first row" semantics) ride on a
  hidden per-shard row count so empty shards contribute nothing;
* ordered children (key-merged sharded scans) are gated off by the
  storage method, because per-shard fragments cannot reproduce the
  interleaved tie order of the global stream.

Everything else stays on the pull-up path; a join may aggregate first
instead (eager aggregation, :func:`rollup_for`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..access.statistics import statistics_for
from ..core.records import RecordView
from ..services.predicate import Col, conjuncts
from .ir import NAN_GROUP, sorted_ordinals
from .planner import QualifiedSchema, SelectPlan, TableAccess, make_eligible

__all__ = ["FragmentFallback", "FragmentPlan", "plan_fragment",
           "fragment_for", "plan_rollup", "rollup_for", "merge_rollup",
           "build_child_plan", "run_fragment_on", "merge_fragment_results",
           "pushdown_estimate",
           "projection_narrows", "ships_less"]

#: Column types whose SUM re-associates exactly under regrouping.  The
#: schema validators admit only true ints for these, so partial sums
#: merged across shards equal the single global sum bit-for-bit.
_EXACT_SUM_TYPES = ("INT", "BOOL")


class FragmentFallback(Exception):
    """A fragment could not produce the answer; the caller must re-run
    the query on the pull-up path (fail closed, never a partial
    answer)."""


class FragmentPlan:
    """One shard-local fragment plus its coordinator merge program.

    ``kind`` is ``"aggregate"`` (one partial row per shard),
    ``"group"`` (partial group states keyed by ``key_slot``) or
    ``"rows"`` (plain rows, optionally child-side top-k).  The
    ``child_*`` fields describe the plan each shard executes; the
    unprefixed fields keep the original query shape for the merge (and
    for :func:`build_child_plan` with ``final=True``, which pushes the
    *whole* query to a single remote database — the foreign method's
    one-message path).
    """

    __slots__ = ("kind", "alias", "where",
                 "child_items", "child_star", "child_order_by",
                 "child_needs_sort", "child_limit", "child_group_index",
                 "merge_specs", "key_slot", "rows_slot",
                 "items", "star", "order_by", "limit", "group_index",
                 "child_plans", "partial", "right_fields")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)
        self.child_plans = {}


def fragment_for(plan: SelectPlan) -> Optional[FragmentPlan]:
    """The plan's fragment split, computed once and cached on the plan
    (``False`` caches ineligibility)."""
    fragment = getattr(plan, "fragment", None)
    if fragment is None:
        fragment = plan_fragment(plan) or False
        plan.fragment = fragment
    return fragment or None


def plan_fragment(plan: SelectPlan) -> Optional[FragmentPlan]:
    """Split ``plan`` at the scan boundary (a join: before it), or
    ``None`` if no split reproduces the pull-up answer exactly."""
    if plan.join is not None:
        return plan_rollup(plan)
    if getattr(plan, "covering", False) or not plan.access.is_storage:
        return None
    fragment = FragmentPlan()
    fragment.alias = plan.alias
    fragment.where = plan.access.predicate
    fragment.items = plan.items
    fragment.star = plan.star
    fragment.order_by = plan.order_by
    fragment.limit = plan.limit
    fragment.group_index = plan.group_index
    if any(aggregate for __, __, aggregate in plan.items):
        # Pull-up ignores ORDER BY/LIMIT on aggregate queries;
        # keep the shapes we push identical to the shapes we merge.
        if plan.order_by or plan.limit is not None:
            return None
        return _plan_aggregate_fragment(plan, fragment)
    return _plan_rows_fragment(plan, fragment)


def _plan_aggregate_fragment(plan, fragment) -> Optional[FragmentPlan]:
    schema = plan.combined_schema
    partial: List[Tuple] = []
    specs: List[Tuple] = []
    for expr, __, aggregate in plan.items:
        if aggregate is None:
            partial.append((expr, None, None))
            specs.append(("first", len(partial) - 1))
        elif aggregate == "count":
            partial.append((expr, None, "count"))
            specs.append(("count", len(partial) - 1))
        elif aggregate in ("min", "max"):
            partial.append((expr, None, aggregate))
            specs.append((aggregate, len(partial) - 1))
        elif aggregate in ("sum", "avg"):
            if not _exact_sum_column(expr, schema):
                return None  # float sums do not re-associate exactly
            if aggregate == "sum":
                partial.append((expr, None, "sum"))
                specs.append(("sum", len(partial) - 1))
            else:
                partial.append((expr, None, "sum"))
                partial.append((expr, None, "count"))
                specs.append(("avg", len(partial) - 2, len(partial) - 1))
        else:
            return None
    fragment.merge_specs = specs
    if plan.group_index is None:
        fragment.kind = "aggregate"
        # Hidden per-shard row count: 'first' items must skip shards
        # whose filtered stream was empty (reuse a COUNT(*) slot when
        # the query already computes one).
        rows_slot = next((slot for slot, (expr, __, agg)
                          in enumerate(partial)
                          if agg == "count" and expr is None), None)
        if rows_slot is None:
            partial.append((None, None, "count"))
            rows_slot = len(partial) - 1
        fragment.rows_slot = rows_slot
    else:
        fragment.kind = "group"
        name = schema.fields[plan.group_index].name
        partial.append((Col(name, plan.group_index), None, None))
        fragment.key_slot = len(partial) - 1
    fragment.child_items = partial
    fragment.child_star = False
    fragment.child_order_by = []
    fragment.child_needs_sort = False
    fragment.child_limit = None
    fragment.child_group_index = plan.group_index
    return fragment


def _plan_rows_fragment(plan, fragment) -> Optional[FragmentPlan]:
    fragment.kind = "rows"
    fragment.child_group_index = None
    if plan.order_by and plan.needs_sort:
        # Child-side top-k on full rows; the coordinator merges the runs
        # (ties broken by shard index = global stream order) and
        # projects after the limit, exactly as the pull-up path
        # sorts-then-projects.
        fragment.child_items = []
        fragment.child_star = True
        fragment.child_order_by = plan.order_by
        fragment.child_needs_sort = True
        fragment.child_limit = plan.limit
        return fragment
    if plan.order_by:
        # The planner cleared the sort because the chosen access path
        # is already ordered; per-shard fragments cannot reproduce
        # that interleaving.
        return None
    fragment.child_items = plan.items
    fragment.child_star = plan.star
    fragment.child_order_by = []
    fragment.child_needs_sort = False
    fragment.child_limit = plan.limit
    return fragment


def _exact_sum_column(expr, schema) -> bool:
    if not isinstance(expr, Col) or expr.index is None:
        return False
    return schema.fields[expr.index].type_code in _EXACT_SUM_TYPES


# ---------------------------------------------------------------------------
# The roll-up split: group the FROM relation before a dimension join
# ---------------------------------------------------------------------------

#: Rows per join key the FROM relation must be expected to hold for the
#: roll-up split to run: past every crossover measured against the hash
#: join (13 at 8 shards, 5 on a heap; EXPERIMENTS.md, E23 crossover).
ROLLUP_ROWS_PER_KEY = 16


def plan_rollup(plan: SelectPlan) -> Optional[FragmentPlan]:
    """Eager aggregation of a hash join grouped by a non-FLOAT JOIN column
    whose other items aggregate FROM columns exactly: a ``partial`` plan
    grouping the FROM relation by join key (run by :func:`rollup_for`)."""
    join, group = plan.join, plan.group_index
    handle = plan.handles[plan.alias]
    width = len(handle.schema.fields)
    if join.method != "hash" or plan.where is not None or plan.order_by \
            or plan.limit is not None or group is None or group < width \
            or plan.combined_schema.fields[group].type_code == "FLOAT":
        return None  # FLOAT keys that compare equal may differ in repr
    for expr, __, aggregate in plan.items:
        if expr is not None and not (isinstance(expr, Col) and (
                expr.index == group if aggregate is None
                else expr.index < width)):
            return None
    partial = SelectPlan(
        statement_text=f"<rollup:{plan.table}>", table=plan.table,
        alias=plan.alias, access=plan.access, group_index=join.left_index,
        combined_schema=QualifiedSchema.combine([(plan.alias, handle.schema)]),
        items=[item for item in plan.items if item[2]],
        handles={plan.alias: handle})
    rollup = _plan_aggregate_fragment(partial, FragmentPlan())
    if not (rollup and partial.items):
        return None  # a float sum, or no aggregate
    partial.items = rollup.child_items
    rollup.key_slot = len(partial.items)   # the group value, appended
    specs = iter(rollup.merge_specs)
    rollup.merge_specs = [next(specs) if aggregate
                          else ("first", rollup.key_slot)
                          for __, __, aggregate in plan.items]
    rollup.partial, rollup.group_index = partial, group - width
    rollup.right_fields = tuple(sorted({join.right_index, group - width}))
    return rollup


def rollup_for(ctx, plan: SelectPlan) -> Optional[FragmentPlan]:
    """The join plan's roll-up split, if it is to run now."""
    # Decided at every run: over ROLLUP_ROWS_PER_KEY FROM rows expected
    # per join key, keys by the statistics sketch or the rows' square root.
    rollup = plan.join is not None and fragment_for(plan)
    return rollup if rollup and ships_less(
        ctx, plan.handles[plan.alias], rollup.partial, rollup,
        ROLLUP_ROWS_PER_KEY) else None


def merge_rollup(plan: SelectPlan, partials: List[Tuple],
                 right_batches) -> List[Tuple]:
    """The roll-up's partial groups meet the JOIN relation's rows."""
    # Once per matching row, NULL and NaN never join; then merge as
    # shards' do.
    rollup, right_key = plan.fragment, plan.join.right_index
    by_key = {row[-1]: row for row in partials
              if row[-1] is not None and row[-1] == row[-1]}
    rows = [by_key[key] + (value,) for batch in right_batches
            for key, value in zip(batch.column(right_key),
                                  batch.column(rollup.group_index))
            if key in by_key]
    return merge_fragment_results(rollup, [rows], None)


# ---------------------------------------------------------------------------
# Child plan construction and execution
# ---------------------------------------------------------------------------

def build_child_plan(database, ctx, relation: str, fragment: FragmentPlan,
                     final: bool = False) -> SelectPlan:
    """A bound plan executing ``fragment`` against ``relation`` inside
    ``database``.

    The storage route (access path zero) is pinned rather than
    cost-selected: the row stream order — and with it tie order under
    stable sorts and 'first' semantics — must match the order the
    coordinator's pull-up scan would have produced.  ``final=True``
    builds the *original* query shape instead of the partial one (the
    single-remote case, where the remote database computes the whole
    answer).
    """
    handle = database.catalog.entry(relation).handle
    where = fragment.where
    eligible = make_eligible(conjuncts(where)) if where is not None else []
    method = database.registry.storage_method(
        handle.descriptor.storage_method_id)
    cost = method.estimate_cost(ctx, handle, eligible)
    access = TableAccess(relation, ("storage",), cost, (), where)
    alias = fragment.alias
    if final:
        items, star = fragment.items, fragment.star
        order_by = fragment.order_by
        needs_sort = bool(fragment.order_by)
        limit, group_index = fragment.limit, fragment.group_index
    else:
        items, star = fragment.child_items, fragment.child_star
        order_by = fragment.child_order_by
        needs_sort = fragment.child_needs_sort
        limit, group_index = fragment.child_limit, fragment.child_group_index
    return SelectPlan(
        statement_text=f"<fragment:{relation}>",
        table=relation, alias=alias, access=access, join=None,
        combined_schema=QualifiedSchema.combine([(alias, handle.schema)]),
        items=items, star=star, where=None, order_by=order_by,
        needs_sort=needs_sort, limit=limit, group_index=group_index,
        handles={alias: handle}, covering=False)


def run_fragment_on(database, ctx, relation: str, fragment: FragmentPlan,
                    params: dict, final: bool = False,
                    cache_key=None) -> List[Tuple]:
    """Execute the fragment's child plan through ``database``'s own
    executor (filters, partial aggregates and top-k all run where the
    data lives).  Plans are cached per ``(final, cache_key)`` so
    repeated queries re-bind nothing."""
    key = (final, cache_key)
    plan = fragment.child_plans.get(key) if cache_key is not None else None
    if plan is None:
        plan = build_child_plan(database, ctx, relation, fragment, final)
        if cache_key is not None:
            fragment.child_plans[key] = plan
    return database.query_engine.executor.run_select(ctx, plan, params)


# ---------------------------------------------------------------------------
# The coordinator merge program
# ---------------------------------------------------------------------------

def merge_fragment_results(fragment: FragmentPlan,
                           sources: List[List[Tuple]],
                           params: dict) -> List[Tuple]:
    """Combine per-shard fragment results into the final answer.

    ``sources`` must be in shard order — tie order under ordered
    merges and 'first' semantics depend on it.
    """
    if fragment.kind == "aggregate":
        partials = [rows[0] for rows in sources if rows]
        return [_merge_partials(fragment, partials)]
    if fragment.kind == "group":
        groups = {}
        for rows in sources:
            for row in rows:
                key = row[fragment.key_slot]
                groups.setdefault(key if key == key else NAN_GROUP,
                                  []).append(row)
        return [_merge_partials(fragment, groups[key])
                for key in sorted(groups, key=repr)]
    if fragment.child_needs_sort:
        merged = _merge_ordered(sources, fragment.order_by, fragment.limit)
        if fragment.star:
            return merged
        projected = []
        for row in merged:
            view = RecordView.from_record(row)
            projected.append(tuple(expr.eval(view, params)
                                   for expr, __, __agg in fragment.items))
        return projected
    out = [row for rows in sources for row in rows]
    if fragment.limit is not None:
        out = out[:fragment.limit]
    return out


def _merge_partials(fragment: FragmentPlan,
                    rows: List[Tuple]) -> Tuple:
    """Combine partial aggregate states (one row per shard, or one row
    per shard per group) into one result row."""
    out = []
    for spec in fragment.merge_specs:
        op = spec[0]
        if op == "count":
            out.append(sum(row[spec[1]] for row in rows))
        elif op in ("sum", "min", "max"):
            values = [row[spec[1]] for row in rows
                      if row[spec[1]] is not None]
            if not values:
                out.append(None)
            elif op == "sum":
                out.append(sum(values))
            elif op == "min":
                out.append(min(values))
            else:
                out.append(max(values))
        elif op == "avg":
            total = sum(row[spec[2]] for row in rows)
            if not total:
                out.append(None)
            else:
                out.append(sum(row[spec[1]] for row in rows
                               if row[spec[1]] is not None) / total)
        else:  # "first": the value from the first shard that saw a row
            if fragment.rows_slot is not None:
                out.append(next((row[spec[1]] for row in rows
                                 if row[fragment.rows_slot]), None))
            else:
                out.append(rows[0][spec[1]] if rows else None)
    return tuple(out)


def _merge_ordered(sources: List[List[Tuple]], order_by,
                   limit: Optional[int]) -> List[Tuple]:
    """Per-shard ordered runs as one: the stable sort of the shard-major
    stream (a tie keeps shard, then position, order), which is what the
    pull-up path sorts — the sort finds the runs and merges them."""
    rows = [row for source in sources for row in source]
    order = sorted_ordinals([[row[index] for row in rows]
                             for index, __ in order_by], order_by)
    return [rows[i] for i in (order if limit is None else order[:limit])]


# ---------------------------------------------------------------------------
# Gating estimates (shared by the sharded and foreign methods)
# ---------------------------------------------------------------------------

def pushdown_estimate(fragment: FragmentPlan, shards: int,
                      expected: float,
                      distinct: Optional[float] = None
                      ) -> Tuple[float, float]:
    """``(pushdown_rows, pullup_rows)`` expected over the wire."""
    expected = max(expected or 0.0, 0.0)
    if fragment.kind == "aggregate":
        return (float(shards), expected)
    if fragment.kind == "group":
        if distinct is None:
            # No statistics: assume sqrt(n) groups rather than pulling
            # everything back on a guess.
            distinct = max(1.0, expected ** 0.5)
        return (shards * min(float(distinct), expected), expected)
    if fragment.child_limit is not None:
        return (min(expected, float(shards * fragment.child_limit)),
                expected)
    return (expected, expected)


def projection_narrows(fragment: FragmentPlan, field_count: int) -> bool:
    """True when a rows-kind fragment ships projected items narrower
    than the full record — fewer bytes even at equal row counts."""
    return (fragment.kind == "rows" and not fragment.child_star
            and len(fragment.child_items) < field_count)


def ships_less(ctx, handle, plan, fragment: FragmentPlan, shards: int,
               distinct: Optional[float] = None) -> bool:
    """The gate both remote methods put before a pushdown: is the
    fragment expected to ship less than the pull-up scan would?

    ``distinct`` is the caller's estimate for a grouping column (the
    sharded method's union of per-shard sketches); without one the
    coordinator's own statistics attachment is asked.
    """
    if fragment.kind == "group" and distinct is None:
        table_stats = statistics_for(ctx, handle)
        if table_stats is not None:
            distinct = table_stats.distinct(plan.group_index)
    expected = getattr(plan.access.cost, "expected_tuples", 0.0) or 0.0
    wire, pull = pushdown_estimate(fragment, shards, expected, distinct)
    return wire < pull or projection_narrows(fragment,
                                             len(handle.schema.fields))
