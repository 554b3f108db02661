"""Columnar operator IR: every bound SELECT runs as one of these programs.

A bound :class:`~.planner.SelectPlan` lowers (:func:`lower_select`) to a
:class:`Program`: *source → optional cross-table filter → one sink*.

* A **source** is an iterator of batches handed over by the executor,
  which owns the access routes: a scan or covering-index read (one
  :class:`~repro.services.vectors.ColumnBatch` per ``next_batch``), a
  keyed join — index nested-loop or join index — yielding batches of
  combined rows,
  or :meth:`Program.hash_join`, which materialises both inputs and
  yields one :class:`PairBatch`.  Which join source runs is the
  planner's decision (``JoinStep.method``); nothing here compares costs.
* The **filter** applies the cross-table part of a join's WHERE (the
  single-table parts were pushed into the scans) and narrows the batch.
* The **sink** is one of three — plain rows (projection, ORDER BY,
  LIMIT, bounded top-k), an ungrouped fold, or a sort-based GROUP BY —
  each written once against the ``len()`` / ``column(i)`` / ``rows()`` /
  ``narrow()`` protocol both batch classes answer, so payload columns of
  a join are gathered only when a sink asks for them (late
  materialisation) and full combined rows exist only for ``SELECT *`` or
  ORDER BY.

Scalar expressions anywhere (filter, projections, aggregate arguments)
are the plan's bound :class:`~repro.services.predicate.Expr` trees, run
through :func:`~.kernels.evaluate`, whose per-row retry keeps
short-circuit semantics; every vector primitive goes through the
pluggable :mod:`.backends` backend.  Grouping is one stable sort of the key vector
plus run detection, so arrival order inside a group — and with it every
float fold — is the same on every backend.

The compiled program is cached on ``SelectPlan.columnar``; the plan
cache discards the whole payload when a referenced descriptor version
changes, so the IR is invalidated exactly with the plan that produced
it.  Anything but a typed ``PredicateError`` raised inside the machinery
surfaces as :class:`KernelFallback`, which the executor answers by
running the same program once more on the pure-Python backend.  Scan,
dispatch and fetch errors pass through untouched (batches are pulled
outside the guarded sections), so storage faults fail as storage faults.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import PredicateError
from ..services.predicate import Col
from ..services.vectors import ColumnBatch
from . import kernels
from .kernels import evaluate

__all__ = ["Program", "Runtime", "KernelFallback", "OrderKey",
           "lower_select"]


class KernelFallback(Exception):
    """The columnar machinery itself failed (a bug, an injected fault);
    ``__cause__`` is the original error.  Never raised for scan or
    dispatch errors, nor for a ``PredicateError`` the statement earned."""


class OrderKey:
    """Sort key honouring per-column ASC/DESC for one ORDER BY spec.

    ``heapq.nsmallest`` compares decorated ``(key, index, row)`` tuples,
    and tuple comparison probes ``==`` before ``<`` — both must be
    defined.  Ties fall through to the decoration index, which keeps the
    top-k selection stable, like the full sort it replaces.
    """

    __slots__ = ("row", "order_by")

    def __init__(self, row, order_by):
        self.row = row
        self.order_by = order_by

    def __lt__(self, other):
        for index, ascending in self.order_by:
            mine, theirs = self.row[index], other.row[index]
            if mine == theirs:
                continue
            return (mine < theirs) if ascending else (theirs < mine)
        return False

    def __eq__(self, other):
        return all(self.row[index] == other.row[index]
                   for index, __ in self.order_by)


class Runtime:
    """What one program execution needs from the executor: the batch
    source, the stats sink, the armed fault service, the statement
    parameters, the kernel backend, and whether the routes' order can be
    trusted — ``ordered`` is false when a relation of the plan is patched
    under the reader's snapshot (images then arrive ahead of the route's
    hits), and the plan is shared with readers for whom it is true."""

    __slots__ = ("stats", "faults", "params", "backend", "source",
                 "ordered")

    def __init__(self, stats, faults, params, backend, source=None):
        self.stats = stats
        self.faults = faults
        self.params = params
        self.backend = backend
        self.source = source
        self.ordered = True


class PairBatch:
    """A joined result held as selection-vector pairs (late
    materialisation): ``column(i)`` gathers one combined-schema column
    on demand; full row tuples exist only if :meth:`rows` is called."""

    __slots__ = ("left", "right", "left_sel", "right_sel", "left_width",
                 "backend", "_cache")

    def __init__(self, left: ColumnBatch, right: ColumnBatch,
                 left_sel: Sequence[int], right_sel: Sequence[int],
                 left_width: int, backend):
        self.left = left
        self.right = right
        self.left_sel = left_sel
        self.right_sel = right_sel
        self.left_width = left_width
        self.backend = backend
        self._cache: Dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.left_sel)

    def column(self, index: int) -> list:
        try:
            return self._cache[index]
        except KeyError:
            pass
        if index < self.left_width:
            vector = self.backend.gather(self.left.column(index),
                                         self.left_sel)
        else:
            vector = self.backend.gather(
                self.right.column(index - self.left_width), self.right_sel)
        self._cache[index] = vector
        return vector

    def narrow(self, selection: Sequence[int]) -> "PairBatch":
        backend = self.backend
        return PairBatch(self.left, self.right,
                         backend.gather(self.left_sel, selection),
                         backend.gather(self.right_sel, selection),
                         self.left_width, backend)

    def rows(self) -> List[tuple]:
        left_rows, right_rows = self.left.rows(), self.right.rows()
        return [tuple(left_rows[i]) + tuple(right_rows[j])
                for i, j in zip(self.left_sel, self.right_sel)]


class Program:
    """A lowered SELECT: the pieces the filter and the sink use.

    ``mode`` names the sink — ``"plain"`` (rows out), ``"fold"`` (one
    row of ungrouped aggregates) or ``"group"``.  ``cross_filter`` and
    each of ``project_exprs`` are bound expressions; aggregate specs are
    ``(kind, column_index_or_None, expr)`` — the index is a fast path
    for plain-column arguments, the expression handles computed ones;
    ``kind`` adds ``"first"`` (plain item inside an aggregate query) and
    ``"count_star"`` to the fold kinds.
    """

    __slots__ = ("mode", "cross_filter", "star", "project_indexes",
                 "project_exprs", "aggregates", "group_index", "order_by",
                 "sorting", "limit", "width", "left_width", "join_indexes",
                 "merge_ok")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, rt: Runtime) -> List[tuple]:
        stats = rt.stats
        sink = _SINKS[self.mode](self, rt)
        for batch in rt.source:  # scan / dispatch errors pass untouched
            try:
                faults = rt.faults
                if faults is not None and faults.armed:
                    faults.fire("columnar.kernel")
                stats.bump_many({"executor.columnar.batches": 1,
                                 "executor.columnar.rows": len(batch)})
                if self.cross_filter is not None:
                    batch = self._filter(rt, batch)
                done = sink.add(batch)
            except (KernelFallback, PredicateError):
                raise
            except Exception as exc:
                raise KernelFallback from exc
            if done:
                break  # LIMIT satisfied: stop pulling batches
        try:
            return sink.finish()
        except PredicateError:
            raise
        except Exception as exc:
            raise KernelFallback from exc

    def _filter(self, rt: Runtime, batch):
        truth = evaluate(self.cross_filter, batch, rt.params, rt.backend,
                         rt.stats)
        selection = rt.backend.select_true(truth)
        rt.stats.bump_many({"executor.columnar.kernel_calls": 1,
                            "executor.columnar.ir.kernel_calls": 2,
                            "executor.columnar.ir.filter.rows": len(truth)})
        return batch.narrow(selection)

    def project(self, rt: Runtime, batch) -> List[tuple]:
        """The output rows of one batch."""
        if self.star:
            return batch.rows()
        if self.project_indexes is not None:
            return kernels.project_rows(batch, self.project_indexes)
        vectors = [evaluate(expr, batch, rt.params, rt.backend, rt.stats)
                   for expr in self.project_exprs]
        rt.stats.bump_many({"executor.columnar.ir.kernel_calls":
                            len(vectors),
                            "executor.columnar.ir.project.rows": len(batch)})
        return kernels.zip_vectors(vectors)

    def hash_join(self, rt: Runtime, left_batches,
                  right_batches) -> Iterator[PairBatch]:
        """The hash / sort-merge join source: both inputs materialised,
        one :class:`PairBatch` out, outer-major with inner matches in
        inner arrival order.  Builds on the smaller input; pairs by
        merging instead when the plan's routes deliver both inputs
        ordered on their join columns (and ``rt.ordered`` says they did)
        and no key is NULL."""
        # Scan and dispatch errors propagate untouched.
        left_rows = list(chain.from_iterable(left_batches))
        right_rows = list(chain.from_iterable(right_batches))
        stats, backend = rt.stats, rt.backend
        left_index, right_index = self.join_indexes
        try:
            left = ColumnBatch(left_rows, self.left_width)
            right = ColumnBatch(right_rows, self.width - self.left_width)
            left_keys = left.column(left_index)
            right_keys = right.column(right_index)
            build_left = len(left_rows) <= len(right_rows)
            if rt.ordered and self.merge_ok \
                    and left.null_mask(left_index) is None \
                    and right.null_mask(right_index) is None:
                left_sel, right_sel = backend.merge_pairs(left_keys,
                                                          right_keys)
                stats.bump("executor.columnar.ir.join.merge")
            elif build_left:
                # Probe with the larger right input; one sort restores
                # outer-major output order.
                table = backend.hash_build(left_keys)
                probe_idx, build_idx = backend.hash_probe(table, right_keys)
                pairs = sorted(zip(build_idx, probe_idx))
                left_sel = [l for l, __ in pairs]
                right_sel = [r for __, r in pairs]
                stats.bump("executor.columnar.ir.join.hash")
            else:
                table = backend.hash_build(right_keys)
                left_sel, right_sel = backend.hash_probe(table, left_keys)
                stats.bump("executor.columnar.ir.join.hash")
            stats.bump_many({
                "executor.columnar.kernel_calls": 2,
                "executor.columnar.ir.kernel_calls": 2,
                "executor.columnar.ir.join.build_rows":
                    len(left_rows) if build_left else len(right_rows),
                "executor.columnar.ir.join.probe_rows":
                    len(right_rows) if build_left else len(left_rows),
                "executor.columnar.ir.join.pairs": len(left_sel)})
        except Exception as exc:
            raise KernelFallback from exc
        yield PairBatch(left, right, left_sel, right_sel, self.left_width,
                        backend)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class _PlainSink:
    """Rows out.  Without a sort each batch is projected as it arrives
    (truncated first when it would overshoot LIMIT); under ORDER BY the
    full rows are kept — all of them, or the running top-k under LIMIT —
    and projected once, after the sort.  A sort the plan elided because
    the route delivers the order is done after all when the route's
    order cannot be trusted."""

    def __init__(self, program: Program, rt: Runtime):
        self.program = program
        self.rt = rt
        self.sorting = program.sorting or (bool(program.order_by)
                                           and not rt.ordered)
        self.rows: list = []  # output rows, or full rows awaiting the sort
        self.top: list = []   # bounded top-k candidates (decorated)
        self.position = 0     # global row ordinal — the stable tiebreak

    def add(self, batch) -> bool:
        program, limit = self.program, self.program.limit
        self.rt.stats.bump("executor.columnar.kernel_calls")
        if not self.sorting:
            room = None if limit is None else limit - len(self.rows)
            if room is not None and len(batch) > room:
                batch = batch.narrow(range(room))
            self.rows.extend(program.project(self.rt, batch))
            return room is not None and len(batch) >= room
        rows = batch.rows()
        if limit is None:
            self.rows.extend(rows)
        else:
            # Bounded top-k: merge the batch into the running k-best;
            # ties resolve by arrival order, exactly as a stable sort of
            # the whole stream would.
            order_by, position = program.order_by, self.position
            decorated = [(OrderKey(row, order_by), position + i, row)
                         for i, row in enumerate(rows)]
            self.position += len(rows)
            self.top = heapq.nsmallest(limit, self.top + decorated)
        return False

    def finish(self) -> List[tuple]:
        program, stats = self.program, self.rt.stats
        if not self.sorting:
            if program.limit is not None:
                stats.bump("executor.limit_short_circuits")
            return self.rows
        if program.limit is not None:
            rows = [row for __, __, row in self.top]
            stats.bump("executor.topk")
        else:
            rows = self.rows
            for index, ascending in reversed(program.order_by):
                rows.sort(key=lambda row: row[index], reverse=not ascending)
            stats.bump("executor.sorts")
        return program.project(self.rt, ColumnBatch(rows, program.width))


class _FoldSink:
    """Ungrouped aggregates: non-NULL value lists accumulate per batch,
    folded once at the end (one row out, even over no input)."""

    def __init__(self, program: Program, rt: Runtime):
        self.program = program
        self.rt = rt
        self.values: List[list] = [[] for __ in program.aggregates]
        self.first: Optional[list] = None
        self.row_count = 0

    def add(self, batch) -> bool:
        rt, specs = self.rt, self.program.aggregates
        if self.first is None and len(batch):
            self.first = [
                evaluate(expr, batch, rt.params, rt.backend, rt.stats,
                         (0,))[0] if kind == "first" else None
                for kind, __, expr in specs]
        self.row_count += len(batch)
        for slot, (kind, index, expr) in enumerate(specs):
            if kind in ("count_star", "first"):
                continue
            if index is not None:
                vector = batch.column(index)
            else:
                vector = evaluate(expr, batch, rt.params, rt.backend,
                                  rt.stats)
                rt.stats.bump("executor.columnar.ir.kernel_calls")
            self.values[slot].extend(
                vector if None not in vector
                else [v for v in vector if v is not None])
            rt.stats.bump("executor.columnar.kernel_calls")
        return False

    def finish(self) -> List[tuple]:
        result = []
        for slot, (kind, __, __e) in enumerate(self.program.aggregates):
            if kind == "first":
                result.append(self.first[slot] if self.first is not None
                              else None)
            else:
                result.append(kernels.fold_aggregate(
                    kind, self.values[slot], self.row_count))
        return [tuple(result)]


class _GroupSink:
    """GROUP BY: key and argument vectors accumulate per batch; one
    stable sort groups them at the end."""

    def __init__(self, program: Program, rt: Runtime):
        self.program = program
        self.rt = rt
        self.keys: list = []
        self.vectors: List[Optional[list]] = [
            None if kind == "count_star" else []
            for kind, __, __e in program.aggregates]

    def add(self, batch) -> bool:
        rt, program = self.rt, self.program
        rt.stats.bump("executor.columnar.kernel_calls")
        self.keys.extend(batch.column(program.group_index))
        for slot, (kind, index, expr) in enumerate(program.aggregates):
            if kind == "count_star":
                continue
            if index is not None:
                self.vectors[slot].extend(batch.column(index))
            else:
                self.vectors[slot].extend(
                    evaluate(expr, batch, rt.params, rt.backend, rt.stats))
                rt.stats.bump("executor.columnar.ir.kernel_calls")
        return False

    def finish(self) -> List[tuple]:
        """Sort-based grouping: one stable sort, run boundaries in one
        pass, folds over gathered ordinals.  Groups emit sorted by
        ``repr(key)`` with arrival order preserved inside each group."""
        keys, vectors = self.keys, self.vectors
        if not keys:
            return []
        stats, specs = self.rt.stats, self.program.aggregates
        order, starts = self.rt.backend.group_runs(keys)
        stats.bump_many({"executor.columnar.kernel_calls": 1,
                         "executor.columnar.ir.kernel_calls": 1,
                         "executor.columnar.ir.group.rows": len(keys)})
        groups: Dict[object, List[int]] = {}
        merged = []
        total = len(order)
        for si, start in enumerate(starts):
            end = starts[si + 1] if si + 1 < len(starts) else total
            key = keys[order[start]]
            ordinals = order[start:end]
            existing = groups.get(key)
            if existing is None:
                groups[key] = ordinals
            else:
                # Equal keys split across runs (mixed-repr equal values):
                # merge and restore arrival order.
                existing.extend(ordinals)
                merged.append(key)
        for key in merged:
            groups[key].sort()
        out = []
        for key in sorted(groups, key=repr):
            ordinals = groups[key]
            row = []
            for slot, (kind, __, __e) in enumerate(specs):
                if kind == "first":
                    row.append(vectors[slot][ordinals[0]])
                elif kind == "count_star":
                    row.append(len(ordinals))
                else:
                    vector = vectors[slot]
                    values = [vector[i] for i in ordinals
                              if vector[i] is not None]
                    row.append(kernels.fold_aggregate(kind, values,
                                                      len(ordinals)))
            out.append(tuple(row))
        stats.bump_many({"executor.columnar.ir.group.groups": len(groups)})
        return out


_SINKS = {"plain": _PlainSink, "fold": _FoldSink, "group": _GroupSink}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def lower_select(plan) -> Program:
    """Compile a bound SELECT plan into its program."""
    join = plan.join
    common = dict(
        width=len(plan.combined_schema),
        left_width=len(plan.handles[plan.alias].schema.fields),
        order_by=plan.order_by, limit=plan.limit,
        sorting=bool(plan.order_by) and plan.needs_sort)
    if join is not None:
        left_order = plan.access.cost.ordered_by
        right_order = join.right_access.cost.ordered_by
        common.update(
            join_indexes=(join.left_index, join.right_index),
            merge_ok=bool(left_order and left_order[0] == join.left_index
                          and right_order
                          and right_order[0] == join.right_index),
            cross_filter=plan.where)

    if any(aggregate for __, __, aggregate in plan.items):
        specs = []
        for expr, __, aggregate in plan.items:
            if aggregate == "count" and expr is None:
                specs.append(("count_star", None, None))
            else:
                specs.append((aggregate or "first", _plain_index(expr),
                              expr))
        return Program(mode="fold" if plan.group_index is None else "group",
                       aggregates=specs, group_index=plan.group_index,
                       star=False, **common)

    project_indexes = project_exprs = None
    if not plan.star:
        project_exprs = [expr for expr, __, __a in plan.items]
        indexes = [_plain_index(expr) for expr in project_exprs]
        if all(index is not None for index in indexes):
            project_indexes = indexes
    return Program(mode="plain", star=plan.star,
                   project_indexes=project_indexes,
                   project_exprs=project_exprs, **common)


def _plain_index(expr) -> Optional[int]:
    if isinstance(expr, Col) and expr.index is not None:
        return expr.index
    return None
