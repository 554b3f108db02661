"""Columnar operator IR: every bound SELECT runs as one of these programs.

A bound :class:`~.planner.SelectPlan` lowers (:func:`lower_select`) to a
:class:`Program`: *source → optional cross-table filter → one sink*.

* A **source** is an iterator of batches handed over by the executor,
  which owns the access routes: a scan or covering-index read (one
  :class:`~repro.services.vectors.ColumnBatch` per ``next_batch`` — the
  heap's holds, as columns, just the fields :func:`lower_select` found
  the program to read), a keyed join — index nested-loop or join index —
  yielding batches of combined rows,
  or :meth:`Program.hash_join`, which joins each input's batches into
  one and yields one :class:`PairBatch`.  Which join source runs is the
  planner's decision (``JoinStep.method``); nothing here compares costs.
* The **filter** applies the cross-table part of a join's WHERE (the
  single-table parts were pushed into the scans) and narrows the batch.
* The **sink** is one of three — plain rows (projection, ORDER BY,
  LIMIT, bounded top-k), an ungrouped fold, or a hash GROUP BY —
  each written once against the ``len()`` / ``column(i)`` / ``rows()`` /
  ``narrow()`` protocol both batch classes answer, so payload columns of
  a join are gathered only when a sink asks for them (late
  materialisation) and whole rows exist only for ``SELECT *``: a sort
  reads the order columns and permutes projected rows.

Scalar expressions anywhere (filter, projections, aggregate arguments)
are the plan's bound :class:`~repro.services.predicate.Expr` trees, run
as the code each generates (``predicate.select`` for the filter,
``predicate.evaluate`` for value vectors), whose per-row retry keeps
short-circuit semantics; gathers and joins go through the database's
:mod:`.backends` backend.  Grouping is one dict pass over the
key vector, so each group keeps its rows in arrival order and every
float fold sees its values in that order.

The compiled program is cached on ``SelectPlan.columnar``; the plan
cache discards the whole payload when a referenced descriptor version
changes, so the IR is invalidated exactly with the plan that produced
it.  Anything but a typed ``QueryError`` raised inside the machinery
(a bug, an injected fault) fails the statement as a ``QueryError`` with
the original error as its cause.  Scan, dispatch and fetch errors pass
through untouched (batches are pulled outside the guarded sections), so
storage faults fail as storage faults.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import QueryError
from ..services.predicate import Col, evaluate, select
from ..services.vectors import ColumnBatch
from . import kernels

__all__ = ["Program", "Runtime", "sorted_ordinals", "lower_select",
           "NAN_GROUP"]

#: The group key of every NaN where partial groups merge by dict (a dict
#: finds a key by identity before equality, and each NaN is its own
#: object): GROUP BY puts every NaN in one group, as it does every NULL.
NAN_GROUP = float("nan")


def _engine_fault(exc: Exception) -> QueryError:
    """The error a failure of the columnar machinery itself surfaces
    as; raised ``from`` the original."""
    return QueryError(f"SELECT failed in the columnar engine: {exc!r}")


def sorted_ordinals(keys: Sequence[Sequence], order_by) -> List[int]:
    """Row ordinals in ORDER BY order, ``keys`` holding one column per
    entry of ``order_by``: one stable sort a key, minor key first, so
    ties keep arrival order.  NULL sorts as greater than every value —
    last under ASC, first under DESC."""
    order = list(range(len(keys[0])))
    for column, (__, ascending) in reversed(list(zip(keys, order_by))):
        if None in column:
            column = [(value is None, value) for value in column]
        order.sort(key=column.__getitem__, reverse=not ascending)
    return order


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
    ``"count_star"`` to the fold kinds.  ``left_fields`` / ``right_fields``
    are the schema positions the program reads of each relation — what
    its scans are asked to decode — or ``None`` for whole records.
    """

    __slots__ = ("mode", "cross_filter", "star", "project_indexes",
                 "project_exprs", "aggregates", "group_index", "order_by",
                 "sorting", "limit", "width", "left_width", "join_indexes",
                 "merge_ok", "left_fields", "right_fields")

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
            except QueryError:
                raise  # earned by the statement, or by a wrong needed-set
            except Exception as exc:
                raise _engine_fault(exc) from exc
            if done:
                break  # LIMIT satisfied: stop pulling batches
        try:
            return sink.finish()
        except QueryError:
            raise
        except Exception as exc:
            raise _engine_fault(exc) from exc

    def _filter(self, rt: Runtime, batch):
        selection = select(self.cross_filter, batch, rt.params, rt.stats)
        rt.stats.bump_many({"executor.columnar.kernel_calls": 1,
                            "executor.columnar.ir.kernel_calls": 1,
                            "executor.columnar.ir.filter.rows": len(batch)})
        return batch.narrow(selection)

    def project(self, rt: Runtime, batch) -> List[tuple]:
        """The output rows of one batch."""
        if self.star:
            return batch.rows()
        if self.project_indexes is not None:
            return kernels.project_rows(batch, self.project_indexes)
        vectors = [evaluate(expr, batch, rt.params, rt.stats)
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
        left = ColumnBatch.concat(left_batches, self.left_width)
        right = ColumnBatch.concat(right_batches,
                                   self.width - self.left_width)
        stats, backend = rt.stats, rt.backend
        left_index, right_index = self.join_indexes
        try:
            left_keys = left.column(left_index)
            right_keys = right.column(right_index)
            build_left = len(left) <= len(right)
            if rt.ordered and self.merge_ok \
                    and None not in left_keys and None not in right_keys:
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
                    len(left) if build_left else len(right),
                "executor.columnar.ir.join.probe_rows":
                    len(right) if build_left else len(left),
                "executor.columnar.ir.join.pairs": len(left_sel)})
        except QueryError:
            raise
        except Exception as exc:
            raise _engine_fault(exc) from exc
        yield PairBatch(left, right, left_sel, right_sel, self.left_width,
                        backend)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class _PlainSink:
    """Rows out.  Without a sort each batch is projected as it arrives
    (truncated first when it would overshoot LIMIT).  Under ORDER BY only
    the order columns are read before the order is known: they are kept
    beside the projected rows and permute them once, at the end; under
    LIMIT each batch is narrowed to its k best *before* any row is
    projected, and those merge into the running k-best.  A sort the plan
    elided because the route delivers the order is done after all when
    the route's order cannot be trusted."""

    def __init__(self, program: Program, rt: Runtime):
        self.program = program
        self.rt = rt
        self.sorting = program.sorting or (bool(program.order_by)
                                           and not rt.ordered)
        self.rows: list = []  # output rows (awaiting the sort, if any)
        self.keys: List[list] = [[] for __ in program.order_by] \
            if self.sorting else []

    def add(self, batch) -> bool:
        program, limit = self.program, self.program.limit
        self.rt.stats.bump("executor.columnar.kernel_calls")
        if not self.sorting:
            room = None if limit is None else limit - len(self.rows)
            if room is not None and len(batch) > room:
                batch = batch.narrow(range(room))
            self.rows.extend(program.project(self.rt, batch))
            return room is not None and len(batch) >= room
        keys = [batch.column(index) for index, __ in program.order_by]
        if limit is not None:
            # Bounded top-k: the batch's k best join the running k-best
            # (which arrived first, and stays first among equals).
            best = sorted_ordinals(keys, program.order_by)[:limit]
            batch = batch.narrow(best)
            keys = [[column[i] for i in best] for column in keys]
        for kept, column in zip(self.keys, keys):
            kept.extend(column)
        self.rows.extend(program.project(self.rt, batch))
        if limit is not None and len(self.rows) > limit:
            best = sorted_ordinals(self.keys, program.order_by)[:limit]
            self.keys = [[column[i] for i in best] for column in self.keys]
            self.rows = [self.rows[i] for i in best]
        return False

    def finish(self) -> List[tuple]:
        program, stats, rows = self.program, self.rt.stats, self.rows
        if not self.sorting:
            if program.limit is not None:
                stats.bump("executor.limit_short_circuits")
            return rows
        stats.bump("executor.sorts" if program.limit is None
                   else "executor.topk")
        return [rows[i]
                for i in sorted_ordinals(self.keys, program.order_by)]


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
                evaluate(expr, batch, rt.params, rt.stats, (0,))[0]
                if kind == "first" else None
                for kind, __, expr in specs]
        self.row_count += len(batch)
        for slot, (kind, index, expr) in enumerate(specs):
            if kind in ("count_star", "first"):
                continue
            if index is not None:
                vector = batch.column(index)
            else:
                vector = evaluate(expr, batch, rt.params, rt.stats)
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
    """GROUP BY: key and argument vectors accumulate per batch; one dict
    pass groups them at the end."""

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
                    evaluate(expr, batch, rt.params, rt.stats))
                rt.stats.bump("executor.columnar.ir.kernel_calls")
        return False

    def finish(self) -> List[tuple]:
        """Key → row ordinals in one ``dict.setdefault`` pass, so each
        group folds its values in arrival order; groups emit sorted by
        ``repr(key)``."""
        keys, vectors = self.keys, self.vectors
        if not keys:
            return []
        stats, specs = self.rt.stats, self.program.aggregates
        groups: Dict[object, List[int]] = {}
        setdefault = groups.setdefault
        for ordinal, key in enumerate(keys):
            setdefault(key, []).append(ordinal)
        # A dict finds a key by identity before equality, so each NaN
        # object began a group of its own: every NaN is one group.
        nans = [key for key in groups if key != key]
        if len(nans) > 1:
            groups[nans[0]] = sorted(ordinal for key in nans
                                     for ordinal in groups.pop(key))
        stats.bump_many({"executor.columnar.kernel_calls": 1,
                         "executor.columnar.ir.kernel_calls": 1,
                         "executor.columnar.ir.group.rows": len(keys),
                         "executor.columnar.ir.group.groups": len(groups)})
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
        return out


_SINKS = {"plain": _PlainSink, "fold": _FoldSink, "group": _GroupSink}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def lower_select(plan) -> Program:
    """Compile a bound SELECT plan into its program."""
    join = plan.join
    left_width = len(plan.handles[plan.alias].schema.fields)
    left_fields, right_fields = _fields_read(plan, left_width)
    common = dict(
        width=len(plan.combined_schema), left_width=left_width,
        left_fields=left_fields, right_fields=right_fields,
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


def _fields_read(plan, left_width: int):
    """The schema positions the program reads of the left and of the
    right relation (each in its own schema's numbering, sorted), or
    ``(None, None)`` under ``SELECT *``: projection, aggregate arguments,
    group key, ORDER BY, and for a join its keys and cross filter.  A
    single-table WHERE is the scan's own predicate, not the program's."""
    if plan.star:
        return None, None
    read = {index for index, __ in plan.order_by or ()}
    for expr, __, __a in plan.items:
        if expr is not None:
            read |= expr.columns()
    if plan.group_index is not None:
        read.add(plan.group_index)
    join = plan.join
    if join is None:
        return tuple(sorted(read)), None
    if plan.where is not None:
        read |= plan.where.columns()
    left = {i for i in read if i < left_width} | {join.left_index}
    right = {i - left_width for i in read if i >= left_width} \
        | {join.right_index}
    return tuple(sorted(left)), tuple(sorted(right))


def _plain_index(expr) -> Optional[int]:
    if isinstance(expr, Col) and expr.index is not None:
        return expr.index
    return None
