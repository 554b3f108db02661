"""Cost-based access path selection.

The paper's planning interface: the query planner hands each storage
method and access-path attachment a list of *eligible predicates*; the
extension decides their *relevance* and returns an I/O + CPU estimate; the
planner compares the estimates and picks the cheapest route.  "In a
similar manner, the query planner will be able to determine the cost of
using a storage method or attachment to scan a relation in a random order
or with the tuples ordered by particular record fields" — ordering
properties ride along on the cost objects and let the planner skip sorts.

Join planning considers three methods — a join index (when one exists for
the join predicate), index nested-loop (when the inner relation has a
keyed access path on the join column), and a hash join over both
relations' chosen access routes — costed on one basis, the outer access
plus what each of its expected rows costs on the inner side.  The choice
made here is the one the executor runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.attachment import equality_probe
from ..core.schema import Field, Schema
from ..errors import QueryError, SchemaError
from ..services.predicate import (And, Col, Expr, conjuncts,
                                  simple_comparison)
from .ast import SelectStmt
from .cost import AccessCost, EligiblePredicate
from .plans import CompiledPredicateCache

__all__ = ["QualifiedSchema", "TableAccess", "JoinStep", "SelectPlan",
           "plan_table_access", "plan_select", "bind_combined"]


class QualifiedSchema(Schema):
    """A schema whose fields are named ``alias.column``.

    Unqualified references resolve when they are unambiguous across the
    constituent relations, mirroring SQL name resolution.
    """

    def field_index(self, name: str) -> int:
        name = name.lower()
        try:
            return super().field_index(name)
        except SchemaError:
            matches = [i for i, f in enumerate(self.fields)
                       if f.name.split(".", 1)[-1] == name]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise SchemaError(
                    f"column {name!r} is ambiguous; qualify it") from None
            raise

    @classmethod
    def combine(cls, parts: Sequence[Tuple[str, Schema]]) -> "QualifiedSchema":
        fields = []
        for alias, schema in parts:
            for field in schema.fields:
                fields.append(Field(f"{alias}.{field.name}",
                                    field.type_code, field.nullable))
        return cls("+".join(alias for alias, __ in parts), fields)


class TableAccess:
    """The chosen route into one relation.

    ``access`` is ``("storage",)`` — the paper's access path zero — or
    ``("attachment", type_id, instance_name, type_name)``.
    """

    __slots__ = ("relation", "access", "cost", "relevant", "predicate",
                 "ordered_by", "candidates", "predicate_cache", "consumed",
                 "residual", "residual_cache")

    def __init__(self, relation: str, access: tuple, cost: AccessCost,
                 relevant: Tuple[EligiblePredicate, ...],
                 predicate: Optional[Expr],
                 candidates: Optional[List[Tuple[tuple, AccessCost]]] = None):
        self.relation = relation
        self.access = access
        self.cost = cost
        self.relevant = relevant
        self.predicate = predicate  # full bound predicate
        self.ordered_by = cost.ordered_by
        self.candidates = candidates or []
        self.predicate_cache = CompiledPredicateCache()
        #: The conjuncts the route declared it implies, and what is left.
        self.consumed = cost.consumed
        rest = [c for c in conjuncts(predicate) if c not in cost.consumed]
        self.residual = (None if not rest else rest[0] if len(rest) == 1
                         else And(rest))
        self.residual_cache = CompiledPredicateCache()

    def compiled_predicate(self, schema, params, stats=None,
                           residual: bool = False):
        """The whole predicate, or the ``residual``, compiled once per plan
        (cloned per params)."""
        if residual:
            return self.residual_cache.get(self.residual, schema, params,
                                           stats)
        return self.predicate_cache.get(self.predicate, schema, params, stats)

    @property
    def is_storage(self) -> bool:
        return self.access[0] == "storage"

    def explain(self) -> dict:
        if self.is_storage:
            route = "storage scan (access path zero)"
        else:
            __, type_id, instance, type_name = self.access
            route = f"{type_name} {instance!r} (type id {type_id})"
        return {"relation": self.relation, "route": route,
                "estimated_io": round(self.cost.io_pages, 2),
                "estimated_cpu": round(self.cost.cpu_tuples, 2),
                "estimated_rows": round(self.cost.expected_tuples, 2),
                "candidates_considered": len(self.candidates),
                "consumed": [c.to_text() for c in self.consumed]}


class JoinStep:
    """How the right-hand relation joins onto the left rows."""

    __slots__ = ("method", "right", "left_index", "right_index",
                 "right_access", "join_index_instance", "cost")

    def __init__(self, method: str, right: str, left_index: int,
                 right_index: int, right_access: Optional[TableAccess],
                 join_index_instance: Optional[str], cost: float):
        self.method = method  # "join_index" | "index_nl" | "hash"
        self.right = right
        self.left_index = left_index      # join column in the left schema
        self.right_index = right_index    # join column in the right schema
        self.right_access = right_access
        self.join_index_instance = join_index_instance
        self.cost = cost

    def explain(self) -> dict:
        return {"method": self.method, "right": self.right,
                "estimated_cost": round(self.cost, 2)}


class SelectPlan:
    """A fully bound SELECT plan, ready for repeated execution."""

    __slots__ = ("statement_text", "table", "alias", "access", "join",
                 "combined_schema", "items", "star", "where",
                 "order_by", "needs_sort", "limit", "group_index",
                 "handles", "covering", "where_cache", "columnar",
                 "fragment")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))
        if self.where_cache is None:
            self.where_cache = CompiledPredicateCache()

    def explain(self, rollup=None) -> dict:
        out = {"access": self.access.explain()}
        if getattr(self, "covering", False):
            out["covering"] = True  # answered from the index alone
        if self.join is not None:
            out["join"] = self.join.explain()
            if rollup is not None:  # its partials' key is their last item
                out["rollup"] = {"by": rollup.child_items[-1][0].name}
        if self.order_by:
            out["order_by"] = [(self.combined_schema.fields[i].name, asc)
                               for i, asc in self.order_by]
            out["needs_sort"] = self.needs_sort
        return out


# ---------------------------------------------------------------------------
# Access selection for one relation
# ---------------------------------------------------------------------------

def make_eligible(bound_conjuncts: Sequence[Expr]) -> List[EligiblePredicate]:
    eligible = []
    for expr in bound_conjuncts:
        simple = simple_comparison(expr)
        if simple is not None:
            index, op, operand = simple
            eligible.append(EligiblePredicate(expr, index, op, operand))
            continue
        bounds = _between_bounds(expr)
        if bounds is not None:
            eligible.extend(bounds)
            continue
        eligible.append(EligiblePredicate(expr))
    return eligible


def _between_bounds(expr: Expr) -> Optional[List[EligiblePredicate]]:
    """Decompose ``col BETWEEN lo AND hi`` into two range predicates that
    access paths can exploit; both carry the BETWEEN itself as ``expr``, so
    a route consumes it only when it bounds by both."""
    from ..services.predicate import Between
    if not isinstance(expr, Between):
        return None
    if not isinstance(expr.item, Col) or expr.item.index is None:
        return None
    if expr.lo.column_names() or expr.hi.column_names():
        return None
    return [EligiblePredicate(expr, expr.item.index, ">=", expr.lo),
            EligiblePredicate(expr, expr.item.index, "<=", expr.hi)]


def plan_table_access(ctx, handle, where: Optional[Expr],
                      relation_name: Optional[str] = None) -> TableAccess:
    """Ask every route for a cost and keep the cheapest.

    ``where`` must already be bound to the relation's base schema.
    """
    database = ctx.database
    registry = database.registry
    bound_conjuncts = conjuncts(where)
    eligible = make_eligible(bound_conjuncts)

    method = registry.storage_method(handle.descriptor.storage_method_id)
    candidates: List[Tuple[tuple, AccessCost]] = [
        (("storage",), method.estimate_cost(ctx, handle, eligible))]
    for type_id, field in handle.descriptor.present_attachments():
        attachment = registry.attachment_type(type_id)
        if not attachment.is_access_path:
            continue
        for instance_name, instance in field["instances"].items():
            cost = attachment.estimate_cost(ctx, handle, instance_name,
                                            instance, eligible)
            if cost is not None:
                candidates.append(
                    (("attachment", type_id, instance_name, attachment.name),
                     cost))
    access, cost = min(candidates, key=lambda pair: pair[1].total)
    ctx.stats.bump("planner.access_selections")
    return TableAccess(relation_name or handle.name, access, cost,
                       tuple(cost.relevant), where, candidates)


# ---------------------------------------------------------------------------
# Predicate splitting for joins
# ---------------------------------------------------------------------------

def _split_conjuncts(where: Optional[Expr], left_width: int
                     ) -> Tuple[Optional[Expr], Optional[Expr],
                                Optional[Expr]]:
    """Split a combined-schema predicate into left-only / right-only /
    cross parts (expressed in combined-schema indexes)."""
    left_parts, right_parts, cross_parts = [], [], []
    for expr in conjuncts(where):
        columns = expr.columns()
        if columns and max(columns) < left_width:
            left_parts.append(expr)
        elif columns and min(columns) >= left_width:
            right_parts.append(expr)
        else:
            cross_parts.append(expr)

    def rejoin(parts):
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else And(parts)

    return rejoin(left_parts), rejoin(right_parts), rejoin(cross_parts)


def _shift_expr(expr: Expr, delta: int) -> Expr:
    """Rewrite bound column indexes by ``delta`` (combined → base schema)."""
    if isinstance(expr, Col):
        return Col(expr.name.split(".", 1)[-1], expr.index + delta)
    clone = expr.__class__.__new__(expr.__class__)
    for slot in expr.__slots__:
        value = getattr(expr, slot)
        if isinstance(value, Expr):
            value = _shift_expr(value, delta)
        elif isinstance(value, tuple) and value \
                and all(isinstance(v, Expr) for v in value):
            value = tuple(_shift_expr(v, delta) for v in value)
        setattr(clone, slot, value)
    return clone


# ---------------------------------------------------------------------------
# SELECT planning
# ---------------------------------------------------------------------------

def plan_select(ctx, statement: SelectStmt, text: str) -> SelectPlan:
    database = ctx.database
    left_handle = database.catalog.handle(statement.table)
    handles = {statement.alias: left_handle}
    if statement.join is None:
        combined = QualifiedSchema.combine(
            [(statement.alias, left_handle.schema)])
        where = statement.where.bind(combined) if statement.where else None
        # Single table: combined indexes equal base indexes, so the bound
        # predicate works directly against storage-level records.
        access = plan_table_access(ctx, left_handle, where, statement.table)
        join_step = None
    else:
        right_handle = database.catalog.handle(statement.join.table)
        handles[statement.join.alias] = right_handle
        combined = QualifiedSchema.combine(
            [(statement.alias, left_handle.schema),
             (statement.join.alias, right_handle.schema)])
        where = statement.where.bind(combined) if statement.where else None
        left_width = len(left_handle.schema)
        left_only, right_only, cross = _split_conjuncts(where, left_width)
        left_where = _shift_expr(left_only, 0) if left_only else None
        right_where = (_shift_expr(right_only, -left_width)
                       if right_only else None)
        access = plan_table_access(ctx, left_handle, left_where,
                                   statement.table)
        join_step = _plan_join(ctx, statement, combined, left_handle,
                               right_handle, right_where, access)
        where = cross  # left/right parts are applied at their scans

    items, star = _bind_items(statement, combined)
    order_by = [(combined.field_index(name), asc)
                for name, asc in statement.order_by]
    needs_sort = bool(order_by)
    if order_by and statement.join is None and access.ordered_by:
        first_index, ascending = order_by[0]
        if (len(order_by) == 1 and ascending
                and access.ordered_by[0] == first_index):
            needs_sort = False
    group_index = (combined.field_index(statement.group_by)
                   if statement.group_by else None)
    covering = (statement.join is None
                and _covers_needed(ctx, left_handle, access, items, star,
                                   where, order_by, group_index))
    return SelectPlan(statement_text=text, table=statement.table,
                      alias=statement.alias, access=access, join=join_step,
                      combined_schema=combined, items=items,
                      star=star, where=where, order_by=order_by,
                      needs_sort=needs_sort, limit=statement.limit,
                      group_index=group_index, handles=handles,
                      covering=covering)


def _covers_needed(ctx, handle, access: TableAccess, items, star: bool,
                   where, order_by, group_index) -> bool:
    """True when the chosen access path can answer the query by itself.

    The paper: "Some access path attachments may be able to return record
    fields when the access path key is a multi-field value" — when every
    field the query touches lives in the index key of a path whose scans
    return key columns (``returns_key_columns``), the executor skips the
    base-relation fetch entirely.
    """
    if access.is_storage or star:
        return False
    __, type_id, instance_name, __ = access.access
    if not ctx.database.registry.attachment_type(type_id).returns_key_columns:
        return False
    field = handle.descriptor.attachment_field(type_id)
    if field is None:
        return False
    instance = field["instances"].get(instance_name)
    if instance is None:
        return False
    key_fields = set(instance["key_fields"])
    needed = set()
    for expr, __, __agg in items:
        if expr is not None:
            needed |= expr.columns()
    if where is not None:
        needed |= where.columns()
    needed |= {index for index, __ in order_by}
    if group_index is not None:
        needed.add(group_index)
    return bool(needed) and needed <= key_fields


def _bind_items(statement: SelectStmt, combined: QualifiedSchema):
    if statement.star:
        return [], True
    items = []
    for item in statement.items:
        expr = item.expr.bind(combined) if item.expr is not None else None
        items.append((expr, item.alias, item.aggregate))
    return items, False


def _plan_join(ctx, statement: SelectStmt, combined: QualifiedSchema,
               left_handle, right_handle, right_where: Optional[Expr],
               left_access: TableAccess) -> JoinStep:
    database = ctx.database
    registry = database.registry
    join = statement.join
    left_combined_index = combined.field_index(join.left_column)
    right_combined_index = combined.field_index(join.right_column)
    left_width = len(left_handle.schema)
    if left_combined_index >= left_width <= right_combined_index \
            or (left_combined_index < left_width
                and right_combined_index < left_width):
        raise QueryError(
            "the join condition must reference one column from each table")
    if left_combined_index > right_combined_index:
        left_combined_index, right_combined_index = (right_combined_index,
                                                     left_combined_index)
    left_index = left_combined_index
    right_index = right_combined_index - left_width

    right_access = plan_table_access(ctx, right_handle, right_where,
                                     join.table)
    outer, inner = left_access.cost, right_access.cost
    options: List[Tuple[str, float, Optional[str]]] = []

    # 1. Join index: pairs precomputed for exactly this equi-join.  Every
    # pair is walked whatever the outer filter, so the attachment's own
    # estimate is the whole cost.
    join_attachment = registry.attachment_type_by_name("join_index")
    ji_field = left_handle.descriptor.attachment_field(
        join_attachment.type_id)
    if ji_field is not None:
        for instance_name, instance in ji_field["instances"].items():
            if (instance["role"] == "left"
                    and instance["other"] == right_handle.name
                    and instance["field_index"] == left_index
                    and instance["other_field_index"] == right_index):
                options.append(("join_index",
                                join_attachment.join_cost(instance).total,
                                instance_name))

    # 2. Index nested loop: one keyed probe on the inner join column per
    # row the outer access is expected to return.
    probe = equality_probe(database, right_handle, (right_index,))
    if probe is not None:
        options.append(("index_nl",
                        outer.total + outer.expected_tuples * probe[0],
                        None))

    # 3. Hash join: read the inner relation through its own route and
    # build on it once, then one hash probe per outer row.
    options.append(("hash",
                    outer.total + inner.total + inner.expected_tuples
                    + outer.expected_tuples, None))

    method, cost, instance_name = min(options, key=lambda o: o[1])
    ctx.stats.bump("planner.join_selections")
    return JoinStep(method, join.table, left_index, right_index,
                    right_access, instance_name, cost)
