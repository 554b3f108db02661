"""Query AST.

The statement forms accepted by the mini-SQL front end.  Expressions reuse
the common predicate evaluator's :mod:`repro.services.predicate` AST, so
the same expression nodes flow from the parser through planning into
storage-level filtering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..services.predicate import Expr

__all__ = ["SelectItem", "JoinClause", "SelectStmt", "InsertStmt",
           "UpdateStmt", "DeleteStmt", "CreateTableStmt", "DropTableStmt",
           "CreateIndexStmt", "DropIndexStmt", "Statement"]


class Statement:
    """Base class for parsed statements."""


class SelectItem:
    """One output column: an expression plus an optional alias.

    ``aggregate`` is set ("count" | "sum" | "min" | "max") when the item is
    an aggregate call; ``expr`` is then the argument (None for COUNT(*)).
    """

    __slots__ = ("expr", "alias", "aggregate")

    def __init__(self, expr: Optional[Expr], alias: Optional[str] = None,
                 aggregate: Optional[str] = None):
        self.expr = expr
        self.alias = alias
        self.aggregate = aggregate

    def __repr__(self) -> str:
        if self.aggregate:
            inner = self.expr.to_text() if self.expr is not None else "*"
            return f"SelectItem({self.aggregate}({inner}))"
        return f"SelectItem({self.expr.to_text()})"


class JoinClause:
    """``JOIN <table> [AS alias] ON <left col> = <right col>``."""

    __slots__ = ("table", "alias", "left_column", "right_column")

    def __init__(self, table: str, alias: Optional[str],
                 left_column: str, right_column: str):
        self.table = table
        self.alias = alias or table
        self.left_column = left_column
        self.right_column = right_column

    def __repr__(self) -> str:
        return (f"JoinClause({self.table} ON {self.left_column} = "
                f"{self.right_column})")


class SelectStmt(Statement):
    __slots__ = ("items", "star", "table", "alias", "join", "where",
                 "order_by", "limit", "group_by")

    def __init__(self, items: Sequence[SelectItem], star: bool, table: str,
                 alias: Optional[str] = None,
                 join: Optional[JoinClause] = None,
                 where: Optional[Expr] = None,
                 order_by: Optional[List[Tuple[str, bool]]] = None,
                 limit: Optional[int] = None,
                 group_by: Optional[str] = None):
        self.items = list(items)
        self.star = star
        self.table = table
        self.alias = alias or table
        self.join = join
        self.where = where
        self.order_by = order_by or []
        self.limit = limit
        self.group_by = group_by


class InsertStmt(Statement):
    __slots__ = ("table", "columns", "rows")

    def __init__(self, table: str, columns: Optional[List[str]],
                 rows: List[List[Expr]]):
        self.table = table
        self.columns = columns
        self.rows = rows


class UpdateStmt(Statement):
    __slots__ = ("table", "assignments", "where")

    def __init__(self, table: str, assignments: Dict[str, Expr],
                 where: Optional[Expr]):
        self.table = table
        self.assignments = assignments
        self.where = where


class DeleteStmt(Statement):
    __slots__ = ("table", "where")

    def __init__(self, table: str, where: Optional[Expr]):
        self.table = table
        self.where = where


class CreateTableStmt(Statement):
    __slots__ = ("name", "columns", "storage_method", "attributes")

    def __init__(self, name: str, columns: List[Tuple[str, str, bool]],
                 storage_method: str = "heap",
                 attributes: Optional[dict] = None):
        self.name = name
        self.columns = columns
        self.storage_method = storage_method
        self.attributes = attributes or {}


class DropTableStmt(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class CreateIndexStmt(Statement):
    __slots__ = ("name", "table", "columns", "unique", "kind")

    def __init__(self, name: str, table: str, columns: List[str],
                 unique: bool = False, kind: Optional[str] = None):
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique
        self.kind = kind


class DropIndexStmt(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
