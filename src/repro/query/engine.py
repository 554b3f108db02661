"""The query engine: parse → (cached) bind → execute.

Ties together the mini-SQL parser, the cost-based planner, the plan
cache with dependency-driven invalidation, and the executor.  DDL
statements run immediately through the data definition layer (they are
never cached); DML statements are translated once and re-executed from
their bound plans.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..core.authorization import DELETE, INSERT, SELECT, UPDATE
from ..core.dependency import attachment_token, relation_token
from ..errors import QueryError
from .ast import (CreateIndexStmt, CreateTableStmt, DeleteStmt,
                  DropIndexStmt, DropTableStmt, InsertStmt, SelectStmt,
                  UpdateStmt)
from . import fragments
from .executor import Executor
from .parser import parse_statement
from .planner import SelectPlan, plan_select, plan_table_access
from .plans import PlanCache

__all__ = ["QueryEngine"]


class QueryEngine:
    """One per database; owns the plan cache and the executor."""

    def __init__(self, database):
        self.database = database
        self.cache = PlanCache(database)
        self.executor = Executor(database)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, text: str, params: Optional[dict] = None,
                scope=None):
        """Run a statement.  ``scope`` is the caller's transaction and
        principal scope — a Session, or the database itself (the default);
        the plan cache is shared across all scopes."""
        statement_text = text.strip()
        head = statement_text.split(None, 1)[0].lower() if statement_text \
            else ""
        if head in ("create", "drop"):
            return self._execute_ddl(statement_text)
        if head == "select":
            return self._execute_select(statement_text, params, scope)
        if head == "insert":
            return self._execute_insert(statement_text, params, scope)
        if head == "update":
            return self._execute_update(statement_text, params, scope)
        if head == "delete":
            return self._execute_delete(statement_text, params, scope)
        raise QueryError(f"unsupported statement: {statement_text[:40]!r}")

    def explain(self, text: str, scope=None) -> dict:
        """Plan (through the cache) and describe the chosen routes."""
        statement_text = text.strip()
        db = scope if scope is not None else self.database
        with db.autocommit() as ctx:
            plan = self.cache.execute(
                statement_text,
                lambda: self._translate_select(ctx, statement_text))
            if plan.kind != "select":
                raise QueryError("EXPLAIN supports SELECT statements")
            return plan.payload.explain(
                fragments.rollup_for(ctx, plan.payload))

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _execute_select(self, text: str, params, scope=None) -> List[Tuple]:
        db = scope if scope is not None else self.database
        with db.autocommit() as ctx:
            plan = self.cache.execute(
                text, lambda: self._translate_select(ctx, text))
            payload: SelectPlan = plan.payload
            for alias, handle in payload.handles.items():
                db.authorization.check(db.principal, handle.name, SELECT)
            return self.executor.run_select(ctx, payload, params)

    def _translate_select(self, ctx, text: str):
        statement = parse_statement(text)
        if not isinstance(statement, SelectStmt):
            raise QueryError(f"expected a SELECT statement: {text[:40]!r}")
        plan = plan_select(ctx, statement, text)
        dependencies: Set[str] = {relation_token(h.name)
                                  for h in plan.handles.values()}
        if not plan.access.is_storage:
            dependencies.add(attachment_token(plan.access.access[2]))
        if plan.join is not None:
            if plan.join.join_index_instance:
                dependencies.add(
                    attachment_token(plan.join.join_index_instance))
            if plan.join.right_access is not None \
                    and not plan.join.right_access.is_storage:
                dependencies.add(
                    attachment_token(plan.join.right_access.access[2]))
        return "select", plan, dependencies

    # ------------------------------------------------------------------
    # INSERT / UPDATE / DELETE
    # ------------------------------------------------------------------
    def _execute_insert(self, text: str, params, scope=None) -> int:
        db = scope if scope is not None else self.database
        with db.autocommit() as ctx:
            plan = self.cache.execute(
                text, lambda: self._translate_insert(ctx, text))
            handle, columns, rows = plan.payload
            db.authorization.check(db.principal, handle.name, INSERT)
            return self.executor.run_insert(ctx, handle, columns, rows,
                                            params)

    def _translate_insert(self, ctx, text: str):
        statement = parse_statement(text)
        if not isinstance(statement, InsertStmt):
            raise QueryError(f"expected INSERT: {text[:40]!r}")
        handle = self.database.catalog.handle(statement.table)
        payload = (handle, statement.columns, statement.rows)
        return "insert", payload, {relation_token(handle.name)}

    def _execute_update(self, text: str, params, scope=None) -> int:
        db = scope if scope is not None else self.database
        with db.autocommit() as ctx:
            plan = self.cache.execute(
                text, lambda: self._translate_update(ctx, text))
            handle, access, assignments = plan.payload
            db.authorization.check(db.principal, handle.name, UPDATE)
            return self.executor.run_update(ctx, handle, access, assignments,
                                            params)

    def _translate_update(self, ctx, text: str):
        statement = parse_statement(text)
        if not isinstance(statement, UpdateStmt):
            raise QueryError(f"expected UPDATE: {text[:40]!r}")
        handle = self.database.catalog.handle(statement.table)
        where = (statement.where.bind(handle.schema)
                 if statement.where else None)
        access = plan_table_access(ctx, handle, where, statement.table)
        assignments = {
            handle.schema.field_index(name): expr.bind(handle.schema)
            for name, expr in statement.assignments.items()}
        dependencies = {relation_token(handle.name)}
        if not access.is_storage:
            dependencies.add(attachment_token(access.access[2]))
        return "update", (handle, access, assignments), dependencies

    def _execute_delete(self, text: str, params, scope=None) -> int:
        db = scope if scope is not None else self.database
        with db.autocommit() as ctx:
            plan = self.cache.execute(
                text, lambda: self._translate_delete(ctx, text))
            handle, access = plan.payload
            db.authorization.check(db.principal, handle.name, DELETE)
            return self.executor.run_delete(ctx, handle, access, params)

    def _translate_delete(self, ctx, text: str):
        statement = parse_statement(text)
        if not isinstance(statement, DeleteStmt):
            raise QueryError(f"expected DELETE: {text[:40]!r}")
        handle = self.database.catalog.handle(statement.table)
        where = (statement.where.bind(handle.schema)
                 if statement.where else None)
        access = plan_table_access(ctx, handle, where, statement.table)
        dependencies = {relation_token(handle.name)}
        if not access.is_storage:
            dependencies.add(attachment_token(access.access[2]))
        return "delete", (handle, access), dependencies

    # ------------------------------------------------------------------
    # DDL (immediate; never cached)
    # ------------------------------------------------------------------
    def _execute_ddl(self, text: str):
        statement = parse_statement(text)
        db = self.database
        if isinstance(statement, CreateTableStmt):
            return db.create_table(statement.name, statement.columns,
                                   statement.storage_method,
                                   statement.attributes or None)
        if isinstance(statement, DropTableStmt):
            db.drop_table(statement.name)
            return None
        if isinstance(statement, CreateIndexStmt):
            options = {"unique": True} if statement.unique else {}
            if statement.kind is not None:
                options["kind"] = statement.kind
            return db.create_index(statement.name, statement.table,
                                   statement.columns, **options)
        if isinstance(statement, DropIndexStmt):
            db.drop_attachment(statement.name)
            return None
        raise QueryError(f"unsupported DDL: {text[:40]!r}")
