"""Mini-SQL statement parser.

Grammar (case-insensitive keywords)::

    SELECT {* | item [, item ...]} FROM table [alias]
        [JOIN table [alias] ON qual.col = qual.col]
        [WHERE predicate] [GROUP BY column]
        [ORDER BY column [ASC|DESC] [, ...]] [LIMIT n]
    item        := expr [AS alias] | COUNT(*) | COUNT(expr) | SUM(expr)
                   | MIN(expr) | MAX(expr)
    INSERT INTO table [(col, ...)] VALUES (expr, ...) [, (expr, ...) ...]
    UPDATE table SET col = expr [, ...] [WHERE predicate]
    DELETE FROM table [WHERE predicate]
    CREATE TABLE name (col TYPE [NOT NULL], ...) [USING method]
    DROP TABLE name
    CREATE [UNIQUE] INDEX name ON table (col, ...) [USING kind]
    DROP INDEX name

Expressions (WHERE, SET values, select items) are parsed by the common
predicate evaluator's parser, so the same syntax works in DDL check
constraints, `Relation.scan(where=...)`, and queries.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import QueryError
from ..services.predicate import Expr, _Tokens, _parse_or
from .ast import (CreateIndexStmt, CreateTableStmt, DeleteStmt,
                  DropIndexStmt, DropTableStmt, InsertStmt, JoinClause,
                  SelectItem, SelectStmt, Statement, UpdateStmt)

__all__ = ["parse_statement"]

_AGGREGATES = ("count", "sum", "min", "max", "avg")
_TYPES = ("INT", "FLOAT", "STRING", "BOOL", "BYTES", "BOX")


def parse_statement(text: str) -> Statement:
    """Parse one statement (an optional trailing ';' is accepted)."""
    tokens = _Tokens(text)
    statement = _dispatch(tokens)
    tokens.accept("op", ";")
    kind, value = tokens.peek()
    if kind != "eof":
        raise QueryError(f"trailing input {value!r} in {text!r}")
    return statement


def _dispatch(tokens: _Tokens) -> Statement:
    kind, value = tokens.peek()
    if kind != "name":
        raise QueryError(f"expected a statement keyword, got {value!r}")
    head = value.lower()
    if head == "select":
        return _parse_select(tokens)
    if head == "insert":
        return _parse_insert(tokens)
    if head == "update":
        return _parse_update(tokens)
    if head == "delete":
        return _parse_delete(tokens)
    if head == "create":
        return _parse_create(tokens)
    if head == "drop":
        return _parse_drop(tokens)
    raise QueryError(f"unknown statement {value!r}")


# ---------------------------------------------------------------------------
# helpers over the shared token stream
# ---------------------------------------------------------------------------

def _keyword(tokens: _Tokens, word: str) -> None:
    kind, value = tokens.next()
    if kind not in ("name", "kw") or value.lower() != word:
        raise QueryError(f"expected {word.upper()!r}, got {value!r}")


def _accept_keyword(tokens: _Tokens, word: str) -> bool:
    kind, value = tokens.peek()
    if kind in ("name", "kw") and value.lower() == word:
        tokens.next()
        return True
    return False


def _peek_keyword(tokens: _Tokens) -> Optional[str]:
    kind, value = tokens.peek()
    if kind in ("name", "kw"):
        return value.lower()
    return None


def _identifier(tokens: _Tokens) -> str:
    kind, value = tokens.next()
    if kind != "name":
        raise QueryError(f"expected an identifier, got {value!r}")
    return value.lower()


def _qualified(tokens: _Tokens) -> str:
    name = _identifier(tokens)
    if tokens.accept("op", "."):
        return f"{name}.{_identifier(tokens)}"
    return name


def _expression(tokens: _Tokens) -> Expr:
    return _parse_or(tokens)


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------

_CLAUSE_WORDS = {"from", "where", "group", "order", "limit", "join", "on",
                 "as", "asc", "desc", "by", "using", "values", "set"}


def _parse_select(tokens: _Tokens) -> SelectStmt:
    _keyword(tokens, "select")
    star = False
    items: List[SelectItem] = []
    if tokens.accept("op", "*"):
        star = True
    else:
        items.append(_parse_select_item(tokens))
        while tokens.accept("op", ","):
            items.append(_parse_select_item(tokens))
    _keyword(tokens, "from")
    table = _identifier(tokens)
    alias = None
    if _peek_keyword(tokens) not in _CLAUSE_WORDS \
            and tokens.peek()[0] == "name":
        alias = _identifier(tokens)
    join = None
    if _accept_keyword(tokens, "join"):
        join_table = _identifier(tokens)
        join_alias = None
        if _peek_keyword(tokens) not in _CLAUSE_WORDS \
                and tokens.peek()[0] == "name":
            join_alias = _identifier(tokens)
        _keyword(tokens, "on")
        left = _qualified(tokens)
        tokens.expect("op", "=")
        right = _qualified(tokens)
        join = JoinClause(join_table, join_alias, left, right)
    where = None
    if _accept_keyword(tokens, "where"):
        where = _expression(tokens)
    group_by = None
    if _accept_keyword(tokens, "group"):
        _keyword(tokens, "by")
        group_by = _qualified(tokens)
    order_by: List[Tuple[str, bool]] = []
    if _accept_keyword(tokens, "order"):
        _keyword(tokens, "by")
        while True:
            column = _qualified(tokens)
            ascending = True
            if _accept_keyword(tokens, "desc"):
                ascending = False
            else:
                _accept_keyword(tokens, "asc")
            order_by.append((column, ascending))
            if not tokens.accept("op", ","):
                break
    limit = None
    if _accept_keyword(tokens, "limit"):
        kind, value = tokens.next()
        if kind != "number" or not value.isdigit():
            raise QueryError(f"LIMIT expects an integer, got {value!r}")
        limit = int(value)
    return SelectStmt(items, star, table, alias, join, where, order_by,
                      limit, group_by)


def _parse_select_item(tokens: _Tokens) -> SelectItem:
    kind, value = tokens.peek()
    if kind == "name" and value.lower() in _AGGREGATES:
        # Look ahead for '(' to distinguish an aggregate from a column that
        # happens to be called e.g. "count".
        save = tokens.pos
        aggregate = value.lower()
        tokens.next()
        if tokens.accept("op", "("):
            if aggregate == "count" and tokens.accept("op", "*"):
                tokens.expect("op", ")")
                expr = None
            else:
                expr = _expression(tokens)
                tokens.expect("op", ")")
            alias = None
            if _accept_keyword(tokens, "as"):
                alias = _identifier(tokens)
            return SelectItem(expr, alias, aggregate)
        tokens.pos = save
    expr = _expression(tokens)
    alias = None
    if _accept_keyword(tokens, "as"):
        alias = _identifier(tokens)
    return SelectItem(expr, alias)


# ---------------------------------------------------------------------------
# INSERT / UPDATE / DELETE
# ---------------------------------------------------------------------------

def _parse_insert(tokens: _Tokens) -> InsertStmt:
    _keyword(tokens, "insert")
    _keyword(tokens, "into")
    table = _identifier(tokens)
    columns = None
    if tokens.accept("op", "("):
        columns = [_identifier(tokens)]
        while tokens.accept("op", ","):
            columns.append(_identifier(tokens))
        tokens.expect("op", ")")
    _keyword(tokens, "values")
    rows = [_parse_value_row(tokens)]
    while tokens.accept("op", ","):
        rows.append(_parse_value_row(tokens))
    return InsertStmt(table, columns, rows)


def _parse_value_row(tokens: _Tokens) -> List[Expr]:
    tokens.expect("op", "(")
    row = [_expression(tokens)]
    while tokens.accept("op", ","):
        row.append(_expression(tokens))
    tokens.expect("op", ")")
    return row


def _parse_update(tokens: _Tokens) -> UpdateStmt:
    _keyword(tokens, "update")
    table = _identifier(tokens)
    _keyword(tokens, "set")
    assignments = {}
    while True:
        column = _identifier(tokens)
        tokens.expect("op", "=")
        assignments[column] = _expression(tokens)
        if not tokens.accept("op", ","):
            break
    where = None
    if _accept_keyword(tokens, "where"):
        where = _expression(tokens)
    return UpdateStmt(table, assignments, where)


def _parse_delete(tokens: _Tokens) -> DeleteStmt:
    _keyword(tokens, "delete")
    _keyword(tokens, "from")
    table = _identifier(tokens)
    where = None
    if _accept_keyword(tokens, "where"):
        where = _expression(tokens)
    return DeleteStmt(table, where)


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------

def _parse_create(tokens: _Tokens) -> Statement:
    _keyword(tokens, "create")
    unique = _accept_keyword(tokens, "unique")
    word = _peek_keyword(tokens)
    if word == "table":
        if unique:
            raise QueryError("UNIQUE applies to indexes, not tables")
        return _parse_create_table(tokens)
    if word == "index":
        return _parse_create_index(tokens, unique)
    raise QueryError(f"expected TABLE or INDEX after CREATE, got {word!r}")


def _parse_create_table(tokens: _Tokens) -> CreateTableStmt:
    _keyword(tokens, "table")
    name = _identifier(tokens)
    tokens.expect("op", "(")
    columns = []
    while True:
        column = _identifier(tokens)
        kind, type_word = tokens.next()
        if kind != "name" or type_word.upper() not in _TYPES:
            raise QueryError(
                f"unknown column type {type_word!r} (expected one of "
                f"{_TYPES})")
        nullable = True
        if _accept_keyword(tokens, "not"):
            _keyword(tokens, "null")
            nullable = False
        columns.append((column, type_word.upper(), nullable))
        if not tokens.accept("op", ","):
            break
    tokens.expect("op", ")")
    storage_method = "heap"
    if _accept_keyword(tokens, "using"):
        storage_method = _identifier(tokens)
    return CreateTableStmt(name, columns, storage_method)


def _parse_create_index(tokens: _Tokens, unique: bool) -> CreateIndexStmt:
    _keyword(tokens, "index")
    name = _identifier(tokens)
    _keyword(tokens, "on")
    table = _identifier(tokens)
    tokens.expect("op", "(")
    columns = [_identifier(tokens)]
    while tokens.accept("op", ","):
        columns.append(_identifier(tokens))
    tokens.expect("op", ")")
    kind = None  # the database's default index type
    if _accept_keyword(tokens, "using"):
        kind = _identifier(tokens)
    return CreateIndexStmt(name, table, columns, unique, kind)


def _parse_drop(tokens: _Tokens) -> Statement:
    _keyword(tokens, "drop")
    word = _peek_keyword(tokens)
    if word == "table":
        tokens.next()
        return DropTableStmt(_identifier(tokens))
    if word == "index":
        tokens.next()
        return DropIndexStmt(_identifier(tokens))
    raise QueryError(f"expected TABLE or INDEX after DROP, got {word!r}")
