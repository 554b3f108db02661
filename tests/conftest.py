"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Database
from repro.services import SystemServices


@pytest.fixture
def services() -> SystemServices:
    return SystemServices(page_size=1024, buffer_capacity=64)


@pytest.fixture
def db() -> Database:
    return Database(page_size=1024, buffer_capacity=128)


@pytest.fixture
def employee(db):
    """A populated EMPLOYEE relation (the paper's Figure 1 example)."""
    table = db.create_table("employee", [
        ("id", "INT", False), ("name", "STRING"), ("dept", "STRING"),
        ("salary", "FLOAT")])
    table.insert_many([
        (1, "alice", "eng", 120000.0),
        (2, "bob", "sales", 80000.0),
        (3, "carol", "eng", 95000.0),
        (4, "dave", "finance", 70000.0),
        (5, "erin", "eng", 105000.0),
    ])
    return table


@pytest.fixture
def node_dumps(monkeypatch) -> list:
    """One element per B-tree node pickled (``_Node.dump``) since it was
    last emptied: what a tree write costs, counted."""
    from repro.access.btree_core import _Node
    dumps, real_dump = [], _Node.dump
    monkeypatch.setattr(_Node, "dump",
                        lambda node: dumps.append(1) or real_dump(node))
    return dumps


class CountingHeader:
    """Stands in for ``pages._HEADER``: counts the 25-byte header decodes."""

    def __init__(self, real):
        self.real, self.decodes = real, 0

    def unpack_from(self, *args):
        self.decodes += 1
        return self.real.unpack_from(*args)

    def __getattr__(self, name):
        return getattr(self.real, name)


@pytest.fixture
def header_decodes(monkeypatch) -> CountingHeader:
    from repro.services import pages
    counter = CountingHeader(pages._HEADER)
    monkeypatch.setattr(pages, "_HEADER", counter)
    return counter


def tree_pages(buffer, tree) -> dict:
    """The bytes of every page of a B-tree, by page id."""
    found = {}

    def visit(page_id):
        with buffer.pinned(page_id) as page:
            found[page_id] = bytes(page.data)
        node = tree._read(page_id)
        for child in () if node.leaf else node.children:
            visit(child)

    visit(tree.state["root"])
    return found
