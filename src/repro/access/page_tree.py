"""One node per page: the store under the B-tree and the R-tree.

A node is one record, in slot 0 of a page typed for its tree.  A tree
keeps only its node codec (``dump()`` / ``load(page)``), how a node lists
its children, and its own search, split and batch algorithms; this
module keeps the rest, once for both.

Reads go through the frame's decoded image (``BufferPool.decoded``): a
node is decoded once per resident frame, a visit is still a pin, and
every reader shares the image.  So nobody changes it: a writer changes a
``copy()``, and the copy a page write stored — frozen from then on —
becomes the frame's image.  A write that fails (``PageError``: the node
fits no page) leaves the page and the image as they were; a new page
that takes no node is given back.

The state dict (part of an attachment instance) holds ``root`` (page
id), ``height``, ``nentries`` and ``pages``.  The pages do not survive a
crash: restart empties the tree (:meth:`PageTree.reset`) and rebuilds it.
Its free walk then reads the nodes as stored, some older than the frames
the crash lost, so a tree frees a page only once every dirty page is
stored (:meth:`PageTree._free`): a stored node names no page another
owner may have taken since.  A page the crash lost ends the walk.
"""

from __future__ import annotations

from typing import Optional

from ..errors import PageError
from ..services.buffer import BufferPool
from ..services.pages import HEADER_SIZE, SLOT_SIZE

__all__ = ["PageTree"]


class PageTree:
    """A tree of one-page nodes bound to a buffer pool and a state dict."""

    #: The node class: ``node_type(leaf)`` is an empty node; a node has
    #: ``leaf``, ``children`` (page ids, interior only), ``dump()`` and
    #: ``copy()``, and ``node_type.load(page)`` decodes one.
    node_type: type
    #: The page type a node's page is formatted with.
    page_type: int
    #: Entries a node holds before it splits, unless a tree is given its own.
    max_entries: int

    def __init__(self, buffer: BufferPool, state: dict,
                 max_entries: Optional[int] = None):
        self.buffer = buffer
        self.state = state
        if max_entries is not None:
            self.max_entries = max_entries
        #: The largest node dump a page takes.
        self._byte_capacity = (buffer.device.page_size - HEADER_SIZE
                               - 2 * SLOT_SIZE - 8)

    @classmethod
    def of(cls, buffer: BufferPool, instance: dict) -> "PageTree":
        """The tree of an attachment instance: its ``tree`` state, and its
        ``max_entries`` when it has one."""
        return cls(buffer, instance["tree"], instance.get("max_entries"))

    @classmethod
    def create(cls, buffer: BufferPool, state: Optional[dict] = None,
               max_entries: Optional[int] = None) -> "PageTree":
        """Allocate an empty tree; fills and returns ``state``."""
        tree = cls(buffer, {} if state is None else state, max_entries)
        tree._plant()
        return tree

    def destroy(self) -> None:
        """Free every page of the tree."""
        self._free_all()
        self.state.update(root=-1, height=0, nentries=0, pages=0)

    def reset(self) -> None:
        """Free every page and start again empty (rebuild-on-restart)."""
        self._free_all()
        self._plant()

    def _plant(self) -> None:
        root = self.node_type(True)
        self.state.update(root=-1, height=1, nentries=0, pages=0)
        self.state["root"] = self._allocate(root, root.dump())

    def _free_all(self) -> None:
        try:
            self._free_subtree(self.state["root"])
        except PageError:
            # Pages lost to a crash (the simulated device absorbs them), or
            # no tree at all (root -1, destroyed).
            pass

    def _free_subtree(self, page_id: int) -> None:
        node = self._read(page_id)
        if not node.leaf:
            for child in node.children:
                self._free_subtree(child)
        self.buffer.free_page(page_id)

    # -- the page discipline -------------------------------------------------
    def _read(self, page_id: int):
        """The node on ``page_id`` — the buffer frame's decoded image,
        shared with every other reader: never mutate it, ``copy()`` first."""
        return self.buffer.decoded(page_id, self.node_type.load)

    def _write(self, page_id: int, node, raw: bytes) -> None:
        """Put ``raw`` — ``node.dump()`` — on the page; ``node``, which
        nobody changes from here on, becomes the frame's image."""
        page = self.buffer.fetch(page_id)
        try:
            page.update(0, raw)
        except PageError:
            # ``update`` put the old record back: the frame stays as clean
            # as it was and keeps its image.
            self.buffer.unpin(page_id)
            raise
        self.buffer.unpin(page_id, dirty=True, image=node)

    def _allocate(self, node, raw: bytes) -> int:
        """A new page holding ``raw`` — ``node.dump()`` — as in
        :meth:`_write`; a node that fits no page gives the page back."""
        page = self.buffer.new_page(self.page_type)
        try:
            page.insert(raw)
        except PageError:
            self.buffer.unpin(page.page_id)
            self.buffer.free_page(page.page_id)
            raise
        self.buffer.unpin(page.page_id, dirty=True, image=node)
        self.state["pages"] += 1
        return page.page_id

    def _free(self, page_id: int) -> None:
        """Give back the page of a node the tree no longer reaches.  The
        page is at once another owner's, so every dirty page is stored
        first: no stored node names a freed page (see the module note)."""
        self.buffer.flush_all()
        self.buffer.free_page(page_id)
        self.state["pages"] -= 1
