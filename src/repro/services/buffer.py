"""Buffer pool.

Caches device pages in memory frames with pin/unpin accounting, LRU
replacement, and the write-ahead-logging protocol: before a dirty frame is
written back to the device, the log is forced up to the frame's
``page_lsn``.  The paper's common services let filter predicates be
evaluated "while the field values from the relation storage or access path
are still in the buffer pool" — storage methods and attachments here do
exactly that, operating on pinned :class:`~repro.services.pages.PageView`
objects.

One exception to LRU serves the looping sequential scan, for which Chou &
DeWitt's DBMIN (VLDB 1985) prescribes MRU: a scan that reads a relation
larger than the pool in page order revisits a page only after every other,
so a page it faults into a full pool goes to the eviction end.  The next
miss evicts that frame again: a repeated scan keeps the pages it found
resident, with their decoded images, cycles one frame through the rest,
and leaves the hot pages of other traffic alone.  A hit is an ordinary LRU
touch, so the resident set is stable.

A *crash* is simulated by discarding every frame without flushing; restart
recovery then rebuilds state from the device plus the stable prefix of the
log.

Recovery bookkeeping: every frame tracks its ``rec_lsn`` — the LSN of the
first update that dirtied it since it was last clean on the device.  The
dirty-page table (``dirty_page_table``) snapshots ``page_id -> rec_lsn``
for the fuzzy checkpoint, and ``min(rec_lsn)`` bounds where restart redo
must begin: everything below it is already reflected on the device.  The
candidate LSN is captured when a clean frame is pinned (before any log
record for the modification can exist), so the bound stays conservative
even for modifications in flight while a checkpoint runs.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Optional

from ..errors import BufferError_, ChecksumError
from .disk import BlockDevice
from .pages import PageView, stamp_checksum, verify_checksum

__all__ = ["BufferPool"]


class _Frame:
    __slots__ = ("page_id", "data", "pin_count", "dirty", "rec_lsn",
                 "rec_candidate", "image")

    def __init__(self, page_id: int, data: bytearray):
        self.page_id = page_id
        self.data = data
        self.pin_count = 0
        self.dirty = False
        #: LSN of the first update since the frame was last clean (0: clean).
        self.rec_lsn = 0
        #: Conservative floor for rec_lsn, captured when a clean frame is
        #: pinned — no log record of the pin's modifications can precede it.
        self.rec_candidate = 0
        #: Decoded form of ``data`` (see :meth:`BufferPool.decoded` and
        #: :meth:`BufferPool.fetch_image`), or None.  It lives and dies
        #: with the frame.
        self.image = None


class BufferPool:
    """A fixed-capacity page cache over a :class:`BlockDevice`."""

    def __init__(self, device: BlockDevice, capacity: int = 256,
                 wal_flush: Optional[Callable[[int], None]] = None,
                 lsn_source: Optional[Callable[[], int]] = None):
        if capacity < 1:
            raise BufferError_("buffer pool needs at least one frame")
        self.device = device
        self.capacity = capacity
        self.stats = device.stats
        self._wal_flush = wal_flush
        self._lsn_source = lsn_source
        #: Optional fault injector (wired by SystemServices).
        self.faults = None
        # LRU order: least-recently-used frames at the front, so eviction
        # pops from the front instead of scanning every frame.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()

    def _next_lsn(self) -> int:
        """The lowest LSN any not-yet-written log record can get.

        With no LSN source wired (standalone pools in tests) this is 1,
        which degrades gracefully to "redo from the start of the log".
        """
        return (self._lsn_source() if self._lsn_source is not None else 0) + 1

    # -- pinning -------------------------------------------------------------
    def new_page(self, page_type: int) -> PageView:
        """Allocate a device page, format it, and return it pinned."""
        page_id = self.device.allocate()
        frame = self._install(page_id, bytearray(self.device.page_size))
        frame.pin_count += 1
        frame.dirty = True
        frame.rec_lsn = frame.rec_candidate = self._next_lsn()
        self.stats.bump("buffer.pins")
        return PageView.format(page_id, frame.data, page_type)

    def fetch(self, page_id: int) -> PageView:
        """Return a pinned view of the page, reading it if not cached."""
        return PageView(page_id, self._pin(page_id).data)

    def decoded(self, page_id: int, decode: Callable[[PageView], object]):
        """``decode(page)``, computed once per resident frame and shared.

        A hit is still a pin — counted, LRU-touched, released before
        returning — so ``buffer.pins`` keeps meaning "page visited".
        Whoever asks first fills the image; it goes with the bytes it
        mirrors (frame unpinned dirty, evicted, freed, lost in
        :meth:`crash`) and is never mutated: a writer copies it first.
        """
        frame = self._pin(page_id)
        try:
            if frame.image is None:
                frame.image = decode(PageView(page_id, frame.data))
            return frame.image
        finally:
            frame.pin_count -= 1

    def fetch_image(self, page_id: int,
                    make: Callable[[PageView, bool], object],
                    looping: bool = False):
        """Pin the page (the caller unpins) and return its bytes with the
        frame's image, which the caller may only add to, under the pin.  A
        frame without one gets ``make(page, keep)``, not kept (``keep``
        false) when this pin faulted the page in.  A ``looping`` pin — a
        scan of a relation larger than the pool, in page order — that had
        to evict leaves its frame at the eviction end of the LRU order, and
        a looping hit on the frame there leaves it there."""
        keep = page_id in self._frames
        frame = self._pin(page_id, looping)
        image = frame.image
        if image is None:
            try:
                image = make(PageView(page_id, frame.data), keep)
            except BaseException:
                frame.pin_count -= 1
                raise
            if keep:
                frame.image = image
        return frame.data, image

    def _pin(self, page_id: int, looping: bool = False) -> _Frame:
        frame = self._frames.get(page_id)
        if frame is None:
            self.stats.bump("buffer.misses")
            full = len(self._frames) >= self.capacity
            frame = self._install(page_id, self._read_verified(page_id))
            if looping and full:
                self._frames.move_to_end(page_id, last=False)
        else:
            self.stats.bump("buffer.hits")
            # A looping pin that finds its page next in line for eviction
            # is the loop again on the page it just faulted in (a batch
            # that ended mid-page): a touch would evict a page it keeps.
            if not looping or next(iter(self._frames)) != page_id:
                self._frames.move_to_end(page_id)
        if frame.pin_count == 0 and not frame.dirty:
            # First pin of a clean frame: no log record of this pin's
            # modifications can exist yet, so the current log end bounds
            # the frame's eventual rec_lsn from below.
            frame.rec_candidate = self._next_lsn()
        frame.pin_count += 1
        self.stats.bump("buffer.pins")
        return frame

    def unpin(self, page_id: int, dirty: bool = False, image=None) -> None:
        """Release a pin.  A dirty unpin drops the frame's decoded image —
        the bytes it mirrored may have changed — unless the writer hands
        over ``image``: the decoded form of exactly what it wrote, or the
        frame's own image with what the write changed marked for the next
        reader to decode again (a heap page's ``PageImage.stale``)."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count == 0:
            raise BufferError_(f"unpin of unpinned page {page_id}")
        frame.pin_count -= 1
        if dirty:
            frame.image = image
            if not frame.dirty:
                frame.dirty = True
                frame.rec_lsn = frame.rec_candidate or self._next_lsn()

    @contextmanager
    def pinned(self, page_id: int, dirty: bool = False):
        """Context manager: pin a page, unpin on exit."""
        page = self.fetch(page_id)
        try:
            yield page
        finally:
            self.unpin(page_id, dirty)

    # -- flushing / lifecycle ---------------------------------------------------
    def flush_page(self, page_id: int) -> None:
        """Write one dirty page back (WAL-before-data enforced)."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self._write_back(frame)

    def flush_all(self) -> None:
        """Write every dirty page back (WAL-before-data enforced per page).

        Emptying the dirty-page table this way before a checkpoint gives
        the checkpoint the tightest possible redo bound — the background-
        writer role in ARIES terms.
        """
        for frame in list(self._frames.values()):
            if frame.dirty:
                self._write_back(frame)

    # -- recovery bookkeeping ----------------------------------------------------
    def dirty_page_table(self) -> dict:
        """Snapshot ``page_id -> rec_lsn`` for the fuzzy checkpoint.

        Pinned-but-clean frames are included with their candidate LSN: a
        modification may be in flight under the pin (logged but not yet
        marked dirty), and the candidate — captured before the pin could
        log anything — keeps the redo bound conservative.
        """
        table = {}
        for page_id, frame in self._frames.items():
            if frame.dirty:
                table[page_id] = frame.rec_lsn or 1
            elif frame.pin_count:
                table[page_id] = frame.rec_candidate or 1
        return table

    def free_page(self, page_id: int) -> None:
        """Drop a page from the pool and the device (must be unpinned)."""
        frame = self._frames.get(page_id)
        if frame is not None:
            if frame.pin_count:
                raise BufferError_(f"freeing pinned page {page_id}")
            del self._frames[page_id]
        self.device.free(page_id)

    def crash(self) -> None:
        """Simulate a crash: every frame is lost, nothing is flushed."""
        for frame in self._frames.values():
            if frame.pin_count:
                raise BufferError_(
                    f"page {frame.page_id} still pinned at crash — a storage "
                    "method leaked a pin")
        self._frames.clear()
        self.stats.bump("buffer.crashes")

    # -- internals -----------------------------------------------------------------
    def _install(self, page_id: int, data: bytearray) -> _Frame:
        if len(self._frames) >= self.capacity:
            self._evict()
        frame = _Frame(page_id, data)
        self._frames[page_id] = frame
        return frame

    def _evict(self) -> None:
        # The front of the LRU order is the least-recently-used frame;
        # pinned frames are skipped (there are at most #pins of them), so
        # eviction is O(1) amortised instead of a scan of every frame.
        victim = None
        for frame in self._frames.values():
            if frame.pin_count == 0:
                victim = frame
                break
        if victim is None:
            raise BufferError_(
                f"buffer pool exhausted: all {self.capacity} frames pinned")
        if victim.dirty:
            self._write_back(victim)
        del self._frames[victim.page_id]
        self.stats.bump("buffer.evictions")

    def _read_verified(self, page_id: int) -> bytearray:
        """Read a device page and verify its checksum before installing."""
        raw = self.device.read(page_id)
        if not verify_checksum(raw):
            self.stats.bump("buffer.checksum.failures")
            raise ChecksumError(
                f"page {page_id} failed checksum verification on fault-in "
                "(torn or corrupted on the device)")
        return bytearray(raw)

    def _write_back(self, frame: _Frame) -> None:
        # WAL-before-data: the log must be stable through the page's last
        # stamped LSN before the page bytes may reach the device.  This
        # holds on every write-back path — eviction, flush_page, flush_all.
        if self.faults is not None:
            self.faults.fire("buffer.write_back")
        if self._wal_flush is not None:
            page_lsn = PageView(frame.page_id, frame.data).page_lsn
            self._wal_flush(page_lsn)
        stamp_checksum(frame.data)
        self.device.write(frame.page_id, bytes(frame.data))
        frame.dirty = False
        frame.rec_lsn = 0
        # A frame flushed while pinned may still be modified under the pin;
        # re-arm the candidate so a later dirtying gets a fresh floor.
        frame.rec_candidate = self._next_lsn() if frame.pin_count else 0

    # -- introspection ----------------------------------------------------------------
    @property
    def cached_pages(self) -> int:
        return len(self._frames)

    def pin_count(self, page_id: int) -> int:
        frame = self._frames.get(page_id)
        return frame.pin_count if frame else 0

    def __repr__(self) -> str:
        return f"BufferPool({self.cached_pages}/{self.capacity} frames)"
