"""A simulated block device.

The paper's storage methods live on real disks; this reproduction runs on a
simulated page-addressed block device so that the recovery protocol (what
is on "stable storage" after a crash) and the cost model (how many page
reads and writes an access performs) behave exactly as on hardware, while
the benchmarks stay laptop-scale.

Pages persist across a simulated crash; anything in the buffer pool that
was never written back does not.  The device counts reads and writes and
can charge an optional fixed latency per access, which the foreign-database
gateway and the I/O-bound benchmarks use.

Two robustness facilities live here:

* **Stale page ids** — a freed page id is remembered, so I/O against it
  raises :class:`~repro.errors.StalePageError` (a dangling reference held
  by an extension) instead of the generic never-allocated error.
* **Checkpoint archive** — :meth:`snapshot_archive` copies every allocated
  page's bytes at each complete checkpoint.  After a crash,
  :meth:`repair_corrupt_pages` restores any page whose checksum fails from
  the archived image (or zero-fills a page allocated after the snapshot);
  restart redo from the checkpoint then reconstructs every later update.
  The archive models the page image recoverable from the last checkpoint's
  backup/mirror in a real system.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..errors import PageError, StalePageError
from .pages import verify_checksum
from .stats import StatsService

__all__ = ["PAGE_SIZE", "BlockDevice"]

#: Default page size in bytes.  Small enough that multi-page structures
#: (B-trees, heaps) exercise their splitting/chaining logic on modest data.
PAGE_SIZE = 4096


class BlockDevice:
    """Fixed-size page store with allocation, free list, and I/O accounting."""

    def __init__(self, page_size: int = PAGE_SIZE,
                 stats: Optional[StatsService] = None,
                 name: str = "disk"):
        if page_size < 128:
            raise PageError(f"page size {page_size} too small")
        self.page_size = page_size
        self.name = name
        self.stats = stats if stats is not None else StatsService()
        self._pages: Dict[int, bytes] = {}
        self._free: list = []
        self._freed: Set[int] = set()   # ids freed and not yet re-allocated
        self._next_id = 0
        self._archive: Dict[int, bytes] = {}  # page images at last checkpoint
        #: Optional fault injector (wired by SystemServices).
        self.faults = None

    # -- allocation -----------------------------------------------------------
    def allocate(self) -> int:
        """Allocate a page and return its id.  The page starts zeroed."""
        if self._free:
            page_id = self._free.pop()
            self._freed.discard(page_id)
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = bytes(self.page_size)
        self.stats.bump(f"{self.name}.allocations")
        return page_id

    def ensure_allocated(self, page_id: int) -> None:
        """Install ``page_id`` as an allocated, zeroed page.

        Heap redo of a page allocation calls this when the device lacks
        the page — on a standby, which replays the primary's allocations
        by id instead of the allocator's own order, or at restart for a
        page a later compensation freed.  A no-op when the page already
        exists.
        """
        if page_id in self._pages:
            return
        if page_id in self._free:
            self._free.remove(page_id)
            self._freed.discard(page_id)
        self._pages[page_id] = bytes(self.page_size)
        if page_id >= self._next_id:
            self._next_id = page_id + 1
        self.stats.bump(f"{self.name}.allocations")

    def free(self, page_id: int) -> None:
        """Return a page to the free list."""
        self._check(page_id)
        del self._pages[page_id]
        self._free.append(page_id)
        self._freed.add(page_id)
        # A freed page must not be resurrected by torn-page repair: a later
        # incarnation under the same id would get the prior tenant's bytes.
        self._archive.pop(page_id, None)
        self.stats.bump(f"{self.name}.frees")

    # -- I/O --------------------------------------------------------------------
    def read(self, page_id: int) -> bytes:
        self._check(page_id)
        if self.faults is not None:
            self.faults.fire("disk.read")
        self.stats.bump(f"{self.name}.reads")
        return self._pages[page_id]

    def write(self, page_id: int, data: bytes) -> None:
        self._check(page_id)
        if len(data) != self.page_size:
            raise PageError(
                f"write of {len(data)} bytes to page of size {self.page_size}")
        if self.faults is not None:
            self.faults.fire("disk.write")
        self._pages[page_id] = bytes(data)
        self.stats.bump(f"{self.name}.writes")

    # -- checkpoint archive / torn-page repair ----------------------------------
    def snapshot_archive(self) -> int:
        """Archive every allocated page's current device image.

        Called once per complete checkpoint; the archive is the repair
        source for pages that fail their checksum at restart.  Returns the
        number of pages archived.
        """
        self._archive = dict(self._pages)
        return len(self._archive)

    def archived(self, page_id: int) -> Optional[bytes]:
        return self._archive.get(page_id)

    def corrupt_page_ids(self) -> list:
        """Allocated pages whose current bytes fail checksum verification."""
        return [pid for pid, data in sorted(self._pages.items())
                if not verify_checksum(data)]

    def repair_corrupt_pages(self) -> dict:
        """Restore checksum-failing pages from the checkpoint archive.

        A corrupt page with an archived (and itself valid) image is
        restored from it; a corrupt page allocated after the snapshot is
        zero-filled (its entire content postdates the checkpoint, so redo
        reconstructs it from scratch).  Restart redo from the master
        checkpoint then replays every update missing from the restored
        image.  Returns ``{"restored": n, "zero_filled": m}``.
        """
        restored = zero_filled = 0
        for page_id in self.corrupt_page_ids():
            image = self._archive.get(page_id)
            if image is not None and verify_checksum(image):
                self._pages[page_id] = image
                restored += 1
            else:
                self._pages[page_id] = bytes(self.page_size)
                zero_filled += 1
        self.stats.bump(f"{self.name}.repairs.restored", restored)
        self.stats.bump(f"{self.name}.repairs.zero_filled", zero_filled)
        return {"restored": restored, "zero_filled": zero_filled}

    # -- introspection ------------------------------------------------------------
    def exists(self, page_id: int) -> bool:
        return page_id in self._pages

    def page_ids(self) -> list:
        """Allocated page ids in order (uncounted — benchmark introspection).

        Recovery benchmarks use this to compare the byte-exact device state
        of two databases after restart without perturbing the I/O counters.
        """
        return sorted(self._pages)

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    @property
    def reads(self) -> int:
        return self.stats.get(f"{self.name}.reads")

    @property
    def writes(self) -> int:
        return self.stats.get(f"{self.name}.writes")

    def _check(self, page_id: int) -> None:
        if page_id not in self._pages:
            if page_id in self._freed:
                raise StalePageError(
                    f"page {page_id} on {self.name} was freed — the caller "
                    "holds a stale page id")
            raise PageError(f"page {page_id} is not allocated on {self.name}")

    def __repr__(self) -> str:
        return (f"BlockDevice({self.name}, {self.allocated_pages} pages of "
                f"{self.page_size}B)")
