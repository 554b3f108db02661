"""Slotted pages.

The page layout used by every page-based extension (heap storage, B-trees,
R-trees).  A page carries:

* a header with the ``page_lsn`` (LSN of the last log record applied to the
  page — the write-ahead-logging and redo-idempotence anchor), a page type
  byte, the slot count, the free-space offset, and a ``next_page`` link for
  chained structures;
* record bytes growing forward from the header;
* a slot directory growing backward from the end of the page, one
  ``(offset, length)`` entry per slot.

Deleted slots are tombstoned (offset ``0xFFFF``) so record identifiers
(page, slot) stay stable; tombstoned slots are reused by later inserts.

The header also reserves a CRC32 checksum field.  The checksum is *not*
maintained while the page lives in the buffer pool — it is stamped by the
pool on write-back and verified on fault-in, so a torn or corrupted device
page is detected the moment it re-enters the system (or at restart, which
sweeps all allocated pages).  A stored checksum of 0 means "unstamped"
(freshly allocated, never written back) and always verifies.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Tuple

from ..errors import PageError

__all__ = ["PageView", "HEADER_SIZE", "SLOT_SIZE", "NO_PAGE", "TOMBSTONE",
           "page_checksum", "stamp_checksum", "verify_checksum"]

# page_lsn, page_type, slot_count, free_off, next_page, checksum
_HEADER = struct.Struct("<qBHHqI")
HEADER_SIZE = 28  # _HEADER.size == 25, padded for alignment headroom
SLOT_SIZE = 4
_SLOT = struct.Struct("<HH")  # offset, length
TOMBSTONE = 0xFFFF  # the offset of a deleted slot
NO_PAGE = -1

_CHECKSUM_OFF = 21  # byte offset of the checksum field within the header
_CHECKSUM = struct.Struct("<I")


def page_checksum(data) -> int:
    """CRC32 over the page with the checksum field itself zeroed.

    0 is reserved to mean "unstamped"; a computed CRC of 0 maps to 1.
    """
    crc = zlib.crc32(data[:_CHECKSUM_OFF])
    crc = zlib.crc32(b"\x00\x00\x00\x00", crc)
    crc = zlib.crc32(data[_CHECKSUM_OFF + 4:], crc)
    return crc or 1


def stamp_checksum(data: bytearray) -> int:
    """Write the page's checksum into its header field; returns it."""
    crc = page_checksum(data)
    _CHECKSUM.pack_into(data, _CHECKSUM_OFF, crc)
    return crc


def verify_checksum(data) -> bool:
    """True when the stored checksum matches (or the page is unstamped)."""
    stored = _CHECKSUM.unpack_from(data, _CHECKSUM_OFF)[0]
    if stored == 0:
        return True  # never stamped: a fresh page that was never flushed
    return stored == page_checksum(data)


class PageView:
    """A mutable view over one page's bytes.

    The buffer pool hands out ``PageView`` objects wrapping the frame's
    ``bytearray``; mutations go straight into the frame, and the caller is
    responsible for unpinning with ``dirty=True``.
    """

    __slots__ = ("page_id", "data")

    def __init__(self, page_id: int, data: bytearray):
        if len(data) < HEADER_SIZE + SLOT_SIZE:
            raise PageError(f"page buffer too small ({len(data)} bytes)")
        self.page_id = page_id
        self.data = data

    @classmethod
    def format(cls, page_id: int, data: bytearray, page_type: int,
               next_page: int = NO_PAGE) -> "PageView":
        """Initialise a freshly allocated page."""
        page = cls(page_id, data)
        _HEADER.pack_into(data, 0, 0, page_type, 0, HEADER_SIZE, next_page, 0)
        return page

    # -- header fields ---------------------------------------------------------
    def _header(self) -> Tuple[int, int, int, int, int, int]:
        return _HEADER.unpack_from(self.data, 0)

    def _set_header(self, page_lsn, page_type, slot_count, free_off, next_page,
                    checksum=0):
        _HEADER.pack_into(self.data, 0, page_lsn, page_type, slot_count,
                          free_off, next_page, checksum)

    @property
    def page_lsn(self) -> int:
        return self._header()[0]

    @page_lsn.setter
    def page_lsn(self, lsn: int) -> None:
        header = list(self._header())
        header[0] = lsn
        self._set_header(*header)

    @property
    def page_type(self) -> int:
        return self._header()[1]

    @property
    def slot_count(self) -> int:
        return self._header()[2]

    @property
    def free_offset(self) -> int:
        return self._header()[3]

    @property
    def next_page(self) -> int:
        return self._header()[4]

    @next_page.setter
    def next_page(self, page_id: int) -> None:
        header = list(self._header())
        header[4] = page_id
        self._set_header(*header)

    @property
    def checksum(self) -> int:
        """The stored checksum (0: unstamped; maintained on write-back)."""
        return self._header()[5]

    # -- slot directory ----------------------------------------------------------
    def _slot_pos(self, slot: int) -> int:
        return len(self.data) - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise PageError(f"slot {slot} out of range on page {self.page_id}")
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, length)

    def slot_in_use(self, slot: int) -> bool:
        offset, _ = self._read_slot(slot)
        return offset != TOMBSTONE

    def directory(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The whole slot directory in one unpack: ``(offsets, lengths)``
        indexed by slot, a deleted slot's offset being ``TOMBSTONE``."""
        count = self.slot_count
        flat = struct.unpack_from(f"<{2 * count}H", self.data,
                                  len(self.data) - SLOT_SIZE * count)
        # The directory grows backward, so the highest slot comes first.
        return flat[-2::-2], flat[-1::-2]

    # -- free space -----------------------------------------------------------------
    def free_space(self) -> int:
        """Contiguous bytes available for one more record + new slot."""
        directory_start = len(self.data) - SLOT_SIZE * self.slot_count
        return max(0, directory_start - self.free_offset - SLOT_SIZE)

    def fits(self, length: int) -> bool:
        if length > 0xFFFE:
            raise PageError(f"record of {length} bytes exceeds page capacity")
        if self.free_space() >= length:
            return True
        return self._live_bytes() + length + SLOT_SIZE * (self.slot_count + 1) \
            <= len(self.data) - HEADER_SIZE

    def _live_bytes(self) -> int:
        return sum(self.directory()[1])  # a tombstone's length is 0

    def compact(self) -> None:
        """Rewrite live records contiguously to defragment free space."""
        live = list(self.records())
        write_at = HEADER_SIZE
        for slot, raw in live:
            self.data[write_at:write_at + len(raw)] = raw
            self._write_slot(slot, write_at, len(raw))
            write_at += len(raw)
        header = list(self._header())
        header[3] = write_at
        self._set_header(*header)

    # -- record operations -------------------------------------------------------------
    def insert(self, raw: bytes, slot: Optional[int] = None) -> int:
        """Store a record; returns its slot number.

        Reuses a tombstoned slot when available (or the specific ``slot``
        when given, which redo/undo use to restore a record at its original
        identifier).
        """
        if not self.fits(len(raw)):
            raise PageError(
                f"page {self.page_id} full ({self.free_space()}B free, "
                f"{len(raw)}B needed)")
        if self.free_space() < len(raw):
            self.compact()
        if slot is None:
            slot = self._choose_slot()
        else:
            self._materialise_slot(slot)
            if self.slot_in_use(slot):
                raise PageError(
                    f"slot {slot} on page {self.page_id} already in use")
        header = list(self._header())
        offset = header[3]
        self.data[offset:offset + len(raw)] = raw
        header[3] = offset + len(raw)
        self._set_header(*header)
        self._write_slot(slot, offset, len(raw))
        return slot

    def _choose_slot(self) -> int:
        for slot in range(self.slot_count):
            if not self.slot_in_use(slot):
                return slot
        slot = self.slot_count
        header = list(self._header())
        header[2] = slot + 1
        self._set_header(*header)
        self._write_slot(slot, TOMBSTONE, 0)
        return slot

    def _materialise_slot(self, slot: int) -> None:
        """Grow the directory so ``slot`` exists (tombstoned if new)."""
        while self.slot_count <= slot:
            new = self.slot_count
            header = list(self._header())
            header[2] = new + 1
            self._set_header(*header)
            self._write_slot(new, TOMBSTONE, 0)

    def read(self, slot: int) -> bytes:
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} on page {self.page_id} is empty")
        return bytes(self.data[offset:offset + length])

    def delete(self, slot: int) -> bytes:
        """Tombstone a slot; returns the old record bytes (for undo logging)."""
        old = self.read(slot)
        self._write_slot(slot, TOMBSTONE, 0)
        return old

    def update(self, slot: int, raw: bytes) -> bytes:
        """Replace a record in place; returns the old bytes.

        If the new record does not fit in the old space it is deleted and
        re-inserted at the same slot (record keys stay stable).
        """
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} on page {self.page_id} is empty")
        old = bytes(self.data[offset:offset + length])
        if len(raw) <= length:
            self.data[offset:offset + len(raw)] = raw
            self._write_slot(slot, offset, len(raw))
            return old
        self._write_slot(slot, TOMBSTONE, 0)
        try:
            if not self.fits(len(raw)):
                raise PageError(
                    f"updated record ({len(raw)}B) does not fit on page "
                    f"{self.page_id}")
        except PageError:
            # put the old record back before reporting failure
            self._write_slot(slot, offset, length)
            raise
        if self.free_space() < len(raw):
            self.compact()
        header = list(self._header())
        new_offset = header[3]
        self.data[new_offset:new_offset + len(raw)] = raw
        header[3] = new_offset + len(raw)
        self._set_header(*header)
        self._write_slot(slot, new_offset, len(raw))
        return old

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, record bytes)`` for live slots in slot order."""
        offsets, lengths = self.directory()
        for slot, offset in enumerate(offsets):
            if offset != TOMBSTONE:
                yield slot, bytes(self.data[offset:offset + lengths[slot]])

    def live_count(self) -> int:
        offsets = self.directory()[0]
        return len(offsets) - offsets.count(TOMBSTONE)

    def __repr__(self) -> str:
        return (f"PageView(id={self.page_id}, type={self.page_type}, "
                f"slots={self.slot_count}, live={self.live_count()}, "
                f"lsn={self.page_lsn})")
