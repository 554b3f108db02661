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
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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

# A writer packs the header field it changes, not the six of them.
_INT64 = struct.Struct("<q")   # page_lsn at byte 0, next_page at _NEXT_OFF
_NEXT_OFF = 13
_SPACE = struct.Struct("<HH")  # slot_count, free_off
_SPACE_OFF = 9
_EMPTY_SLOT = _SLOT.pack(TOMBSTONE, 0)
_TOMBSTONE_BYTES = _EMPTY_SLOT[:2]

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

    What an operation costs does not depend on what the page already
    holds: each decodes the header once and, where it needs more than one
    slot's entry, the slot directory at most once (:meth:`directory`).
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

    @property
    def page_lsn(self) -> int:
        return self._header()[0]

    @page_lsn.setter
    def page_lsn(self, lsn: int) -> None:
        _INT64.pack_into(self.data, 0, lsn)

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
        _INT64.pack_into(self.data, _NEXT_OFF, page_id)

    @property
    def checksum(self) -> int:
        """The stored checksum (0: unstamped; maintained on write-back)."""
        return self._header()[5]

    def _space(self) -> Tuple[int, int]:
        """``(slot_count, free_offset)`` of a formatted page; on a zeroed
        image (an allocation lost in a crash) a write would go over the
        header."""
        header = self._header()
        if header[3] < HEADER_SIZE:
            raise PageError(f"page {self.page_id} was never formatted")
        return header[2], header[3]

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
        return self._directory(self.slot_count)

    def offsets(self, slots: Sequence[int]) -> List[int]:
        """Each of ``slots``' record offset, ``TOMBSTONE`` for none."""
        # Only the asked directory entries are read.
        data = self.data
        count = _SPACE.unpack_from(data, _SPACE_OFF)[0]
        return [_SLOT.unpack_from(data, len(data) - SLOT_SIZE * (slot + 1))[0]
                if 0 <= slot < count else TOMBSTONE for slot in slots]

    def _directory(self, count: int):
        flat = struct.unpack_from(f"<{2 * count}H", self.data,
                                  len(self.data) - SLOT_SIZE * count)
        # The directory grows backward, so the highest slot comes first.
        return flat[-2::-2], flat[-1::-2]

    # -- free space -----------------------------------------------------------------
    def free_space(self) -> int:
        """Contiguous bytes available for one more record + new slot."""
        count, free_off = self._space()
        return max(0, len(self.data) - SLOT_SIZE * (count + 1) - free_off)

    def fits(self, length: int) -> bool:
        """Whether one more record of ``length`` bytes and a new slot for
        it fit, in the contiguous free space or after a compaction."""
        if length > 0xFFFE:
            raise PageError(f"record of {length} bytes exceeds page capacity")
        return bool(self._choose(*self._space(), (length,), None))

    def _live_bytes(self, count: Optional[int] = None) -> int:
        return sum(self._directory(  # a tombstone's length is 0
            self.slot_count if count is None else count)[1])

    def _compact(self, count: int) -> int:
        """Rewrite the live records of the first ``count`` slots
        contiguously; returns the new free offset."""
        data, write_at = self.data, HEADER_SIZE
        offsets, lengths = self._directory(count)
        live = [(slot, bytes(data[offset:offset + lengths[slot]]))
                for slot, offset in enumerate(offsets) if offset != TOMBSTONE]
        for slot, raw in live:
            data[write_at:write_at + len(raw)] = raw
            self._write_slot(slot, write_at, len(raw))
            write_at += len(raw)
        _SPACE.pack_into(data, _SPACE_OFF, count, write_at)
        return write_at

    # -- record operations -------------------------------------------------------------
    def insert_many(self, raws: Sequence[bytes],
                    fill_limit: Optional[float] = None,
                    claim: Optional[Callable[[List[int]], None]] = None
                    ) -> List[int]:
        """Store as many of ``raws``, in order, as have room (:meth:`fits`);
        returns their slots: the lowest tombstoned one while there is one,
        then new ones at the directory's end.

        With a ``fill_limit`` the pass also stops before the record that
        would take the page's used share above it, and never compacts: a
        fill target is not worth one.  ``claim(slots)`` runs once the
        slots are chosen and before a byte is placed — where a caller
        that must own a slot before it holds a record (a record lock)
        takes it; if it raises, the page is untouched.
        """
        count, free_off = self._space()
        slots = self._choose(count, free_off, map(len, raws), fill_limit)
        if slots:
            if claim is not None:
                claim(slots)
            self._place(count, free_off, slots, raws[:len(slots)])
        return slots

    def _holes(self, count: int) -> Iterator[int]:
        """The tombstoned slots, lowest first, straight off the directory's
        bytes (it grows backward: the lowest slot lies last)."""
        data, size = self.data, len(self.data)
        start, end = size - SLOT_SIZE * count, size
        while True:
            end = data.rfind(_TOMBSTONE_BYTES, start, end)
            if end < 0:
                return
            if (size - end) % SLOT_SIZE == 0:  # an offset field, not a straddle
                yield (size - end) // SLOT_SIZE - 1
            else:
                end += 1

    def _choose(self, count: int, free_off: int, lengths,
                fill_limit: Optional[float]) -> List[int]:
        """The slots for as many records of ``lengths`` as have room."""
        size = len(self.data)
        live = None  # bytes in live records: summed if a compaction is weighed
        holes, stored, start = self._holes(count), count, free_off
        slots: List[int] = []
        for length in lengths:
            if length > 0xFFFE:
                break  # no page can hold it: the slot entry is 16 bits wide
            room = size - SLOT_SIZE * (count + 1)
            if fill_limit is not None:
                if 1.0 - (room - free_off - length) / size > fill_limit:
                    break
            elif free_off + length > room:
                if live is None:  # what is stored + what this pass chose
                    live = self._live_bytes(stored) + free_off - start
                if HEADER_SIZE + live + length > room:
                    break
                free_off = HEADER_SIZE + live  # placing it compacts first
            slot = next(holes, count)
            if slot == count:
                count += 1
            slots.append(slot)
            free_off += length
            if live is not None:
                live += length
        return slots

    def insert_at(self, slots: Sequence[int], raws: Sequence[bytes]) -> None:
        """Store each record under its own slot, all of them or none —
        the slots a log record names: redo and undo restore a record under
        its original identifier.  A slot must be empty: tombstoned, or
        past the directory's end, which grows to reach it."""
        count, free_off = self._space()
        offsets = self._directory(count)[0]
        if any(slot < 0 or (slot < count and offsets[slot] != TOMBSTONE)
               for slot in slots):
            raise PageError(f"slots {list(slots)} on page {self.page_id}: "
                            f"out of range or already in use")
        self._place(count, free_off, slots, raws)

    def _place(self, count: int, free_off: int, slots: Sequence[int],
               raws: Sequence[bytes]) -> None:
        """The one body that places record bytes: each of ``raws`` under
        its (distinct, empty) slot, after a compaction if the free space
        as it lies is too short."""
        data, size = self.data, len(self.data)
        new_count = max(count, max(slots) + 1)
        needed = sum(map(len, raws))
        directory_start = size - SLOT_SIZE * new_count
        if free_off + needed > directory_start:
            if HEADER_SIZE + self._live_bytes(count) + needed \
                    > directory_start:
                raise PageError(
                    f"page {self.page_id} full ({needed}B needed)")
            free_off = self._compact(count)
        if new_count > count:
            # New slots start out empty: redo may name slot 3 of an empty page.
            data[directory_start:size - SLOT_SIZE * count] = \
                _EMPTY_SLOT * (new_count - count)
        for slot, raw in zip(slots, raws):
            end = free_off + len(raw)
            data[free_off:end] = raw
            _SLOT.pack_into(data, size - SLOT_SIZE * (slot + 1),
                            free_off, len(raw))
            free_off = end
        _SPACE.pack_into(data, _SPACE_OFF, new_count, free_off)

    def insert(self, raw: bytes, slot: Optional[int] = None) -> int:
        """Store a record; returns its slot number.

        Reuses a tombstoned slot when available (or the specific ``slot``
        when given, which redo/undo use to restore a record at its original
        identifier).
        """
        if slot is not None:
            self.insert_at((slot,), (raw,))
            return slot
        slots = self.insert_many((raw,))
        if not slots:
            raise PageError(f"page {self.page_id} full ({len(raw)}B needed)")
        return slots[0]

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
        count, free_off = self._space()
        if not 0 <= slot < count:
            raise PageError(f"slot {slot} out of range on page {self.page_id}")
        data, position = self.data, self._slot_pos(slot)
        offset, length = _SLOT.unpack_from(data, position)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} on page {self.page_id} is empty")
        old = bytes(data[offset:offset + length])
        if len(raw) <= length:
            data[offset:offset + len(raw)] = raw
            _SLOT.pack_into(data, position, offset, len(raw))
            return old
        _SLOT.pack_into(data, position, TOMBSTONE, 0)
        try:
            # The slot is its own: the room is the page's less the
            # directory as it stands, so a restore always fits again.
            self._place(count, free_off, (slot,), (raw,))
        except PageError:
            # put the old record back before reporting failure
            _SLOT.pack_into(data, position, offset, length)
            raise
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
