"""Page checksums: stamping on flush, verification on fault-in, repair."""

import pytest

from repro import Database
from repro.errors import ChecksumError
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice
from repro.services.pages import (PageView, page_checksum, stamp_checksum,
                                  verify_checksum)


def make_pool(capacity=8, page_size=256):
    device = BlockDevice(page_size=page_size)
    return BufferPool(device, capacity=capacity), device


# -- helper-level ----------------------------------------------------------
def test_stamp_and_verify_roundtrip():
    data = bytearray(256)
    data[40:45] = b"hello"
    crc = stamp_checksum(data)
    assert crc != 0
    assert verify_checksum(data)


def test_checksum_excludes_its_own_field():
    data = bytearray(256)
    data[40:45] = b"hello"
    before = page_checksum(data)
    stamp_checksum(data)
    assert page_checksum(data) == before


def test_corruption_fails_verification():
    data = bytearray(256)
    data[40:45] = b"hello"
    stamp_checksum(data)
    data[100] ^= 0xFF
    assert not verify_checksum(data)


def test_unstamped_page_verifies_as_valid():
    """Stored checksum 0 means "never stamped" (e.g. a raw zeroed page)."""
    data = bytearray(256)
    data[50] = 7
    assert verify_checksum(data)


# -- buffer pool ------------------------------------------------------------
def test_write_back_stamps_the_checksum():
    pool, device = make_pool()
    page = pool.new_page(1)
    page.insert(b"hello")
    pool.unpin(page.page_id, dirty=True)
    pool.flush_all()
    raw = device.read(page.page_id)
    assert verify_checksum(raw)
    assert PageView(page.page_id, bytearray(raw)).checksum != 0


def test_fault_in_of_corrupt_page_raises_checksum_error():
    pool, device = make_pool()
    page = pool.new_page(1)
    page.insert(b"hello")
    pool.unpin(page.page_id, dirty=True)
    pool.flush_all()
    corrupt = bytearray(device.read(page.page_id))
    corrupt[100] ^= 0xFF
    device.write(page.page_id, bytes(corrupt))
    pool.crash()
    with pytest.raises(ChecksumError):
        pool.fetch(page.page_id)
    assert device.stats.get("buffer.checksum.failures") == 1


# -- restart torn-page repair ------------------------------------------------
def test_restart_repairs_corrupt_page_from_checkpoint_archive():
    db = Database(page_size=1024, buffer_capacity=64)
    table = db.create_table("t", [("a", "INT"), ("b", "STRING")])
    table.insert_many([(i, f"row-{i}") for i in range(50)])
    db.checkpoint(mode="sharp")  # flush + archive every page
    table.insert_many([(i, f"row-{i}") for i in range(50, 80)])
    db.services.buffer.flush_all()  # push post-checkpoint bytes to disk
    expected = sorted(table.rows())

    device = db.services.disk
    victim = device.page_ids()[0]
    device.write(victim, b"\xff" * 1024)  # torn write
    assert device.corrupt_page_ids() == [victim]

    summary = db.restart()
    assert summary["torn_pages_restored"] == 1
    assert summary["torn_pages_zero_filled"] == 0
    assert sorted(db.table("t").rows()) == expected
    assert not device.corrupt_page_ids()


def test_restart_zero_fills_page_with_no_archived_image():
    db = Database(page_size=1024, buffer_capacity=64)
    db.checkpoint(mode="sharp")  # archive snapshot predates the table
    table = db.create_table("t", [("a", "INT")])
    table.insert_many([(i,) for i in range(30)])
    db.services.buffer.flush_all()
    expected = sorted(table.rows())

    device = db.services.disk
    victim = device.page_ids()[-1]
    device.write(victim, b"\xff" * 1024)

    summary = db.restart()
    assert summary["torn_pages_zero_filled"] == 1
    # Redo from the checkpoint reconstructs the page from scratch.
    assert sorted(db.table("t").rows()) == expected
