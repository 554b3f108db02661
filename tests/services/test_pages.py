"""Slotted pages: insert/read/update/delete, tombstones, compaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError
from repro.services.pages import HEADER_SIZE, NO_PAGE, TOMBSTONE, PageView


def make_page(size=512, page_type=1):
    return PageView.format(0, bytearray(size), page_type)


def test_format_initialises_header():
    page = make_page()
    assert page.page_lsn == 0
    assert page.page_type == 1
    assert page.slot_count == 0
    assert page.free_offset == HEADER_SIZE
    assert page.next_page == NO_PAGE


def test_insert_and_read():
    page = make_page()
    slot = page.insert(b"hello")
    assert page.read(slot) == b"hello"
    assert page.live_count() == 1


def test_slots_assigned_in_order_and_reused():
    page = make_page()
    a = page.insert(b"a")
    b = page.insert(b"b")
    assert (a, b) == (0, 1)
    page.delete(a)
    assert page.insert(b"c") == a  # tombstone reuse keeps keys dense


def test_delete_returns_old_bytes_and_tombstones():
    page = make_page()
    slot = page.insert(b"payload")
    old = page.delete(slot)
    assert old == b"payload"
    assert not page.slot_in_use(slot)
    with pytest.raises(PageError):
        page.read(slot)


def test_update_in_place_and_grow():
    page = make_page()
    slot = page.insert(b"aaaa")
    old = page.update(slot, b"bb")
    assert old == b"aaaa"
    assert page.read(slot) == b"bb"
    # growth forces relocation within the page, same slot
    page.update(slot, b"c" * 100)
    assert page.read(slot) == b"c" * 100


@pytest.mark.parametrize("size", [1000, 0xFFFF])
def test_update_that_cannot_fit_leaves_the_page_as_it_was(size):
    """Too big for the page, or too big for any page (the length guard
    used to fire with the slot already tombstoned): the old record stays."""
    page = make_page()
    slot = page.insert(b"keep me")
    before = bytes(page.data)
    with pytest.raises(PageError):
        page.update(slot, b"x" * size)
    assert bytes(page.data) == before and page.read(slot) == b"keep me"


def test_insert_at_specific_slot_for_redo():
    page = make_page()
    page.insert(b"x", slot=3)
    assert page.slot_count == 4
    assert page.read(3) == b"x"
    assert not page.slot_in_use(0)


def test_insert_at_occupied_slot_rejected():
    page = make_page()
    page.insert(b"x", slot=0)
    with pytest.raises(PageError):
        page.insert(b"y", slot=0)


def test_page_full_raises():
    page = make_page(size=256)
    with pytest.raises(PageError):
        for __ in range(100):
            page.insert(b"z" * 40)


def test_compaction_reclaims_deleted_space():
    page = make_page(size=512)
    slots = [page.insert(b"x" * 50) for __ in range(8)]
    for slot in slots[:6]:
        page.delete(slot)
    # Contiguous free space is fragmented, but fits() consults live bytes.
    assert page.fits(200)
    slot = page.insert(b"y" * 200)
    assert page.read(slot) == b"y" * 200
    # Survivors are intact after compaction.
    assert page.read(slots[6]) == b"x" * 50
    assert page.read(slots[7]) == b"x" * 50


def test_records_iterates_live_slots_in_order():
    page = make_page()
    page.insert(b"a")
    slot_b = page.insert(b"b")
    page.insert(b"c")
    page.delete(slot_b)
    assert [(s, r) for s, r in page.records()] == [(0, b"a"), (2, b"c")]


def test_page_lsn_roundtrip():
    page = make_page()
    page.page_lsn = 12345
    assert page.page_lsn == 12345


def test_next_page_link():
    page = make_page()
    page.next_page = 77
    assert page.next_page == 77


def test_oversize_record_rejected_cleanly():
    page = make_page(size=512)
    with pytest.raises(PageError):
        page.fits(0x10000)


# ---------------------------------------------------------------------------
# The one-unpack directory read against the per-slot walk
# ---------------------------------------------------------------------------

def slot_walk(page):
    """The directory as the per-slot accessors report it (the old walk)."""
    live = {}
    for slot in range(page.slot_count):
        if page.slot_in_use(slot):
            live[slot] = page.read(slot)
    return live


def assert_directory_matches_walk(page):
    offsets, lengths = page.directory()
    assert len(offsets) == len(lengths) == page.slot_count
    live = slot_walk(page)
    assert {slot: bytes(page.data[off:off + lengths[slot]])
            for slot, off in enumerate(offsets) if off != TOMBSTONE} == live
    assert all(lengths[slot] == 0
               for slot, off in enumerate(offsets) if off == TOMBSTONE)
    assert dict(page.records()) == live
    assert list(page.records()) == sorted(live.items())
    assert page.live_count() == len(live)
    assert page._live_bytes() == sum(len(raw) for raw in live.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "update",
                                           "compact"]),
                          st.integers(0, 40), st.binary(max_size=30)),
                max_size=60))
def test_directory_equals_slot_walk_under_any_history(operations):
    page = make_page(size=512)
    assert_directory_matches_walk(page)             # empty directory
    for op, pick, raw in operations:
        live = sorted(slot_walk(page))
        try:
            if op == "insert":
                page.insert(raw)                    # reuses tombstones
            elif op == "compact":
                page.compact()
            elif live and op == "delete":
                page.delete(live[pick % len(live)])
            elif live:
                page.update(live[pick % len(live)], raw)
        except PageError:
            pass                                    # full: state unchanged
        assert_directory_matches_walk(page)
