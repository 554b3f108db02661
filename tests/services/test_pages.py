"""Slotted pages: insert/read/update/delete, tombstones, compaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError
from repro.services.pages import (HEADER_SIZE, NO_PAGE, SLOT_SIZE, TOMBSTONE,
                                  PageView)


def compact(page):
    """Defragment the whole page, as a write that lacks room does."""
    page._compact(page._space()[0])


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
                compact(page)
            elif live and op == "delete":
                page.delete(live[pick % len(live)])
            elif live:
                page.update(live[pick % len(live)], raw)
        except PageError:
            pass                                    # full: state unchanged
        assert_directory_matches_walk(page)


# ---------------------------------------------------------------------------
# A page operation costs what it writes, not what the page already holds
# ---------------------------------------------------------------------------

def test_each_operation_decodes_the_header_once_whatever_the_page_holds(
        header_decodes):
    def decodes(operation):
        before = header_decodes.decodes
        operation()
        return header_decodes.decodes - before

    costs = []
    for slots in (2, 200):
        page = make_page(size=4096)
        for __ in range(slots):
            page.insert(b"abcdefgh")
        page.delete(1)  # the slot the next insert reuses
        costs.append([
            decodes(lambda: page.insert(b"12345678")),
            decodes(lambda: page.insert(b"12345678", slot=slots + 3)),
            decodes(lambda: page.insert_many([b"a", b"b", b"c"])),
            decodes(lambda: page.update(0, b"tiny")),
            decodes(lambda: page.update(0, b"grown past its old space")),
            decodes(lambda: page.delete(0)),
            decodes(lambda: page.read(2)),
            decodes(lambda: page.slot_in_use(2)),
            decodes(lambda: page.fits(100)),
            decodes(lambda: page.free_space()),
            decodes(lambda: setattr(page, "page_lsn", 77)),
        ])
    assert costs[0] == costs[1]           # 2 slots or 200: the same
    assert all(cost <= 1 for cost in costs[0])
    assert costs[0][-1] == 0              # the setter packs, it decodes nothing


def test_insert_many_claims_slots_before_placing_bytes():
    page = make_page()
    for raw in (b"a", b"b", b"c"):
        page.insert(raw)
    page.delete(1)
    before = bytes(page.data)
    seen = []

    def refuse(slots):
        seen.append(list(slots))
        assert bytes(page.data) == before  # nothing placed yet
        raise RuntimeError("slot 1 is reserved")

    with pytest.raises(RuntimeError):
        page.insert_many([b"x", b"y"], claim=refuse)
    assert seen == [[1, 3]] and bytes(page.data) == before
    assert page.insert_many([b"x", b"y"], claim=seen.append) == [1, 3]
    assert (page.read(1), page.read(3)) == (b"x", b"y")


def test_insert_many_stops_at_the_fill_limit_like_one_insert_at_a_time():
    """The page fills exactly as the record-at-a-time loop it replaced."""
    for fill in (1.0, 0.9, 0.7, 0.5, 0.31):
        for size in (512, 1000, 1024):
            batch = make_page(size=size)
            single = make_page(size=size)
            raws = [bytes([i]) * (7 + i % 5) for i in range(120)]
            taken = 0
            for raw in raws:  # the old per-record rule, spelt out
                used = 1.0 - (single.free_space() - len(raw)) / size
                if not single.fits(len(raw)) or used > fill:
                    break
                single.insert(raw)
                taken += 1
            assert batch.insert_many(raws, fill) == list(range(taken))
            assert bytes(batch.data) == bytes(single.data)
            assert batch.insert_many(raws[taken:], fill) == []


def test_insert_many_without_a_fill_limit_stops_when_the_page_is_full():
    """No fill limit: a batch takes what one ``insert`` at a time would,
    compacting once if freed bytes make the difference — the records the
    pass has already chosen count as stored (they used not to, and a
    batch too long for the page raised from ``_place``)."""
    for size in (512, 1024):
        for holes in (False, True):
            batch, single = make_page(size=size), make_page(size=size)
            for page in (batch, single):
                if holes:
                    for i in range(12):
                        page.insert(bytes([i]) * 20)
                    for slot in (1, 4, 5, 9):
                        page.delete(slot)
            raws = [bytes([i]) * (9 + i % 7) for i in range(120)]
            taken = []
            for raw in raws:
                if not single.fits(len(raw)):
                    break
                taken.append(single.insert(raw))
            assert 0 < len(taken) < len(raws)
            assert batch.insert_many(raws) == taken
            assert dict(batch.records()) == dict(single.records())
            assert batch.insert_many(raws[len(taken):]) == []


def test_an_unformatted_page_refuses_writes_instead_of_losing_its_header():
    page = PageView(3, bytearray(512))  # zeros: allocated, never formatted
    for write in (lambda: page.insert(b"x"), lambda: page.insert(b"x", slot=0),
                  lambda: page.insert_many([b"x"]), lambda: page.fits(1),
                  lambda: page.update(0, b"x"), lambda: compact(page)):
        with pytest.raises(PageError):
            write()
    assert bytes(page.data) == bytes(512)
    assert page.slot_count == 0 and list(page.records()) == []


class PageModel:
    """What a slotted page promises, as a dict of slot -> bytes."""

    def __init__(self, size):
        self.size, self.count, self.live = size, 0, {}

    def room(self):
        return self.size - SLOT_SIZE * (self.count + 1)

    def fits(self, length):
        """With one more slot, and a compaction if it takes one."""
        used = HEADER_SIZE + sum(len(raw) for raw in self.live.values())
        return used + length <= self.room()

    def lowest_free(self):
        return min((slot for slot in range(self.count)
                    if slot not in self.live), default=self.count)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([256, 512]),
       st.lists(st.tuples(
           st.sampled_from(["insert", "insert_at", "insert_many", "delete",
                            "grow", "shrink", "compact", "read"]),
           st.integers(0, 60), st.binary(min_size=1, max_size=40)),
           max_size=80))
def test_page_matches_its_model_under_any_history(size, operations):
    page, model = make_page(size=size), PageModel(size)
    for op, pick, raw in operations:
        live = sorted(model.live)
        if op == "insert":
            if model.fits(len(raw)):
                assert page.fits(len(raw))
                slot = page.insert(raw)
                assert slot == model.lowest_free()  # lowest tombstone first
                model.live[slot] = raw
                model.count = max(model.count, slot + 1)
            else:
                assert not page.fits(len(raw))
                with pytest.raises(PageError):      # full
                    page.insert(raw)
        elif op == "insert_at":
            slot = pick % (model.count + 3)
            grown = PageModel(size)
            grown.count = max(model.count, slot + 1) - 1  # exact, no spare slot
            grown.live = model.live
            if slot in model.live:
                with pytest.raises(PageError):      # a busy explicit slot
                    page.insert(raw, slot=slot)
            elif grown.fits(len(raw)):
                assert page.insert(raw, slot=slot) == slot
                model.live[slot] = raw
                model.count = max(model.count, slot + 1)
            else:
                with pytest.raises(PageError):
                    page.insert(raw, slot=slot)
            with pytest.raises(PageError):          # an out-of-range slot
                page.insert(raw, slot=-1 - pick)
        elif op == "insert_many":
            raws = [raw[:1 + (pick + i) % len(raw)] for i in range(pick % 4)]
            want = []
            for item in raws:
                if not model.fits(len(item)):
                    break
                want.append(model.lowest_free())
                model.live[want[-1]] = item
                model.count = max(model.count, want[-1] + 1)
            assert page.insert_many(raws) == want
        elif op == "compact":
            compact(page)
        elif not live:
            for call in (page.read, page.delete, page.slot_in_use):
                with pytest.raises(PageError):      # an out-of-range slot
                    call(model.count + pick)
        elif op == "read":
            assert page.read(live[pick % len(live)]) == \
                model.live[live[pick % len(live)]]
        elif op == "delete":
            slot = live[pick % len(live)]
            assert page.delete(slot) == model.live.pop(slot)
            with pytest.raises(PageError):
                page.delete(slot)                   # now empty
        else:
            slot = live[pick % len(live)]
            old = model.live[slot]
            new = old[:max(1, len(old) // 2)] if op == "shrink" \
                else old + raw
            del model.live[slot]
            fits = len(new) <= len(old) or model.fits(len(new))
            model.live[slot] = new if fits else old
            if fits:
                assert page.update(slot, new) == old
            else:
                with pytest.raises(PageError):
                    page.update(slot, new)
        # The page and the model agree after every step.
        offsets, lengths = page.directory()
        assert len(offsets) == page.slot_count == model.count
        assert dict(page.records()) == model.live
        assert [slot for slot, off in enumerate(offsets)
                if off != TOMBSTONE] == sorted(model.live)
        used = HEADER_SIZE + sum(lengths)
        assert page.free_offset >= used or not model.live
        assert page.free_space() == max(0, model.room() - page.free_offset)
        assert page.fits(8) == model.fits(8)
