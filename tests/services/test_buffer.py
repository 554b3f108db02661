"""Buffer pool: pinning, LRU eviction, WAL protocol, crash semantics."""

import pytest

from repro.errors import BufferError_
from repro.services.buffer import BufferPool
from repro.services.disk import BlockDevice
from repro.services.pages import PageView


def make_pool(capacity=4, page_size=256, **hooks):
    device = BlockDevice(page_size=page_size)
    return device, BufferPool(device, capacity=capacity, **hooks)


def test_new_page_is_pinned_and_formatted_lazily():
    device, pool = make_pool()
    page = pool.new_page(page_type=1)
    assert pool.pin_count(page.page_id) == 1
    pool.unpin(page.page_id, dirty=True)
    assert pool.pin_count(page.page_id) == 0


def test_fetch_hits_cache():
    device, pool = make_pool()
    page = pool.new_page(1)
    pool.unpin(page.page_id, dirty=True)
    before = device.reads
    with pool.pinned(page.page_id):
        pass
    assert device.reads == before  # served from the pool


def test_unpin_of_unpinned_rejected():
    device, pool = make_pool()
    page = pool.new_page(1)
    pool.unpin(page.page_id)
    with pytest.raises(BufferError_):
        pool.unpin(page.page_id)


def test_eviction_prefers_lru_and_writes_back_dirty():
    device, pool = make_pool(capacity=2)
    a = pool.new_page(1)
    a.insert(b"dirty-data")
    pool.unpin(a.page_id, dirty=True)
    b = pool.new_page(1)
    pool.unpin(b.page_id, dirty=True)
    # Touch b so a is the LRU victim.
    with pool.pinned(b.page_id):
        pass
    c = pool.new_page(1)  # forces eviction of a
    pool.unpin(c.page_id, dirty=True)
    assert pool.cached_pages == 2
    raw = device.read(a.page_id)
    assert b"dirty-data" in raw  # write-back happened


def test_eviction_fails_when_all_pinned():
    device, pool = make_pool(capacity=2)
    pool.new_page(1)
    pool.new_page(1)
    with pytest.raises(BufferError_):
        pool.new_page(1)


def test_wal_flush_hook_called_before_write_back():
    forced = []
    device, pool = make_pool(capacity=1, wal_flush=forced.append)
    page = pool.new_page(1)
    page.page_lsn = 42
    pool.unpin(page.page_id, dirty=True)
    pool.new_page(1)  # evicts the dirty page
    assert forced == [42]


def test_crash_discards_unflushed_frames():
    device, pool = make_pool()
    page = pool.new_page(1)
    page.insert(b"lost")
    pool.unpin(page.page_id, dirty=True)
    pool.crash()
    assert pool.cached_pages == 0
    assert b"lost" not in device.read(page.page_id)


def test_crash_with_pins_is_a_protocol_violation():
    device, pool = make_pool()
    pool.new_page(1)
    with pytest.raises(BufferError_):
        pool.crash()


def test_flush_all_persists_everything():
    device, pool = make_pool()
    page = pool.new_page(1)
    page.insert(b"durable")
    pool.unpin(page.page_id, dirty=True)
    pool.flush_all()
    assert b"durable" in device.read(page.page_id)
    pool.crash()  # nothing dirty remains; contents survive
    with pool.pinned(page.page_id) as view:
        assert view.read(0) == b"durable"


def test_free_page_requires_unpinned():
    device, pool = make_pool()
    page = pool.new_page(1)
    with pytest.raises(BufferError_):
        pool.free_page(page.page_id)
    pool.unpin(page.page_id)
    pool.free_page(page.page_id)
    assert not device.exists(page.page_id)


# ---------------------------------------------------------------------------
# Replacement: LRU, except that a looping pin's fault is the next victim
# ---------------------------------------------------------------------------

def flushed_pages(pool, n):
    """n consecutive device pages, flushed and dropped from the pool."""
    ids = []
    for __ in range(n):
        page = pool.new_page(1)
        pool.unpin(page.page_id, dirty=True)
        ids.append(page.page_id)
    pool.flush_all()
    pool.crash()
    return ids


def looping_pass(pool, ids, pins=1):
    """Pin every page in order as a looping scan does, ``pins`` times in a
    row (a scan whose batch ended mid-page pins that page again); the
    first pins that hit."""
    hits = 0
    for page_id in ids:
        hits += page_id in pool._frames
        for __ in range(pins):
            pool.fetch_image(page_id, lambda page, keep: None, looping=True)
            pool.unpin(page_id)
    return hits


@pytest.mark.parametrize("pins", [1, 2])
def test_repeated_looping_passes_keep_the_pages_they_found(pins):
    device, pool = make_pool(capacity=4)
    ids = flushed_pages(pool, 12)
    hits = [looping_pass(pool, ids, pins) for __ in range(6)]
    # One frame cycles through the misses, re-pinned or not; the others
    # stay resident.  At plain LRU a loop over three times the pool never
    # hits.
    assert hits[0] == 0 and hits[1] == pool.capacity - 1
    assert len(set(hits[1:])) == 1


def test_a_looping_pass_through_a_full_pool_evicts_one_other_page():
    device, pool = make_pool(capacity=4)
    ids = flushed_pages(pool, 16)
    resident, loop = ids[:4], ids[4:]
    for page_id in resident:           # fill the pool by key
        with pool.pinned(page_id):
            pass
    looping_pass(pool, loop)
    # The first fault took the LRU frame; every later one took its own.
    assert [page_id for page_id in pool._frames
            if page_id in resident] == resident[1:]


def test_a_looping_fault_with_room_and_a_looping_hit_are_plain_lru():
    device, pool = make_pool(capacity=4)
    ids = flushed_pages(pool, 3)
    looping_pass(pool, ids)            # room left: each fault goes last
    assert list(pool._frames) == ids
    looping_pass(pool, ids[1:2])       # a hit is a touch
    assert list(pool._frames) == [ids[0], ids[2], ids[1]]


def test_rec_lsn_tracks_first_dirtying_update():
    lsn = [10]
    device, pool = make_pool(lsn_source=lambda: lsn[0])
    page = pool.new_page(1)
    pool.unpin(page.page_id, dirty=True)
    # Dirtied while the log end was 10: no record of the change can have an
    # LSN below 11.
    assert pool.dirty_page_table() == {page.page_id: 11}
    lsn[0] = 50  # later updates to an already-dirty frame keep the floor
    with pool.pinned(page.page_id, dirty=True):
        pass
    assert pool.dirty_page_table() == {page.page_id: 11}
    assert min(pool.dirty_page_table().values()) == 11


def test_rec_lsn_resets_on_write_back():
    lsn = [5]
    device, pool = make_pool(lsn_source=lambda: lsn[0])
    page = pool.new_page(1)
    pool.unpin(page.page_id, dirty=True)
    pool.flush_page(page.page_id)
    assert pool.dirty_page_table() == {}
    lsn[0] = 30
    with pool.pinned(page.page_id, dirty=True):
        pass
    # Re-dirtied after the flush: the rec_lsn floor is the new log end.
    assert pool.dirty_page_table() == {page.page_id: 31}


def test_dirty_page_table_includes_pinned_clean_frames():
    """A modification may be in flight under a pin (logged but not yet
    unpinned-dirty); the candidate LSN captured at pin time keeps the
    checkpoint's redo bound conservative."""
    lsn = [7]
    device, pool = make_pool(lsn_source=lambda: lsn[0])
    page = pool.new_page(1)
    pool.unpin(page.page_id, dirty=True)
    pool.flush_page(page.page_id)
    pool.fetch(page.page_id)          # pin while clean: candidate = 8
    lsn[0] = 20                        # the in-flight change logs at 8..20
    assert pool.dirty_page_table() == {page.page_id: 8}
    pool.unpin(page.page_id, dirty=True)
    assert pool.dirty_page_table() == {page.page_id: 8}


def test_dirty_page_table_without_lsn_source_degrades_to_one():
    device, pool = make_pool()
    page = pool.new_page(1)
    pool.unpin(page.page_id, dirty=True)
    # Standalone pools (no WAL wired) report rec_lsn 1: redo from the start.
    assert pool.dirty_page_table() == {page.page_id: 1}
    assert BufferPool(device).dirty_page_table() == {}


def test_flush_while_pinned_rearms_candidate():
    lsn = [3]
    device, pool = make_pool(lsn_source=lambda: lsn[0])
    page = pool.new_page(1)
    pool.unpin(page.page_id, dirty=True)
    pool.fetch(page.page_id)
    pool.flush_page(page.page_id)      # background-writer flush under a pin
    lsn[0] = 40
    pool.unpin(page.page_id, dirty=True)
    # The post-flush candidate (4) bounds the re-dirtying, not LSN 41.
    assert pool.dirty_page_table() == {page.page_id: 4}


# ---------------------------------------------------------------------------
# Decoded images: one decode per resident frame
# ---------------------------------------------------------------------------

def decoded_page(pool, payload=b"node"):
    """A page holding ``payload``, plus a decoder that counts its calls."""
    page = pool.new_page(1)
    page.insert(payload)
    pool.unpin(page.page_id, dirty=True)
    calls = []

    def decode(view):
        calls.append(view.page_id)
        return [view.read(0)]
    return page.page_id, decode, calls


def test_decoded_fills_once_and_a_hit_is_still_a_pin():
    device, pool = make_pool()
    page_id, decode, calls = decoded_page(pool)
    other = pool.new_page(1).page_id
    pool.unpin(other)
    first = pool.decoded(page_id, decode)
    pins, hits = pool.stats.get("buffer.pins"), pool.stats.get("buffer.hits")
    assert pool.decoded(page_id, decode) is first == [b"node"]
    assert calls == [page_id]                       # decoded once
    assert pool.stats.get("buffer.pins") == pins + 1
    assert pool.stats.get("buffer.hits") == hits + 1
    assert pool.pin_count(page_id) == 0             # released again
    assert list(pool._frames)[-1] == page_id        # and LRU-touched


def test_decoded_releases_its_pin_when_the_decoder_raises():
    device, pool = make_pool()
    page_id, __, __ = decoded_page(pool)

    def broken(view):
        raise ValueError("cannot decode")
    with pytest.raises(ValueError):
        pool.decoded(page_id, broken)
    assert pool.pin_count(page_id) == 0
    assert pool._frames[page_id].image is None


def test_fetch_image_releases_its_pin_when_make_raises():
    device, pool = make_pool()
    page_id, __, __ = decoded_page(pool)

    def broken(view, keep):
        raise ValueError("cannot decode")
    with pytest.raises(ValueError):
        pool.fetch_image(page_id, broken)
    assert pool.pin_count(page_id) == 0
    assert pool._frames[page_id].image is None
    pool.crash()                       # no leaked pin


@pytest.mark.parametrize("event", ["unpin_dirty", "evict", "free", "crash"])
def test_decoded_image_is_dropped_with_the_bytes_it_mirrors(event):
    device, pool = make_pool(capacity=2)
    page_id, decode, calls = decoded_page(pool)
    pool.decoded(page_id, decode)
    if event == "unpin_dirty":
        page = pool.fetch(page_id)
        page.update(0, b"edit")
        pool.unpin(page_id, dirty=True)
        assert pool._frames[page_id].image is None
        assert pool.decoded(page_id, decode) == [b"edit"]
    elif event == "evict":
        for __ in range(2):
            pool.unpin(pool.new_page(1).page_id, dirty=True)
        assert page_id not in pool._frames
        assert pool.decoded(page_id, decode) == [b"node"]
    elif event == "free":
        pool.free_page(page_id)
        assert page_id not in pool._frames
        again = pool.new_page(1)                   # the id comes back
        assert again.page_id == page_id
        assert pool._frames[page_id].image is None
        pool.unpin(page_id, dirty=True)
        return
    else:
        pool.flush_all()
        pool.crash()
        assert pool.cached_pages == 0
        assert pool.decoded(page_id, decode) == [b"node"]
    assert calls == [page_id, page_id]             # decoded afresh


def test_clean_unpin_keeps_the_decoded_image():
    device, pool = make_pool()
    page_id, decode, calls = decoded_page(pool)
    image = pool.decoded(page_id, decode)
    with pool.pinned(page_id):
        pass
    pool.flush_all()                               # a write-back keeps it too
    assert pool.decoded(page_id, decode) is image and len(calls) == 1


def test_writer_hands_over_the_image_of_what_it_wrote():
    device, pool = make_pool(capacity=2)
    page_id, decode, calls = decoded_page(pool)
    pool.decoded(page_id, decode)
    page = pool.fetch(page_id)
    page.update(0, b"edit")
    written = [b"edit"]
    pool.unpin(page_id, dirty=True, image=written)
    assert pool.decoded(page_id, decode) is written and calls == [page_id]
    assert pool._frames[page_id].dirty
    # It is an image like any other: a clean unpin ignores the argument, a
    # plain dirty unpin drops it, and it goes with its frame.
    pool.fetch(page_id)
    pool.unpin(page_id, image=["ignored"])
    assert pool.decoded(page_id, decode) is written
    for __ in range(2):
        pool.unpin(pool.new_page(1).page_id, dirty=True)
    assert page_id not in pool._frames
    assert pool.decoded(page_id, decode) == [b"edit"] and len(calls) == 2
    pool.fetch(page_id)
    pool.unpin(page_id, dirty=True)
    assert pool._frames[page_id].image is None
