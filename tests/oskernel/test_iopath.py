"""Tests for the I/O dispatcher: buffered/direct routing, throttling,
reads, fsync and traffic accounting."""

import pytest

from repro.oskernel.cache import PageCache
from repro.oskernel.iopath import IoDispatcher, _coalesce
from repro.sim.engine import Simulator
from repro.ssd.config import SsdConfig
from repro.ssd.device import SsdDevice
from repro.ssd.request import IoKind


def make_stack(cache_pages=128, throttle=0.5):
    sim = Simulator()
    device = SsdDevice(sim, SsdConfig.small(blocks=64, pages_per_block=8))
    cache = PageCache(
        4096,
        4096 * cache_pages,
        device.ftl.space.user_pages,
        dirty_throttle_fraction=throttle,
    )
    dispatcher = IoDispatcher(sim, cache, device)
    return sim, device, cache, dispatcher


def test_buffered_write_lands_in_cache_not_device():
    sim, device, cache, dispatcher = make_stack()
    done = []
    dispatcher.write(0, 4, direct=False, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert cache.dirty_pages == 4
    assert device.requests_completed == 0
    assert dispatcher.stats.buffered_bytes == 4 * 4096


def test_direct_write_goes_to_device():
    sim, device, cache, dispatcher = make_stack()
    done = []
    dispatcher.write(0, 2, direct=True, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert cache.dirty_pages == 0
    assert device.requests_completed == 1
    assert dispatcher.stats.direct_bytes == 2 * 4096


def test_direct_write_invalidates_cached_copies():
    sim, device, cache, dispatcher = make_stack()
    dispatcher.write(0, 2, direct=False)
    sim.run()
    dispatcher.write(0, 2, direct=True)
    sim.run()
    assert cache.dirty_pages == 0


def test_buffered_fraction_accounting():
    sim, _, _, dispatcher = make_stack()
    dispatcher.write(0, 9, direct=False)
    dispatcher.write(10, 1, direct=True)
    sim.run()
    assert dispatcher.stats.buffered_fraction() == pytest.approx(0.9)
    assert dispatcher.stats.direct_fraction() == pytest.approx(0.1)


def test_throttled_writer_parks_and_releases():
    sim, device, cache, dispatcher = make_stack(cache_pages=16, throttle=0.5)
    # Fill to the throttle (8 pages).
    dispatcher.write(0, 8, direct=False)
    sim.run()
    assert cache.throttled()
    done = []
    dispatcher.write(20, 2, direct=False, on_complete=lambda: done.append(1))
    assert dispatcher.blocked_writers == 1
    assert dispatcher.stats.throttle_events == 1
    # Drain via explicit write-back.
    cache.begin_writeback(list(range(8)))
    cache.complete_writeback(list(range(8)))
    sim.run()
    assert done == [1]
    assert dispatcher.blocked_writers == 0


@pytest.mark.parametrize("throttled", [False, True], ids=["open", "throttled"])
@pytest.mark.parametrize("start", ["end", -3])
@pytest.mark.parametrize(
    "issue",
    [
        lambda d, lpn: d.write(lpn, 2, direct=False),
        lambda d, lpn: d.write(lpn, 2, direct=True),
        lambda d, lpn: d.read(lpn, 2),
        lambda d, lpn: d.trim(lpn, 2),
    ],
    ids=["buffered", "direct", "read", "trim"],
)
def test_an_extent_off_the_device_is_refused(issue, start, throttled):
    """A command past the last user page or below LPN 0 raises before
    the cache, the traffic counters or the device see it -- the page
    table would wrap a negative LPN onto the end of the logical space."""
    sim, device, cache, dispatcher = make_stack(cache_pages=16, throttle=0.5)
    user = device.ftl.space.user_pages
    dispatcher.write(user - 2, 2, direct=False)  # last pages dirty
    if throttled:
        dispatcher.write(0, 6, direct=False)
        assert cache.throttled()
    sim.run()
    before = (cache.dirty_lpns(), cache.clean_lpns(), repr(dispatcher.stats))
    with pytest.raises(IndexError, match="out of range"):
        issue(dispatcher, user if start == "end" else start)
    assert (cache.dirty_lpns(), cache.clean_lpns(), repr(dispatcher.stats)) == before
    assert dispatcher.blocked_writers == 0
    sim.run()
    assert device.requests_completed == 0  # nothing reached the device


def test_read_hit_avoids_device():
    sim, device, cache, dispatcher = make_stack()
    dispatcher.write(0, 2, direct=False)
    sim.run()
    done = []
    dispatcher.read(0, 2, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert device.requests_completed == 0


def test_read_miss_fetches_and_caches():
    sim, device, cache, dispatcher = make_stack()
    done = []
    dispatcher.read(4, 3, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert device.requests_completed == 1
    # Second read is a hit.
    dispatcher.read(4, 3)
    sim.run()
    assert device.requests_completed == 1


def test_read_with_hits_in_the_middle_is_one_extent_and_inserts_only_misses():
    sim, device, cache, dispatcher = make_stack()
    dispatcher.write(5, 1, direct=False)  # page 5 dirty
    cache.insert_clean(6)
    cache.insert_clean(20)
    reads = []
    device.completion_listeners.append(
        lambda req: reads.append((req.kind, req.lpn, req.page_count))
    )
    done = []
    dispatcher.read(3, 6, on_complete=lambda: done.append(1))
    sim.run()
    assert done == [1]
    # Misses 3, 4, 7, 8 travel as the one extent first..last.
    assert reads == [(IoKind.READ, 3, 6)]
    assert (cache.read_hits, cache.read_misses) == (2, 4)
    # The hit was promoted by the lookup and not touched again by the
    # fetch; the dirty page stayed dirty.
    assert cache.clean_lpns() == [20, 6, 3, 4, 7, 8]
    assert cache.contains_dirty(5) and cache.dirty_pages == 1


def test_trim_invalidates_and_reaches_device():
    sim, device, cache, dispatcher = make_stack()
    dispatcher.write(0, 4, direct=True)
    sim.run()
    dispatcher.trim(0, 4)
    sim.run()
    assert device.ftl.used_pages() == 0


def test_trim_completion_and_accounting():
    sim, device, cache, dispatcher = make_stack()
    dispatcher.write(0, 6, direct=False)
    sim.run()
    assert cache.cached_pages > 0
    done = []
    dispatcher.trim(0, 6, on_complete=lambda: done.append(sim.now))
    assert not done  # acknowledged only after the device journals it
    sim.run()
    assert done and done[0] > 0
    # Cached copies of the discarded range are gone, and the dispatcher
    # counted the discard traffic.
    assert cache.cached_pages == 0
    assert dispatcher.stats.trim_ops == 1
    assert dispatcher.stats.trim_bytes == 6 * 4096
    # The device's FTL counted the trimmed pages that were mapped.
    assert device.ftl.stats.pages_trimmed == 0  # buffered: never hit media
    dispatcher.write(10, 2, direct=True)
    sim.run()
    dispatcher.trim(10, 2)
    sim.run()
    assert device.ftl.stats.pages_trimmed == 2
    assert dispatcher.stats.trim_ops == 2


def test_fsync_waits_for_device():
    sim, device, cache, dispatcher = make_stack()
    dispatcher.write(0, 6, direct=False)
    sim.run()
    done = []
    submitted = dispatcher.fsync(0, 6, on_complete=lambda: done.append(sim.now))
    assert submitted == 6
    assert not done  # not yet complete
    sim.run()
    assert done and done[0] > 0
    assert cache.dirty_pages == 0
    assert device.requests_completed >= 1
    assert dispatcher.stats.fsync_ops == 1
    # Data stays classified as buffered traffic.
    assert dispatcher.stats.direct_bytes == 0


def test_fsync_of_clean_range_completes_immediately():
    sim, _, _, dispatcher = make_stack()
    done = []
    assert dispatcher.fsync(0, 8, on_complete=lambda: done.append(1)) == 0
    sim.run()
    assert done == [1]


def test_coalesce_helper():
    assert _coalesce([], 64) == []
    assert _coalesce([1], 64) == [(1, 1)]
    assert _coalesce([1, 2, 3, 7, 8, 11], 64) == [(1, 3), (7, 2), (11, 1)]
    assert _coalesce([1, 2, 3, 4, 5, 7, 8], 2) == [(1, 2), (3, 2), (5, 1), (7, 2)]


def test_fsync_issues_one_request_per_contiguous_run_however_long():
    """``fsync`` caps its extents at its own page count, so a 130-page
    contiguous run is one request (the flusher's cap does not apply)."""
    sim, device, cache, dispatcher = make_stack(cache_pages=256, throttle=1.0)
    requests = []
    device.completion_listeners.append(requests.append)
    cache.write_extent(0, 130, now=0)
    cache.write_page(140, now=0)
    assert dispatcher.fsync(0, 150) == 131
    sim.run()
    assert [(r.kind, r.lpn, r.page_count) for r in requests] == [
        (IoKind.WRITEBACK, 0, 130),
        (IoKind.WRITEBACK, 140, 1),
    ]


def test_buffered_write_is_one_cache_operation():
    """The listener contract of ``PageCache.dirty_listeners`` -- exactly
    one call per cache operation -- holds for a multi-page buffered
    write: one listener call, one eviction pass, whatever its length."""
    sim, _, cache, dispatcher = make_stack()
    heard = []
    cache.dirty_listeners.append(lambda added, removed: heard.append("first"))
    cache.dirty_listeners.append(
        lambda added, removed: heard.append((list(added), list(removed)))
    )
    evictions = []
    evict = cache._evict_if_needed
    cache._evict_if_needed = lambda: (evictions.append(1), evict())[1]
    sim.run_until(50)
    dispatcher.write(6, 2, direct=False)
    assert heard == ["first", ([(6, 50), (7, 50)], [])]
    assert len(evictions) == 1
    sim.run_until(80)
    dispatcher.write(7, 2, direct=False)  # page 7 is an overwrite
    assert heard[2:] == ["first", ([(7, 80), (8, 80)], [(7, 50)])]
    assert len(evictions) == 2
    assert cache.write_hits == 1 and cache.dirty_pages == 3
