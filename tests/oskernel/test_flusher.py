"""Tests for the flusher thread: both flush conditions, coalescing,
pressure-triggered background write-back."""

import pytest

from repro.oskernel.cache import PageCache
from repro.oskernel.flusher import FlusherThread
from repro.sim.engine import Simulator
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.device import SsdDevice
from repro.ssd.request import IoKind


def make_stack(tau_flush_pages=1000, period=SECOND, tau_expire=6 * SECOND):
    sim = Simulator()
    device = SsdDevice(sim, SsdConfig.small(blocks=64, pages_per_block=8))
    cache = PageCache(
        4096, 4096 * 256, device.ftl.space.user_pages, dirty_throttle_fraction=0.5
    )
    flusher = FlusherThread(
        sim, cache, device, period_ns=period, tau_expire_ns=tau_expire,
        tau_flush_pages=tau_flush_pages,
    )
    return sim, device, cache, flusher


def test_tau_expire_must_divide():
    sim = Simulator()
    device = SsdDevice(sim, SsdConfig.small(blocks=64, pages_per_block=8))
    cache = PageCache(4096, 4096 * 64, device.ftl.space.user_pages)
    with pytest.raises(ValueError):
        FlusherThread(sim, cache, device, period_ns=SECOND, tau_expire_ns=SECOND * 7 // 2)


def test_nwb():
    _, _, _, flusher = make_stack()
    assert flusher.nwb == 6


def test_age_based_flush_after_tau_expire():
    sim, device, cache, flusher = make_stack()
    flusher.start()
    cache.write_page(10, now=sim.now)
    # Before expiry: not flushed.
    sim.run_until(5 * SECOND)
    assert cache.contains_dirty(10)
    # After expiry (first wake at >= 6s): flushed and written back.
    sim.run_until(8 * SECOND)
    assert not cache.contains_dirty(10)
    assert cache.writeback_pages == 0  # device completed it
    assert flusher.pages_flushed == 1


def test_volume_condition_flushes_oldest():
    sim, device, cache, flusher = make_stack(tau_flush_pages=4)
    flusher.start()
    for lpn in range(10):
        cache.write_page(lpn, now=sim.now)
    sim.run_until(SECOND)
    # Down to the threshold: 4 dirty pages remain, oldest flushed first.
    assert cache.dirty_pages == 4
    assert flusher.pages_flushed == 6


def test_flush_issues_coalesced_writeback():
    sim, device, cache, flusher = make_stack(tau_flush_pages=0)
    requests = []
    device.completion_listeners.append(requests.append)
    flusher.start()
    for lpn in [1, 2, 3, 7, 8]:
        cache.write_page(lpn, now=sim.now)
    sim.run_until(SECOND + SECOND // 2)
    kinds = {r.kind for r in requests}
    assert kinds == {IoKind.WRITEBACK}
    extents = sorted((r.lpn, r.page_count) for r in requests)
    assert extents == [(1, 3), (7, 2)]


def test_long_expired_run_is_split_into_requests_of_64_pages():
    sim, device, cache, flusher = make_stack()
    requests = []
    device.completion_listeners.append(requests.append)
    flusher.start()
    cache.write_extent(0, 130, now=sim.now)
    sim.run_until(7 * SECOND)
    assert flusher.background_flushes == 0  # the age condition flushed them
    assert flusher.pages_flushed == 130
    extents = sorted((r.lpn, r.page_count) for r in requests)
    assert extents == [(0, 64), (64, 64), (128, 2)]


def test_volume_condition_cuts_a_tied_run_at_its_lowest_lpns():
    """Pages sharing one last-update time leave in LPN order, whatever
    order they were written in: the ``(last_update, lpn)`` rule."""
    sim, device, cache, flusher = make_stack(tau_flush_pages=4)
    requests = []
    device.completion_listeners.append(requests.append)
    flusher.start()
    for lpn in reversed(range(10)):
        cache.write_page(lpn, now=sim.now)
    sim.run_until(SECOND + SECOND // 2)
    assert flusher.pages_flushed == 6
    assert sorted(cache.dirty_lpns()) == [6, 7, 8, 9]
    assert [(r.lpn, r.page_count) for r in requests] == [(0, 6)]


def test_tick_hooks_run_after_flush():
    sim, device, cache, flusher = make_stack()
    observed = []
    flusher.tick_hooks.append(lambda now: observed.append((now, cache.dirty_pages)))
    flusher.start()
    cache.write_page(1, now=0)
    sim.run_until(SECOND)
    assert observed and observed[0][0] == SECOND


def test_pressure_triggers_background_flush():
    sim, device, cache, flusher = make_stack(tau_flush_pages=8)
    flusher.start()
    # Exceed the throttle (50% of 256 pages = 128) far before any tick.
    for lpn in range(130):
        cache.write_page(lpn, now=sim.now)
    assert cache.throttled()
    sim.run(max_events=400)
    assert flusher.background_flushes > 0
    assert cache.dirty_pages <= 8  # drained to tau_flush


def test_periodic_wakeups_continue():
    sim, _, _, flusher = make_stack()
    flusher.start()
    sim.run_until(10 * SECOND)
    assert flusher.wakeups == 10


def test_double_start_rejected():
    _, _, _, flusher = make_stack()
    flusher.start()
    with pytest.raises(RuntimeError):
        flusher.start()
