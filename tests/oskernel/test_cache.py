"""Tests for the write-back page cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.buffered_predictor import BufferedWritePredictor
from repro.oskernel.cache import DirtyPage, PageCache

PAGE = 4096


def make_cache(capacity_pages=64, throttle=0.5):
    return PageCache(PAGE, capacity_pages * PAGE, dirty_throttle_fraction=throttle)


def oldest_dirty(cache):
    """The full-scan reference of the expiry index's age order."""
    return sorted(cache.dirty_items(), key=lambda e: (e.last_update, e.lpn))


def expired_lpns(cache, now, tau):
    """The full-scan reference of :meth:`PageCache.expired_dirty`."""
    return {e.lpn for e in cache.dirty_items() if now - e.last_update >= tau}


def test_write_marks_dirty_with_timestamp():
    cache = make_cache()
    cache.write_page(5, now=100)
    assert cache.dirty_pages == 1
    assert cache.contains_dirty(5)
    [entry] = cache.dirty_items()
    assert entry.lpn == 5
    assert entry.last_update == 100


def test_overwrite_resets_age():
    """The paper's B -> B' example: an update postpones the flush."""
    cache = make_cache()
    cache.write_page(5, now=100)
    cache.write_page(5, now=900)
    [entry] = cache.dirty_items()
    assert entry.last_update == 900
    assert cache.dirty_pages == 1
    assert cache.write_hits == 1


def test_read_hits_dirty_clean_and_writeback():
    cache = make_cache()
    cache.write_page(1, now=0)
    cache.insert_clean(2)
    assert cache.read_page(1)
    assert cache.read_page(2)
    assert not cache.read_page(3)
    cache.begin_writeback([1])
    assert cache.read_page(1)  # in-flight pages still hit
    assert cache.read_hits == 3
    assert cache.read_misses == 1


def test_expired_dirty_by_age():
    cache = make_cache()
    cache.write_page(1, now=0)
    cache.write_page(2, now=500)
    expired = cache.expired_dirty(now=1000, tau_expire=600)
    assert [e.lpn for e in expired] == [1]


def test_oldest_dirty_order():
    cache = make_cache()
    cache.write_page(3, now=30)
    cache.write_page(1, now=10)
    cache.write_page(2, now=20)
    assert [e.lpn for e in cache.iter_oldest_dirty()] == [1, 2, 3]


def test_writeback_lifecycle():
    cache = make_cache()
    cache.write_page(1, now=0)
    cache.begin_writeback([1])
    assert cache.dirty_pages == 0
    assert cache.writeback_pages == 1
    cache.complete_writeback([1])
    assert cache.writeback_pages == 0
    assert cache.read_page(1)  # now clean


def test_begin_writeback_requires_dirty():
    cache = make_cache()
    with pytest.raises(KeyError):
        cache.begin_writeback([9])


def test_write_during_writeback_redirties():
    cache = make_cache()
    cache.write_page(1, now=0)
    cache.begin_writeback([1])
    cache.write_page(1, now=50)
    assert cache.contains_dirty(1)
    # Completion of the stale write-back must not mark it clean again.
    cache.complete_writeback([1])
    assert cache.contains_dirty(1)


def test_throttle_threshold():
    cache = make_cache(capacity_pages=10, throttle=0.5)
    for lpn in range(4):
        cache.write_page(lpn, now=0)
    assert not cache.throttled()
    cache.write_page(4, now=0)
    assert cache.throttled()


def test_pressure_listener_fires_on_throttle():
    cache = make_cache(capacity_pages=10, throttle=0.5)
    events = []
    cache.pressure_listeners.append(lambda: events.append(1))
    for lpn in range(5):
        cache.write_page(lpn, now=0)
    assert events  # fired at least when crossing the threshold


def test_drain_listener_fires_when_below_throttle():
    cache = make_cache(capacity_pages=10, throttle=0.5)
    for lpn in range(5):
        cache.write_page(lpn, now=0)
    drained = []
    cache.drain_listeners.append(lambda: drained.append(1))
    cache.begin_writeback(list(range(5)))
    cache.complete_writeback(list(range(5)))
    assert drained == [1]


def test_lru_eviction_of_clean_only():
    cache = make_cache(capacity_pages=4)
    cache.write_page(0, now=0)  # dirty: pinned
    for lpn in range(10, 14):
        cache.insert_clean(lpn)
    assert cache.cached_pages <= 4
    assert cache.contains_dirty(0)  # dirty page never evicted
    assert not cache.read_page(10)  # oldest clean page evicted


def test_invalidate_drops_everywhere():
    cache = make_cache()
    cache.write_page(1, now=0)
    cache.insert_clean(2)
    cache.write_page(3, now=0)
    cache.begin_writeback([3])
    cache.invalidate([1, 2, 3])
    assert cache.dirty_pages == 0
    assert cache.writeback_pages == 0
    assert not cache.read_page(2)


def test_validation():
    with pytest.raises(ValueError):
        PageCache(0, 4096)
    with pytest.raises(ValueError):
        PageCache(4096, 4096, dirty_throttle_fraction=0)


# ----------------------------------------------------------------------
# Batched listener notification: one call per operation, regardless of
# how many pages the operation touches.
# ----------------------------------------------------------------------
def test_listener_calls_do_not_scale_with_batch_size():
    cache = make_cache(capacity_pages=256, throttle=1.0)
    writeback_calls = []
    dirty_calls = []
    cache.writeback_listeners.append(lambda moved: writeback_calls.append(len(moved)))
    cache.dirty_listeners.append(
        lambda added, removed: dirty_calls.append((len(added), len(removed)))
    )

    for lpn in range(64):
        cache.write_page(lpn, now=lpn)
    assert dirty_calls == [(1, 0)] * 64

    dirty_calls.clear()
    cache.begin_writeback(list(range(32)))
    assert writeback_calls == [32]  # one call for the whole batch
    assert dirty_calls == [(0, 32)]
    cache.complete_writeback(list(range(32)))

    dirty_calls.clear()
    cache.invalidate(range(32, 64))
    assert dirty_calls == [(0, 32)]
    assert cache.dirty_pages == 0


def test_dirty_listener_reports_overwrite_as_move():
    cache = make_cache()
    events = []
    cache.dirty_listeners.append(lambda added, removed: events.append((added, removed)))
    cache.write_page(7, now=100)
    cache.write_page(7, now=900)
    assert events == [([(7, 100)], []), ([(7, 900)], [(7, 100)])]


def test_iter_oldest_dirty_matches_oldest_dirty():
    cache = make_cache()
    for lpn, now in ((1, 30), (2, 10), (3, 20), (4, 10)):
        cache.write_page(lpn, now=now)
    assert [e.lpn for e in cache.iter_oldest_dirty()] == [2, 4, 3, 1]
    assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)


def test_indexed_and_scan_caches_agree_after_churn():
    cache = PageCache(PAGE, 64 * PAGE)
    for lpn in range(16):
        cache.write_page(lpn, now=lpn % 5)
    cache.begin_writeback([0, 1, 2])
    cache.complete_writeback([0, 1, 2])
    cache.invalidate([3, 4])
    cache.write_page(1, now=9)
    assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)
    for now, tau in ((10, 3), (10, 8), (4, 1)):
        got = [e.lpn for e in cache.expired_dirty(now, tau)]
        assert sorted(got) == sorted(expired_lpns(cache, now, tau))


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "invalidate", "writeback", "query"]),
            st.integers(min_value=0, max_value=31),  # lpn
            st.integers(min_value=0, max_value=40),  # time (may go backwards)
        ),
        max_size=80,
    ),
    tau=st.integers(min_value=1, max_value=20),
)
def test_cache_expiry_index_matches_scan(ops, tau):
    """The expiry index answers what a full scan of the dirty set does,
    on random op sequences, clock rewinds included."""
    cache = PageCache(PAGE, 64 * PAGE)
    now = 0
    for op, lpn, t in ops:
        now = max(now, t)
        if op == "write":
            cache.write_page(lpn, t)
        elif op == "invalidate":
            cache.invalidate([lpn])
        elif op == "writeback":
            if cache.contains_dirty(lpn):
                cache.begin_writeback([lpn])
                cache.complete_writeback([lpn])
        else:
            assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)
            assert {e.lpn for e in cache.expired_dirty(now, tau)} == expired_lpns(
                cache, now, tau
            )
    assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)
    assert {e.lpn for e in cache.expired_dirty(now, tau)} == expired_lpns(cache, now, tau)


def test_invalidate_with_nothing_dirty_drops_clean_copies_silently():
    """The direct-write case: reads left clean copies, nothing is dirty
    or in write-back, so no listener has anything to hear."""
    cache = make_cache()
    calls = []
    cache.dirty_listeners.append(lambda added, removed: calls.append("dirty"))
    cache.writeback_listeners.append(lambda moved: calls.append("writeback"))
    cache.drain_listeners.append(lambda: calls.append("drain"))
    cache.pressure_listeners.append(lambda: calls.append("pressure"))
    for lpn in (1, 2, 3):
        cache.insert_clean(lpn)
    cache.invalidate(iter(range(2, 6)))  # one-shot iterable, partly uncached
    assert cache.read_page(1)
    assert not cache.read_page(2) and not cache.read_page(3)
    assert cache.cached_pages == 1
    assert cache.dirty_pages == 0 and cache.writeback_pages == 0
    assert calls == []
    # ...and the general path is back as soon as something is dirty.
    cache.write_page(7, now=5)
    calls.clear()
    cache.invalidate([1, 7])
    assert calls == ["dirty"]
    assert cache.cached_pages == 0


# ----------------------------------------------------------------------
# Extent forms against the per-page routines they replaced
# ----------------------------------------------------------------------
def reference_read_page(cache, lpn):
    """``read_page`` as it stood before ``read_extent``."""
    if lpn in cache._dirty or lpn in cache._in_writeback:
        cache.read_hits += 1
        return True
    if lpn in cache._clean:
        cache._clean.move_to_end(lpn)
        cache.read_hits += 1
        return True
    cache.read_misses += 1
    return False


def reference_insert_clean(cache, lpn):
    """``insert_clean`` as it stood before ``insert_clean_many``,
    evicting after every page."""
    if lpn in cache._dirty or lpn in cache._in_writeback:
        return
    cache._clean[lpn] = True
    cache._clean.move_to_end(lpn)
    while cache.cached_pages > cache.capacity_pages and cache._clean:
        cache._clean.popitem(last=False)


def cache_state(cache):
    return (
        list(cache._clean.items()),
        list(cache._dirty.items()),
        list(cache._in_writeback.items()),
        cache.read_hits,
        cache.read_misses,
    )


CACHE_LPNS = st.integers(0, 9)
#: Other actors: an application write, the flusher issuing or finishing
#: a page's write-back, another reader's fetch landing.
ACTORS = st.lists(
    st.tuples(st.sampled_from(["write", "writeback", "complete", "fetch"]), CACHE_LPNS),
    max_size=12,
)


def run_actors(caches, actors, now, write=PageCache.write_page):
    for action, lpn in actors:
        for cache in caches:
            if action == "write":
                write(cache, lpn, now)
            elif action == "writeback":
                if cache.contains_dirty(lpn):
                    cache.begin_writeback([lpn])
            elif action == "complete":
                cache.complete_writeback([lpn])
            else:
                reference_insert_clean(cache, lpn)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 8),
    before=ACTORS,
    lpn=CACHE_LPNS,
    count=st.integers(1, 10),
    between=ACTORS,
    extra=st.lists(CACHE_LPNS, max_size=4),
)
def test_extent_forms_equal_the_per_page_replay(
    capacity, before, lpn, count, between, extra
):
    """From any state (dirty pages pinned past capacity included), with
    other actors between the miss and the fetch and duplicates in the
    fetched list, the extent forms leave the cache exactly as the
    per-page routines do -- through the reference bodies above and
    through the one-page forms ``read_page`` / ``insert_clean``."""
    extent, paged, single = caches = [make_cache(capacity, 1.0) for _ in range(3)]
    run_actors(caches, before, now=1)
    misses = extent.read_extent(lpn, count)
    pages = range(lpn, lpn + count)
    assert misses == [p for p in pages if not reference_read_page(paged, p)]
    assert misses == [p for p in pages if not single.read_page(p)]
    assert cache_state(extent) == cache_state(paged) == cache_state(single)
    run_actors(caches, between, now=2)
    fetched = misses + extra + misses[:2]
    extent.insert_clean_many(fetched)
    for page in fetched:
        reference_insert_clean(paged, page)
        single.insert_clean(page)
    assert cache_state(extent) == cache_state(paged) == cache_state(single)
    if len(extent._dirty) + len(extent._in_writeback) >= capacity:
        assert not extent._clean  # pinned pages alone fill the cache
    else:
        assert extent.cached_pages <= capacity


def reference_invalidate(cache, lpns):
    """``invalidate`` as it stood before the clean-only intersection: one
    ``pop`` per page from each set, one listener call per operation."""
    removed = []
    for lpn in lpns:
        entry = cache._dirty.pop(lpn, None)
        if entry is not None:
            cache._bucket_remove(lpn, entry.last_update)
            removed.append((lpn, entry.last_update))
        cache._clean.pop(lpn, None)
        cache._in_writeback.pop(lpn, None)
    if removed and cache.dirty_listeners:
        cache._notify_dirty([], removed)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 12),
    before=ACTORS,
    settle=st.booleans(),
    lpn=CACHE_LPNS,
    count=st.integers(0, 10),
    one_shot=st.booleans(),
)
def test_invalidate_equals_the_per_page_reference(
    capacity, before, settle, lpn, count, one_shot
):
    """Over clean, dirty and in-write-back pages -- and, once the
    flusher has settled everything, over clean copies alone, where only
    those can drop -- ``invalidate`` leaves the cache, its expiry index
    and what the listeners heard exactly as one pop per page does."""
    caches = [make_cache(capacity, 1.0) for _ in range(2)]
    heard = [[], []]
    for cache, log in zip(caches, heard):
        cache.dirty_listeners.append(
            lambda added, removed, log=log: log.append((list(added), list(removed)))
        )
    run_actors(caches, before, now=1)
    if settle:
        for cache in caches:
            cache.begin_writeback(cache.dirty_lpns())
            cache.complete_writeback(list(cache._in_writeback))
        assert not caches[0]._dirty and not caches[0]._in_writeback
    for log in heard:
        log.clear()
    pages = range(lpn, lpn + count)
    caches[0].invalidate(iter(pages) if one_shot else pages)
    reference_invalidate(caches[1], pages)
    assert cache_state(caches[0]) == cache_state(caches[1])
    assert caches[0]._by_time == caches[1]._by_time
    assert heard[0] == heard[1]


# ----------------------------------------------------------------------
# write_extent against n x the per-page write_page it replaced
# ----------------------------------------------------------------------
def reference_write_page(cache, lpn, now):
    """``write_page`` as it stood before ``write_extent``: one listener
    call, one eviction pass and one throttle check per *page*."""
    entry = cache._dirty.get(lpn)
    if entry is not None:
        old_ts = entry.last_update
        entry.last_update = now
        cache._dirty.move_to_end(lpn)
        if old_ts != now:
            cache._bucket_remove(lpn, old_ts)
            cache._bucket_add(lpn, now)
        cache.write_hits += 1
        if cache.dirty_listeners:
            cache._notify_dirty([(lpn, now)], [(lpn, old_ts)])
        return
    cache._in_writeback.pop(lpn, None)
    cache._clean.pop(lpn, None)
    cache._dirty[lpn] = DirtyPage(lpn=lpn, last_update=now)
    cache._bucket_add(lpn, now)
    if cache.dirty_listeners:
        cache._notify_dirty([(lpn, now)], [])
    cache._evict_if_needed()
    if cache.throttled():
        for listener in list(cache.pressure_listeners):
            listener()


PERIOD, TAU = 4, 12  # the predictor's p and tau_expire (Nwb = 3)


class WriteSide:
    """One cache with everything that listens to its write path."""

    def __init__(self, capacity, throttle):
        self.cache = make_cache(capacity, throttle)
        self.predictor = BufferedWritePredictor(self.cache, PERIOD, TAU)
        self.payloads = []
        self.pressure = 0
        self.cache.dirty_listeners.append(
            lambda added, removed: self.payloads.append((list(added), list(removed)))
        )
        self.cache.pressure_listeners.append(self._on_pressure)

    def _on_pressure(self):
        self.pressure += 1

    def state(self):
        cache = self.cache
        return (
            [(lpn, entry.lpn, entry.last_update) for lpn, entry in cache._dirty.items()],
            list(cache._clean.items()),
            list(cache._in_writeback.items()),
            [(ts, list(bucket)) for ts, bucket in cache._by_time.items()],
            cache.write_hits,
            self.predictor._interval_counts,
        )

    def heard(self):
        """Listener payloads as multisets, whatever the call boundaries."""
        added = sorted(pair for payload in self.payloads for pair in payload[0])
        removed = sorted(pair for payload in self.payloads for pair in payload[1])
        return added, removed


@settings(max_examples=400, deadline=None)
@given(
    capacity=st.integers(1, 8),
    throttle=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    before=st.lists(
        st.tuples(
            st.sampled_from(["write", "writeback", "complete", "fetch"]),
            CACHE_LPNS,
            st.integers(0, 3),
        ),
        max_size=16,
    ),
    lpn=CACHE_LPNS,
    count=st.integers(1, 10),
    gap=st.integers(0, 3),
)
# (ii) a page of the extent is itself the LRU clean page, at capacity.
@example(
    capacity=3, throttle=1.0, lpn=0, count=2, gap=1,
    before=[("fetch", 1, 0), ("fetch", 5, 0), ("fetch", 6, 0)],
)
# (iii) pinned dirty pages alone exceed capacity.
@example(
    capacity=3, throttle=1.0, lpn=0, count=4, gap=1,
    before=[("write", 7, 0), ("write", 8, 1), ("fetch", 9, 0)],
)
# The throttle threshold (3 of 6 pages) is crossed by the third page of
# four: page 1 re-dirtied from write-back, page 2 from a clean copy.
@example(
    capacity=6, throttle=0.5, lpn=0, count=4, gap=0,
    before=[("write", 1, 2), ("writeback", 1, 0), ("fetch", 2, 1)],
)
def test_write_extent_equals_the_per_page_replay(
    capacity, throttle, before, lpn, count, gap
):
    """From any state -- dirty, write-back and clean pages inside the
    extent, eviction running, the extent's own page being the LRU clean
    one, pinned pages past capacity, the throttle crossed mid-extent --
    one ``write_extent`` leaves the cache, the expiry index, the
    pressure signal and a listening predictor exactly as ``count``
    per-page writes did, and so does the one-page form."""
    extent, paged, single = sides = [WriteSide(capacity, throttle) for _ in range(3)]
    now = 0
    for action, page, step in before:
        now += step
        run_actors(
            [side.cache for side in sides], [(action, page)], now, reference_write_page
        )
    now += gap  # gap 0: pages already stamped ``now`` keep their bucket
    for side in sides:
        side.payloads.clear()
        side.pressure = 0
    evictions = []
    original = extent.cache._evict_if_needed
    extent.cache._evict_if_needed = lambda: (evictions.append(1), original())[1]

    extent.cache.write_extent(lpn, count, now)
    for page in range(lpn, lpn + count):
        reference_write_page(paged.cache, page, now)
        single.cache.write_page(page, now)

    assert extent.state() == paged.state() == single.state()
    assert bool(extent.pressure) == bool(paged.pressure) == bool(single.pressure)
    assert extent.pressure <= 1 and len(evictions) <= 1
    assert len(extent.payloads) == 1  # ONE dirty-listener call per operation
    assert extent.heard() == paged.heard() == single.heard()
    tick = -(-now // PERIOD) * PERIOD
    demands = [side.predictor.predict(tick).demands_bytes for side in sides]
    assert demands[0] == demands[1] == demands[2]
    assert sum(demands[0]) == extent.cache.dirty_pages * PAGE
