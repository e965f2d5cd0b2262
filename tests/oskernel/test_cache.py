"""Tests for the write-back page cache."""

import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.buffered_predictor import BufferedWritePredictor
from repro.oskernel import cache as cache_module
from repro.oskernel.cache import PageCache

PAGE = 4096
#: Logical space of the standalone caches below: LPNs 0..63.
LOGICAL = 64


def make_cache(capacity_pages=64, throttle=0.5):
    return PageCache(
        PAGE, capacity_pages * PAGE, LOGICAL, dirty_throttle_fraction=throttle
    )


def oldest_dirty(cache):
    """The full-scan reference of :meth:`PageCache.iter_oldest_dirty`."""
    return sorted(cache.dirty_items(), key=lambda pair: (pair[1], pair[0]))


def expired_lpns(cache, now, tau):
    """The full-scan reference of :meth:`PageCache.expired_dirty`."""
    return {lpn for lpn, last_update in cache.dirty_items() if now - last_update >= tau}


def test_write_marks_dirty_with_timestamp():
    cache = make_cache()
    cache.write_page(5, now=100)
    assert cache.dirty_pages == 1
    assert cache.contains_dirty(5)
    assert cache.dirty_items() == [(5, 100)]


def test_overwrite_resets_age():
    """The paper's B -> B' example: an update postpones the flush."""
    cache = make_cache()
    cache.write_page(5, now=100)
    cache.write_page(5, now=900)
    assert cache.dirty_items() == [(5, 900)]
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
    assert expired == [(1, 0)]


def test_oldest_dirty_order():
    cache = make_cache()
    cache.write_page(3, now=10)
    cache.write_page(1, now=20)
    cache.write_page(2, now=30)
    cache.write_page(3, now=40)  # the overwrite makes page 3 the youngest
    assert [lpn for lpn, _ in cache.iter_oldest_dirty()] == [1, 2, 3]


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


@pytest.mark.parametrize("batch", [[1, 9], [1, 1]])
def test_a_refused_writeback_batch_moves_no_page(batch):
    """A batch with a page that is not dirty, or with a page twice, is
    refused whole: its pages stay dirty, and the listeners still count
    them."""
    cache = make_cache()
    predictor = BufferedWritePredictor(cache, 4, 12)
    cache.write_page(1, now=0)
    with pytest.raises(KeyError):
        cache.begin_writeback(batch)
    assert cache.dirty_pages == 1
    assert cache.writeback_pages == 0
    assert cache.contains_dirty(1)
    assert predictor.predict(4).total_bytes() == PAGE


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
        PageCache(0, 4096, LOGICAL)
    with pytest.raises(ValueError):
        PageCache(4096, 4096, LOGICAL, dirty_throttle_fraction=0)
    with pytest.raises(ValueError, match="logical_pages"):
        PageCache(4096, 4096, 0)


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
    """Pages sharing a stamp come out in LPN order, whatever order they
    were written in."""
    cache = make_cache()
    for lpn, now in ((4, 10), (2, 10), (3, 20), (1, 30)):
        cache.write_page(lpn, now=now)
    assert [lpn for lpn, _ in cache.iter_oldest_dirty()] == [2, 4, 3, 1]
    assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)


def test_age_walk_and_scan_agree_after_churn():
    cache = PageCache(PAGE, 64 * PAGE, LOGICAL)
    for step, lpn in enumerate(reversed(range(16))):
        cache.write_page(lpn, now=step // 5)
    cache.begin_writeback([0, 1, 2])
    cache.complete_writeback([0, 1, 2])
    cache.invalidate([3, 4])
    cache.write_page(1, now=9)
    assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)
    for now, tau in ((10, 3), (10, 8), (4, 1)):
        got = cache.expired_dirty(now, tau)
        assert got == oldest_dirty(cache)[: len(got)]
        assert {lpn for lpn, _ in got} == expired_lpns(cache, now, tau)


def assert_age_walk_matches_scan(cache, now, tau):
    assert list(cache.iter_oldest_dirty()) == oldest_dirty(cache)
    expired = cache.expired_dirty(now, tau)
    assert expired == oldest_dirty(cache)[: len(expired)]
    assert {lpn for lpn, _ in expired} == expired_lpns(cache, now, tau)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "invalidate", "writeback", "query"]),
            st.integers(min_value=0, max_value=31),  # lpn
            st.integers(min_value=0, max_value=3),  # clock step (0: a tie)
        ),
        max_size=80,
    ),
    tau=st.integers(min_value=1, max_value=20),
)
# A run of pages on one stamp, written in descending LPN order, then
# overwritten in part on the same stamp and on the next one.
@example(
    ops=[("write", lpn, 0) for lpn in (9, 7, 5, 3, 1)]
    + [("write", 7, 0), ("write", 5, 1), ("write", 2, 0), ("query", 0, 0)],
    tau=1,
)
def test_age_walk_and_expiry_match_a_scan(ops, tau):
    """The dirty dict's walk answers what a full sort of the dirty set
    does, on random op sequences with many pages sharing a stamp."""
    cache = PageCache(PAGE, 64 * PAGE, LOGICAL)
    now = 0
    for op, lpn, step in ops:
        now += step
        if op == "write":
            cache.write_page(lpn, now)
        elif op == "invalidate":
            cache.invalidate([lpn])
        elif op == "writeback":
            if cache.contains_dirty(lpn):
                cache.begin_writeback([lpn])
                cache.complete_writeback([lpn])
        else:
            assert_age_walk_matches_scan(cache, now, tau)
    assert_age_walk_matches_scan(cache, now, tau)


def test_a_write_before_the_newest_write_is_refused_untouched():
    """The dirty dict's order is its age order only while the clock is
    monotone, so a write stamped earlier than the newest one changes
    nothing: not the dirty order, the counters, or a listener."""
    cache = make_cache(capacity_pages=8, throttle=0.5)
    calls = []
    cache.dirty_listeners.append(lambda added, removed: calls.append("dirty"))
    cache.pressure_listeners.append(lambda: calls.append("pressure"))
    cache.insert_clean(6)
    cache.write_extent(1, 3, now=10)
    cache.write_page(5, now=20)
    cache.begin_writeback([5])
    cache.complete_writeback([5])  # the newest write is no longer dirty
    before = observable(cache)
    calls.clear()
    for call in (
        lambda: cache.write_page(2, now=19),  # an overwrite
        lambda: cache.write_extent(5, 2, now=0),  # clean pages
        lambda: cache.write_extent(8, 4, now=9),  # new pages, past the throttle
    ):
        with pytest.raises(ValueError, match="newest write"):
            call()
        assert observable(cache) == before
    assert calls == []
    cache.write_page(2, now=20)  # the same stamp is not earlier
    assert cache.dirty_items() == [(1, 10), (3, 10), (2, 20)]


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
    # ...and once something is dirty, its listener hears the drop.
    cache.write_page(7, now=5)
    calls.clear()
    cache.invalidate([1, 7])
    assert calls == ["dirty"]
    assert cache.cached_pages == 0


def test_invalidating_a_range_walks_it_only_when_it_holds_a_page():
    """A direct write's range: one holding nothing leaves the cache and
    its listeners alone; one holding a clean page at its first LPN and a
    dirty one at its last drops both, with one dirty-listener call."""
    cache = make_cache()
    calls = []
    cache.dirty_listeners.append(lambda added, removed: calls.append(removed))
    cache.insert_clean(10)
    cache.write_page(17, now=5)
    calls.clear()
    before = observable(cache)
    cache.invalidate(range(0, 10))
    cache.invalidate(range(18, LOGICAL))
    cache.invalidate(range(12, 12))
    assert observable(cache) == before and calls == []
    cache.invalidate(range(10, 18))
    assert calls == [[(17, 5)]]
    assert cache.cached_pages == 0 and cache.dirty_pages == 0
    with pytest.raises(IndexError):
        cache.invalidate(range(LOGICAL - 1, LOGICAL + 1))


# ----------------------------------------------------------------------
# An independent reference: the cache as three ordered dicts
# ----------------------------------------------------------------------
class ReferenceCache:
    """The page cache as it stood before the page-state table: a clean
    LRU ``OrderedDict``, a dirty ``OrderedDict`` of last-update times
    and a write-back dict, every operation in its one-page form -- one
    listener call, one eviction pass and one throttle check per *page*
    -- and the age order a full sort.  The properties below hold
    :class:`PageCache` to it through the same read-only queries."""

    def __init__(self, capacity_pages, throttle):
        self.page_size = PAGE
        self.capacity_pages = capacity_pages
        self.dirty_throttle_pages = max(1, int(capacity_pages * throttle))
        self.clean = OrderedDict()
        self.dirty = OrderedDict()
        self.writeback = {}
        self.write_hits = self.read_hits = self.read_misses = 0
        self.dirty_listeners = []
        self.pressure_listeners = []

    def write_page(self, lpn, now):
        old_ts = self.dirty.get(lpn)
        if old_ts is not None:
            self.dirty[lpn] = now
            self.dirty.move_to_end(lpn)
            self.write_hits += 1
            self._notify([(lpn, now)], [(lpn, old_ts)])
            return
        self.writeback.pop(lpn, None)
        self.clean.pop(lpn, None)
        self.dirty[lpn] = now
        self._notify([(lpn, now)], [])
        self._evict()
        if self.throttled():
            for listener in list(self.pressure_listeners):
                listener()

    def read_page(self, lpn):
        if lpn in self.dirty or lpn in self.writeback:
            self.read_hits += 1
            return True
        if lpn in self.clean:
            self.clean.move_to_end(lpn)
            self.read_hits += 1
            return True
        self.read_misses += 1
        return False

    def insert_clean(self, lpn):
        if lpn in self.dirty or lpn in self.writeback:
            return
        self.clean[lpn] = True
        self.clean.move_to_end(lpn)
        self._evict()

    def invalidate(self, lpns):
        removed = []
        for lpn in lpns:
            old_ts = self.dirty.pop(lpn, None)
            if old_ts is not None:
                removed.append((lpn, old_ts))
            self.clean.pop(lpn, None)
            self.writeback.pop(lpn, None)
        if removed:
            self._notify([], removed)

    def begin_writeback(self, lpns):
        moved = []
        for lpn in lpns:
            old_ts = self.dirty.pop(lpn)
            self.writeback[lpn] = True
            moved.append((lpn, old_ts))
        if moved:
            self._notify([], moved)

    def complete_writeback(self, lpns):
        for lpn in lpns:
            if self.writeback.pop(lpn, None) is not None:
                self.clean[lpn] = True
        self._evict()

    def _notify(self, added, removed):
        for listener in list(self.dirty_listeners):
            listener(added, removed)

    def _evict(self):
        while self.cached_pages > self.capacity_pages and self.clean:
            self.clean.popitem(last=False)

    @property
    def cached_pages(self):
        return len(self.dirty) + len(self.clean) + len(self.writeback)

    @property
    def dirty_pages(self):
        return len(self.dirty)

    @property
    def writeback_pages(self):
        return len(self.writeback)

    def throttled(self):
        return len(self.dirty) + len(self.writeback) >= self.dirty_throttle_pages

    def contains_dirty(self, lpn):
        return lpn in self.dirty

    def dirty_items(self):
        return list(self.dirty.items())

    def dirty_lpns(self):
        return list(self.dirty)

    def iter_oldest_dirty(self):
        return iter(sorted(self.dirty.items(), key=lambda pair: (pair[1], pair[0])))

    def clean_lpns(self):
        return list(self.clean)

    def writeback_lpns(self):
        return sorted(self.writeback)


def observable(cache):
    """What a cache shows through its read-only queries: clean LRU order
    (oldest first), dirty order, age order, the write-back set, the
    counters and the population."""
    return (
        cache.clean_lpns(),
        cache.dirty_items(),
        list(cache.iter_oldest_dirty()),
        cache.writeback_lpns(),
        (cache.read_hits, cache.read_misses, cache.write_hits),
        (cache.dirty_pages, cache.writeback_pages, cache.cached_pages),
    )


CACHE_LPNS = st.integers(0, 9)
#: Other actors: an application write, the flusher issuing or finishing
#: a page's write-back, another reader's fetch landing.
ACTORS = st.lists(
    st.tuples(st.sampled_from(["write", "writeback", "complete", "fetch"]), CACHE_LPNS),
    max_size=12,
)


def run_actors(caches, actors, now):
    for action, lpn in actors:
        for cache in caches:
            if action == "write":
                cache.write_page(lpn, now)
            elif action == "writeback":
                if cache.contains_dirty(lpn):
                    cache.begin_writeback([lpn])
            elif action == "complete":
                cache.complete_writeback([lpn])
            else:
                cache.insert_clean(lpn)


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
    per-page routines do -- through the reference cache and through
    the one-page forms ``read_page`` / ``insert_clean``."""
    extent, single = make_cache(capacity, 1.0), make_cache(capacity, 1.0)
    paged = ReferenceCache(capacity, 1.0)
    caches = [extent, paged, single]
    run_actors(caches, before, now=1)
    misses = extent.read_extent(lpn, count)
    pages = range(lpn, lpn + count)
    assert misses == [p for p in pages if not paged.read_page(p)]
    assert misses == [p for p in pages if not single.read_page(p)]
    assert observable(extent) == observable(paged) == observable(single)
    run_actors(caches, between, now=2)
    fetched = misses + extra + misses[:2]
    extent.insert_clean_many(fetched)
    for page in fetched:
        paged.insert_clean(page)
        single.insert_clean(page)
    assert observable(extent) == observable(paged) == observable(single)
    if extent.dirty_pages + extent.writeback_pages >= capacity:
        assert not extent.clean_lpns()  # pinned pages alone fill the cache
    else:
        assert extent.cached_pages <= capacity


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
    flusher has settled everything, over clean copies alone -- the
    table's ``invalidate`` leaves the cache and what the listeners heard
    exactly as the reference's one pop per page from each set does."""
    caches = [make_cache(capacity, 1.0), ReferenceCache(capacity, 1.0)]
    heard = [[], []]
    for cache, log in zip(caches, heard):
        cache.dirty_listeners.append(
            lambda added, removed, log=log: log.append((list(added), list(removed)))
        )
    run_actors(caches, before, now=1)
    if settle:
        for cache in caches:
            cache.begin_writeback(cache.dirty_lpns())
            cache.complete_writeback(cache.writeback_lpns())
        assert not caches[0].dirty_pages and not caches[0].writeback_pages
    for log in heard:
        log.clear()
    pages = range(lpn, lpn + count)
    caches[0].invalidate(iter(pages) if one_shot else pages)
    caches[1].invalidate(pages)
    assert observable(caches[0]) == observable(caches[1])
    assert heard[0] == heard[1]


# ----------------------------------------------------------------------
# write_extent against n x the per-page write_page it replaced
# ----------------------------------------------------------------------
PERIOD, TAU = 4, 12  # the predictor's p and tau_expire (Nwb = 3)


class WriteSide:
    """One cache with everything that listens to its write path."""

    def __init__(self, cache):
        self.cache = cache
        self.predictor = BufferedWritePredictor(cache, PERIOD, TAU)
        self.payloads = []
        self.pressure = 0
        cache.dirty_listeners.append(
            lambda added, removed: self.payloads.append((list(added), list(removed)))
        )
        cache.pressure_listeners.append(self._on_pressure)

    def _on_pressure(self):
        self.pressure += 1

    def state(self):
        return observable(self.cache), self.predictor._interval_counts

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
    one ``write_extent`` leaves the cache (its dirty and age order
    included), the pressure signal and a listening predictor exactly as
    ``count`` per-page writes of the reference did, and so does the
    one-page form."""
    extent, single = (WriteSide(make_cache(capacity, throttle)) for _ in range(2))
    paged = WriteSide(ReferenceCache(capacity, throttle))
    sides = [extent, paged, single]
    now = 0
    for action, page, step in before:
        now += step
        run_actors([side.cache for side in sides], [(action, page)], now)
    now += gap  # gap 0: an overwrite on the same stamp still moves to the end
    for side in sides:
        side.payloads.clear()
        side.pressure = 0
    evictions = []
    original = extent.cache._evict_if_needed
    extent.cache._evict_if_needed = lambda: (evictions.append(1), original())[1]

    extent.cache.write_extent(lpn, count, now)
    for page in range(lpn, lpn + count):
        paged.cache.write_page(page, now)
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


# ----------------------------------------------------------------------
# The page-state table against the reference, operation by operation
# ----------------------------------------------------------------------
class PageStateMachine(RuleBasedStateMachine):
    """Every cache operation, applied to the table and to the reference,
    over every state a page can be in: write and overwrite, re-dirty
    under write-back, begin and complete write-back (stale and dropped
    completions included), read, fetch, and invalidate of each state.
    The test lowers the LRU log's compaction floor so that the log
    compacts every few steps; the count is over every example."""

    CAPACITY = 12
    compactions = 0

    lpns = st.integers(0, LOGICAL - 1)

    def __init__(self):
        super().__init__()
        self.cache = make_cache(self.CAPACITY, throttle=1.0)
        self.ref = ReferenceCache(self.CAPACITY, 1.0)
        self.now = 0
        compact = self.cache._compact

        def counted():
            type(self).compactions += 1
            compact()

        self.cache._compact = counted

    def _pick(self, data, pool):
        return data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, unique=True))

    @rule(lpn=lpns, count=st.integers(1, 16), gap=st.integers(0, 2))
    def write(self, lpn, count, gap):
        self.now += gap
        count = min(count, LOGICAL - lpn)
        self.cache.write_extent(lpn, count, self.now)
        for page in range(lpn, lpn + count):
            self.ref.write_page(page, self.now)

    @precondition(lambda self: self.ref.dirty)
    @rule(data=st.data(), gap=st.integers(0, 2))
    def overwrite(self, data, gap):
        self.now += gap
        for lpn in self._pick(data, self.ref.dirty):
            self.cache.write_page(lpn, self.now)
            self.ref.write_page(lpn, self.now)

    @precondition(lambda self: self.ref.writeback)
    @rule(data=st.data())
    def redirty_under_writeback(self, data):
        for lpn in self._pick(data, self.ref.writeback):
            self.cache.write_page(lpn, self.now)
            self.ref.write_page(lpn, self.now)

    @precondition(lambda self: self.ref.dirty)
    @rule(data=st.data())
    def begin_writeback(self, data):
        lpns = self._pick(data, self.ref.dirty)
        self.cache.begin_writeback(lpns)
        self.ref.begin_writeback(lpns)

    @rule(data=st.data(), others=st.lists(lpns, max_size=4))
    def complete_writeback(self, data, others):
        lpns = others
        if self.ref.writeback:
            lpns = self._pick(data, self.ref.writeback) + others
        self.cache.complete_writeback(lpns)
        self.ref.complete_writeback(lpns)

    @rule(lpn=lpns, count=st.integers(1, 24))
    def read(self, lpn, count):
        count = min(count, LOGICAL - lpn)
        misses = self.cache.read_extent(lpn, count)
        pages = range(lpn, lpn + count)
        assert misses == [page for page in pages if not self.ref.read_page(page)]

    @rule(fetched=st.lists(lpns, max_size=16))
    def insert_clean_many(self, fetched):
        self.cache.insert_clean_many(fetched)
        for lpn in fetched:
            self.ref.insert_clean(lpn)

    @rule(lpn=lpns, count=st.integers(0, 8))
    def invalidate_range(self, lpn, count):
        pages = range(lpn, min(lpn + count, LOGICAL))
        self.cache.invalidate(pages)
        self.ref.invalidate(pages)

    def _invalidate_some(self, data, pool):
        lpns = self._pick(data, pool)
        self.cache.invalidate(lpns)
        self.ref.invalidate(lpns)

    @precondition(lambda self: self.ref.clean)
    @rule(data=st.data())
    def invalidate_clean(self, data):
        self._invalidate_some(data, self.ref.clean)

    @precondition(lambda self: self.ref.dirty)
    @rule(data=st.data())
    def invalidate_dirty(self, data):
        self._invalidate_some(data, self.ref.dirty)

    @precondition(lambda self: self.ref.writeback)
    @rule(data=st.data())
    def invalidate_writeback(self, data):
        self._invalidate_some(data, self.ref.writeback)

    @invariant()
    def matches_reference(self):
        assert observable(self.cache) == observable(self.ref)


def test_page_state_table_against_the_three_dict_reference(monkeypatch):
    monkeypatch.setattr(cache_module, "_LOG_MIN_STALE", 4)
    PageStateMachine.compactions = 0
    run_state_machine_as_test(
        PageStateMachine,
        settings=settings(
            max_examples=60, stateful_step_count=60, deadline=None, derandomize=True
        ),
    )
    assert PageStateMachine.compactions >= 3


def test_the_lru_log_compacts_at_its_threshold_and_keeps_lru_order():
    """At the real floor and factor: repeated hits on a hot subset leave
    stale log entries until they outnumber the live ones, then one
    compaction keeps exactly the live entries, in LRU order."""
    clean = 1000
    cache = PageCache(PAGE, clean * PAGE, 4 * clean)
    ref = ReferenceCache(clean, 0.5)
    cache.insert_clean_many(range(clean))
    for lpn in range(clean):
        ref.insert_clean(lpn)
    stale_needed = max(
        cache_module._LOG_MIN_STALE, cache_module._LOG_STALE_FACTOR * clean
    )
    reads = 0
    while True:
        start = (reads * 37) % (clean - 100)
        cache.read_extent(start, 100)
        for lpn in range(start, start + 100):
            ref.read_page(lpn)
        reads += 1
        if len(cache._log) == clean:  # compacted
            break
        assert len(cache._log) - clean <= stale_needed
    assert reads * 100 > stale_needed  # ...and not one touch earlier
    assert cache._log_head == 0 and len(cache._log) == clean
    assert observable(cache) == observable(ref)
    # The renumbered stamps keep working: eviction takes the oldest.
    cache.insert_clean_many(range(clean, clean + 10))
    for lpn in range(clean, clean + 10):
        ref.insert_clean(lpn)
    assert observable(cache) == observable(ref)


# ----------------------------------------------------------------------
# Bounds and memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "call",
    [
        lambda c: c.write_extent(LOGICAL - 1, 2, now=9),
        lambda c: c.write_extent(-3, 2, now=9),
        lambda c: c.write_page(LOGICAL, now=9),
        lambda c: c.read_extent(LOGICAL - 1, 2),
        lambda c: c.read_page(-1),
        lambda c: c.insert_clean_many([5, -1]),
        lambda c: c.insert_clean(LOGICAL),
        lambda c: c.invalidate([1, -1]),
        lambda c: c.invalidate(range(-2, 2)),
        lambda c: c.invalidate(iter([2, LOGICAL])),
        lambda c: c.complete_writeback([-1]),
    ],
    ids=[
        "write-across-end", "write-below", "write-page-past-end",
        "read-across-end", "read-below", "fetch-below", "fetch-past-end",
        "invalidate-below", "invalidate-range-below", "invalidate-past-end",
        "complete-below",
    ],
)
def test_an_lpn_outside_the_logical_space_is_refused_untouched(call):
    """The table would wrap a negative LPN onto the end of the logical
    space, where the last pages are in write-back, dirty and clean."""
    cache = make_cache(8, 1.0)
    cache.write_page(LOGICAL - 1, now=1)
    cache.begin_writeback([LOGICAL - 1])
    cache.write_extent(LOGICAL - 3, 2, now=2)
    cache.insert_clean_many([1, 2, LOGICAL - 4])
    before = observable(cache)
    with pytest.raises(IndexError, match="out of range"):
        call(cache)
    assert observable(cache) == before


def test_a_negative_count_is_refused():
    cache = make_cache()
    with pytest.raises(ValueError, match="page count"):
        cache.write_extent(5, -1, now=0)
    with pytest.raises(ValueError, match="page count"):
        cache.read_extent(5, -1)


def test_a_clean_page_costs_at_most_32_bytes_above_the_table():
    """The OrderedDict this table replaced cost ~205 B per clean page;
    the LRU log costs one int32 per touch.  The pages are fetched as a
    read-mostly workload fetches them, then each is hit once more (the
    OrderedDict measures ~107 B per page here, int keys included)."""
    pages = 64 * 320
    tracemalloc.start()
    try:
        cache = PageCache(PAGE, 2 * pages * PAGE, 4 * pages)
        table = tracemalloc.get_traced_memory()[0]
        for start in range(0, pages, 64):
            cache.insert_clean_many(cache.read_extent(start, 64))
        for start in range(0, pages, 64):
            assert not cache.read_extent(start, 64)
        held = tracemalloc.get_traced_memory()[0] - table
    finally:
        tracemalloc.stop()
    assert cache.cached_pages == pages == len(cache.clean_lpns())
    assert held <= 32 * pages
