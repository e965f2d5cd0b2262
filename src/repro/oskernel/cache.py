"""The write-back page cache.

This is the data structure the paper's buffered-write predictor exploits:
dirty pages carry their *last-update* timestamp, and the kernel flushes
them once they are older than ``tau_expire`` -- so scanning the dirty set
tells you, with near certainty, how much data will hit the SSD in each
future write-back interval (paper Sec 3.2.1).

The cache holds two page populations:

* **dirty** pages -- written by applications, not yet issued to the SSD.
  An overwrite *resets* the page's age (the paper's B -> B' example in
  Fig. 4), delaying its flush.
* **clean** pages -- either read from the SSD or dirty pages whose
  write-back completed; kept for read hits, evicted LRU under capacity
  pressure (dirty pages are never evicted, they must be written first).

Dirty throttling: when dirty bytes exceed ``dirty_throttle_fraction`` of
capacity, buffered writers must block until write-back drains the cache
-- this is how a buffered-write workload ever feels SSD speed, and thus
how GC stalls propagate to application IOPS.

Hot-path acceleration (PERFORMANCE.md): the flusher and the buffered
predictor interrogate the dirty set every tick.  The cache maintains a
*last-update expiry index* -- dirty LPNs grouped into per-timestamp
buckets kept in age order -- so :meth:`expired_dirty` costs O(pages
expired) and :meth:`iter_oldest_dirty` streams oldest-first without
sorting the whole population.  The full scans of the dirty set they must
agree with are written out in ``tests/oskernel/test_cache.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple


@dataclass
class DirtyPage:
    """One dirty cache page.

    Attributes:
        lpn: logical page number backing this cache page.
        last_update: simulated time of the most recent write to the page
            (an overwrite resets it, delaying the flush).
    """

    lpn: int
    last_update: int


class PageCache:
    """Write-back page cache with dirty aging and throttling.

    Args:
        page_size: bytes per page (matches the device's logical pages).
        capacity_bytes: total cache capacity.
        dirty_throttle_fraction: dirty share of capacity beyond which
            buffered writers must block (Linux ``dirty_ratio`` analogue).
    """

    def __init__(
        self,
        page_size: int,
        capacity_bytes: int,
        dirty_throttle_fraction: float = 0.4,
    ) -> None:
        if page_size <= 0 or capacity_bytes < page_size:
            raise ValueError("cache must hold at least one page")
        if not 0.0 < dirty_throttle_fraction <= 1.0:
            raise ValueError(
                f"dirty_throttle_fraction must be in (0, 1], got {dirty_throttle_fraction}"
            )
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        self.dirty_throttle_pages = max(
            1, int(self.capacity_pages * dirty_throttle_fraction)
        )

        self._dirty: "OrderedDict[int, DirtyPage]" = OrderedDict()
        self._clean: "OrderedDict[int, bool]" = OrderedDict()
        #: Pages issued to the device but not yet acknowledged.
        self._in_writeback: Dict[int, bool] = {}

        #: Expiry index: last_update -> {lpn: None}, buckets kept in
        #: ascending-timestamp order (sim time is monotone, so appends
        #: are O(1); the out-of-order fallback only fires in synthetic
        #: unit tests that rewind the clock).
        self._by_time: "OrderedDict[int, Dict[int, None]]" = OrderedDict()
        self._max_bucket_ts: int = -1

        #: Callbacks fired when dirty population drops below the throttle.
        self.drain_listeners: List[Callable[[], None]] = []
        #: Callbacks fired when a write pushes the cache into throttling
        #: (the flusher subscribes to start background write-back early).
        self.pressure_listeners: List[Callable[[], None]] = []
        #: Callbacks fired when pages enter write-back; receive the list
        #: of (lpn, last_update) pairs so observers can tell age-expired
        #: flushes from early (fsync/volume-pressure) ones.
        self.writeback_listeners: List[Callable[[List[tuple]], None]] = []
        #: Callbacks fired on every dirty-population change with
        #: ``(added, removed)`` lists of ``(lpn, last_update)`` pairs.
        #: Exactly ONE call per cache operation, however many pages the
        #: operation touches -- the buffered predictor keeps its ``Dbuf``
        #: histogram current from these without rescanning the cache.
        self.dirty_listeners: List[
            Callable[[List[Tuple[int, int]], List[Tuple[int, int]]], None]
        ] = []

        # Counters.
        self.write_hits = 0
        self.read_hits = 0
        self.read_misses = 0

    # ------------------------------------------------------------------
    # Expiry-index maintenance
    # ------------------------------------------------------------------
    def _bucket_add(self, lpn: int, ts: int) -> None:
        bucket = self._by_time.get(ts)
        if bucket is None:
            bucket = self._by_time[ts] = {}
            if ts >= self._max_bucket_ts:
                self._max_bucket_ts = ts
            else:
                # Clock went backwards (synthetic test input): restore
                # ascending bucket order.  Never hit under a simulator.
                for key in sorted(self._by_time):
                    self._by_time.move_to_end(key)
        bucket[lpn] = None

    def _bucket_remove(self, lpn: int, ts: int) -> None:
        bucket = self._by_time[ts]
        del bucket[lpn]
        if not bucket:
            del self._by_time[ts]

    def _notify_dirty(
        self, added: List[Tuple[int, int]], removed: List[Tuple[int, int]]
    ) -> None:
        for listener in list(self.dirty_listeners):
            listener(added, removed)

    # ------------------------------------------------------------------
    # Application-side operations
    # ------------------------------------------------------------------
    def write_page(self, lpn: int, now: int) -> None:
        """Buffer a write to ``lpn`` at time ``now`` (marks/refreshes dirty)."""
        self.write_extent(lpn, 1, now)

    def write_extent(self, lpn: int, count: int, now: int) -> None:
        """Buffer a write of ``count`` pages from ``lpn`` at time ``now``.

        Callers must check :meth:`throttled` first; writing while
        throttled is allowed (the model keeps state consistent) but a
        well-behaved dispatcher blocks the writer instead.

        One listener call, one eviction pass and one throttle check per
        operation, with the outcome of doing each per page: the dirty +
        write-back population never shrinks inside a write, so "some new
        page left the cache throttled" is "a page was new and the cache
        ends throttled", and LRU is a stack algorithm, so evicting once
        at the end leaves the survivors evicting per page would.
        """
        dirty = self._dirty
        added: List[Tuple[int, int]] = []
        removed: List[Tuple[int, int]] = []
        for page in range(lpn, lpn + count):
            entry = dirty.get(page)
            if entry is not None:
                # Overwrite: age resets, flush is postponed (paper Fig. 4, B').
                old_ts = entry.last_update
                entry.last_update = now
                dirty.move_to_end(page)
                if old_ts != now:
                    self._bucket_remove(page, old_ts)
                    self._bucket_add(page, now)
                removed.append((page, old_ts))
            else:
                # A write to a page under write-back re-dirties it.
                self._in_writeback.pop(page, None)
                self._clean.pop(page, None)
                dirty[page] = DirtyPage(page, now)
                self._bucket_add(page, now)
            added.append((page, now))
        hits = len(removed)
        self.write_hits += hits
        if self.dirty_listeners:
            self._notify_dirty(added, removed)
        if hits < count:  # at least one page was new
            self._evict_if_needed()
            if self.throttled():
                for listener in list(self.pressure_listeners):
                    listener()

    def read_page(self, lpn: int) -> bool:
        """Look up ``lpn``; returns True on hit (and refreshes LRU)."""
        return not self.read_extent(lpn, 1)

    def read_extent(self, lpn: int, count: int) -> List[int]:
        """Look up ``count`` pages from ``lpn``; returns the misses in
        ascending order (clean hits refresh LRU in page order)."""
        dirty, writeback, clean = self._dirty, self._in_writeback, self._clean
        misses: List[int] = []
        for page in range(lpn, lpn + count):
            if page in clean:  # a page is in at most one of the three sets
                clean.move_to_end(page)
            elif page not in dirty and page not in writeback:
                misses.append(page)
        self.read_hits += count - len(misses)
        self.read_misses += len(misses)
        return misses

    def insert_clean(self, lpn: int) -> None:
        """Cache a page fetched from the device."""
        self.insert_clean_many((lpn,))

    def insert_clean_many(self, lpns: Iterable[int]) -> None:
        """Cache pages fetched from the device, evicting once at the end
        (LRU is a stack algorithm: same survivors as evicting per page)."""
        dirty, writeback, clean = self._dirty, self._in_writeback, self._clean
        for lpn in lpns:
            if lpn not in dirty and lpn not in writeback:
                clean[lpn] = True
                clean.move_to_end(lpn)
        self._evict_if_needed()

    def invalidate(self, lpns: Iterable[int]) -> None:
        """Drop pages (file deletion, direct write over cached data).

        Dirty listeners observe the whole batch as ONE call, however
        many pages are dropped.
        """
        if not self._dirty and not self._in_writeback:
            # Nothing dirty (a direct-write workload): only clean copies
            # can be dropped, found by one C-level set intersection, and
            # no listener has anything to hear.
            clean = self._clean
            for lpn in clean.keys() & lpns:
                del clean[lpn]
            return
        removed: List[Tuple[int, int]] = []
        for lpn in lpns:
            entry = self._dirty.pop(lpn, None)
            if entry is not None:
                self._bucket_remove(lpn, entry.last_update)
                removed.append((lpn, entry.last_update))
            self._clean.pop(lpn, None)
            self._in_writeback.pop(lpn, None)
        if removed and self.dirty_listeners:
            self._notify_dirty([], removed)

    # ------------------------------------------------------------------
    # Flusher-side operations
    # ------------------------------------------------------------------
    def expired_dirty(self, now: int, tau_expire: int) -> List[DirtyPage]:
        """Dirty pages older than ``tau_expire`` at time ``now``.

        O(pages expired) on the expiry index (oldest bucket first, LPN
        order within a bucket).
        """
        expired: List[DirtyPage] = []
        for ts, bucket in self._by_time.items():
            if now - ts < tau_expire:
                break
            expired.extend(self._dirty[lpn] for lpn in sorted(bucket))
        return expired

    def iter_oldest_dirty(self) -> Iterator[DirtyPage]:
        """Stream dirty pages oldest-first, in ``(last_update, lpn)``
        order, lazily.

        The flusher's volume condition only needs the oldest ``excess``
        pages; this stops after yielding them instead of sorting the
        whole population.
        """
        for bucket in self._by_time.values():
            for lpn in sorted(bucket):
                yield self._dirty[lpn]

    def begin_writeback(self, lpns: Iterable[int]) -> None:
        """Move pages from dirty to the in-flight write-back set.

        Writeback and dirty listeners each observe the whole batch as
        ONE call (listener invocations do not scale with batch size).
        """
        moved = []
        for lpn in lpns:
            entry = self._dirty.pop(lpn, None)
            if entry is None:
                raise KeyError(f"page {lpn} is not dirty")
            self._bucket_remove(lpn, entry.last_update)
            self._in_writeback[lpn] = True
            moved.append((lpn, entry.last_update))
        if moved:
            if self.dirty_listeners:
                self._notify_dirty([], moved)
            for listener in list(self.writeback_listeners):
                listener(moved)

    def complete_writeback(self, lpns: Iterable[int]) -> None:
        """Acknowledge device completion; pages become clean.

        Fires drain listeners if the dirty+writeback population dropped
        below the throttle threshold (one notification per call, not
        per page).
        """
        for lpn in lpns:
            if self._in_writeback.pop(lpn, None) is not None:
                self._clean[lpn] = True
        self._evict_if_needed()
        if not self.throttled():
            listeners, self.drain_listeners = self.drain_listeners, []
            for listener in listeners:
                listener()

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    @property
    def dirty_bytes(self) -> int:
        return len(self._dirty) * self.page_size

    @property
    def writeback_pages(self) -> int:
        return len(self._in_writeback)

    @property
    def cached_pages(self) -> int:
        return len(self._dirty) + len(self._clean) + len(self._in_writeback)

    def throttled(self) -> bool:
        """True when buffered writers should block (dirty pressure)."""
        return len(self._dirty) + len(self._in_writeback) >= self.dirty_throttle_pages

    def dirty_items(self) -> List[DirtyPage]:
        """Snapshot of dirty pages (the predictor's scan input)."""
        return list(self._dirty.values())

    def dirty_lpns(self) -> List[int]:
        """Dirty LPNs in insertion order (the SIP-list snapshot)."""
        return list(self._dirty.keys())

    def contains_dirty(self, lpn: int) -> bool:
        return lpn in self._dirty

    # ------------------------------------------------------------------
    def _evict_if_needed(self) -> None:
        """LRU-evict clean pages past capacity (dirty pages are pinned)."""
        excess = self.cached_pages - self.capacity_pages
        while excess > 0 and self._clean:
            self._clean.popitem(last=False)
            excess -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PageCache dirty={self.dirty_pages} clean={len(self._clean)} "
            f"wb={self.writeback_pages}/{self.capacity_pages}p>"
        )
