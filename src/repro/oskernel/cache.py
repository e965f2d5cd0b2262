"""The write-back page cache.

This is the data structure the paper's buffered-write predictor exploits:
dirty pages carry their *last-update* timestamp, and the kernel flushes
them once they are older than ``tau_expire`` -- so scanning the dirty set
tells you, with near certainty, how much data will hit the SSD in each
future write-back interval (paper Sec 3.2.1).

A cached page is in exactly one of three states:

* **dirty** -- written by an application, not yet issued to the SSD.
  An overwrite *resets* the page's age (the paper's B -> B' example in
  Fig. 4), delaying its flush.
* **under write-back** -- issued to the SSD, not yet acknowledged; still
  served to readers, and re-dirtied by a write.
* **clean** -- read from the SSD, or a dirty page whose write-back
  completed; kept for read hits, evicted LRU under capacity pressure
  (dirty and in-flight pages are never evicted, they must be written
  first).

Dirty throttling: when dirty bytes exceed ``dirty_throttle_fraction`` of
capacity, buffered writers must block until write-back drains the cache
-- this is how a buffered-write workload ever feels SSD speed, and thus
how GC stalls propagate to application IOPS.

Layout (PERFORMANCE.md, "One page-state table for the page cache"):
the state of every logical page is one int32 in a table over the
logical space -- absent, dirty, under write-back, or clean with its LRU
stamp -- so the three states are exclusive by construction and a
lookup is one table read.  Clean pages cost no Python object: an
append-only *LRU log* (a typed array of LPNs) records each clean touch
in order, and a page's stamp names the log position of its latest
touch.  An entry whose page's stamp has moved on is stale; eviction
walks the log from its head and skips stale entries, and the log is
compacted (live entries kept in order, stamps renumbered) once stale
entries outnumber live ones by ``_LOG_STALE_FACTOR``.

The dirty pages are one insertion-ordered dict from LPN to last-update
time, and its order is their age order: a new page is appended at
``now``, an overwrite pops its page and appends it again, and
:meth:`write_extent` refuses a ``now`` earlier than the cache's newest
write (simulated time never goes backwards).  :meth:`iter_oldest_dirty`
walks the dict from the front, in ``(last_update, lpn)`` order, and
:meth:`expired_dirty` is the expired prefix of that walk.  A full scan
of the dirty set they must agree with, and a cache of three ordered
dicts that the page-state table must agree with, are written out in
``tests/oskernel/test_cache.py``.
"""

from __future__ import annotations

from array import array
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: Page states in the table.  A clean page holds its stamp instead: the
#: position of its latest LRU log entry plus one, so every stamp is > 0
#: and "absent or clean" is ``state >= 0``.
ABSENT, DIRTY, WRITEBACK = 0, -1, -2
#: The LRU log is compacted once its stale entries outnumber the live
#: ones by this factor (and number at least ``_LOG_MIN_STALE``, so a
#: small hot clean set does not compact on every touch).
_LOG_STALE_FACTOR = 2
_LOG_MIN_STALE = 4096
#: Compaction works through the log this many entries at a time, so its
#: temporaries stay small next to the log itself.
_COMPACT_CHUNK = 1 << 16
#: Stamps are int32 log positions: the log never outgrows ``factor + 1``
#: times the logical space plus ``_LOG_MIN_STALE`` and one operation's
#: touches, which this bound keeps below 2**31.
_MAX_LOGICAL_PAGES = 1 << 28


class PageCache:
    """Write-back page cache with dirty aging and throttling.

    Args:
        page_size: bytes per page (matches the device's logical pages).
        capacity_bytes: total cache capacity.
        logical_pages: size of the logical space the cache serves (the
            device's user pages).  An LPN outside ``[0, logical_pages)``
            is refused with ``IndexError`` before anything is touched.
        dirty_throttle_fraction: dirty share of capacity beyond which
            buffered writers must block (Linux ``dirty_ratio`` analogue).
    """

    def __init__(
        self,
        page_size: int,
        capacity_bytes: int,
        logical_pages: int,
        dirty_throttle_fraction: float = 0.4,
    ) -> None:
        if page_size <= 0 or capacity_bytes < page_size:
            raise ValueError("cache must hold at least one page")
        if not 0 < logical_pages <= _MAX_LOGICAL_PAGES:
            raise ValueError(
                f"logical_pages must be in (0, {_MAX_LOGICAL_PAGES}], got {logical_pages}"
            )
        if not 0.0 < dirty_throttle_fraction <= 1.0:
            raise ValueError(
                f"dirty_throttle_fraction must be in (0, 1], got {dirty_throttle_fraction}"
            )
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        self.logical_pages = logical_pages
        self.dirty_throttle_pages = max(
            1, int(self.capacity_pages * dirty_throttle_fraction)
        )

        #: Page-state table: ABSENT, DIRTY, WRITEBACK or a clean stamp.
        self._state = array("i", [ABSENT]) * logical_pages
        #: The same table for compaction's vectorised gathers and scatters
        #: (the table is never resized, so the shared buffer is stable).
        self._state_np = np.frombuffer(self._state, dtype=np.intc)
        #: LRU log: one LPN per clean touch, oldest first from
        #: ``_log_head`` (entries before it are all stale).
        self._log = array("i")
        self._log_head = 0
        self._clean_pages = 0
        self._writeback_pages = 0
        #: Dirty pages: LPN -> last-update time, oldest write first.
        self._dirty: Dict[int, int] = {}
        #: Time of the newest write; an earlier ``now`` is refused.
        self._newest_write = 0

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
    # Bounds
    # ------------------------------------------------------------------
    def check_extent(self, lpn: int, count: int) -> None:
        """Reject a negative count or an extent that leaves the logical space."""
        if count < 0:
            raise ValueError(f"extent page count must be >= 0, got {count}")
        if lpn < 0 or lpn + count > self.logical_pages:
            raise IndexError(
                f"LPN extent [{lpn}, {lpn + count}) out of range "
                f"[0, {self.logical_pages})"
            )

    def _checked(self, lpns: Iterable[int]) -> Sequence[int]:
        """``lpns`` as a sequence, refused whole if one LPN is outside the
        logical space (the table would wrap a negative index)."""
        end = self.logical_pages
        if type(lpns) is range and lpns.step == 1:  # dispatcher and flusher extents
            if lpns and (lpns.start < 0 or lpns.stop > end):
                self.check_extent(lpns.start, len(lpns))
            return lpns
        if type(lpns) is not list:
            lpns = list(lpns)
        for lpn in lpns:  # on few-page lists this beats min() + max()
            if not 0 <= lpn < end:
                raise IndexError(f"LPN {lpn} out of range [0, {end})")
        return lpns

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
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
        well-behaved dispatcher blocks the writer instead.  A ``now``
        earlier than the newest write raises ``ValueError``: the dirty
        dict's order is its age order only while the clock is monotone.

        One listener call, one eviction pass and one throttle check per
        operation, with the outcome of doing each per page: the dirty +
        write-back population never shrinks inside a write, so "some new
        page left the cache throttled" is "a page was new and the cache
        ends throttled", and LRU is a stack algorithm, so evicting once
        at the end leaves the survivors evicting per page would.
        """
        if lpn < 0 or count < 0 or lpn + count > self.logical_pages:
            self.check_extent(lpn, count)
        if now < self._newest_write:
            raise ValueError(
                f"write at {now} precedes the cache's newest write at {self._newest_write}"
            )
        self._newest_write = now
        dirty, state = self._dirty, self._state
        added: List[Tuple[int, int]] = []
        removed: List[Tuple[int, int]] = []
        for page in range(lpn, lpn + count):
            old_ts = dirty.pop(page, None)
            if old_ts is not None:
                # Overwrite: age resets, flush is postponed (paper Fig. 4, B').
                removed.append((page, old_ts))
            else:
                held = state[page]
                if held > 0:  # clean: its LRU log entry goes stale
                    self._clean_pages -= 1
                elif held:  # re-dirtied under write-back
                    self._writeback_pages -= 1
                state[page] = DIRTY
            dirty[page] = now
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
        if lpn < 0 or count < 0 or lpn + count > self.logical_pages:
            self.check_extent(lpn, count)
        state, log = self._state, self._log
        misses: List[int] = []
        for page in range(lpn, lpn + count):
            held = state[page]
            if held > 0:  # clean hit: refresh LRU
                log.append(page)
                state[page] = len(log)
            elif not held:
                misses.append(page)
        hits = count - len(misses)
        self.read_hits += hits
        self.read_misses += len(misses)
        if hits:
            stale = len(log) - self._clean_pages
            if stale > _LOG_MIN_STALE and stale > _LOG_STALE_FACTOR * self._clean_pages:
                self._compact()
        return misses

    def insert_clean(self, lpn: int) -> None:
        """Cache a page fetched from the device."""
        self.insert_clean_many([lpn])

    def insert_clean_many(self, lpns: Iterable[int]) -> None:
        """Cache pages fetched from the device, evicting once at the end
        (LRU is a stack algorithm: same survivors as evicting per page).
        Dirty and in-flight pages are newer than the device's copy and
        are left as they are."""
        state, log = self._state, self._log
        new = 0
        for lpn in self._checked(lpns):
            held = state[lpn]
            if held >= 0:  # absent or clean
                if not held:
                    new += 1
                log.append(lpn)
                state[lpn] = len(log)
        self._clean_pages += new
        self._evict_if_needed()

    def invalidate(self, lpns: Iterable[int]) -> None:
        """Drop pages (file deletion, direct write over cached data).

        Dirty listeners observe the whole batch as ONE call, however
        many pages are dropped.
        """
        lpns = self._checked(lpns)
        state = self._state
        # A direct write's extent that holds nothing skips the walk.  The
        # table's own C count beats a NumPy reduction at 8-32 pages.
        if type(lpns) is range:
            if state[lpns.start:lpns.stop].count(ABSENT) == len(lpns):
                return
        removed: List[Tuple[int, int]] = []
        for lpn in lpns:
            held = state[lpn]
            if not held:
                continue
            state[lpn] = ABSENT
            if held > 0:
                self._clean_pages -= 1
            elif held == DIRTY:
                removed.append((lpn, self._dirty.pop(lpn)))
            else:
                self._writeback_pages -= 1
        if removed and self.dirty_listeners:
            self._notify_dirty([], removed)

    # ------------------------------------------------------------------
    # Flusher-side operations
    # ------------------------------------------------------------------
    def expired_dirty(self, now: int, tau_expire: int) -> List[Tuple[int, int]]:
        """``(lpn, last_update)`` of the dirty pages older than
        ``tau_expire`` at time ``now``: the prefix of
        :meth:`iter_oldest_dirty` that has expired, taken one run of
        equal stamps at a time."""
        expired: List[Tuple[int, int]] = []
        for ts, run in groupby(self._dirty.items(), key=itemgetter(1)):
            if now - ts < tau_expire:
                break
            expired += sorted(run)
        return expired

    def iter_oldest_dirty(self) -> Iterator[Tuple[int, int]]:
        """Stream ``(lpn, last_update)`` oldest-first, in
        ``(last_update, lpn)`` order, lazily.

        The dirty dict is in age order already; only a run of pages
        sharing one stamp is sorted, by LPN.  The flusher's volume
        condition only needs the oldest ``excess`` pages; this stops
        after yielding them instead of sorting the whole population.
        """
        for _ts, run in groupby(self._dirty.items(), key=itemgetter(1)):
            yield from sorted(run)

    def begin_writeback(self, lpns: Iterable[int]) -> None:
        """Move pages from dirty to the in-flight write-back set.

        Writeback and dirty listeners each observe the whole batch as
        ONE call (listener invocations do not scale with batch size).
        A batch holding a page that is not dirty, or a page twice, raises
        ``KeyError`` and moves nothing.
        """
        batch = list(lpns)
        dirty, state = self._dirty, self._state
        for lpn in batch:
            if lpn not in dirty:
                raise KeyError(f"page {lpn} is not dirty")
        if len(set(batch)) != len(batch):
            raise KeyError("a write-back batch lists a page twice")
        moved = [(lpn, dirty.pop(lpn)) for lpn in batch]
        for lpn in batch:
            state[lpn] = WRITEBACK
        self._writeback_pages += len(moved)
        if moved:
            if self.dirty_listeners:
                self._notify_dirty([], moved)
            for listener in list(self.writeback_listeners):
                listener(moved)

    def complete_writeback(self, lpns: Iterable[int]) -> None:
        """Acknowledge device completion; pages become clean.

        A page re-dirtied or dropped since its write-back began is left
        as it is.  Fires drain listeners if the dirty+writeback
        population dropped below the throttle threshold (one notification
        per call, not per page).
        """
        state, log = self._state, self._log
        before = len(log)
        for lpn in self._checked(lpns):
            if state[lpn] == WRITEBACK:
                log.append(lpn)
                state[lpn] = len(log)
        done = len(log) - before
        self._writeback_pages -= done
        self._clean_pages += done
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
        return self._writeback_pages

    @property
    def cached_pages(self) -> int:
        return len(self._dirty) + self._clean_pages + self._writeback_pages

    def throttled(self) -> bool:
        """True when buffered writers should block (dirty pressure)."""
        return len(self._dirty) + self._writeback_pages >= self.dirty_throttle_pages

    def dirty_items(self) -> List[Tuple[int, int]]:
        """Snapshot of ``(lpn, last_update)`` pairs, oldest write first
        (the predictor's scan input)."""
        return list(self._dirty.items())

    def dirty_lpns(self) -> List[int]:
        """Dirty LPNs in insertion order (the SIP-list snapshot)."""
        return list(self._dirty.keys())

    def contains_dirty(self, lpn: int) -> bool:
        return lpn in self._dirty

    def clean_lpns(self) -> List[int]:
        """Clean LPNs in LRU order, the next to be evicted first."""
        state, log = self._state, self._log
        return [
            log[pos]
            for pos in range(self._log_head, len(log))
            if state[log[pos]] == pos + 1
        ]

    def writeback_lpns(self) -> List[int]:
        """LPNs under write-back, ascending (a scan of the whole table)."""
        return np.flatnonzero(self._state_np == WRITEBACK).tolist()

    # ------------------------------------------------------------------
    # LRU log
    # ------------------------------------------------------------------
    def _evict_if_needed(self) -> None:
        """LRU-evict clean pages past capacity (dirty pages are pinned):
        walk the log from its head, skipping stale entries.  Then compact
        the log if it has grown stale."""
        clean = self._clean_pages
        excess = len(self._dirty) + clean + self._writeback_pages - self.capacity_pages
        if excess > 0 and clean:
            state, log, head = self._state, self._log, self._log_head
            while excess > 0 and clean:
                lpn = log[head]
                head += 1
                if state[lpn] == head:  # live: the entry at ``head - 1``
                    state[lpn] = ABSENT
                    clean -= 1
                    excess -= 1
            self._log_head = head
            self._clean_pages = clean
        stale = len(self._log) - clean
        if stale > _LOG_MIN_STALE and stale > _LOG_STALE_FACTOR * clean:
            self._compact()

    def _compact(self) -> None:
        """Keep the log's live entries in order and renumber their stamps
        to their new positions.  A live entry's page is renumbered before
        any later entry is tested, and its new stamp is below every later
        position, so a later stale entry of the same page stays stale."""
        state = self._state_np
        old = np.frombuffer(self._log, dtype=np.intc)
        log = array("i")
        for start in range(self._log_head, len(old), _COMPACT_CHUNK):
            chunk = old[start:start + _COMPACT_CHUNK]
            stamps = np.arange(start + 1, start + 1 + len(chunk), dtype=np.intc)
            live = chunk[state[chunk] == stamps]
            kept = len(log)
            state[live] = np.arange(kept + 1, kept + 1 + len(live), dtype=np.intc)
            log.frombytes(live.tobytes())
        self._log, self._log_head = log, 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PageCache dirty={self.dirty_pages} clean={self._clean_pages} "
            f"wb={self._writeback_pages}/{self.capacity_pages}p>"
        )
