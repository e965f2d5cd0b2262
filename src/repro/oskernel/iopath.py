"""The I/O dispatcher: where buffered and direct writes part ways.

Workload generators issue all their I/O through :class:`IoDispatcher`,
which models the kernel datapath of the paper's Fig. 3:

* **buffered writes** land in the page cache and complete at memory
  speed -- unless dirty throttling is active, in which case the writer
  blocks until write-back drains (this is how device-level GC stalls
  reach buffered applications);
* **direct writes** (``O_SYNC`` / ``O_DIRECT``) bypass the cache and
  complete only when the SSD does;
* **reads** are served from the cache when possible, otherwise fetched
  from the device and inserted clean.

The dispatcher also keeps the buffered/direct byte accounting that
reproduces the paper's Table 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from repro.obs.audit import DISABLED_AUDIT, BackpressureRecord
from repro.oskernel.cache import PageCache
from repro.sim.engine import Simulator
from repro.sim.simtime import MICROSECOND
from repro.ssd.device import SsdDevice
from repro.ssd.request import IoKind, IoRequest


def _coalesce(sorted_pages: Iterable[int], max_len: int) -> List[Tuple[int, int]]:
    """Group sorted page numbers into (start, length) extents of at most
    ``max_len`` pages (both write-back paths build their requests here)."""
    extents: List[Tuple[int, int]] = []
    start = prev = None
    for page in sorted_pages:
        if start is None:
            start = prev = page
        elif page == prev + 1 and page - start < max_len:
            prev = page
        else:
            extents.append((start, prev - start + 1))
            start = prev = page
    if start is not None:
        extents.append((start, prev - start + 1))
    return extents


@dataclass
class WriteTrafficStats:
    """Application-level write accounting (the paper's Table 1 input)."""

    buffered_bytes: int = 0
    direct_bytes: int = 0
    buffered_ops: int = 0
    direct_ops: int = 0
    read_bytes: int = 0
    read_ops: int = 0
    throttle_events: int = 0
    fsync_ops: int = 0
    trim_ops: int = 0
    trim_bytes: int = 0

    def buffered_fraction(self) -> float:
        """Share of write bytes that took the buffered path."""
        total = self.buffered_bytes + self.direct_bytes
        if total == 0:
            return 0.0
        return self.buffered_bytes / total

    def direct_fraction(self) -> float:
        return 1.0 - self.buffered_fraction() if (self.buffered_bytes + self.direct_bytes) else 0.0


class IoDispatcher:
    """Kernel I/O entry point for workload generators.

    All completion callbacks receive no arguments; workloads typically
    pass a :class:`~repro.sim.process.WaitFor` wake.

    Args:
        sim: shared simulator.
        cache: the page cache.
        device: the SSD.
        memcpy_ns_per_page: cost of a buffered write landing in DRAM.
    """

    def __init__(
        self,
        sim: Simulator,
        cache: PageCache,
        device: SsdDevice,
        memcpy_ns_per_page: int = 2 * MICROSECOND,
    ) -> None:
        self.sim = sim
        self.cache = cache
        self.device = device
        self.memcpy_ns_per_page = memcpy_ns_per_page
        self.stats = WriteTrafficStats()
        #: Decision audit; replaced by Observability.install when auditing.
        #: The dispatcher records dirty-throttling (backpressure) spans
        #: for tail-latency attribution.
        self.audit = DISABLED_AUDIT
        #: Writers blocked on dirty throttling, FIFO.
        self._throttle_queue: Deque[Tuple[int, int, Callable[[], None]]] = deque()
        self._throttle_started_ns = 0
        self._throttle_parks = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(
        self,
        lpn: int,
        page_count: int,
        direct: bool,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Issue an application write of ``page_count`` pages at ``lpn``.

        ``direct=True`` models an ``O_SYNC`` write: it bypasses the page
        cache and completes with the device.  An extent outside the
        device's logical space raises ``IndexError`` and changes nothing.
        """
        if direct:
            self._write_direct(lpn, page_count, on_complete)
        else:
            self._write_buffered(lpn, page_count, on_complete)

    def _write_direct(
        self, lpn: int, page_count: int, on_complete: Optional[Callable[[], None]]
    ) -> None:
        # Direct I/O invalidates any cached copies (coherence).
        self.cache.invalidate(range(lpn, lpn + page_count))
        self.stats.direct_bytes += page_count * self.cache.page_size
        self.stats.direct_ops += 1
        self.device.submit(
            IoRequest(
                IoKind.DIRECT_WRITE,
                lpn,
                page_count,
                on_complete=(lambda req: on_complete()) if on_complete else None,
            )
        )

    def _write_buffered(
        self, lpn: int, page_count: int, on_complete: Optional[Callable[[], None]]
    ) -> None:
        if self.cache.throttled():
            # Park the writer; retried when write-back drains the cache.
            self.cache.check_extent(lpn, page_count)
            self.stats.throttle_events += 1
            if not self._throttle_queue:
                self._throttle_started_ns = self.sim.now
                self._throttle_parks = 0
            self._throttle_parks += 1
            self._throttle_queue.append((lpn, page_count, on_complete))
            if len(self._throttle_queue) == 1:
                self.cache.drain_listeners.append(self._release_throttled)
            return
        self.cache.write_extent(lpn, page_count, self.sim.now)
        self.stats.buffered_bytes += page_count * self.cache.page_size
        self.stats.buffered_ops += 1
        if on_complete is not None:
            self.sim.schedule(
                self.memcpy_ns_per_page * page_count,
                on_complete,
                name="iopath.buffered_done",
            )

    def _release_throttled(self) -> None:
        """Re-dispatch parked writers now that the cache drained."""
        while self._throttle_queue and not self.cache.throttled():
            lpn, page_count, on_complete = self._throttle_queue.popleft()
            self._write_buffered(lpn, page_count, on_complete)
        if self._throttle_queue:
            self.cache.drain_listeners.append(self._release_throttled)
        elif self.audit.enabled and self._throttle_parks:
            # Episode over: every parked writer re-dispatched.  One span
            # from the first park to this drain, for tail attribution.
            self.audit.record(
                BackpressureRecord(
                    t_ns=self._throttle_started_ns,
                    dur_ns=self.sim.now - self._throttle_started_ns,
                    writers=self._throttle_parks,
                )
            )
            self._throttle_parks = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self,
        lpn: int,
        page_count: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Read pages, cache-first; misses are fetched as one extent."""
        misses = self.cache.read_extent(lpn, page_count)
        self.stats.read_bytes += page_count * self.cache.page_size
        self.stats.read_ops += 1
        if not misses:
            if on_complete is not None:
                self.sim.schedule(
                    self.memcpy_ns_per_page * page_count,
                    on_complete,
                    name="iopath.read_hit",
                )
            return

        def fetched(req: IoRequest) -> None:
            self.cache.insert_clean_many(misses)
            if on_complete is not None:
                on_complete()

        first, last = misses[0], misses[-1]
        self.device.submit(
            IoRequest(IoKind.READ, first, last - first + 1, on_complete=fetched)
        )

    # ------------------------------------------------------------------
    # fsync
    # ------------------------------------------------------------------
    def fsync(
        self,
        lpn: int,
        page_count: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> int:
        """Force write-back of the dirty pages in a range and complete
        when the device has written them (``fsync``/``fdatasync``).

        The pages remain *buffered* writes for traffic accounting (an
        fsync does not change how the data entered the kernel); what it
        adds is the synchronous wait -- which is how buffered benchmarks
        feel GC stalls on a real system.  Returns the number of pages
        submitted.
        """
        self.stats.fsync_ops += 1
        dirty = [
            page
            for page in range(lpn, lpn + page_count)
            if self.cache.contains_dirty(page)
        ]
        if not dirty:
            if on_complete is not None:
                self.sim.schedule(0, on_complete, name="iopath.fsync_noop")
            return 0
        self.cache.begin_writeback(dirty)
        remaining = {"extents": 0}

        def extent_done(pages_of_extent):
            self.cache.complete_writeback(pages_of_extent)
            remaining["extents"] -= 1
            if remaining["extents"] == 0 and on_complete is not None:
                on_complete()

        for start, length in _coalesce(dirty, len(dirty)):
            remaining["extents"] += 1
            extent = range(start, start + length)
            self.device.submit(
                IoRequest(
                    IoKind.WRITEBACK,
                    start,
                    length,
                    on_complete=lambda req, pages=extent: extent_done(pages),
                )
            )
        return len(dirty)

    # ------------------------------------------------------------------
    def trim(
        self, lpn: int, page_count: int, on_complete: Optional[Callable[[], None]] = None
    ) -> None:
        """Discard pages (file deletion): drop cache copies, TRIM device.

        The device acknowledges the discard only after the FTL has
        journaled its unmap tombstones, so a completed TRIM is durable:
        recovery after a crash will not resurrect the discarded pages.
        """
        self.cache.invalidate(range(lpn, lpn + page_count))
        self.stats.trim_ops += 1
        self.stats.trim_bytes += page_count * self.cache.page_size
        self.device.submit(
            IoRequest(
                IoKind.TRIM,
                lpn,
                page_count,
                on_complete=(lambda req: on_complete()) if on_complete else None,
            )
        )

    @property
    def blocked_writers(self) -> int:
        return len(self._throttle_queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IoDispatcher blocked={self.blocked_writers} stats={self.stats}>"
