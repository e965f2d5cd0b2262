"""The periodic flusher thread (Linux write-back model, paper Sec 3.2.1).

The flusher wakes every ``p`` seconds (the *write-back interval*).  At
each wake-up it flushes:

1. every dirty page older than ``tau_expire`` since its last update
   (the age condition), and
2. if the dirty population exceeds the ``tau_flush`` volume threshold,
   additionally the oldest dirty pages until the population is back
   under the threshold (the volume condition).

Flushed pages are coalesced into contiguous extents of at most
``MAX_REQUEST_PAGES`` and issued to the SSD as ``WRITEBACK`` requests.
Pages stay in the cache's *in-writeback* set until the device
acknowledges them, which is when dirty throttling releases blocked
writers.

The flusher exposes a tick hook so host-side GC-policy code can run
*right after* write-back is issued -- exactly where the paper invokes
its buffered-write predictor.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.obs.tracer import NULL_TRACER
from repro.oskernel.cache import PageCache
from repro.oskernel.iopath import _coalesce
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.simtime import SECOND
from repro.ssd.device import SsdDevice
from repro.ssd.request import IoKind, IoRequest

#: Largest write-back request the flusher issues at once, in pages.
MAX_REQUEST_PAGES = 64


class FlusherThread:
    """Periodic write-back daemon.

    Args:
        sim: shared simulator.
        cache: the page cache to drain.
        device: the SSD receiving write-back requests.
        period_ns: wake-up period ``p`` (paper default: 5 s).
        tau_expire_ns: dirty-age expiration threshold (paper: 30 s).
        tau_flush_pages: dirty-volume threshold in pages; ``None``
            derives the Linux-like default of 10 % of cache capacity.
    """

    def __init__(
        self,
        sim: Simulator,
        cache: PageCache,
        device: SsdDevice,
        period_ns: int = 5 * SECOND,
        tau_expire_ns: int = 30 * SECOND,
        tau_flush_pages: Optional[int] = None,
    ) -> None:
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        if tau_expire_ns % period_ns != 0:
            raise ValueError(
                "tau_expire must be a multiple of the flusher period "
                f"(paper Sec 3.2.1); got {tau_expire_ns} / {period_ns}"
            )
        self.sim = sim
        self.cache = cache
        self.device = device
        self.period_ns = period_ns
        self.tau_expire_ns = tau_expire_ns
        if tau_flush_pages is None:
            tau_flush_pages = max(1, cache.capacity_pages // 10)
        self.tau_flush_pages = tau_flush_pages

        #: Hooks run at each wake-up, *after* this tick's write-back was
        #: issued (predictor / JIT manager attach here).
        self.tick_hooks: List[Callable[[int], None]] = []

        self.wakeups = 0
        self.pages_flushed = 0
        #: Pages flushed by pressure-triggered background write-back.
        self.background_flushes = 0
        #: Sim-time tracer; replaced by Observability.install when tracing.
        self.tracer = NULL_TRACER
        self._started = False
        self._bg_flush_pending = False
        cache.pressure_listeners.append(self._on_pressure)

    # ------------------------------------------------------------------
    @property
    def nwb(self) -> int:
        """The paper's ``Nwb = tau_expire / p``."""
        return self.tau_expire_ns // self.period_ns

    def start(self) -> None:
        """Schedule the first wake-up one period from now."""
        if self._started:
            raise RuntimeError("flusher already started")
        self._started = True
        self.sim.schedule(
            self.period_ns, self._wake, priority=PRIORITY_CONTROL, name="flusher"
        )

    # ------------------------------------------------------------------
    def _wake(self) -> None:
        self.wakeups += 1
        now = self.sim.now
        pages = self.flush_once(now)
        if self.tracer.enabled:
            # Duration event on the flusher track (a wake-up is atomic in
            # sim time, so dur=0) carrying what the wake-up issued.
            self.tracer.complete(
                "flusher",
                "flusher.wakeup",
                start_ns=now,
                dur_ns=0,
                pages_issued=pages,
                dirty_pages=self.cache.dirty_pages,
                wakeup=self.wakeups,
            )
        for hook in list(self.tick_hooks):
            hook(now)
        self.sim.schedule(
            self.period_ns, self._wake, priority=PRIORITY_CONTROL, name="flusher"
        )

    def flush_once(self, now: int) -> int:
        """Apply both flush conditions once; returns pages issued."""
        to_flush = {lpn for lpn, _ in self.cache.expired_dirty(now, self.tau_expire_ns)}
        self._add_volume_excess(to_flush)
        return self._flush_set(to_flush)

    def _add_volume_excess(self, to_flush: set) -> None:
        """Volume condition: drain oldest-first down to the threshold."""
        excess = self.cache.dirty_pages - len(to_flush) - self.tau_flush_pages
        if excess <= 0:
            return
        for lpn, _ in self.cache.iter_oldest_dirty():
            if excess <= 0:
                break
            if lpn not in to_flush:
                to_flush.add(lpn)
                excess -= 1

    def _flush_set(self, to_flush: set) -> int:
        if not to_flush:
            return 0
        lpns = sorted(to_flush)
        self.cache.begin_writeback(lpns)
        self._issue(lpns)
        self.pages_flushed += len(lpns)
        return len(lpns)

    # ------------------------------------------------------------------
    # Pressure-triggered background write-back
    # ------------------------------------------------------------------
    def _on_pressure(self) -> None:
        """Dirty throttling engaged: schedule an immediate volume flush.

        Mirrors Linux waking the bdi flusher on dirty pressure instead of
        letting writers stall until the next periodic wake-up.  Pure
        volume-condition flushing: the predictor's age-based model is
        unaffected (this is exactly the "second flush condition" the
        paper's predictor deliberately relaxes).
        """
        if self._bg_flush_pending:
            return
        self._bg_flush_pending = True
        self.sim.schedule(
            0, self._background_flush, priority=PRIORITY_CONTROL, name="bg-flush"
        )

    def _background_flush(self) -> None:
        self._bg_flush_pending = False
        to_flush: set = set()
        self._add_volume_excess(to_flush)
        pages = self._flush_set(to_flush)
        self.background_flushes += pages
        if self.tracer.enabled:
            self.tracer.complete(
                "flusher",
                "flusher.bg_flush",
                start_ns=self.sim.now,
                dur_ns=0,
                pages_issued=pages,
                dirty_pages=self.cache.dirty_pages,
            )

    def _issue(self, lpns: Sequence[int]) -> None:
        """Coalesce sorted LPNs into extents and submit WRITEBACK I/O."""
        for start, length in _coalesce(lpns, MAX_REQUEST_PAGES):
            extent = range(start, start + length)
            self.device.submit(
                IoRequest(
                    IoKind.WRITEBACK,
                    start,
                    length,
                    on_complete=lambda req, pages=extent: self.cache.complete_writeback(
                        pages
                    ),
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlusherThread p={self.period_ns} wakeups={self.wakeups}>"
