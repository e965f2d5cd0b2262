"""Write-demand predictor for buffered writes (paper Sec 3.2.1, Fig. 4).

Invoked right after each flusher wake-up at time ``t``, the predictor
scans the page cache's dirty pages and emits:

* ``Dbuf(t) = (D1, ..., D_Nwb)`` -- an upper bound, per future
  write-back interval ``I_wb^i(t) = [t + i*p, t + (i+1)*p)``, on the
  buffered bytes that will be flushed to the SSD in that interval; and
* the SIP list -- the dirty pages' logical addresses, whose on-flash old
  versions the flushes will invalidate.

A dirty page last updated at ``w`` expires at ``w + tau_expire`` and is
flushed at the *first flusher wake-up at or after* that instant, i.e. in
interval index ``i = ceil((w + tau_expire - t) / p)`` (1-based).  This is
exactly the paper's Fig. 4 arithmetic: data written during ``(0, 5]``
and scanned at ``t = 5`` lands in ``I^6``, not ``I^5``, because the
flusher only wakes at multiples of ``p``.

The paper deliberately *relaxes the second flush condition* (the
``tau_flush`` volume threshold): the prediction assumes age-based
flushing only.  A volume-triggered early flush therefore arrives sooner
than predicted -- but the space it needs was already counted in a later
interval of the same ``Dbuf`` vector, so the total reservation is
unaffected; the over-prediction is bounded by ``tau_flush`` (Sec 3.2.1).
A ``strict`` mode that models the volume condition too is provided for
the ablation bench.

Hot path (PERFORMANCE.md): the predictor keeps the ``Dbuf`` histogram
*incrementally* -- it subscribes to the page cache's batched dirty
listeners and maintains a count of dirty pages per absolute
flush-interval index ``c = ceil((w + tau_expire) / p)``.  At a flusher
tick ``t = m*p`` the relative interval of a page is then
``clamp(c - m, 1, Nwb)`` exactly (subtracting the integer multiple of
``p`` commutes with the ceiling), so :meth:`predict` costs O(distinct
intervals) instead of O(dirty pages).  Predictions at times that are not
a multiple of ``p`` (never issued by the flusher, only by ad-hoc
callers) scan the dirty set instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.sip import SipList
from repro.oskernel.cache import PageCache


@dataclass
class BufferedPrediction:
    """Result of one predictor invocation.

    Attributes:
        demands_bytes: the ``Dbuf`` vector, index 0 = interval ``I^1``.
        sip: SIP snapshot taken during the same scan.
        scanned_at: prediction time ``t``.
    """

    demands_bytes: List[int]
    sip: SipList
    scanned_at: int

    def total_bytes(self) -> int:
        """``sum_i Dbuf_i`` -- the buffered share of ``Creq``."""
        return sum(self.demands_bytes)


class BufferedWritePredictor:
    """Page-cache-scanning predictor.

    Args:
        cache: the page cache to scan.
        period_ns: flusher period ``p``.
        tau_expire_ns: dirty-age threshold; must be a multiple of ``p``.
        strict: model the volume flush condition too (ablation; the
            paper's predictor uses the relaxed, age-only rule).
        tau_flush_pages: volume threshold used in strict mode.
    """

    def __init__(
        self,
        cache: PageCache,
        period_ns: int,
        tau_expire_ns: int,
        strict: bool = False,
        tau_flush_pages: int = 0,
    ) -> None:
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        if tau_expire_ns % period_ns != 0:
            raise ValueError("tau_expire must be a multiple of the period")
        self.cache = cache
        self.period_ns = period_ns
        self.tau_expire_ns = tau_expire_ns
        self.strict = strict
        self.tau_flush_pages = tau_flush_pages
        self.invocations = 0
        #: Absolute flush-interval index -> dirty-page count.  The key is
        #: ``c = ceil((last_update + tau_expire) / p)``; see module doc.
        self._interval_counts: Dict[int, int] = {}
        for _lpn, last_update in cache.dirty_items():
            self._bump(last_update, +1)
        cache.dirty_listeners.append(self._on_dirty_delta)

    @property
    def nwb(self) -> int:
        """Number of future intervals covered: ``Nwb = tau_expire / p``."""
        return self.tau_expire_ns // self.period_ns

    # ------------------------------------------------------------------
    # Incremental Dbuf maintenance
    # ------------------------------------------------------------------
    def _bump(self, last_update: int, delta: int) -> None:
        # Absolute interval in which a page stamped `last_update` expires.
        key = -(-(last_update + self.tau_expire_ns) // self.period_ns)
        count = self._interval_counts.get(key, 0) + delta
        if count:
            self._interval_counts[key] = count
        else:
            del self._interval_counts[key]

    def _on_dirty_delta(
        self, added: List[Tuple[int, int]], removed: List[Tuple[int, int]]
    ) -> None:
        # One bump per run of equal stamps: every page of one buffered
        # write carries the same ``now``.  A flushed batch arrives in LPN
        # order (the flusher and ``fsync`` sort their pages), so its runs
        # are only as long as its neighbouring LPNs share a stamp.
        for pairs, sign in ((removed, -1), (added, +1)):
            run_ts, run = None, 0
            for _lpn, ts in pairs:
                if ts == run_ts:
                    run += 1
                else:
                    if run:
                        self._bump(run_ts, sign * run)
                    run_ts, run = ts, 1
            if run:
                self._bump(run_ts, sign * run)

    # ------------------------------------------------------------------
    def predict(self, now: int) -> BufferedPrediction:
        """Compute ``Dbuf(now)`` plus the SIP list.

        Uses the incrementally maintained histogram when ``now`` falls on
        a flusher tick; otherwise scans the dirty set (bit-identical
        output either way).
        """
        self.invocations += 1
        page = self.cache.page_size
        demands = [0] * self.nwb
        if now % self.period_ns == 0:
            tick = now // self.period_ns
            nwb = self.nwb
            for key, count in self._interval_counts.items():
                interval = min(max(key - tick, 1), nwb)
                demands[interval - 1] += count * page
            sip_lpns = self.cache.dirty_lpns()
        else:
            sip_lpns = []
            for lpn, last_update in self.cache.dirty_items():
                interval = self._flush_interval(last_update, now)
                demands[interval - 1] += page
                sip_lpns.append(lpn)
        if self.strict and self.tau_flush_pages > 0:
            self._apply_volume_condition(demands, page)
        return BufferedPrediction(
            demands_bytes=demands,
            sip=SipList(sip_lpns, created_at=now),
            scanned_at=now,
        )

    def _flush_interval(self, last_update: int, now: int) -> int:
        """1-based index of the interval in which the page will flush."""
        expire_at = last_update + self.tau_expire_ns
        delta = expire_at - now
        # ceil(delta / p); entries written at exactly `now` land in I^Nwb.
        interval = -(-delta // self.period_ns)
        return min(max(interval, 1), self.nwb)

    def _apply_volume_condition(self, demands: List[int], page: int) -> None:
        """Strict mode: pull demand earlier when the running dirty
        population would exceed ``tau_flush`` (oldest flushed first)."""
        threshold = self.tau_flush_pages * page
        # Walk intervals latest-to-earliest, moving excess one step earlier.
        for index in range(len(demands) - 1, 0, -1):
            backlog = sum(demands[: index + 1])
            if backlog > threshold:
                move = min(demands[index], backlog - threshold)
                demands[index] -= move
                demands[index - 1] += move

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "strict" if self.strict else "relaxed"
        return f"<BufferedWritePredictor {mode} nwb={self.nwb}>"
