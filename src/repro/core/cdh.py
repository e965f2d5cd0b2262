"""The cumulative data histogram (paper Sec 3.2.2, Fig. 5).

A CDH summarises how much data was written per observation interval in
the recent past; reading it at a percentile gives a write-demand bound
that holds with that empirical probability.  The paper reserves the 80th
percentile of the direct-write CDH: enough free space to absorb direct
writes in 80 % of intervals, without the premature erasures a higher
percentile (or A-BGC) would cause.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional


class CumulativeDataHistogram:
    """Fixed-bin histogram over a sliding window of observations.

    Args:
        bin_bytes: histogram bin width (Fig. 5 uses 10 MB bins).
        window: number of most-recent observations retained; ``None``
            keeps everything.
    """

    def __init__(self, bin_bytes: int, window: Optional[int] = 64) -> None:
        if bin_bytes <= 0:
            raise ValueError(f"bin_bytes must be positive, got {bin_bytes}")
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.bin_bytes = bin_bytes
        self._observations: Deque[int] = deque(maxlen=window)

    # ------------------------------------------------------------------
    def observe(self, nbytes: int) -> None:
        """Record the write volume of one completed interval."""
        if nbytes < 0:
            raise ValueError(f"observation must be >= 0, got {nbytes}")
        self._observations.append(nbytes)

    @property
    def count(self) -> int:
        return len(self._observations)

    def bin_of(self, nbytes: int) -> int:
        """Index of the bin holding ``nbytes``."""
        return nbytes // self.bin_bytes

    def histogram(self) -> List[int]:
        """Frequency per bin, index 0 first (Fig. 5(a))."""
        if not self._observations:
            return []
        bins = [0] * (max(self.bin_of(x) for x in self._observations) + 1)
        for value in self._observations:
            bins[self.bin_of(value)] += 1
        return bins

    def cdf(self) -> List[float]:
        """Cumulative probability per bin upper bound (Fig. 5(b))."""
        bins = self.histogram()
        total = sum(bins)
        out: List[float] = []
        acc = 0
        for freq in bins:
            acc += freq
            out.append(acc / total)
        return out

    def percentile_bytes(self, probability: float) -> int:
        """Smallest bin upper bound covering ``probability`` of intervals.

        This is the paper's ``delta_dir`` read-out: reserving the returned
        number of bytes covers at least ``probability`` of observed
        intervals.  Returns 0 when no observation exists yet (a fresh
        system has no evidence of direct-write demand).
        """
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        if not self._observations:
            return 0
        # Walk the occupied bins only: :meth:`cdf` is flat across an
        # empty bin, so the first bin to reach ``probability`` is an
        # occupied one, and ``acc / total`` there is the float it holds.
        bin_bytes = self.bin_bytes
        indices = sorted(value // bin_bytes for value in self._observations)
        total = len(indices)
        for acc, index in enumerate(indices, 1):
            if acc / total >= probability:
                return (index + 1) * bin_bytes
        # Floating-point slack: fall back to the maximum bin bound.
        return (indices[-1] + 1) * bin_bytes

    def max_observation(self) -> int:
        return max(self._observations, default=0)

    def mean_observation(self) -> float:
        if not self._observations:
            return 0.0
        return sum(self._observations) / len(self._observations)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CDH n={self.count} bin={self.bin_bytes}B "
            f"p80={self.percentile_bytes(0.8)}B>"
        )
