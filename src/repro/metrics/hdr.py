"""HDR-style log-linear latency histogram: exact counts, bounded memory.

The 4096-sample reservoir the repo started with cannot answer the
question this reproduction exists to ask -- whether JIT-GC's tail is
*clean* -- because a p999/p9999 estimate from 4096 uniform samples has
confidence intervals wider than the effect.  :class:`HdrHistogram`
replaces it with the standard high-dynamic-range construction
(Tene's HdrHistogram, also what Nagel et al. use for worst-case
response-time evaluation):

* **log-linear buckets** -- values below ``2^bucket_bits`` are counted
  exactly (one bucket per integer); above that, each power-of-two octave
  is split into ``2^(bucket_bits-1)`` linear sub-buckets, so the bucket
  width never exceeds ``value / 2^(bucket_bits-1)``.  With the default
  ``bucket_bits=8`` the worst-case relative quantile error is
  ``1/128 < 1 %``.
* **O(1) record** -- one ``bit_length`` and one dict increment per
  sample; memory is bounded by the number of *occupied* buckets
  (a few hundred for nanosecond latencies spanning ns..minutes).
* **mergeable** -- histograms add bucket-wise, so ``--jobs`` workers and
  SPO phase merges combine full distributions instead of discarding
  samples: a merge is *bit-identical* to one histogram fed the
  concatenated stream (asserted by a hypothesis property test).

Quantile definition (shared with the reservoir oracle in
``tests/metrics/reservoir.py``): **nearest-rank** -- ``P_q`` is the value
of the sample at 1-based rank ``ceil(q/100 * N)`` (rank 1 when q = 0)
in the sorted stream.  The reservoir returns that sample exactly; the
histogram returns the upper bound of the bucket containing that rank
(clamped to the observed maximum), which is within the configured
relative error of it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


def nearest_rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` in ``count`` samples.

    ``rank = ceil(q/100 * count)``, clamped to ``[1, count]`` (so q = 0
    selects the minimum and q = 100 the maximum).  The small epsilon
    guards against binary-float artifacts like ``0.99 * 100`` evaluating
    to ``99.00000000000001`` and ceiling one rank too high.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if count <= 0:
        return 0
    rank = math.ceil(q * count / 100.0 - 1e-9)
    return min(count, max(1, rank))


class HdrHistogram:
    """Log-linear bucketed distribution of non-negative integer values.

    Args:
        bucket_bits: resolution knob.  Values below ``2^bucket_bits``
            are exact; above, relative quantile error is bounded by
            ``2^-(bucket_bits-1)`` (default 8 -> 1/128, under 1 %).
    """

    __slots__ = ("bucket_bits", "_sub", "_half", "counts", "count", "total", "_min", "_max")

    def __init__(self, bucket_bits: int = 8) -> None:
        if not 2 <= bucket_bits <= 20:
            raise ValueError(f"bucket_bits must be in [2, 20], got {bucket_bits}")
        self.bucket_bits = bucket_bits
        self._sub = 1 << bucket_bits
        self._half = self._sub >> 1
        #: Sparse bucket-index -> count map (only occupied buckets exist).
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self._min: Optional[int] = None
        self._max = 0

    # ------------------------------------------------------------------
    # Bucket geometry
    # ------------------------------------------------------------------
    def bucket_index(self, value: int) -> int:
        """Bucket holding ``value`` (exact below ``2^bucket_bits``)."""
        if value < self._sub:
            return value
        shift = value.bit_length() - self.bucket_bits
        return self._sub + (shift - 1) * self._half + ((value >> shift) - self._half)

    def bucket_high(self, index: int) -> int:
        """Highest value the bucket covers (the quantile representative)."""
        if index < self._sub:
            return index
        shift = (index - self._sub) // self._half + 1
        offset = (index - self._sub) % self._half
        return ((self._half + offset + 1) << shift) - 1

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantile error (0 for exact small values)."""
        return 1.0 / self._half

    # ------------------------------------------------------------------
    # Recording / merging
    # ------------------------------------------------------------------
    def record(self, value: int, n: int = 1) -> None:
        """Count ``n`` occurrences of ``value`` (integer nanoseconds)."""
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        value = int(value)
        # bucket_index(value), spelled out: one call per recorded op.
        index = value
        if value >= self._sub:
            shift = value.bit_length() - self.bucket_bits
            half = self._half
            index = self._sub + (shift - 1) * half + ((value >> shift) - half)
        counts = self.counts
        counts[index] = counts.get(index, 0) + n
        self.count += n
        self.total += value * n
        if self._min is None or value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "HdrHistogram") -> "HdrHistogram":
        """Fold ``other`` into this histogram (bucket-wise addition).

        Merging is exact: the result equals one histogram fed both
        streams, bucket for bucket.  Returns ``self`` for chaining.
        """
        if other.bucket_bits != self.bucket_bits:
            raise ValueError(
                f"cannot merge bucket_bits={other.bucket_bits} "
                f"into bucket_bits={self.bucket_bits}"
            )
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Exact mean (the running total is exact, unlike the buckets)."""
        return self.total / self.count if self.count else 0.0

    def max(self) -> int:
        return self._max

    def min(self) -> int:
        return self._min if self._min is not None else 0

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile (see module docstring for definition).

        Returns the upper bound of the bucket holding the rank, clamped
        to the observed extremes -- so ``percentile(100) == max()`` and
        ``percentile(0) >= min()`` always hold exactly.
        """
        rank = nearest_rank(q, self.count)
        if rank == 0:
            return 0
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return max(self.min(), min(self._max, self.bucket_high(index)))
        return self._max  # pragma: no cover - rank <= count guarantees hit

    def percentiles(self, qs: Iterable[float]) -> Dict[float, int]:
        """Several percentiles in one cumulative walk."""
        ranks = {q: nearest_rank(q, self.count) for q in qs}
        out: Dict[float, int] = {}
        if self.count == 0:
            return {q: 0 for q in ranks}
        seen = 0
        remaining = sorted(ranks.items(), key=lambda item: item[1])
        position = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            while position < len(remaining) and remaining[position][1] <= seen:
                q = remaining[position][0]
                out[q] = max(self.min(), min(self._max, self.bucket_high(index)))
                position += 1
            if position == len(remaining):
                break
        return out

    # ------------------------------------------------------------------
    # Wire form (JSON-safe; used by RunMetrics and the --jobs queues)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """Flat plain-types dict; deterministic (buckets sorted)."""
        return {
            "bucket_bits": self.bucket_bits,
            "count": self.count,
            "total": self.total,
            "min": self.min(),
            "max": self._max,
            "counts": [[int(i), int(n)] for i, n in sorted(self.counts.items())],
        }

    @classmethod
    def from_wire(cls, wire: Mapping) -> "HdrHistogram":
        """Inverse of :meth:`to_wire` (``from_wire(h.to_wire()) == h``)."""
        hist = cls(bucket_bits=int(wire["bucket_bits"]))
        hist.counts = {int(i): int(n) for i, n in wire["counts"]}
        hist.count = int(wire["count"])
        hist.total = int(wire["total"])
        hist._max = int(wire["max"])
        hist._min = int(wire["min"]) if hist.count else None
        return hist

    # ------------------------------------------------------------------
    # Interval deltas (per-interval p99/p999 sampling)
    # ------------------------------------------------------------------
    def mark(self) -> Tuple[Dict[int, int], int]:
        """Opaque cumulative snapshot for :meth:`interval_percentiles`."""
        return dict(self.counts), self.count

    def interval_percentiles(
        self, mark: Tuple[Dict[int, int], int], qs: Iterable[float]
    ) -> Dict[float, int]:
        """Percentiles of the values recorded *since* ``mark``.

        The registry sampler uses this to turn the cumulative histogram
        into per-interval p99/p999 series (Perfetto counter tracks)
        without keeping a second histogram.  Returns all-zero when the
        interval is empty.  Interval quantiles are clamped only to the
        bucket bounds (the true interval max is not tracked), so they
        carry the same relative-error bound as cumulative ones.
        """
        old_counts, old_count = mark
        n = self.count - old_count
        qs = list(qs)
        if n <= 0:
            return {q: 0 for q in qs}
        ranks = sorted(
            ((nearest_rank(q, n), q) for q in qs), key=lambda item: item[0]
        )
        out: Dict[float, int] = {}
        seen = 0
        position = 0
        for index in sorted(self.counts):
            delta = self.counts[index] - old_counts.get(index, 0)
            if delta <= 0:
                continue
            seen += delta
            while position < len(ranks) and ranks[position][0] <= seen:
                out[ranks[position][1]] = self.bucket_high(index)
                position += 1
            if position == len(ranks):
                break
        return out

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HdrHistogram):
            return NotImplemented
        return (
            self.bucket_bits == other.bucket_bits
            and self.count == other.count
            and self.total == other.total
            and self._min == other._min
            and self._max == other._max
            and self.counts == other.counts
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as a key
        return hash((self.bucket_bits, self.count, self.total))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HdrHistogram n={self.count} mean={self.mean():.0f} "
            f"p99={self.percentile(99)} max={self._max}>"
        )


def merge_wire_histograms(wires: List[Optional[dict]]) -> Optional[HdrHistogram]:
    """Merge wire-form histograms; None when given none or any is None.

    The SPO phase merge passes the phases that carried a histogram (a
    phase in which no latency-carrying op completed has none).
    """
    if not wires or any(w is None for w in wires):
        return None
    merged = HdrHistogram.from_wire(wires[0])
    for wire in wires[1:]:
        merged.merge(HdrHistogram.from_wire(wire))
    return merged
