"""Reservoir-sampled latency recording: the oracle for the HDR histogram.

The 4096-sample reservoir was the simulator's first latency estimator;
:class:`repro.metrics.hdr.HdrHistogram` replaced it, and it stays here
as the executable specification for quantiles.  Below the reservoir
size the sample set is the full stream, so :meth:`LatencyRecorder.
percentile` is exact under the **nearest-rank** definition both share
(:func:`repro.metrics.hdr.nearest_rank`): ``P_q`` is the sample at
1-based rank ``ceil(q/100 * N)`` of the sorted stream.
"""

import random
from typing import List

from repro.metrics.hdr import nearest_rank


class LatencyRecorder:
    """Reservoir-sampled latency distribution (nanosecond samples).

    Keeps an exact list up to ``reservoir_size`` samples, then switches
    to uniform reservoir sampling, so multi-million-op runs stay O(1) in
    memory while percentiles remain statistically sound.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self.reservoir_size = reservoir_size
        self._samples: List[int] = []
        self._count = 0
        self._sum = 0
        self._max = 0
        self._rng = random.Random(seed)

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"latency must be >= 0, got {latency_ns}")
        self._count += 1
        self._sum += latency_ns
        self._max = max(self._max, latency_ns)
        if len(self._samples) < self.reservoir_size:
            self._samples.append(latency_ns)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.reservoir_size:
                self._samples[slot] = latency_ns

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def max(self) -> int:
        return self._max

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile of the sampled distribution; exact
        while the stream fits the reservoir."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._samples:
            return 0
        ordered = sorted(self._samples)
        return ordered[nearest_rank(q, len(ordered)) - 1]
