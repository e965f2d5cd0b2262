"""Online bandwidth estimation.

The JIT-GC manager (paper Sec 3.3) needs an *average write bandwidth*
``Bw(t)`` and an *average GC bandwidth* ``Bgc(t)`` to compute the idle
time ``Tidle`` and the GC time ``Tgc``.  :class:`BandwidthEstimator`
maintains an exponentially-weighted moving average of observed
(bytes, busy-nanoseconds) samples, seeded with an analytic prior derived
from the NAND timing so estimates are sane before any observation.
"""

from __future__ import annotations

from repro.sim.simtime import SECOND


class BandwidthEstimator:
    """EWMA bytes-per-second estimator.

    Args:
        prior_bytes_per_sec: initial estimate (from NAND timing).
        alpha: EWMA weight of a new sample (0 < alpha <= 1).
        min_sample_ns: samples shorter than this are folded into the next
            one rather than producing a noisy rate.
    """

    def __init__(
        self,
        prior_bytes_per_sec: float,
        alpha: float = 0.2,
        min_sample_ns: int = SECOND // 1000,
    ) -> None:
        if prior_bytes_per_sec <= 0:
            raise ValueError(f"prior must be positive, got {prior_bytes_per_sec}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._estimate = float(prior_bytes_per_sec)
        self.alpha = alpha
        self.min_sample_ns = min_sample_ns
        self._pending_bytes = 0
        self._pending_ns = 0
        self.samples = 0

    @property
    def bytes_per_second(self) -> float:
        """Current bandwidth estimate."""
        return self._estimate

    def observe(self, nbytes: int, busy_ns: int) -> None:
        """Record that ``nbytes`` moved during ``busy_ns`` of device time."""
        if nbytes < 0 or busy_ns < 0:
            raise ValueError("observations must be non-negative")
        self._pending_bytes += nbytes
        self._pending_ns += busy_ns
        if self._pending_ns < self.min_sample_ns:
            return
        rate = self._pending_bytes * SECOND / self._pending_ns
        self._estimate = (1 - self.alpha) * self._estimate + self.alpha * rate
        self._pending_bytes = 0
        self._pending_ns = 0
        self.samples += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BandwidthEstimator {self._estimate / (1 << 20):.1f} MiB/s n={self.samples}>"
