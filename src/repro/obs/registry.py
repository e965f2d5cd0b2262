"""The metrics registry: counters, gauges, HDR histograms and time series.

One :class:`MetricsRegistry` per run is the single source of truth for
every numeric observable.  Instruments are created on demand and looked
up by name, so producers (the FTL, the device, policies) and consumers
(the :class:`~repro.metrics.collector.MetricsCollector`, trace export)
never hold diverging copies:

* :class:`Counter` -- monotonically increasing count (host ops, faults).
* :class:`Gauge` -- a zero-arg probe read at sampling time (``Cfree``,
  dirty pages, WAF).
* :class:`~repro.metrics.hdr.HdrHistogram` -- latency distributions,
  quantile-sampled per interval.
* :class:`TimeSeries` -- explicit ``(t_ns, value)`` points, either
  event-driven (the FTL's effective-OP degradation timeline) or produced
  by periodic sampling.

:class:`MetricsSampler` schedules itself on the simulator at a fixed
sim-time interval, snapshots every gauge and counter into same-named
series, and (when a tracer is enabled) mirrors each sample as a Chrome
counter event so Perfetto draws the trajectories as counter tracks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.metrics.hdr import HdrHistogram
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.simtime import SECOND

#: Percentiles every registered HDR histogram is sampled at; each gets
#: a ``<name>.p<q>`` series / Perfetto counter track per interval.
HDR_SAMPLE_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p99", 99.0),
    ("p999", 99.9),
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named probe evaluated at sampling time."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return float(self.fn())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}>"


class TimeSeries:
    """Append-only ``(t_ns, value)`` sequence."""

    __slots__ = ("name", "times_ns", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times_ns: List[int] = []
        self.values: List[float] = []

    def append(self, t_ns: int, value: float) -> None:
        self.times_ns.append(t_ns)
        self.values.append(value)

    @property
    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self.times_ns, self.values))

    def __len__(self) -> int:
        return len(self.times_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimeSeries {self.name} n={len(self)}>"


class MetricsRegistry:
    """Name-indexed instrument store; instruments created on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.hdr_histograms: Dict[str, HdrHistogram] = {}
        self._hdr_marks: Dict[str, Tuple[Dict[int, int], int]] = {}
        self._series: Dict[str, TimeSeries] = {}

    # ------------------------------------------------------------------
    # Instrument factories (idempotent by name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Register (or re-bind) a gauge probe."""
        instrument = Gauge(name, fn)
        self.gauges[name] = instrument
        return instrument

    def hdr(self, name: str, bucket_bits: int = 8) -> HdrHistogram:
        """Register (or fetch) an HDR latency histogram.

        Registered histograms are quantile-sampled: every
        :meth:`sample` appends the *interval* percentiles of
        :data:`HDR_SAMPLE_PERCENTILES` to ``<name>.p99`` /
        ``<name>.p999`` series, which the sampler mirrors as Perfetto
        counter tracks -- the per-interval tail trajectory of the run.
        """
        instrument = self.hdr_histograms.get(name)
        if instrument is None:
            instrument = self.hdr_histograms[name] = HdrHistogram(bucket_bits)
            self._hdr_marks[name] = instrument.mark()
        return instrument

    def series(self, name: str) -> TimeSeries:
        instrument = self._series.get(name)
        if instrument is None:
            instrument = self._series[name] = TimeSeries(name)
        return instrument

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now_ns: int) -> Dict[str, float]:
        """Read every gauge and counter into its same-named series.

        Returns the sampled ``{name: value}`` row (used by the sampler
        to mirror values into the trace).
        """
        row: Dict[str, float] = {}
        for name, gauge in self.gauges.items():
            value = gauge.read()
            self.series(name).append(now_ns, value)
            row[name] = value
        for name, counter in self.counters.items():
            self.series(name).append(now_ns, counter.value)
            row[name] = counter.value
        for name, hist in self.hdr_histograms.items():
            interval = hist.interval_percentiles(
                self._hdr_marks[name], [q for _, q in HDR_SAMPLE_PERCENTILES]
            )
            self._hdr_marks[name] = hist.mark()
            for label, q in HDR_SAMPLE_PERCENTILES:
                series_name = f"{name}.{label}"
                self.series(series_name).append(now_ns, interval[q])
                row[series_name] = interval[q]
        return row

    def rate_points(self, name: str, per_ns: int = SECOND) -> List[Tuple[int, float]]:
        """Per-interval rate derived from a cumulative series.

        Point ``(t_i, r_i)`` is the increase over ``(t_{i-1}, t_i]``
        scaled to ``per_ns`` (per-second by default) -- e.g. the sampled
        ``host.ops`` counter becomes a per-interval IOPS trajectory.
        """
        series = self.series(name)
        rates: List[Tuple[int, float]] = []
        for index in range(1, len(series)):
            dt = series.times_ns[index] - series.times_ns[index - 1]
            if dt <= 0:
                continue
            dv = series.values[index] - series.values[index - 1]
            rates.append((series.times_ns[index], dv * per_ns / dt))
        return rates

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry counters={len(self.counters)} "
            f"gauges={len(self.gauges)} series={len(self._series)}>"
        )


class MetricsSampler:
    """Samples a registry every ``period_ns`` of simulated time.

    Sampling only *reads* system state (gauges are pure probes), so a
    sampled run is behaviourally identical to an unsampled one -- the
    determinism guarantee tracing relies on.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        period_ns: int,
        tracer: Tracer = NULL_TRACER,
        track: str = "metrics",
    ) -> None:
        if period_ns <= 0:
            raise ValueError(f"sampling period must be positive, got {period_ns}")
        self.registry = registry
        self.period_ns = period_ns
        self.tracer = tracer
        self.track = track
        self.samples_taken = 0
        self._sim = None
        self._running = False

    def start(self, sim) -> "MetricsSampler":
        """Begin sampling on ``sim`` (first sample fires immediately)."""
        if self._running:
            raise RuntimeError("sampler already running")
        from repro.sim.events import PRIORITY_LOW  # local: avoid cycle

        self._sim = sim
        self._priority = PRIORITY_LOW
        self._running = True
        sim.schedule(0, self._tick, priority=self._priority, name="obs.sample")
        return self

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self._sim.now
        row = self.registry.sample(now)
        self.samples_taken += 1
        if self.tracer.enabled:
            for name, value in row.items():
                self.tracer.counter(self.track, name, {"value": value})
        self._sim.schedule(
            self.period_ns, self._tick, priority=self._priority, name="obs.sample"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricsSampler period={self.period_ns} samples={self.samples_taken}>"
