"""Measurement instrumentation.

* :mod:`repro.metrics.iops` -- application-level operation counting and
  IOPS over a measurement window.
* :mod:`repro.metrics.hdr` -- HDR-style log-linear latency histogram,
  the percentile estimator (exact counts, mergeable).
* :mod:`repro.metrics.collector` -- the per-run measurement bundle used
  by every experiment: IOPS + WAF (FTL-counter delta) + GC activity +
  latency percentiles + tail attribution, with explicit begin/end
  windows so the cold ramp-up is excluded.

The collector pulls in the whole host stack, which itself reaches back
into :mod:`repro.metrics.hdr` through the observability registry --
so the heavyweight names below resolve lazily (PEP 562) and only the
leaf modules import eagerly.
"""

from repro.metrics.iops import IopsMeter
from repro.metrics.hdr import HdrHistogram, merge_wire_histograms, nearest_rank

_LAZY = {
    "LATENCY_PERCENTILES": ("repro.metrics.collector", "LATENCY_PERCENTILES"),
    "MetricsCollector": ("repro.metrics.collector", "MetricsCollector"),
    "RunMetrics": ("repro.metrics.collector", "RunMetrics"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value


__all__ = [
    "HdrHistogram",
    "IopsMeter",
    "LATENCY_PERCENTILES",
    "MetricsCollector",
    "RunMetrics",
    "merge_wire_histograms",
    "nearest_rank",
]
