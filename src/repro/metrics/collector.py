"""The per-run measurement bundle.

:class:`MetricsCollector` snapshots FTL counters at window begin/end so
WAF, migrations and GC activity are measured over exactly the same
steady-state window as IOPS.  :class:`RunMetrics` is the frozen result
every experiment stores and formats; :func:`merge_phase_metrics` folds
the windows of a run that lost power into one.

Latency is measured by the HDR histogram registered as
``host.op_latency_ns`` in the run's metrics registry (exact counts,
bounded memory, mergeable across ``--jobs`` workers and SPO phases).
The reservoir oracle it is checked against lives in
``tests/metrics/reservoir.py``.
"""

from __future__ import annotations

import dataclasses
from copy import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.ftl.stats import FtlStats
from repro.host import HostSystem
from repro.metrics.hdr import HdrHistogram, merge_wire_histograms
from repro.metrics.iops import IopsMeter
from repro.obs.attribution import attribute_tail

#: Percentiles frozen into every RunMetrics (p50/p95/p99/p999/p9999).
LATENCY_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0, 99.9, 99.99)


def _merge(rule: str, **field_kwargs):
    """A field folded across phases by ``rule``: a key of :data:`_FOLDS`,
    or ``"derived"`` (recomputed from the merged fields)."""
    return field(metadata={"merge": rule}, **field_kwargs)


def _counter(stat: str, **field_kwargs):
    """The window delta of ``FtlStats.<stat>``, summed across phases."""
    return field(metadata={"merge": "sum", "stat": stat}, **field_kwargs)


@dataclass
class RunMetrics:
    """Results of one measured run (window-scoped).

    A field's metadata is its window and merge rule: a ``_counter`` is
    the window delta of the :class:`FtlStats` counter it names, and every
    field names how it folds across power-cut phases
    (:func:`merge_phase_metrics`), so a new counter is one field.

    Attributes:
        policy: policy name.
        workload: workload name.
        duration_ns: measurement-window length.
        iops: application operations per second.
        waf: write amplification over the window.
        host_pages_written / gc_pages_migrated: window deltas.
        fgc_invocations / fgc_time_ns: foreground-GC stalls in the window.
        bgc_blocks: background-GC blocks collected in the window.
        prediction_accuracy_pct: Table 2 metric (None for non-predicting
            policies).
        sip_selections / sip_filtered: Table 3 counters (JIT-GC only).
        buffered_fraction: share of application write bytes that took the
            buffered path (Table 1).
        mean_latency_ns / p50..p9999 / max_latency_ns: application op
            latency summary (HDR histogram).
        latency_hist: the full distribution in
            :meth:`~repro.metrics.hdr.HdrHistogram.to_wire` form, so
            merges recompute exact percentiles (None when no op carried
            a latency).
        tail_threshold_pct / tail_threshold_ns / tail_slow_ops /
        tail_causes: the tail-attribution table (``{cause: [count,
            total_ns]}``), empty unless the run enabled
            ``tail_attribution`` (see :mod:`repro.obs.attribution`).
        injected_faults: media faults the injector fired over the whole
            run (0 on a fault-free device).
        read_retries / uncorrectable_reads / program_faults /
        erase_faults / blocks_retired: window-scoped recovery counters
            (see :class:`~repro.ftl.stats.FtlStats`).
        effective_op_pages: OP capacity remaining at window end, net of
            retired blocks.
        op_timeline: ``(t_ns, effective_op_pages)`` degradation events
            within the window.
        device_read_only: the device hit its terminal read-only state.
    """

    policy: str = _merge("last")
    workload: str = _merge("last")
    duration_ns: int = _merge("sum")
    iops: float = _merge("mean")
    waf: float = _merge("derived")
    host_pages_written: int = _counter("host_pages_written")
    gc_pages_migrated: int = _counter("gc_pages_migrated")
    fgc_invocations: int = _counter("fgc_invocations")
    fgc_time_ns: int = _counter("fgc_time_ns")
    bgc_blocks: int = _counter("bgc_blocks_collected")
    erases: int = _counter("blocks_erased")
    prediction_accuracy_pct: Optional[float] = _merge("last_set", default=None)
    sip_selections: int = _counter("victim_selections", default=0)
    sip_filtered: int = _counter("victims_filtered_by_sip", default=0)
    buffered_fraction: float = _merge("mean", default=0.0)
    mean_latency_ns: float = _merge("derived", default=0.0)
    p50_latency_ns: int = _merge("derived", default=0)
    p95_latency_ns: int = _merge("derived", default=0)
    p99_latency_ns: int = _merge("derived", default=0)
    p999_latency_ns: int = _merge("derived", default=0)
    p9999_latency_ns: int = _merge("derived", default=0)
    max_latency_ns: int = _merge("derived", default=0)
    #: Full latency distribution (HdrHistogram.to_wire) or None.
    latency_hist: Optional[dict] = _merge("derived", default=None)
    tail_threshold_pct: float = _merge("max", default=0.0)
    tail_threshold_ns: int = _merge("max", default=0)
    tail_slow_ops: int = _merge("sum", default=0)
    #: ``{cause: [count, total_ns]}``; empty without tail attribution.
    tail_causes: Dict[str, List[int]] = _merge("sum_by_key", default_factory=dict)
    injected_faults: int = _merge("sum", default=0)
    read_retries: int = _counter("read_retries", default=0)
    uncorrectable_reads: int = _counter("uncorrectable_reads", default=0)
    program_faults: int = _counter("program_faults", default=0)
    erase_faults: int = _counter("erase_faults", default=0)
    blocks_retired: int = _counter("blocks_retired", default=0)
    effective_op_pages: Optional[int] = _merge("last", default=None)
    op_timeline: List[Tuple[int, int]] = _merge("concat", default_factory=list)
    device_read_only: bool = _merge("any", default=False)
    #: Sudden power-offs survived during the run (0 without SPO).
    spo_count: int = _merge("sum", default=0)
    #: Total simulated time spent in post-SPO recovery scans.
    recovery_time_ns: int = _merge("sum", default=0)
    #: Pages discarded (TRIM) by the host over the window.
    trim_count: int = _counter("pages_trimmed", default=0)
    #: Mapping mode the run used (``dram`` or ``dftl``).
    mapping_mode: str = _merge("last", default="dram")
    #: CMT lookups served from the cache / missed to NAND (window delta;
    #: both 0 in dram mode).
    cmt_hits: int = _counter("cmt_hits", default=0)
    cmt_misses: int = _counter("cmt_misses", default=0)
    #: Translation-page programs over the window (writebacks + GC moves).
    trans_pages_written: int = _counter("trans_pages_written", default=0)
    trans_pages_migrated: int = _counter("trans_pages_migrated", default=0)
    #: Share of all window programs that were translation pages.
    translation_waf_share: float = _merge("derived", default=0.0)
    #: ECC escalation ladder (window deltas; all zero with the
    #: reliability profile off -- see repro.nand.reliability).
    ecc_fast_reads: int = _counter("ecc_fast_reads", default=0)
    ecc_retry_reads: int = _counter("ecc_retry_reads", default=0)
    ecc_soft_decodes: int = _counter("ecc_soft_decodes", default=0)
    uecc_count: int = _counter("uecc_count", default=0)
    #: ``{retry level (str): successful reads}``; the deepest level is
    #: the soft decoder.  String keys keep the wire form JSON-safe.
    ecc_retry_histogram: Dict[str, int] = _merge("sum_by_key", default_factory=dict)
    #: Refresh scrubber (window deltas; zero with the scrubber off).
    scrub_blocks_refreshed: int = _counter("scrub_blocks_refreshed", default=0)
    scrub_pages_migrated: int = _counter("scrub_pages_migrated", default=0)

    def cmt_hit_rate(self) -> float:
        """CMT hit fraction over the window (1.0 when nothing missed)."""
        lookups = self.cmt_hits + self.cmt_misses
        if lookups == 0:
            return 1.0
        return self.cmt_hits / lookups

    def to_wire(self) -> dict:
        """Flat plain-types dict safe for queues, pickles and JSON.

        Sweep workers stream these through the result queue instead of
        pickled :class:`RunMetrics` objects; :meth:`from_wire` restores
        an equal instance (``from_wire(m.to_wire()) == m``).
        """
        wire = dataclasses.asdict(self)
        wire["op_timeline"] = [[int(t), int(v)] for t, v in self.op_timeline]
        wire["tail_causes"] = {
            str(cause): [int(pair[0]), int(pair[1])]
            for cause, pair in self.tail_causes.items()
        }
        wire["ecc_retry_histogram"] = {
            str(level): int(count)
            for level, count in self.ecc_retry_histogram.items()
        }
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping) -> "RunMetrics":
        """Inverse of :meth:`to_wire`; tolerates extra keys (schema tags)."""
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in wire.items() if k in names}
        kwargs["op_timeline"] = [
            (int(t), int(v)) for t, v in kwargs.get("op_timeline", [])
        ]
        kwargs["tail_causes"] = {
            str(cause): [int(pair[0]), int(pair[1])]
            for cause, pair in (kwargs.get("tail_causes") or {}).items()
        }
        kwargs["ecc_retry_histogram"] = {
            str(level): int(count)
            for level, count in (kwargs.get("ecc_retry_histogram") or {}).items()
        }
        return cls(**kwargs)

    def latency_histogram(self) -> Optional[HdrHistogram]:
        """Rehydrate the full distribution (None when not carried)."""
        if self.latency_hist is None:
            return None
        return HdrHistogram.from_wire(self.latency_hist)

    def sip_filtered_pct(self) -> float:
        """Table 3: % of victim selections that filtered a candidate."""
        if self.sip_selections == 0:
            return 0.0
        return 100.0 * self.sip_filtered / self.sip_selections


#: ``(RunMetrics field, FtlStats counter)`` for every window counter.
_COUNTERS: Tuple[Tuple[str, str], ...] = tuple(
    (f.name, f.metadata["stat"])
    for f in dataclasses.fields(RunMetrics)
    if "stat" in f.metadata
)


def _duration_mean(values: list, durations: List[int]) -> float:
    total = sum(durations)
    if total == 0:
        return 0.0
    return sum(value * ns for value, ns in zip(values, durations)) / total


def _sum_by_key(tables: List[dict], _durations: List[int]) -> dict:
    """Key-wise sum; ``[count, total_ns]`` pairs add element-wise."""
    merged: dict = {}
    for table in tables:
        for key, value in table.items():
            if key not in merged:
                merged[key] = copy(value)
            elif isinstance(value, list):
                merged[key] = [a + b for a, b in zip(merged[key], value)]
            else:
                merged[key] += value
    return merged


#: The fold of each ``merge`` rule: phases' values and window durations
#: (both in phase order) in, the run-level value out.
_FOLDS: Dict[str, Callable[[list, List[int]], Any]] = {
    "sum": lambda values, _: sum(values),
    "mean": _duration_mean,
    "last": lambda values, _: values[-1],
    "last_set": lambda values, _: next(
        (value for value in reversed(values) if value is not None), None
    ),
    "max": lambda values, _: max(values),
    "any": lambda values, _: any(values),
    "concat": lambda values, _: [item for value in values for item in value],
    "sum_by_key": _sum_by_key,
}


def _latency_fields(hist: HdrHistogram) -> dict:
    """The derived latency fields of the ops ``hist`` recorded."""
    pcts = hist.percentiles(LATENCY_PERCENTILES)
    return {
        "mean_latency_ns": hist.mean(),
        "p50_latency_ns": pcts[50.0],
        "p95_latency_ns": pcts[95.0],
        "p99_latency_ns": pcts[99.0],
        "p999_latency_ns": pcts[99.9],
        "p9999_latency_ns": pcts[99.99],
        "max_latency_ns": hist.max(),
        "latency_hist": hist.to_wire() if hist.count else None,
    }


def merge_phase_metrics(
    phases: List[RunMetrics], spo_count: int = 0, recovery_time_ns: int = 0
) -> RunMetrics:
    """Fold per-phase windows into one run-level :class:`RunMetrics`.

    Each field folds by the ``merge`` rule its metadata declares
    (:data:`_FOLDS`); a field without one raises, so none is dropped.
    Derived fields are recomputed: WAF and the translation share by
    :class:`FtlStats` over the summed counters, latency over the merged
    HDR histogram (exact; a phase with no histogram adds no samples).
    ``spo_count`` / ``recovery_time_ns`` add to the phases' own.
    """
    if not phases:
        raise ValueError("cannot merge zero phases")
    durations = [p.duration_ns for p in phases]
    merged: Dict[str, Any] = {}
    for f in dataclasses.fields(RunMetrics):
        rule = f.metadata.get("merge")
        if rule == "derived":
            continue
        if rule not in _FOLDS:
            raise TypeError(f"RunMetrics.{f.name} declares no merge rule")
        merged[f.name] = _FOLDS[rule]([getattr(p, f.name) for p in phases], durations)
    merged["spo_count"] += spo_count
    merged["recovery_time_ns"] += recovery_time_ns
    stats = FtlStats(**{stat: merged[name] for name, stat in _COUNTERS})
    hist = merge_wire_histograms(
        [p.latency_hist for p in phases if p.latency_hist is not None]
    )
    return RunMetrics(
        **merged,
        waf=stats.waf(),
        translation_waf_share=stats.translation_waf_share(),
        **_latency_fields(hist or HdrHistogram()),
    )


class MetricsCollector:
    """Instrumentation attached to one :class:`HostSystem` run."""

    def __init__(self, host: HostSystem, workload_name: str = "") -> None:
        self.host = host
        self.workload_name = workload_name
        self.iops_meter = IopsMeter()
        # HDR histogram in the registry: the primary latency estimator,
        # shared with the per-interval p99/p999 sampler.
        self.hdr = host.obs.registry.hdr("host.op_latency_ns")
        # The registry is the single source of truth: sampled alongside
        # the gauges, host.ops becomes the per-interval IOPS series.
        self._ops_counter = host.obs.registry.counter("host.ops")
        self._oplog = host.obs.oplog
        self._begin_stats: Optional[FtlStats] = None
        self._begin_ns = 0
        self._end_ns = -1
        self._ecc_hist_begin: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Workload-facing hooks
    # ------------------------------------------------------------------
    def record_op(
        self,
        latency_ns: Optional[int] = None,
        kind: str = "op",
        issue_ns: Optional[int] = None,
        queue_depth: int = 0,
    ) -> None:
        """One application operation completed.

        ``kind``/``issue_ns``/``queue_depth`` feed the per-op completion
        log when tail attribution or tracing is on (the log writes the
        trace's ``op.complete`` events); plain ``record_op(latency)``
        call sites keep working unchanged.
        """
        self.iops_meter.total_ops += 1
        self._ops_counter.value += 1
        if latency_ns is None:
            return
        self.hdr.record(latency_ns)
        if issue_ns is None:
            return
        if self._oplog.enabled:
            self._oplog.record(kind, issue_ns, issue_ns + latency_ns, queue_depth)

    # ------------------------------------------------------------------
    # Window control
    # ------------------------------------------------------------------
    def begin(self) -> None:
        now = self.host.sim.now
        self.iops_meter.begin_window(now)
        self._begin_stats = self.host.ftl.stats.snapshot()
        self._begin_ns = now
        # ECC retry-level histogram lives off FtlStats (it is a dict);
        # window-scope it the same way via a begin copy.
        self._ecc_hist_begin = dict(self.host.ftl.media.ecc_retry_histogram)

    def end(self) -> None:
        now = self.host.sim.now
        self.iops_meter.end_window(now)
        self._end_ns = now

    def _ecc_retry_delta(self) -> Dict[str, int]:
        """Window delta of the media's retry-level histogram (str keys)."""
        current = self.host.ftl.media.ecc_retry_histogram
        delta: Dict[str, int] = {}
        for level, count in current.items():
            window = count - self._ecc_hist_begin.get(level, 0)
            if window > 0:
                delta[str(level)] = window
        return delta

    # ------------------------------------------------------------------
    def _tail_summary(self) -> dict:
        """Tail-attribution fields (zeros unless the op log is live)."""
        if not self._oplog.enabled or not len(self._oplog):
            return {}
        report = attribute_tail(
            self._oplog,
            self.host.obs.audit,
            threshold_pct=self.host.obs.tail_threshold_pct,
        )
        return {
            "tail_threshold_pct": report.threshold_pct,
            "tail_threshold_ns": report.threshold_ns,
            "tail_slow_ops": report.slow_ops,
            "tail_causes": report.to_wire(),
        }

    def results(self) -> RunMetrics:
        """Freeze the window into a :class:`RunMetrics`."""
        if self._begin_stats is None or self._end_ns < 0:
            raise RuntimeError("measurement window not begun/ended")
        window = self.host.ftl.stats.delta_since(self._begin_stats)
        accuracy = None
        policy = self.host.policy
        tracker = getattr(policy, "accuracy", None)
        if tracker is not None and tracker.intervals_scored > 0:
            accuracy = tracker.accuracy_percent()
        ftl = self.host.ftl
        injector = ftl.nand.fault_injector
        # ftl.op_timeline is derived from the registry's
        # ftl.effective_op_pages.events series (single source of truth).
        op_timeline = [
            (int(t), int(op))
            for t, op in ftl.op_timeline
            if self._begin_ns <= t <= self._end_ns
        ]
        return RunMetrics(
            policy=policy.name,
            workload=self.workload_name,
            duration_ns=self._end_ns - self._begin_ns,
            iops=self.iops_meter.iops(),
            prediction_accuracy_pct=accuracy,
            buffered_fraction=self.host.dispatcher.stats.buffered_fraction(),
            injected_faults=injector.total_faults() if injector is not None else 0,
            effective_op_pages=ftl.effective_op_pages(),
            op_timeline=op_timeline,
            device_read_only=ftl.read_only,
            mapping_mode=ftl.config.mapping_mode,
            ecc_retry_histogram=self._ecc_retry_delta(),
            waf=window.waf(),
            translation_waf_share=window.translation_waf_share(),
            **{name: getattr(window, stat) for name, stat in _COUNTERS},
            **_latency_fields(self.hdr),
            **self._tail_summary(),
        )
