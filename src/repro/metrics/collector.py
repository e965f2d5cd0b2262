"""The per-run measurement bundle.

:class:`MetricsCollector` snapshots FTL counters at window begin/end so
WAF, migrations and GC activity are measured over exactly the same
steady-state window as IOPS.  :class:`RunMetrics` is the frozen result
every experiment stores and formats.

Latency is measured by the HDR histogram registered as
``host.op_latency_ns`` in the run's metrics registry (exact counts,
bounded memory, mergeable across ``--jobs`` workers and SPO phases).
The reservoir oracle it is checked against lives in
``tests/metrics/reservoir.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ftl.stats import FtlStats
from repro.host import HostSystem
from repro.metrics.hdr import HdrHistogram
from repro.metrics.iops import IopsMeter
from repro.obs.attribution import attribute_tail

#: Percentiles frozen into every RunMetrics (p50/p95/p99/p999/p9999).
LATENCY_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0, 99.9, 99.99)


@dataclass
class RunMetrics:
    """Results of one measured run (window-scoped).

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
            a latency or the run predates histograms).
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

    policy: str
    workload: str
    duration_ns: int
    iops: float
    waf: float
    host_pages_written: int
    gc_pages_migrated: int
    fgc_invocations: int
    fgc_time_ns: int
    bgc_blocks: int
    erases: int
    prediction_accuracy_pct: Optional[float] = None
    sip_selections: int = 0
    sip_filtered: int = 0
    buffered_fraction: float = 0.0
    mean_latency_ns: float = 0.0
    p50_latency_ns: int = 0
    p95_latency_ns: int = 0
    p99_latency_ns: int = 0
    p999_latency_ns: int = 0
    p9999_latency_ns: int = 0
    max_latency_ns: int = 0
    #: Full latency distribution (HdrHistogram.to_wire) or None.
    latency_hist: Optional[dict] = None
    tail_threshold_pct: float = 0.0
    tail_threshold_ns: int = 0
    tail_slow_ops: int = 0
    #: ``{cause: [count, total_ns]}``; empty without tail attribution.
    tail_causes: Dict[str, List[int]] = field(default_factory=dict)
    injected_faults: int = 0
    read_retries: int = 0
    uncorrectable_reads: int = 0
    program_faults: int = 0
    erase_faults: int = 0
    blocks_retired: int = 0
    effective_op_pages: Optional[int] = None
    op_timeline: List[Tuple[int, int]] = field(default_factory=list)
    device_read_only: bool = False
    #: Sudden power-offs survived during the run (0 without SPO).
    spo_count: int = 0
    #: Total simulated time spent in post-SPO recovery scans.
    recovery_time_ns: int = 0
    #: Pages discarded (TRIM) by the host over the window.
    trim_count: int = 0
    #: Mapping mode the run used (``dram`` or ``dftl``).
    mapping_mode: str = "dram"
    #: CMT lookups served from the cache / missed to NAND (window delta;
    #: both 0 in dram mode).
    cmt_hits: int = 0
    cmt_misses: int = 0
    #: Translation-page programs over the window (writebacks + GC moves).
    trans_pages_written: int = 0
    trans_pages_migrated: int = 0
    #: Share of all window programs that were translation pages.
    translation_waf_share: float = 0.0
    #: ECC escalation ladder (window deltas; all zero with the
    #: reliability profile off -- see repro.nand.reliability).
    ecc_fast_reads: int = 0
    ecc_retry_reads: int = 0
    ecc_soft_decodes: int = 0
    uecc_count: int = 0
    #: ``{retry level (str): successful reads}``; the deepest level is
    #: the soft decoder.  String keys keep the wire form JSON-safe.
    ecc_retry_histogram: Dict[str, int] = field(default_factory=dict)
    #: Refresh scrubber (window deltas; zero with the scrubber off).
    scrub_blocks_refreshed: int = 0
    scrub_pages_migrated: int = 0

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

    def recovered_faults(self) -> int:
        """Faults survived without data loss or scenario failure."""
        return self.program_faults + self.erase_faults + self.read_retries

    def sip_filtered_pct(self) -> float:
        """Table 3: % of victim selections that filtered a candidate."""
        if self.sip_selections == 0:
            return 0.0
        return 100.0 * self.sip_filtered / self.sip_selections


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
        self._tracer = host.obs.tracer
        self._begin_stats: Optional[FtlStats] = None
        self._begin_ns = 0
        self._end_ns = -1
        self._sip_begin = (0, 0)
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
        log and trace events when tail attribution or tracing is on;
        plain ``record_op(latency)`` call sites keep working unchanged.
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
        if self._tracer.enabled:
            self._tracer.complete(
                "host",
                "op.complete",
                issue_ns,
                latency_ns,
                kind=kind,
                queue_depth=queue_depth,
            )

    # ------------------------------------------------------------------
    # Window control
    # ------------------------------------------------------------------
    def begin(self) -> None:
        now = self.host.sim.now
        self.iops_meter.begin_window(now)
        self._begin_stats = self.host.ftl.stats.snapshot()
        self._begin_ns = now
        self._sip_begin = self._sip_counters()
        # ECC retry-level histogram lives off FtlStats (it is a dict);
        # window-scope it the same way via a begin copy.
        self._ecc_hist_begin = dict(
            getattr(self.host.ftl, "ecc_retry_histogram", {})
        )

    def end(self) -> None:
        now = self.host.sim.now
        self.iops_meter.end_window(now)
        self._end_ns = now

    def _sip_counters(self) -> tuple:
        stats = self.host.ftl.stats
        return (stats.victim_selections, stats.victims_filtered_by_sip)

    def _ecc_retry_delta(self) -> Dict[str, int]:
        """Window delta of the FTL's retry-level histogram (str keys)."""
        current = getattr(self.host.ftl, "ecc_retry_histogram", {})
        delta: Dict[str, int] = {}
        for level, count in current.items():
            window = count - self._ecc_hist_begin.get(level, 0)
            if window > 0:
                delta[str(level)] = window
        return delta

    # ------------------------------------------------------------------
    def _latency_summary(self) -> dict:
        """Latency fields for :meth:`results`, off the HDR histogram."""
        pcts = self.hdr.percentiles(LATENCY_PERCENTILES)
        return {
            "mean_latency_ns": self.hdr.mean(),
            "p50_latency_ns": pcts.get(50.0, 0),
            "p95_latency_ns": pcts.get(95.0, 0),
            "p99_latency_ns": pcts.get(99.0, 0),
            "p999_latency_ns": pcts.get(99.9, 0),
            "p9999_latency_ns": pcts.get(99.99, 0),
            "max_latency_ns": self.hdr.max(),
            "latency_hist": self.hdr.to_wire() if self.hdr.count else None,
        }

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
        delta = self.host.ftl.stats.delta_since(self._begin_stats)
        accuracy = None
        policy = self.host.policy
        tracker = getattr(policy, "accuracy", None)
        if tracker is not None and tracker.intervals_scored > 0:
            accuracy = tracker.accuracy_percent()
        sip_end = self._sip_counters()
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
            waf=delta.waf(),
            host_pages_written=delta.host_pages_written,
            gc_pages_migrated=delta.gc_pages_migrated,
            fgc_invocations=delta.fgc_invocations,
            fgc_time_ns=delta.fgc_time_ns,
            bgc_blocks=delta.bgc_blocks_collected,
            erases=delta.blocks_erased,
            prediction_accuracy_pct=accuracy,
            sip_selections=sip_end[0] - self._sip_begin[0],
            sip_filtered=sip_end[1] - self._sip_begin[1],
            buffered_fraction=self.host.dispatcher.stats.buffered_fraction(),
            injected_faults=injector.total_faults() if injector is not None else 0,
            read_retries=delta.read_retries,
            uncorrectable_reads=delta.uncorrectable_reads,
            program_faults=delta.program_faults,
            erase_faults=delta.erase_faults,
            blocks_retired=delta.blocks_retired,
            effective_op_pages=ftl.effective_op_pages(),
            op_timeline=op_timeline,
            device_read_only=ftl.read_only,
            trim_count=delta.pages_trimmed,
            mapping_mode=getattr(ftl, "mapping_mode", "dram"),
            cmt_hits=delta.cmt_hits,
            cmt_misses=delta.cmt_misses,
            trans_pages_written=delta.trans_pages_written,
            trans_pages_migrated=delta.trans_pages_migrated,
            translation_waf_share=delta.translation_waf_share(),
            ecc_fast_reads=delta.ecc_fast_reads,
            ecc_retry_reads=delta.ecc_retry_reads,
            ecc_soft_decodes=delta.ecc_soft_decodes,
            uecc_count=delta.uecc_count,
            ecc_retry_histogram=self._ecc_retry_delta(),
            scrub_blocks_refreshed=delta.scrub_blocks_refreshed,
            scrub_pages_migrated=delta.scrub_pages_migrated,
            **self._latency_summary(),
            **self._tail_summary(),
        )
