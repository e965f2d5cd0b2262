"""``repro.obs`` -- the observability substrate.

Four pieces, designed to cost a single guarded branch when disabled:

* :mod:`repro.obs.tracer` -- sim-time event tracing with JSONL and
  Chrome ``trace_event`` (Perfetto-loadable) sinks.
* :mod:`repro.obs.registry` -- counters / gauges / HDR histograms /
  time series with periodic sim-time sampling.
* :mod:`repro.obs.audit` -- decision-audit records for manager ticks,
  victim selections and fault recoveries; the trace's typed events.
* :mod:`repro.obs.profiler` -- wall-clock event-loop profiling.

:class:`Observability` bundles one of each per run and knows how to wire
them into a :class:`~repro.host.HostSystem`; :class:`ObservabilityConfig`
is the serializable knob set the CLI (``--trace``, ``--trace-format``,
``--metrics-interval``, ``--profile``) maps onto.  See OBSERVABILITY.md
for the trace schema and metric-name catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.attribution import (
    CAUSES,
    DISABLED_OPLOG,
    OpLog,
    TailReport,
    attribute_tail,
)
from repro.obs.audit import (
    BRANCH_DEFER,
    BRANCH_INVOKE,
    BRANCH_NO_BGC,
    DISABLED_AUDIT,
    BackpressureRecord,
    DecisionAuditLog,
    FaultRecord,
    GcSpanRecord,
    ManagerTickRecord,
    VictimRecord,
)
from repro.obs.profiler import LoopProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsSampler,
    TimeSeries,
)
from repro.obs.tracer import (
    NULL_TRACER,
    ChromeTraceSink,
    InMemorySink,
    JsonlTraceSink,
    NullTracer,
    TraceSink,
    Tracer,
)
from repro.sim.simtime import SECOND

#: Accepted ``--trace-format`` values.
TRACE_FORMATS = ("jsonl", "chrome")


@dataclass
class ObservabilityConfig:
    """What a run should record; the CLI flag set in dataclass form.

    Attributes:
        trace_path: write a trace here (None disables tracing).
        trace_format: ``"jsonl"`` or ``"chrome"``.
        metrics_interval_ns: registry sampling period; 0 disables
            periodic sampling.
        profile: attach a wall-clock event-loop profiler.
        audit: keep decision-audit records in memory (implied by
            tracing, since the audit log writes the trace's typed events).
        tail_attribution: keep a per-op completion log and attribute
            tail-latency ops against the decision-audit timeline
            (implies ``audit``; see :mod:`repro.obs.attribution`).
        tail_threshold_pct: percentile defining a "slow" op for the
            attribution report (default: p99).
        header: extra attribution fields merged into the trace header
            (the runner adds seed, fault profile, policy, workload).
    """

    trace_path: Optional[str] = None
    trace_format: str = "jsonl"
    metrics_interval_ns: int = SECOND
    profile: bool = False
    audit: bool = False
    tail_attribution: bool = False
    tail_threshold_pct: float = 99.0
    header: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trace_format not in TRACE_FORMATS:
            raise ValueError(
                f"trace_format must be one of {TRACE_FORMATS}, got {self.trace_format!r}"
            )
        if self.metrics_interval_ns < 0:
            raise ValueError(
                f"metrics_interval_ns must be >= 0, got {self.metrics_interval_ns}"
            )
        if not 0.0 <= self.tail_threshold_pct <= 100.0:
            raise ValueError(
                f"tail_threshold_pct must be in [0, 100], got {self.tail_threshold_pct}"
            )

    def enabled(self) -> bool:
        return bool(self.trace_path) or self.profile or self.audit or self.tail_attribution

    def with_suffix(self, tag: str) -> "ObservabilityConfig":
        """Same config, trace path suffixed with ``-tag`` before the
        extension -- used by multi-scenario commands so compared runs
        never overwrite each other's traces."""
        if not self.trace_path:
            return replace(self)
        path = Path(self.trace_path)
        return replace(self, trace_path=str(path.with_name(f"{path.stem}-{tag}{path.suffix}")))


class Observability:
    """One run's tracer + registry + audit log + profiler, wired together.

    Every :class:`~repro.host.HostSystem` owns one (a disabled instance by
    default).  The registry is always real -- it is the single source of
    truth for event-driven series like the FTL's effective-OP timeline --
    while the tracer, audit log and profiler are no-ops unless configured.

    A trace implies the event streams: the audit log and the op log write
    its decision, fault and per-op events, so a tracer given without them
    gets its own (an op log that traces every op but keeps none).
    """

    def __init__(
        self,
        tracer: Tracer = NULL_TRACER,
        registry: Optional[MetricsRegistry] = None,
        audit: Optional[DecisionAuditLog] = None,
        profiler: Optional[LoopProfiler] = None,
        metrics_interval_ns: int = 0,
        oplog: Optional[OpLog] = None,
        tail_threshold_pct: float = 99.0,
    ) -> None:
        if tracer.enabled:
            audit = audit if audit is not None else DecisionAuditLog()
            oplog = oplog if oplog is not None else OpLog(limit=0)
            audit.tracer = oplog.tracer = tracer
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()
        self.audit = audit if audit is not None else DISABLED_AUDIT
        self.profiler = profiler
        self.metrics_interval_ns = metrics_interval_ns
        self.oplog = oplog if oplog is not None else DISABLED_OPLOG
        self.tail_threshold_pct = tail_threshold_pct
        self.sampler: Optional[MetricsSampler] = None
        self._finished = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Observability":
        """The default: real registry, everything else a no-op."""
        return cls()

    @classmethod
    def from_config(
        cls, config: ObservabilityConfig, header: Optional[Dict[str, Any]] = None
    ) -> "Observability":
        """Build sinks/instruments per ``config``.

        ``header`` fields (seed, fault profile, policy, workload) are
        merged over ``config.header`` and written into the trace file
        header so every trace is attributable on its own.
        """
        merged = dict(config.header)
        merged.update(header or {})
        tracer: Tracer = NULL_TRACER
        if config.trace_path:
            if config.trace_format == "chrome":
                sink: TraceSink = ChromeTraceSink(config.trace_path, header=merged)
            else:
                sink = JsonlTraceSink(config.trace_path, header=merged)
            tracer = Tracer(sink)
        return cls(
            tracer=tracer,
            audit=DecisionAuditLog() if (config.audit or config.tail_attribution) else None,
            profiler=LoopProfiler() if config.profile else None,
            metrics_interval_ns=config.metrics_interval_ns if config.trace_path else 0,
            oplog=OpLog() if config.tail_attribution else None,
            tail_threshold_pct=config.tail_threshold_pct,
        )

    @classmethod
    def resolve(cls, obs) -> "Observability":
        """Accept an Observability, a config, or None."""
        if obs is None:
            return cls.disabled()
        if isinstance(obs, Observability):
            return obs
        if isinstance(obs, ObservabilityConfig):
            return cls.from_config(obs)
        raise TypeError(f"cannot resolve observability from {type(obs).__name__}")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, host) -> None:
        """Bind the clock and hand the tracer/audit to every component.

        Called by :class:`~repro.host.HostSystem` after assembly; safe
        (and cheap) to call on a disabled instance -- components keep
        their no-op defaults and only the standard gauges are bound.
        """
        sim = host.sim
        if self.tracer.enabled:
            self.tracer.clock = lambda: sim.now
            host.flusher.tracer = self.tracer
            ftl = host.ftl
            ftl.tracer = self.tracer
            ftl.nand.tracer = self.tracer
            if ftl.nand.fault_injector is not None:
                ftl.nand.fault_injector.tracer = self.tracer
        if self.audit.enabled:
            host.ftl.audit = host.ftl.media.audit = self.audit
            # The attribution timeline also needs device GC spans and
            # kernel backpressure episodes (see repro.obs.attribution).
            host.device.audit = self.audit
            host.dispatcher.audit = self.audit
        host.policy.observe(self)
        self._register_standard_metrics(host)
        if self.metrics_interval_ns > 0:
            self.sampler = MetricsSampler(
                self.registry, self.metrics_interval_ns, tracer=self.tracer
            )
            self.sampler.start(sim)
        if self.profiler is not None:
            sim.set_profiler(self.profiler)

    def _register_standard_metrics(self, host) -> None:
        """The standard observable set every run exposes by name."""
        ftl = host.ftl
        registry = self.registry
        registry.gauge("ftl.free_pages", ftl.free_pages)
        registry.gauge("ftl.free_bytes", ftl.free_bytes)
        registry.gauge("cache.dirty_pages", lambda: host.cache.dirty_pages)
        registry.gauge(
            "cache.dirty_bytes",
            lambda: host.cache.dirty_pages * host.cache.page_size,
        )
        registry.gauge("ftl.waf", ftl.stats.waf)
        registry.gauge("ftl.fgc_invocations", lambda: ftl.stats.fgc_invocations)
        registry.gauge("ftl.bgc_blocks", lambda: ftl.stats.bgc_blocks_collected)
        registry.gauge("ftl.effective_op_pages", ftl.effective_op_pages)
        registry.gauge("device.queue_depth", lambda: host.device.queue_depth)
        registry.gauge("nand.page_programs", lambda: ftl.nand.page_programs)
        registry.gauge("nand.block_erases", lambda: ftl.nand.block_erases)
        injector = ftl.nand.fault_injector
        if injector is not None:
            registry.gauge("faults.injected", injector.total_faults)
        # host.ops is a Counter incremented by the MetricsCollector; make
        # sure it exists so sampled runs always carry the IOPS series.
        registry.counter("host.ops")

    # ------------------------------------------------------------------
    # Teardown / reporting
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Stop sampling and flush/close the trace sink; idempotent."""
        if self._finished:
            return
        self._finished = True
        if self.sampler is not None:
            self.sampler.stop()
        self.tracer.close()

    def profile_report(self, top: int = 20) -> Optional[str]:
        if self.profiler is None:
            return None
        return self.profiler.format(top)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Observability tracing={self.tracer.enabled} "
            f"audit={self.audit.enabled} profile={self.profiler is not None}>"
        )


__all__ = [
    "BRANCH_DEFER",
    "BRANCH_INVOKE",
    "BRANCH_NO_BGC",
    "BackpressureRecord",
    "CAUSES",
    "ChromeTraceSink",
    "Counter",
    "DISABLED_AUDIT",
    "DISABLED_OPLOG",
    "DecisionAuditLog",
    "FaultRecord",
    "GcSpanRecord",
    "OpLog",
    "TailReport",
    "attribute_tail",
    "Gauge",
    "InMemorySink",
    "JsonlTraceSink",
    "LoopProfiler",
    "ManagerTickRecord",
    "MetricsRegistry",
    "MetricsSampler",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "ObservabilityConfig",
    "TRACE_FORMATS",
    "TimeSeries",
    "TraceSink",
    "Tracer",
    "VictimRecord",
]
