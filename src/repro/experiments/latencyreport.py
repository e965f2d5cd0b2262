"""The tail-latency report: percentiles plus per-cause attribution.

The paper's headline claim is about the *shape* of the latency tail --
JIT-GC keeps foreground GC out of the host's way -- so a single p99
number is not evidence; the report this module builds is.  For each
policy it prints the full percentile ladder (p50/p95/p99/p999/p9999/max
from the HDR histogram) and the :mod:`repro.obs.attribution` cause
table: how many of the ops above the threshold percentile were slow
*because of* a foreground-GC stall, a background collection, flusher
backpressure, a fault retry, or plain queueing.  Comparing policies on
one identical workload replay turns "JIT-GC has a clean tail" into a
checkable table: the ``fgc-stall`` column should be (near) zero for
JIT-GC and populated for the lazy background collector.

Reproduce the headline artifact with::

    python -m repro latency-report --jobs 4

(see EXPERIMENTS.md for the reference output).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.policies import GcPolicy
from repro.experiments.crashsweep import gc_heavy_spec
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    POLICY_FACTORIES,
    ScenarioSpec,
    run_policy_comparison,
)
from repro.metrics.collector import RunMetrics
from repro.obs import ObservabilityConfig
from repro.obs.attribution import CAUSES


def latency_spec(
    spec: Optional[ScenarioSpec] = None, threshold_pct: float = 99.0
) -> ScenarioSpec:
    """Arm tail attribution on ``spec`` (GC-heavy scenario by default).

    Existing observability settings (tracing, sampling) are preserved;
    audit and the per-op completion log are switched on, since the
    attribution engine needs both sides of the join.
    """
    spec = spec if spec is not None else gc_heavy_spec()
    obs = spec.obs if spec.obs is not None else ObservabilityConfig()
    obs = replace(
        obs, audit=True, tail_attribution=True, tail_threshold_pct=threshold_pct
    )
    return replace(spec, obs=obs)


@dataclass
class LatencyReportResult:
    """Per-policy tail-latency breakdowns over one identical replay."""

    spec: ScenarioSpec
    results: Dict[str, RunMetrics] = field(default_factory=dict)

    def attribution_ok(self) -> bool:
        """Every policy's cause counts sum to its slow-op count."""
        for metrics in self.results.values():
            accounted = sum(pair[0] for pair in metrics.tail_causes.values())
            if accounted != metrics.tail_slow_ops:
                return False
        return True

    def percentile_rows(self) -> List[List[object]]:
        def ms(ns: float) -> str:
            return f"{ns / 1e6:.3f}"

        return [
            [
                policy,
                ms(m.mean_latency_ns),
                ms(m.p50_latency_ns),
                ms(m.p95_latency_ns),
                ms(m.p99_latency_ns),
                ms(m.p999_latency_ns),
                ms(m.p9999_latency_ns),
                ms(m.max_latency_ns),
            ]
            for policy, m in self.results.items()
        ]

    def cause_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for policy, m in self.results.items():
            row: List[object] = [
                policy,
                f"{m.tail_threshold_ns / 1e6:.3f}",
                m.tail_slow_ops,
            ]
            for cause in CAUSES:
                count, total_ns = m.tail_causes.get(cause, [0, 0])
                row.append(f"{count} ({total_ns / 1e6:.1f}ms)" if count else "0")
            rows.append(row)
        return rows

    def mapping_rows(self) -> List[List[object]]:
        """CMT/translation-tier rows (one per policy; dftl runs only)."""
        return [
            [
                policy,
                m.cmt_hits,
                m.cmt_misses,
                f"{100.0 * m.cmt_hit_rate():.2f}%",
                m.trans_pages_written,
                m.trans_pages_migrated,
                f"{100.0 * m.translation_waf_share:.2f}%",
            ]
            for policy, m in self.results.items()
        ]

    def format(self) -> str:
        percentiles = format_table(
            ["Policy", "mean", "p50", "p95", "p99", "p999", "p9999", "max"],
            self.percentile_rows(),
            title=(
                f"Op latency (ms) on {self.spec.workload} "
                f"(seed={self.spec.seed}, measure={self.spec.measure_s}s)"
            ),
        )
        threshold = next(iter(self.results.values())).tail_threshold_pct
        causes = format_table(
            ["Policy", "thresh ms", "slow"] + list(CAUSES),
            self.cause_rows(),
            title=(
                f"Tail attribution: ops at/above each policy's own "
                f"p{threshold:g} (count, summed latency)"
            ),
        )
        check = (
            "attribution check: causes sum to slow-op count for every policy"
            if self.attribution_ok()
            else "ATTRIBUTION MISMATCH: cause counts do not sum to slow ops"
        )
        report = f"{percentiles}\n\n{causes}\n\n{check}"
        if any(m.mapping_mode == "dftl" for m in self.results.values()):
            mapping = format_table(
                [
                    "Policy",
                    "CMT hits",
                    "CMT misses",
                    "hit rate",
                    "trans written",
                    "trans migrated",
                    "trans WAF share",
                ],
                self.mapping_rows(),
                title=(
                    "Translation tier (DFTL): CMT behaviour and the share "
                    "of programs spent on translation pages"
                ),
            )
            report = f"{report}\n\n{mapping}"
        return report


def run_latency_report(
    spec: Optional[ScenarioSpec] = None,
    policies: Optional[Dict[str, Callable[[], GcPolicy]]] = None,
    jobs: Optional[int] = 1,
    threshold_pct: float = 99.0,
) -> LatencyReportResult:
    """Run the tail-latency comparison and return the per-policy tables.

    Each policy runs the identical workload replay (same spec, same
    seed) with tail attribution armed; ``jobs > 1`` parallelises across
    policies -- the attribution table travels inside each
    :class:`~repro.metrics.collector.RunMetrics` wire dict, so the
    pool path carries it unchanged.
    """
    armed = latency_spec(spec, threshold_pct)
    results = run_policy_comparison(armed, policies or POLICY_FACTORIES, jobs=jobs)
    return LatencyReportResult(spec=armed, results=results)
