"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one JIT-GC design decision:

1. :func:`run_percentile_sweep` -- the direct-write CDH reservation
   percentile (paper picks 0.8 as the performance/lifetime balance).
2. :func:`run_sip_ablation` -- JIT-GC with and without SIP-filtered
   victim selection (the collector extension vs the manager alone).
3. :func:`run_predictor_strictness` -- relaxed (paper) vs strict
   (volume-condition-aware) buffered predictor.
4. :func:`run_manager_laziness` -- full-horizon demand coverage
   (default) vs the pure ``Tidle``/``Tgc`` deferral rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.policies import JitGcPolicy
from repro.experiments.reporting import format_table
from repro.experiments.runner import ScenarioSpec, run_scenarios
from repro.metrics.collector import RunMetrics


@dataclass
class AblationResult:
    """``raw[variant]`` -> RunMetrics for one workload."""

    title: str
    workload: str
    raw: Dict[str, RunMetrics] = field(default_factory=dict)

    def format(self) -> str:
        rows: List[List[object]] = []
        for variant, metrics in self.raw.items():
            rows.append(
                [
                    variant,
                    metrics.iops,
                    metrics.waf,
                    metrics.fgc_invocations,
                    metrics.bgc_blocks,
                ]
            )
        return format_table(
            ["Variant", "IOPS", "WAF", "FGC", "BGC blocks"],
            rows,
            title=f"{self.title} [{self.workload}]",
        )


def _run_variants(
    base_spec: ScenarioSpec, title: str, variants: Dict[str, JitGcPolicy]
) -> AblationResult:
    specs = {name: base_spec.with_policy(name, f) for name, f in variants.items()}
    return AblationResult(title, base_spec.workload, run_scenarios(specs))


def run_percentile_sweep(
    base_spec: ScenarioSpec = None,
    percentiles: Sequence[float] = (0.5, 0.65, 0.8, 0.95),
) -> AblationResult:
    """Sweep the CDH reservation percentile (paper Sec 3.2.2)."""
    base_spec = base_spec or ScenarioSpec(workload="TPC-C")
    variants = {
        f"p{int(100 * p)}": (lambda p=p: JitGcPolicy(direct_percentile=p))
        for p in percentiles
    }
    return _run_variants(base_spec, "CDH percentile sweep", variants)


def run_sip_ablation(base_spec: ScenarioSpec = None) -> AblationResult:
    """JIT-GC with vs without SIP-filtered victim selection."""
    base_spec = base_spec or ScenarioSpec(workload="Postmark")
    variants = {
        "JIT-GC (SIP)": lambda: JitGcPolicy(),
        "JIT-GC (no SIP)": lambda: JitGcPolicy(sip_fraction_threshold=None),
    }
    return _run_variants(base_spec, "SIP victim-filter ablation", variants)


def run_predictor_strictness(base_spec: ScenarioSpec = None) -> AblationResult:
    """Relaxed (paper) vs strict buffered-flush prediction."""
    base_spec = base_spec or ScenarioSpec(workload="YCSB")
    variants = {
        "relaxed (paper)": lambda: JitGcPolicy(strict_buffered_predictor=False),
        "strict": lambda: JitGcPolicy(strict_buffered_predictor=True),
    }
    return _run_variants(base_spec, "Buffered-predictor strictness", variants)


def run_manager_laziness(base_spec: ScenarioSpec = None) -> AblationResult:
    """Full-horizon demand coverage vs pure Tidle/Tgc deferral."""
    base_spec = base_spec or ScenarioSpec(workload="TPC-C")
    variants = {
        "full-horizon guard": lambda: JitGcPolicy(guard_intervals=None),
        "2-interval guard": lambda: JitGcPolicy(guard_intervals=2),
        "pure deferral": lambda: JitGcPolicy(guard_intervals=0),
    }
    return _run_variants(base_spec, "Manager laziness ablation", variants)
