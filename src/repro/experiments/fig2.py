"""Fig. 2: impact of the reserved capacity on performance and lifetime.

The paper sweeps a fixed-reserve BGC policy's ``Cresv`` over
``{0.5, 0.75, 1.0, 1.25, 1.5} x C_OP`` for all six benchmarks and plots
IOPS (Fig. 2a) and WAF (Fig. 2b), both normalized to the
``1.5 x C_OP`` (A-BGC) point.  Expected shape: IOPS grows with the
reserve, WAF grows with the reserve -- the trade-off that motivates
JIT-GC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.policies import FixedReservePolicy
from repro.experiments.reporting import format_table, normalize_to
from repro.experiments.runner import ScenarioSpec, run_scenarios
from repro.metrics.collector import RunMetrics

#: The paper's Fig. 2 x-axis.
RESERVE_POINTS = (0.5, 0.75, 1.0, 1.25, 1.5)

#: Benchmarks in the paper's order.
DEFAULT_WORKLOADS = ("YCSB", "Postmark", "Filebench", "Bonnie++", "Tiobench", "TPC-C")


@dataclass
class Fig2Result:
    """Sweep results for all workloads.

    ``raw[workload][k]`` is the RunMetrics at ``Cresv = k x C_OP``.
    """

    reserve_points: Sequence[float]
    raw: Dict[str, Dict[float, RunMetrics]] = field(default_factory=dict)

    def normalized_iops(self, workload: str) -> Dict[float, float]:
        """IOPS normalized to the largest-reserve point (paper style)."""
        series = {k: m.iops for k, m in self.raw[workload].items()}
        return normalize_to(series, max(self.reserve_points))

    def normalized_waf(self, workload: str) -> Dict[float, float]:
        series = {k: m.waf for k, m in self.raw[workload].items()}
        return normalize_to(series, max(self.reserve_points))

    def iops_spread(self, workload: str) -> float:
        """max/min IOPS over the sweep (paper: up to ~5x)."""
        values = [m.iops for m in self.raw[workload].values()]
        return max(values) / max(min(values), 1e-12)

    def format(self) -> str:
        """Both panels as text tables."""
        headers = ["Benchmark"] + [f"{k:g}OP" for k in self.reserve_points]
        iops_rows: List[List[object]] = []
        waf_rows: List[List[object]] = []
        for workload in self.raw:
            iops = self.normalized_iops(workload)
            waf = self.normalized_waf(workload)
            iops_rows.append([workload] + [iops[k] for k in self.reserve_points])
            waf_rows.append([workload] + [waf[k] for k in self.reserve_points])
        return (
            format_table(headers, iops_rows, title="Fig 2(a): normalized IOPS vs Cresv")
            + "\n\n"
            + format_table(headers, waf_rows, title="Fig 2(b): normalized WAF vs Cresv")
        )


def fig2_specs(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    reserve_points: Sequence[float] = RESERVE_POINTS,
) -> Dict[str, ScenarioSpec]:
    """The Fig. 2 grid as keyed scenario specs.

    Policy factories are ``functools.partial`` (not lambdas) so the
    specs survive pickling into :func:`run_scenarios` worker processes.
    """
    base_spec = base_spec or ScenarioSpec()
    specs: Dict[str, ScenarioSpec] = {}
    for workload in workloads:
        for point in reserve_points:
            spec = base_spec.with_policy(
                f"FIXED-{point:g}OP",
                partial(FixedReservePolicy, point),
            )
            spec = replace(spec, workload=workload)
            specs[spec.key()] = spec
    return specs


def run_fig2(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    reserve_points: Sequence[float] = RESERVE_POINTS,
    jobs: Optional[int] = 1,
) -> Fig2Result:
    """Run the full Fig. 2 sweep; one scenario per (workload, Cresv),
    keyed by :meth:`ScenarioSpec.key` and run by :func:`run_scenarios`."""
    result = Fig2Result(reserve_points=tuple(reserve_points))
    specs = fig2_specs(base_spec, workloads, reserve_points)
    metrics_by_key = run_scenarios(specs, jobs)
    for key, spec in specs.items():
        point = float(spec.policy.removeprefix("FIXED-").removesuffix("OP"))
        result.raw.setdefault(spec.workload, {})[point] = metrics_by_key[key]
    return result
