"""Fig. 2: impact of the reserved capacity on performance and lifetime.

The paper sweeps a fixed-reserve BGC policy's ``Cresv`` over
``{0.5, 0.75, 1.0, 1.25, 1.5} x C_OP`` for all six benchmarks and plots
IOPS (Fig. 2a) and WAF (Fig. 2b), both normalized to the
``1.5 x C_OP`` (A-BGC) point.  Expected shape: IOPS grows with the
reserve, WAF grows with the reserve -- the trade-off that motivates
JIT-GC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.policies import FixedReservePolicy
from repro.experiments.reporting import format_table, normalize_to
from repro.experiments.runner import ScenarioSpec, run_grid
from repro.metrics.collector import RunMetrics
from repro.workloads import BENCHMARKS

#: The paper's Fig. 2 x-axis.
RESERVE_POINTS = (0.5, 0.75, 1.0, 1.25, 1.5)


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


def run_fig2(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = tuple(BENCHMARKS),
    reserve_points: Sequence[float] = RESERVE_POINTS,
    jobs: Optional[int] = 1,
) -> Fig2Result:
    """Run the full Fig. 2 sweep: :func:`run_grid` with one
    ``FIXED-<k>OP`` policy per reserve point.

    Policy factories are ``functools.partial`` (not lambdas) so the
    specs survive pickling into worker processes.
    """
    names = {point: f"FIXED-{point:g}OP" for point in reserve_points}
    policies = {name: partial(FixedReservePolicy, k) for k, name in names.items()}
    grid = run_grid(base_spec, policies, workloads, jobs)
    raw = {w: {k: row[name] for k, name in names.items()} for w, row in grid.items()}
    return Fig2Result(tuple(reserve_points), raw)
