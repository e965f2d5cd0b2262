"""Fig. 7: the four-policy comparison (the paper's headline result).

Runs L-BGC, A-BGC, ADP-GC and JIT-GC on each benchmark and reports IOPS
(Fig. 7a) and WAF (Fig. 7b) normalized to A-BGC.  Expected shape:

* IOPS: L-BGC lowest; ADP-GC in between; JIT-GC close to A-BGC for
  buffered-heavy workloads, degrading toward direct-heavy ones
  (paper: TPC-C at ~0.72 of A-BGC);
* WAF: A-BGC highest (premature erasures); JIT-GC at or below L-BGC
  where SIP filtering bites (YCSB/Postmark/Filebench/Bonnie++).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.reporting import format_table, normalize_to
from repro.experiments.runner import POLICY_FACTORIES, Grid, ScenarioSpec, run_grid
from repro.workloads import BENCHMARKS


@dataclass
class Fig7Result:
    """``raw[workload][policy]`` -> RunMetrics."""

    raw: Grid = field(default_factory=dict)

    def normalized_iops(self, workload: str) -> Dict[str, float]:
        series = {p: m.iops for p, m in self.raw[workload].items()}
        return normalize_to(series, "A-BGC")

    def normalized_waf(self, workload: str) -> Dict[str, float]:
        series = {p: m.waf for p, m in self.raw[workload].items()}
        return normalize_to(series, "A-BGC")

    def mean_iops_gain_over(self, policy: str, baseline: str) -> float:
        """Mean IOPS(policy)/IOPS(baseline) across workloads (paper
        reports JIT-GC at +182 % over L-BGC on their testbed)."""
        ratios = [
            self.raw[w][policy].iops / self.raw[w][baseline].iops for w in self.raw
        ]
        return sum(ratios) / len(ratios)

    def mean_waf_reduction_over(self, policy: str, baseline: str) -> float:
        """Mean 1 - WAF(policy)/WAF(baseline) (paper: JIT-GC -44 % vs
        A-BGC)."""
        ratios = [
            1.0 - self.raw[w][policy].waf / self.raw[w][baseline].waf
            for w in self.raw
        ]
        return sum(ratios) / len(ratios)

    def format(self) -> str:
        headers = ["Benchmark"] + list(POLICY_FACTORIES)
        iops_rows: List[List[object]] = []
        waf_rows: List[List[object]] = []
        for workload in self.raw:
            iops = self.normalized_iops(workload)
            waf = self.normalized_waf(workload)
            iops_rows.append([workload] + [iops[p] for p in POLICY_FACTORIES])
            waf_rows.append([workload] + [waf[p] for p in POLICY_FACTORIES])
        return (
            format_table(headers, iops_rows, title="Fig 7(a): normalized IOPS")
            + "\n\n"
            + format_table(headers, waf_rows, title="Fig 7(b): normalized WAF")
        )


def run_fig7(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = tuple(BENCHMARKS),
) -> Fig7Result:
    """Run all four policies on each workload (:func:`run_grid`)."""
    return Fig7Result(raw=run_grid(base_spec, POLICY_FACTORIES, workloads))
