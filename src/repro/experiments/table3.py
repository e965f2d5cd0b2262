"""Table 3: the effect of the SIP lists on GC victim selection.

Runs JIT-GC per benchmark and reports the fraction of victim selections
in which the SIP filter skipped at least one greedy-ranked candidate.
Expected shape (paper): the filter bites hardest where buffered
re-writes dominate -- Postmark (20.6 %) > Filebench (17.5 %) > YCSB
(12.2 %) > Bonnie++ (8.7 %) > Tiobench (4.9 %) > TPC-C (1.1 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import ScenarioSpec, run_scenarios

DEFAULT_WORKLOADS = ("YCSB", "Postmark", "Filebench", "Bonnie++", "Tiobench", "TPC-C")

#: The paper's Table 3 (percent of filtered GC victim selections).
PAPER_FILTERED_PCT = {
    "YCSB": 12.2,
    "Postmark": 20.6,
    "Filebench": 17.5,
    "Bonnie++": 8.7,
    "Tiobench": 4.9,
    "TPC-C": 1.1,
}


@dataclass
class Table3Result:
    """Measured SIP-filter activity per benchmark."""

    filtered_pct: Dict[str, float] = field(default_factory=dict)
    selections: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        rows: List[List[object]] = []
        for workload, pct in self.filtered_pct.items():
            rows.append(
                [
                    workload,
                    pct,
                    PAPER_FILTERED_PCT.get(workload, float("nan")),
                    self.selections.get(workload, 0),
                ]
            )
        return format_table(
            ["Benchmark", "Filtered %", "Paper %", "Victim selections"],
            rows,
            title="Table 3: SIP-filtered GC victim selections",
            float_format="{:.1f}",
        )


def run_table3(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> Table3Result:
    """Measure SIP-filter activity under JIT-GC per benchmark, keyed by
    workload."""
    base_spec = base_spec or ScenarioSpec()
    specs = {
        workload: replace(base_spec, workload=workload).with_policy("JIT-GC")
        for workload in workloads
    }
    result = Table3Result()
    for workload, metrics in run_scenarios(specs).items():
        result.filtered_pct[workload] = metrics.sip_filtered_pct()
        result.selections[workload] = metrics.sip_selections
    return result
