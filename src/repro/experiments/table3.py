"""Table 3: the effect of the SIP lists on GC victim selection.

Runs JIT-GC per benchmark and reports the fraction of victim selections
in which the SIP filter skipped at least one greedy-ranked candidate.
Expected shape (paper): the filter bites hardest where buffered
re-writes dominate -- Postmark (20.6 %) > Filebench (17.5 %) > YCSB
(12.2 %) > Bonnie++ (8.7 %) > Tiobench (4.9 %) > TPC-C (1.1 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import POLICY_FACTORIES, Grid, ScenarioSpec, run_grid
from repro.workloads import BENCHMARKS

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

    @classmethod
    def from_grid(cls, grid: Grid) -> "Table3Result":
        """The SIP-filter activity of each workload's JIT-GC run in ``grid``."""
        runs = {workload: row["JIT-GC"] for workload, row in grid.items()}
        return cls(
            {workload: run.sip_filtered_pct() for workload, run in runs.items()},
            {workload: run.sip_selections for workload, run in runs.items()},
        )

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
    workloads: Sequence[str] = tuple(BENCHMARKS),
) -> Table3Result:
    """Measure SIP-filter activity under JIT-GC per benchmark."""
    return Table3Result.from_grid(
        run_grid(base_spec, {"JIT-GC": POLICY_FACTORIES["JIT-GC"]}, workloads)
    )
