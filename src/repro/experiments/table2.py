"""Table 2: prediction accuracy of the future-write predictors.

Runs JIT-GC and ADP-GC per benchmark and reports the horizon-level
prediction accuracy their trackers collected (see
:mod:`repro.core.accuracy` for the metric).  Expected shape: JIT-GC's
page-cache-aware predictor beats ADP-GC's device-internal CDH on
buffered-heavy benchmarks and both bottom out on TPC-C, whose direct
writes are fundamentally harder to predict (paper: 72.5 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import POLICY_FACTORIES, Grid, ScenarioSpec, run_grid
from repro.workloads import BENCHMARKS

#: The paper's Table 2 (percent).
PAPER_ACCURACY = {
    "JIT-GC": {
        "YCSB": 98.9,
        "Postmark": 93.2,
        "Filebench": 97.3,
        "Bonnie++": 89.8,
        "Tiobench": 86.1,
        "TPC-C": 72.5,
    },
    "ADP-GC": {
        "YCSB": 87.7,
        "Postmark": 72.8,
        "Filebench": 82.0,
        "Bonnie++": 73.4,
        "Tiobench": 74.1,
        "TPC-C": 71.2,
    },
}


@dataclass
class Table2Result:
    """``accuracy_pct[policy][workload]`` in percent."""

    accuracy_pct: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_grid(cls, grid: Grid) -> "Table2Result":
        """The accuracy of each predicting policy's runs in ``grid``; a
        run with no scored horizon reads 100 %."""
        return cls(
            {
                policy: {
                    workload: 100.0
                    if row[policy].prediction_accuracy_pct is None
                    else row[policy].prediction_accuracy_pct
                    for workload, row in grid.items()
                }
                for policy in PAPER_ACCURACY
            }
        )

    def format(self) -> str:
        workloads = list(next(iter(self.accuracy_pct.values())).keys())
        rows: List[List[object]] = []
        for policy, per_workload in self.accuracy_pct.items():
            rows.append([policy] + [per_workload[w] for w in workloads])
            rows.append(
                [f"  (paper {policy})"]
                + [PAPER_ACCURACY[policy].get(w, float("nan")) for w in workloads]
            )
        return format_table(
            ["Predictor"] + workloads,
            rows,
            title="Table 2: prediction accuracy (%)",
            float_format="{:.1f}",
        )


def run_table2(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = tuple(BENCHMARKS),
) -> Table2Result:
    """Measure predictor accuracy for both predicting policies."""
    return Table2Result.from_grid(
        run_grid(base_spec, {p: POLICY_FACTORIES[p] for p in PAPER_ACCURACY}, workloads)
    )
