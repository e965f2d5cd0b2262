"""Table 2: prediction accuracy of the future-write predictors.

Runs JIT-GC and ADP-GC per benchmark and reports the horizon-level
prediction accuracy their trackers collected (see
:mod:`repro.core.accuracy` for the metric).  Expected shape: JIT-GC's
page-cache-aware predictor beats ADP-GC's device-internal CDH on
buffered-heavy benchmarks and both bottom out on TPC-C, whose direct
writes are fundamentally harder to predict (paper: 72.5 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import ScenarioSpec, run_scenarios

DEFAULT_WORKLOADS = ("YCSB", "Postmark", "Filebench", "Bonnie++", "Tiobench", "TPC-C")

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
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> Table2Result:
    """Measure predictor accuracy for both predicting policies, keyed
    ``<workload>/<policy>``."""
    base_spec = base_spec or ScenarioSpec()
    specs = {
        f"{workload}/{policy}": replace(base_spec, workload=workload).with_policy(policy)
        for workload in workloads
        for policy in ("JIT-GC", "ADP-GC")
    }
    metrics = run_scenarios(specs)
    result = Table2Result(accuracy_pct={"JIT-GC": {}, "ADP-GC": {}})
    for key, spec in specs.items():
        accuracy = metrics[key].prediction_accuracy_pct
        result.accuracy_pct[spec.policy][spec.workload] = (
            accuracy if accuracy is not None else 100.0
        )
    return result
