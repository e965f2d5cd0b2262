"""Table 1: breakdown of write types (buffered vs direct) per benchmark.

The write mix is a property of the workload models, measured at the I/O
dispatcher exactly as the paper measured it at the kernel boundary.  The
harness runs each benchmark briefly (the mix converges fast) and prints
measured-vs-paper percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import ScenarioSpec, run_scenarios
from repro.workloads import BENCHMARKS

DEFAULT_WORKLOADS = ("YCSB", "Postmark", "Filebench", "Bonnie++", "Tiobench", "TPC-C")

#: The paper's Table 1 buffered-write percentages.
PAPER_BUFFERED_PCT = {
    "YCSB": 88.2,
    "Postmark": 81.7,
    "Filebench": 85.8,
    "Bonnie++": 72.4,
    "Tiobench": 46.3,
    "TPC-C": 0.1,
}


@dataclass
class Table1Result:
    """Measured buffered fraction per benchmark."""

    buffered_pct: Dict[str, float] = field(default_factory=dict)

    def direct_pct(self, workload: str) -> float:
        return 100.0 - self.buffered_pct[workload]

    def format(self) -> str:
        rows: List[List[object]] = []
        for workload, measured in self.buffered_pct.items():
            rows.append(
                [
                    workload,
                    measured,
                    100.0 - measured,
                    PAPER_BUFFERED_PCT.get(workload, float("nan")),
                    100.0 - PAPER_BUFFERED_PCT.get(workload, float("nan")),
                ]
            )
        return format_table(
            ["Benchmark", "Buffered %", "Direct %", "Paper buf %", "Paper dir %"],
            rows,
            title="Table 1: breakdown of write types",
            float_format="{:.1f}",
        )


def run_table1(
    base_spec: ScenarioSpec = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> Table1Result:
    """Measure the write mix of each benchmark model.

    The GC policy is irrelevant to the mix; a single L-BGC run per
    benchmark, keyed by workload, suffices.
    """
    base_spec = base_spec or ScenarioSpec()
    for workload in workloads:
        if workload not in BENCHMARKS:
            raise KeyError(f"unknown workload {workload!r}")
    specs = {
        workload: replace(base_spec, workload=workload).with_policy("L-BGC")
        for workload in workloads
    }
    result = Table1Result()
    for workload, metrics in run_scenarios(specs).items():
        result.buffered_pct[workload] = 100.0 * metrics.buffered_fraction
    return result
