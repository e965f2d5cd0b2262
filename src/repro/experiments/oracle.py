"""Oracle comparison: how close does JIT-GC get to the ideal policy?

Two-pass experiment realising the paper's Sec 2 thought experiment:

1. **Capture pass** -- run the scenario under JIT-GC while recording the
   exact per-interval device write volumes.
2. **Oracle pass** -- rerun the *identical* scenario under
   :class:`~repro.core.oracle.OracleGcPolicy`, which reserves exactly
   the captured future demand.

The gap between JIT-GC and ORACLE is the cost of having to *predict*
rather than *know* -- the headroom left for better predictors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.oracle import FutureWriteRecorder, OracleGcPolicy
from repro.core.policies import JitGcPolicy
from repro.experiments.reporting import format_table
from repro.experiments.runner import ScenarioSpec, run_scenario, traced_per_key
from repro.metrics.collector import RunMetrics
from repro.sim.simtime import SECOND


@dataclass
class OracleComparison:
    """Metrics of the JIT-GC capture pass and the oracle replay."""

    workload: str
    raw: Dict[str, RunMetrics] = field(default_factory=dict)

    def iops_gap(self) -> float:
        """IOPS(JIT-GC) / IOPS(ORACLE); 1.0 means prediction is free."""
        return self.raw["JIT-GC"].iops / self.raw["ORACLE"].iops

    def waf_gap(self) -> float:
        return self.raw["JIT-GC"].waf / self.raw["ORACLE"].waf

    def format(self) -> str:
        rows = [
            [name, m.iops, m.waf, m.fgc_invocations, m.bgc_blocks]
            for name, m in self.raw.items()
        ]
        return format_table(
            ["Policy", "IOPS", "WAF", "FGC", "BGC blocks"],
            rows,
            title=f"Oracle comparison [{self.workload}]",
        )


class _CapturingJitGc(JitGcPolicy):
    """JIT-GC recording the device write volume of every interval from
    :meth:`attach` on -- before preconditioning, so the whole timeline."""

    def __init__(self, interval_ns: int) -> None:
        super().__init__()
        self.interval_ns = interval_ns

    def attach(self, sim, device, cache, flusher) -> None:
        super().attach(sim, device, cache, flusher)
        self.recorder = FutureWriteRecorder(device, self.interval_ns)


def _policy_spec(spec: ScenarioSpec, name: str, factory) -> ScenarioSpec:
    """``spec`` under the policy ``factory`` builds, tracing to its own file."""
    return traced_per_key(spec.with_policy(name, factory), name)


def run_oracle_comparison(spec: ScenarioSpec = None) -> OracleComparison:
    """Capture under JIT-GC, replay under the oracle; returns both."""
    spec = spec or ScenarioSpec(workload="TPC-C")
    result = OracleComparison(workload=spec.workload)

    capture = _CapturingJitGc(spec.flusher_period_s * SECOND)
    result.raw["JIT-GC"] = run_scenario(_policy_spec(spec, "JIT-GC", lambda: capture))

    future = capture.recorder.log()
    horizon = spec.tau_expire_s // spec.flusher_period_s
    result.raw["ORACLE"] = run_scenario(
        _policy_spec(
            spec, "ORACLE", lambda: OracleGcPolicy(future, horizon_intervals=horizon)
        )
    )
    return result
