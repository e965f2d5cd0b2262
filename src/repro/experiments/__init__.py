"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`repro.experiments.runner` -- the shared scenario protocol.
* :mod:`repro.experiments.reporting` -- text-table formatting.
* :mod:`repro.experiments.fig2` -- reserved-capacity sweep (Fig. 2a/2b).
* :mod:`repro.experiments.table1` -- buffered/direct write mix (Table 1).
* :mod:`repro.experiments.fig7` -- four-policy comparison (Fig. 7a/7b).
* :mod:`repro.experiments.table2` -- prediction accuracy (Table 2).
* :mod:`repro.experiments.table3` -- SIP victim filtering (Table 3).
* :mod:`repro.experiments.ablations` -- design-choice sweeps from
  DESIGN.md (CDH percentile, SIP threshold, strict predictor, eager
  manager).
* :mod:`repro.experiments.crashsweep` -- exhaustive crash-point sweep
  and live sudden-power-off runs with post-recovery continuation.
"""

from repro.experiments.runner import (
    POLICY_FACTORIES,
    WARM_START_MODES,
    ScenarioSpec,
    ScenarioTimeoutError,
    SweepOutcome,
    build_preconditioned_host,
    resolve_jobs,
    run_policy_comparison,
    run_scenario,
    run_scenarios,
    run_sweep,
)
from repro.experiments.reporting import format_table, normalize_to
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.ablations import (
    AblationResult,
    run_manager_laziness,
    run_percentile_sweep,
    run_predictor_strictness,
    run_sip_ablation,
)
from repro.experiments.oracle import OracleComparison, run_oracle_comparison
from repro.experiments.crashsweep import (
    CrashPointCheck,
    CrashPointMismatch,
    CrashSweepResult,
    SpoRunResult,
    gc_heavy_spec,
    run_crash_sweep,
    run_scenario_with_spo,
    verify_crash_point,
)
from repro.metrics.collector import merge_phase_metrics
from repro.experiments.latencyreport import (
    LatencyReportResult,
    latency_spec,
    run_latency_report,
)
from repro.experiments.lifetimereport import (
    LifetimeReportResult,
    run_lifetime_report,
)
from repro.experiments.persistence import SweepCheckpoint, load_results, save_results

__all__ = [
    "POLICY_FACTORIES",
    "WARM_START_MODES",
    "ScenarioSpec",
    "build_preconditioned_host",
    "ScenarioTimeoutError",
    "SweepCheckpoint",
    "SweepOutcome",
    "resolve_jobs",
    "run_policy_comparison",
    "run_scenario",
    "run_scenarios",
    "run_sweep",
    "format_table",
    "normalize_to",
    "Fig2Result",
    "run_fig2",
    "Fig7Result",
    "run_fig7",
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
    "Table3Result",
    "run_table3",
    "AblationResult",
    "run_percentile_sweep",
    "run_sip_ablation",
    "run_predictor_strictness",
    "run_manager_laziness",
    "OracleComparison",
    "run_oracle_comparison",
    "load_results",
    "save_results",
    "CrashPointCheck",
    "CrashPointMismatch",
    "CrashSweepResult",
    "SpoRunResult",
    "gc_heavy_spec",
    "LatencyReportResult",
    "latency_spec",
    "run_latency_report",
    "LifetimeReportResult",
    "run_lifetime_report",
    "merge_phase_metrics",
    "run_crash_sweep",
    "run_scenario_with_spo",
    "verify_crash_point",
]
