"""Tolerance-validation suite: analytic warm-start vs simulated warmup.

For every GC policy, runs the same scenario twice -- once preconditioned
by the reference prefill + simulated warmup, once warm-started from the
analytic steady-state prediction -- and bounds the measure-window
divergence.  This is the tier-1 equivalence gate; the full-size
validation on the paper's Fig. 2 configuration (1024 blocks, 40 s
warmup) is recorded in PERFORMANCE.md ("Analytic warm start"), where
the acceptance bounds are WAF within 5 % and p99 within 10 %.

Both runs are deterministic functions of the seed, so these bounds
check modelling error, not noise.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import POLICY_FACTORIES, ScenarioSpec, run_scenario

#: Measure-window divergence bounds for the smoke configuration (256
#: blocks, 20 s warmup).  Looser than the Fig. 2 acceptance gate: the
#: smaller device amplifies the model's block-quantisation error.
WAF_TOL = 0.08
IOPS_TOL = 0.10
P99_TOL = 0.10

BASE = ScenarioSpec(
    workload="YCSB",
    blocks=256,
    pages_per_block=64,
    warmup_s=20,
    measure_s=30,
    seed=42,
    working_set_fraction=0.5,
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / b if b else 0.0


@pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
def test_analytic_warm_start_matches_sim_warmup(policy):
    sim = run_scenario(replace(BASE, policy=policy, warm_start="sim"))
    ana = run_scenario(replace(BASE, policy=policy, warm_start="analytic"))

    assert _rel(ana.waf, sim.waf) <= WAF_TOL, (
        f"{policy}: WAF {ana.waf:.4f} (analytic) vs {sim.waf:.4f} (sim)"
    )
    assert _rel(ana.iops, sim.iops) <= IOPS_TOL, (
        f"{policy}: IOPS {ana.iops:.1f} (analytic) vs {sim.iops:.1f} (sim)"
    )
    assert _rel(ana.p99_latency_ns, sim.p99_latency_ns) <= P99_TOL, (
        f"{policy}: p99 {ana.p99_latency_ns} (analytic) vs "
        f"{sim.p99_latency_ns} (sim)"
    )
    # The warm-started device is genuinely at work: GC ran in-window.
    assert ana.gc_pages_migrated > 0
    assert ana.host_pages_written > 0


def test_warm_start_mode_is_part_of_the_scenario_key():
    sim = replace(BASE, policy="L-BGC")
    ana = replace(BASE, policy="L-BGC", warm_start="analytic")
    assert sim.key() != ana.key()
    # The default mode keeps the historical key, so existing sweep
    # checkpoints still resolve.
    assert "warm" not in sim.key()


def test_unknown_warm_start_mode_is_rejected():
    with pytest.raises(ValueError):
        run_scenario(replace(BASE, policy="L-BGC", warm_start="psychic"))
