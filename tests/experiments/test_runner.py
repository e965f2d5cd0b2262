"""Tests for the scenario runner (small scale, quick)."""

import pytest

from repro.core.policies import FixedReservePolicy
from repro.experiments import runner
from repro.experiments.fig2 import run_fig2
from repro.experiments.runner import (
    POLICY_FACTORIES,
    ScenarioSpec,
    resolve_jobs,
    run_policy_comparison,
    run_scenario,
)


def quick_spec(**kwargs):
    defaults = dict(
        workload="YCSB",
        policy="L-BGC",
        blocks=256,
        pages_per_block=16,
        warmup_s=5,
        measure_s=15,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_policy_factories_cover_fig7():
    assert set(POLICY_FACTORIES) == {"L-BGC", "A-BGC", "ADP-GC", "JIT-GC"}


def test_run_scenario_produces_metrics():
    metrics = run_scenario(quick_spec())
    assert metrics.policy == "L-BGC"
    assert metrics.workload == "YCSB"
    assert metrics.iops > 0
    assert metrics.waf >= 1.0
    assert 0.0 <= metrics.buffered_fraction <= 1.0


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        run_scenario(quick_spec(workload="nope"))


def test_unknown_policy_rejected():
    with pytest.raises(KeyError):
        run_scenario(quick_spec(policy="nope"))


def test_custom_policy_factory():
    spec = quick_spec().with_policy("custom", lambda: FixedReservePolicy(0.75))
    metrics = run_scenario(spec)
    assert metrics.policy == "FIXED-0.75OP"


def test_with_policy_preserves_everything_else():
    spec = quick_spec(seed=99)
    other = spec.with_policy("A-BGC")
    assert other.seed == 99
    assert other.workload == spec.workload
    assert other.policy == "A-BGC"
    assert spec.policy == "L-BGC"  # original untouched


def test_runs_are_deterministic():
    a = run_scenario(quick_spec())
    b = run_scenario(quick_spec())
    assert a.iops == b.iops
    assert a.waf == b.waf
    assert a.host_pages_written == b.host_pages_written


def test_comparison_runs_identical_workload():
    spec = quick_spec()
    results = run_policy_comparison(
        spec,
        {
            "L-BGC": POLICY_FACTORIES["L-BGC"],
            "A-BGC": POLICY_FACTORIES["A-BGC"],
        },
    )
    assert set(results) == {"L-BGC", "A-BGC"}
    for name, metrics in results.items():
        assert metrics.policy == name


def test_reliability_off_is_the_same_scenario_as_none():
    """``"off"`` and None build the same device, so they must name the
    same scenario in sweep checkpoints and trace headers."""
    assert ScenarioSpec(reliability="off").key() == ScenarioSpec().key()
    assert ScenarioSpec(reliability="off").reliability is None


@pytest.mark.parametrize(
    "field,value",
    [
        ("measure_s", 0),
        ("measure_s", -5),
        ("warmup_s", -1),
        ("working_set_fraction", 0.0),
        ("working_set_fraction", 1.5),
        ("flusher_period_s", 0),
        ("tau_expire_s", 0),
    ],
)
def test_spec_rejects_bad_values_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioSpec(**{field: value})


def test_spec_accepts_boundary_values():
    ScenarioSpec(measure_s=1, warmup_s=0, working_set_fraction=1.0)


@pytest.mark.parametrize("jobs", [-1, -3])
def test_negative_jobs_are_refused(jobs):
    """Only 0 (or None) asks for adaptive; a negative count used to
    resolve to one worker per CPU."""
    with pytest.raises(ValueError, match="jobs must be 0"):
        resolve_jobs(jobs, 10)
    with pytest.raises(ValueError, match="jobs must be 0"):
        run_policy_comparison(quick_spec(), jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be 0"):
        run_fig2(quick_spec(), workloads=("YCSB",), reserve_points=(1.0,), jobs=jobs)


def test_fig2_adaptive_jobs_runs_pooled(monkeypatch):
    """``jobs=0``, fig2's CLI default, resolves to a pool as every other
    batch's does; the spy runs the pool's scenarios in-process."""
    pooled = []

    def spy(pending, jobs, record):
        pooled.append(jobs)
        for key, spec in pending.items():
            record(key, run_scenario(spec), None)

    monkeypatch.setattr(runner, "_run_pooled", spy)
    monkeypatch.setattr(
        runner.os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False
    )
    spec = quick_spec(warmup_s=0, measure_s=2)
    result = run_fig2(spec, workloads=("YCSB",), reserve_points=(0.5, 1.5), jobs=0)
    assert pooled == [2]
    assert set(result.raw["YCSB"]) == {0.5, 1.5}
