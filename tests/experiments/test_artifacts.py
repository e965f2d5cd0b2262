"""Micro-scale smoke tests for the per-artifact experiment modules.

Full-fidelity runs live in benchmarks/; these verify the harness logic
(sweeps, normalization, formatting) at a tiny scale.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import (
    POLICY_FACTORIES,
    ScenarioSpec,
    Table1Result,
    Table2Result,
    Table3Result,
    run_fig2,
    run_fig7,
    run_manager_laziness,
    run_policy_comparison,
    run_sip_ablation,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments import runner
from repro.obs import ObservabilityConfig

MICRO = ScenarioSpec(blocks=192, pages_per_block=16, warmup_s=4, measure_s=10)


def micro(workload="YCSB"):
    spec = ScenarioSpec(**{**MICRO.__dict__})
    spec.workload = workload
    spec.workload_kwargs = {}
    return spec


def test_fig2_micro():
    result = run_fig2(micro(), workloads=("YCSB",), reserve_points=(0.5, 1.5))
    iops = result.normalized_iops("YCSB")
    waf = result.normalized_waf("YCSB")
    assert iops[1.5] == pytest.approx(1.0)
    assert waf[1.5] == pytest.approx(1.0)
    assert result.iops_spread("YCSB") >= 1.0
    text = result.format()
    assert "Fig 2(a)" in text and "Fig 2(b)" in text


def test_fig7_micro():
    result = run_fig7(micro(), workloads=("TPC-C",))
    normalized = result.normalized_iops("TPC-C")
    assert set(normalized) == {"L-BGC", "A-BGC", "ADP-GC", "JIT-GC"}
    assert normalized["A-BGC"] == pytest.approx(1.0)
    assert result.mean_iops_gain_over("JIT-GC", "L-BGC") > 0
    assert "Fig 7(a)" in result.format()


def test_table1_micro():
    result = run_table1(micro(), workloads=("TPC-C",))
    assert result.buffered_pct["TPC-C"] < 5.0
    assert result.direct_pct("TPC-C") > 95.0
    assert "Table 1" in result.format()


def test_table2_micro():
    result = run_table2(micro(), workloads=("YCSB",))
    for policy in ("JIT-GC", "ADP-GC"):
        assert 0.0 <= result.accuracy_pct[policy]["YCSB"] <= 100.0
    assert "Table 2" in result.format()


def test_table3_micro():
    result = run_table3(micro(), workloads=("YCSB",))
    assert 0.0 <= result.filtered_pct["YCSB"] <= 100.0
    assert "Table 3" in result.format()


def test_tables_read_their_columns_of_the_fig7_grid():
    grid = run_fig7(micro(), workloads=("YCSB",)).raw
    assert Table1Result.from_grid(grid) == run_table1(micro(), workloads=("YCSB",))
    assert Table2Result.from_grid(grid) == run_table2(micro(), workloads=("YCSB",))
    assert Table3Result.from_grid(grid) == run_table3(micro(), workloads=("YCSB",))


def test_table2_scores_a_run_without_a_scored_horizon_100():
    grid = {
        "YCSB": {
            "JIT-GC": SimpleNamespace(prediction_accuracy_pct=None),
            "ADP-GC": SimpleNamespace(prediction_accuracy_pct=87.5),
        }
    }
    assert Table2Result.from_grid(grid).accuracy_pct == {
        "JIT-GC": {"YCSB": 100.0},
        "ADP-GC": {"YCSB": 87.5},
    }


def test_fig2_files_each_reserve_point_under_its_own_policy():
    """A repeated reserve point is one grid column, not a shifted one."""
    spec = ScenarioSpec(blocks=64, pages_per_block=8, warmup_s=0, measure_s=1)
    result = run_fig2(spec, workloads=("YCSB",), reserve_points=(0.5, 0.5, 1.5))
    assert {k: m.policy for k, m in result.raw["YCSB"].items()} == {
        0.5: "FIXED-0.5OP",
        1.5: "FIXED-1.5OP",
    }


@pytest.mark.parametrize(
    "run", [run_fig2, run_fig7, run_table1, run_table2, run_table3]
)
def test_unknown_workload_fails_before_any_run(monkeypatch, run):
    calls = []
    monkeypatch.setattr(runner, "run_scenario", lambda spec: calls.append(spec))
    with pytest.raises(KeyError, match="Nope"):
        run(micro(), workloads=("YCSB", "Nope"))
    assert calls == []


def test_ablation_micro():
    result = run_sip_ablation(micro("Postmark"))
    assert set(result.raw) == {"JIT-GC (SIP)", "JIT-GC (no SIP)"}
    laziness = run_manager_laziness(micro("TPC-C"))
    assert "pure deferral" in laziness.raw


@pytest.mark.parametrize(
    "run, kwargs, keys",
    [
        (
            run_fig2,
            {"workloads": ("YCSB",), "reserve_points": (0.5, 1.5)},
            [f"YCSB_FIXED-{k}OP" for k in ("0.5", "1.5")],
        ),
        (
            run_fig7,
            {"workloads": ("YCSB", "Postmark")},
            [
                f"{workload}_{policy}"
                for workload in ("YCSB", "Postmark")
                for policy in ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC")
            ],
        ),
        (
            run_table1,
            {"workloads": ("YCSB", "Postmark")},
            ["YCSB_L-BGC", "Postmark_L-BGC"],
        ),
        (run_table2, {"workloads": ("YCSB",)}, ["YCSB_JIT-GC", "YCSB_ADP-GC"]),
        (run_table3, {"workloads": ("YCSB",)}, ["YCSB_JIT-GC"]),
        (
            run_policy_comparison,
            {"policies": {p: POLICY_FACTORIES[p] for p in ("L-BGC", "JIT-GC")}},
            ["L-BGC", "JIT-GC"],
        ),
    ],
    ids=["fig2", "fig7", "table1", "table2", "table3", "compare"],
)
def test_batches_trace_one_file_per_run(tmp_path, run, kwargs, keys):
    """Each run of a traced batch writes ``<stem>-<key>``, ``/`` in the
    key written ``_``: ``<workload>/<policy>`` for every artifact grid,
    bare policy names for a comparison."""
    spec = ScenarioSpec(
        blocks=64,
        pages_per_block=8,
        warmup_s=0,
        measure_s=1,
        obs=ObservabilityConfig(trace_path=str(tmp_path / "t.jsonl")),
    )
    run(spec, **kwargs)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"t-{key}.jsonl" for key in keys
    )
