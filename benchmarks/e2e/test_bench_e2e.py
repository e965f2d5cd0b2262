"""Self-test of the end-to-end benchmark, at smoke scale (windows / 20).

    python -m pytest benchmarks/e2e

Not part of tier-1 (``testpaths = ["tests"]``): it runs all four
workloads three times and takes about a minute.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare, run  # noqa: E402
from benchmarks.e2e.trace import ALIASES, TARGETS, LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = SPEC["run_seconds"] / run.SMOKE_DIVISOR
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def traced_cells():
    """Seed 42: each workload untraced, then traced (``--trace 1``)."""
    return {
        name: run.run_workload(name, 42, SMOKE_SECONDS, True, None) for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def held_back_cells():
    """Seed 7, never used while the workloads were sized."""
    return {name: run.run_child(name, 7, SMOKE_SECONDS) for name in WORKLOADS}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("seed_cells", ["traced_cells", "held_back_cells"])
def test_outputs_are_correct_on_both_seeds(seed_cells, request):
    for name, cell in request.getfixturevalue(seed_cells).items():
        assert cell["correct"], (name, cell["checks"])
        assert cell["failed"] == 0 and cell["attempted"] >= 1


def test_output_and_benchmark_json_name_the_same_metrics(traced_cells, held_back_cells):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        assert set(held_back_cells[name]["end_to_end"]) == end_to_end
        assert set(traced_cells[name]["per_layer"]) == per_layer
        assert all(value != 0 for value in held_back_cells[name]["end_to_end"].values())


def test_layer_self_times_sum_to_the_traced_wall(traced_cells):
    for name, cell in traced_cells.items():
        layers, wall = cell["per_layer"], cell["diagnostics"]["wall_raw_s"]
        total = sum(layers[metric] for metric in cell["budget"])
        total += layers["obs.unattributed_share"] * wall
        assert total == pytest.approx(wall, rel=0.01), name
        assert layers["obs.unattributed_share"] <= 0.10, name


def test_tracing_does_not_change_the_simulation(traced_cells):
    # run_workload compared the traced digest with an untraced run's.
    for name, cell in traced_cells.items():
        assert cell["checks"]["tracing_preserves_sim"] == "", name


def test_only_the_dftl_and_crash_cells_use_their_layers(traced_cells):
    for name, cell in traced_cells.items():
        layers = cell["per_layer"]
        dftl = name in ("dftl-readmix", "crash-sweep")
        assert (layers["ftl.mapping.cmt_misses"] > 0) == dftl, name
        assert (layers["nand.reliability.fast_reads"] > 0) == (name == "dftl-readmix")
        crash = name == "crash-sweep"
        assert (layers["ftl.recovery.pages_scanned"] > 0) == crash, name
        assert (layers["ftl.metastore.meta_pages"] > 0) == crash, name


def test_workloads_separate_the_layers(traced_cells):
    def share(cell, *prefixes):
        layers = cell["per_layer"]
        picked = sum(
            layers[name] for name in cell["budget"] if name.startswith(prefixes)
        )
        return picked / cell["diagnostics"]["wall_raw_s"]

    device_side, host_side = ("ftl.", "nand."), ("sim.", "workloads.", "oskernel.")
    ycsb, gc = traced_cells["buffered-ycsb"], traced_cells["gc-direct"]
    assert share(gc, *device_side) >= 0.40 and share(ycsb, *device_side) <= 0.20
    assert share(ycsb, *host_side) >= 0.50 and share(gc, *host_side) <= 0.35


def test_tracer_leaves_no_patched_attribute_behind():
    originals = {
        (id(owner), attr): vars(owner)[attr]
        for _, owner, attrs in TARGETS
        for attr in attrs
    }
    originals.update({(id(m), attr): vars(m)[attr] for m, attr, _ in ALIASES})
    tracer = LayerTracer.install()
    patched = tracer.patched()
    assert len(patched) == len(originals)
    assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    tracer.uninstall()
    assert tracer.patched() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original is originals[(id(owner), attr)]


def test_compare_refuses_smoke_results(tmp_path, held_back_cells):
    document = {
        "schema": 1, "seed": 7, "seconds": SMOKE_SECONDS, "smoke": True,
        "traced": False, "workloads": held_back_cells,
    }
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SystemExit, match="smoke"):
        compare.load([str(path)])


def test_compare_verdicts():
    lower = ("lower", 0.08)
    assert compare.verdict([10, 10.1, 9.9], [10.05, 10, 9.95], *lower)[0] == "same"
    assert compare.verdict([10, 10.1, 9.9], [11.5, 11.6, 11.4], *lower)[0] == "worse"
    assert compare.verdict([10, 10.1, 9.9], [9, 9.1, 8.9], *lower)[0] == "better"
    assert compare.verdict([10, 12, 8, 11], [10.5, 12.5, 8.5, 9], *lower)[0] == "unresolved"
    assert compare.verdict([1517.0] * 3, [1517.0] * 3, "higher", 0.03)[0] == "same"
    assert compare.verdict([1517.0] * 3, [1400.0] * 3, "higher", 0.03)[0] == "worse"
