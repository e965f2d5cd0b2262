"""Tests for the benchmark regression gate: the ``--jobs 2`` scaling
rule on sweep payloads."""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
sys.modules["bench_gate"] = bench_gate
_spec.loader.exec_module(bench_gate)


def _sweep_payload(speedup, cpus):
    return {
        "schema": "bench-hotpaths/v1",
        "mode": "quick",
        "cpu_count": cpus,
        "results": {"sweep_jobs": {"speedup": speedup, "cpu_count": cpus}},
    }


def _run_sweep_gate(tmp_path, payload):
    current = tmp_path / "current.json"
    current.write_text(json.dumps(payload))
    return bench_gate.main(["--current", str(current)])


def test_jobs_scaling_passes_on_a_multicore_host(tmp_path):
    assert _run_sweep_gate(tmp_path, _sweep_payload(1.6, cpus=2)) == 0


def test_jobs_scaling_below_floor_fails_on_a_multicore_host(tmp_path, capsys):
    assert _run_sweep_gate(tmp_path, _sweep_payload(1.05, cpus=4)) == 1
    assert "below 1.2x on a 4-CPU host" in capsys.readouterr().out


def test_jobs_scaling_is_skipped_on_a_single_cpu(tmp_path, capsys):
    assert _run_sweep_gate(tmp_path, _sweep_payload(0.9, cpus=1)) == 0
    assert "single-CPU host" in capsys.readouterr().out

