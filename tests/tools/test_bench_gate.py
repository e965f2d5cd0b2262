"""Tests for the benchmark regression gate: the ``--jobs 2`` scaling
rule on sweep payloads and the reliability-overhead rules."""

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


# ----------------------------------------------------------------------
# Reliability-overhead payloads
# ----------------------------------------------------------------------
def _reliability_payload(slowdown=1.01, scrubs=0, ueccs=0, fast_reads=1000):
    return {
        "schema": "bench-hotpaths/v1",
        "benchmark": "reliability_overhead",
        "mode": "quick",
        "results": {
            "reliability_overhead": {
                "off": {"events_per_sec": 100_000.0, "waf": 3.0},
                "armed": {
                    "events_per_sec": round(100_000.0 / slowdown, 1),
                    "waf": 3.0,
                    "ecc_fast_reads": fast_reads,
                    "ecc_retry_reads": 0,
                    "uecc_count": ueccs,
                    "scrub_blocks_refreshed": scrubs,
                },
                "slowdown": slowdown,
                "waf_delta": 0.0,
            }
        },
    }


def _run_reliability(tmp_path, payload, extra_args=()):
    current = tmp_path / "rel.json"
    current.write_text(json.dumps(payload))
    return bench_gate.main(["--current", str(current), *extra_args])


def test_quiescent_reliability_run_passes(tmp_path):
    assert _run_reliability(tmp_path, _reliability_payload(slowdown=1.01)) == 0


def test_reliability_overhead_above_ceiling_fails(tmp_path, capsys):
    assert _run_reliability(tmp_path, _reliability_payload(slowdown=1.10)) == 1
    assert "exceeds the 1.03x ceiling" in capsys.readouterr().out


def test_reliability_ceiling_is_configurable(tmp_path):
    payload = _reliability_payload(slowdown=1.10)
    assert (
        _run_reliability(
            tmp_path, payload, ["--max-reliability-overhead", "1.2"]
        )
        == 0
    )


def test_non_quiescent_reliability_run_fails(tmp_path, capsys):
    assert _run_reliability(tmp_path, _reliability_payload(scrubs=3)) == 1
    assert "not a no-data-at-risk measurement" in capsys.readouterr().out


def test_reliability_uecc_fails(tmp_path, capsys):
    assert _run_reliability(tmp_path, _reliability_payload(ueccs=1)) == 1
    assert "ECC cliff" in capsys.readouterr().out


def test_reliability_ladder_must_be_installed(tmp_path, capsys):
    assert _run_reliability(tmp_path, _reliability_payload(fast_reads=0)) == 1
    assert "not" in capsys.readouterr().out
