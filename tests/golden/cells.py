"""The golden bit-identity cells (ROADMAP items 2 and 3's contract).

Each cell is one small seeded scenario driven only through the
experiment entry points (``ScenarioSpec`` -> the scenario runner /
``run_scenario_with_spo``), so the same cell runs unchanged on any commit
that keeps those seams.  What a cell pins is everything simulated:
``RunMetrics.to_wire()`` plus, where the run ends on a live host, the
whole ``FtlStats`` snapshot, the next write-sequence stamp and the
retired-block set of the device.

Regenerate (only when a PR *means* to change simulated behaviour)::

    PYTHONPATH=src python -m tests.golden.cells

The committed fixtures were written by this module run against commit
8eeea03 (PR 13), before the PR-14 FTL refactor touched ``src/``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict

from repro.experiments.crashsweep import gc_heavy_spec, run_scenario_with_spo
from repro.experiments.runner import ScenarioSpec, _run_scenario_host
from repro.faults.injector import FaultProfile
from repro.faults.powerloss import SpoPlan
from repro.sim.simtime import SECOND

FIXTURES = Path(__file__).parent / "fixtures"


def _run(spec: ScenarioSpec) -> dict:
    metrics, host = _run_scenario_host(spec)
    ftl = host.ftl
    return {
        "metrics": metrics.to_wire(),
        "ftl_stats": dataclasses.asdict(ftl.stats),
        "write_seq": ftl._write_seq,
        "retired_blocks": sorted(ftl.retired_blocks),
    }


def dram_jit_ycsb() -> dict:
    """The paper's buffered case at toy scale: all-DRAM map, JIT-GC."""
    return _run(
        ScenarioSpec(
            workload="YCSB",
            policy="JIT-GC",
            blocks=256,
            pages_per_block=16,
            warmup_s=4,
            measure_s=10,
            seed=7,
        )
    )


def dftl_reliability_adaptive() -> dict:
    """Flash-resident map + accelerated ECC ladder and scrubber +
    adaptive checkpoints: CMT writebacks, translation-block GC and
    refresh relocations all share the write frontiers."""
    spec = gc_heavy_spec(
        blocks=128,
        pages_per_block=16,
        seed=11,
        warmup_s=2,
        measure_s=8,
        mapping="dftl",
        cmt_budget_bytes=2 * 4096,
        reliability="mlc-20nm-accel",
        checkpoint_interval=256,
    )
    return _run(dataclasses.replace(spec, checkpoint_policy="adaptive"))


def dftl_faults_still_writable() -> dict:
    """dftl under media faults on all three write streams, in a window
    short enough (and a spare pool large enough) that the device is
    still writable at its end -- the presets drive a small dftl device
    read-only within ~100 sim-s (benchmarks/e2e/README.md, defect b)."""
    profile = FaultProfile(
        program_fail_prob=1e-3,
        erase_fail_prob=5e-3,
        read_uncorrectable_prob=5e-4,
        read_retry_success_prob=0.5,
    )
    return _run(
        gc_heavy_spec(
            blocks=512,
            pages_per_block=16,
            seed=5,
            warmup_s=1,
            measure_s=5,
            mapping="dftl",
            cmt_budget_bytes=2 * 4096,
            fault_profile=profile,
            checkpoint_interval=512,
        )
    )


def dram_trim_checkpoint_spo() -> dict:
    """TRIM-heavy checkpointed dram run that loses power once mid-window
    (the ``run --spo-at`` path): both data frontiers tear, recovery is
    checkpoint-bounded and replays tombstones, the workload resumes."""
    spec = gc_heavy_spec(
        blocks=128,
        pages_per_block=16,
        seed=3,
        warmup_s=2,
        measure_s=6,
        trim_heavy=True,
        checkpoint_interval=128,
    )
    outcome = run_scenario_with_spo(spec, SpoPlan(at_ns=(5 * SECOND,)))
    return {
        "metrics": outcome.metrics.to_wire(),
        "torn": [[list(addr) for addr in cut.torn] for cut in outcome.cuts],
        "recoveries": [
            [r.full_scan, r.pages_scanned, r.torn_pages, r.tombstones_replayed,
             r.duration_ns, r.post_checkpoint_ns, r.write_seq]
            for r in outcome.reports
        ],
    }


def dftl_analytic_warm_start() -> dict:
    """Analytic warm start into dftl: the synthesized steady state goes
    through the recovery install path (frontiers resumed/allocated
    there), then a short settle and a measured window."""
    return _run(
        gc_heavy_spec(
            blocks=256,
            pages_per_block=16,
            seed=9,
            warmup_s=2,
            measure_s=6,
            mapping="dftl",
            cmt_budget_bytes=2 * 4096,
            warm_start="analytic",
        )
    )


CELLS: Dict[str, Callable[[], dict]] = {
    "dram_jit_ycsb": dram_jit_ycsb,
    "dftl_reliability_adaptive": dftl_reliability_adaptive,
    "dftl_faults_still_writable": dftl_faults_still_writable,
    "dram_trim_checkpoint_spo": dram_trim_checkpoint_spo,
    "dftl_analytic_warm_start": dftl_analytic_warm_start,
}


def run_cell(name: str) -> dict:
    """One cell's pinned output, in the exact form the fixture stores
    (through JSON, so tuples/ints/floats compare as they are read back)."""
    return json.loads(json.dumps(CELLS[name]()))


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for cell in CELLS:
        fixture_path(cell).write_text(
            json.dumps(run_cell(cell), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {fixture_path(cell)}")
