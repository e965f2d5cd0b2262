"""Recovery benchmarks: full OOB scan vs checkpoint-bounded tail scan.

Measures :func:`repro.ftl.recovery.recover_ftl` over a GC-churned
device image -- the whole power-back-on path: metadata load, OOB scan,
layout re-discovery, state installation and the invariant check.  Two
benchmarks:

* ``recovery_scan``      -- the full-device scan (no checkpoints on the
  image).  ``pages_per_sec`` is the wall-clock throughput (the hot path
  of the crash-point sweep harness); ``sim_scan_ms`` the *simulated*
  power-on-ready latency (one flash read per programmed page).
* ``recovery_tail_scan`` -- the same churned device, but running with
  periodic mapping checkpoints.  Recovery loads the newest complete
  checkpoint and rescans only the log tail past its horizon; the
  benchmark recovers the identical image once with its durable metadata
  (``checkpointed_ms``) and once with the metadata region stripped
  (``full_scan_ms``, the pre-checkpoint protocol), and reports
  ``speedup_sim`` -- the power-on-ready improvement the checkpoint
  buys.  Both paths must reconstruct the same L2P table.

Without ``--output`` the run is appended to ``BENCH_hotpaths.json``
(the dated ``bench-hotpaths/v2`` trajectory) tagged
``benchmark: "recovery"``.  ``tools/bench_gate.py`` gates the
``speedup_sim`` ratio of recovery payloads (``--min-recovery-speedup``)
and skips recovery entries when gating hot-path runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py            # full
    PYTHONPATH=src python benchmarks/bench_recovery.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script invocation: make `repro` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from bench_hotpaths import _git_commit, _load_trajectory, _machine_fingerprint
else:
    from benchmarks.bench_hotpaths import (
        _git_commit,
        _load_trajectory,
        _machine_fingerprint,
    )

import numpy as np

from repro.ftl.recovery import recover_ftl
from repro.nand.array import NandArray, NandDurableState
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NAND_20NM_MLC
from repro.ssd.config import SsdConfig

#: Device scale per mode.  Full mode scans ~2M pages; quick keeps the
#: same churned shape at CI-smoke scale.
SCALE = {
    "full": dict(blocks=16384, pages_per_block=128, rounds=3),
    "quick": dict(blocks=2048, pages_per_block=64, rounds=5),
}


def _config(params: dict, checkpoint_interval=None) -> SsdConfig:
    geometry = NandGeometry(
        page_size=4096,
        pages_per_block=params["pages_per_block"],
        blocks_per_plane=params["blocks"],
    )
    return SsdConfig(
        geometry=geometry,
        timing=NAND_20NM_MLC,
        op_ratio=0.12,
        checkpoint_interval_pages=checkpoint_interval,
    )


def _churned_image(params: dict, checkpoint_interval=None) -> NandDurableState:
    """A crash image of a device that has lived: full map, stale copies,
    torn frontiers (and, when ``checkpoint_interval`` is set, a durable
    metadata log of periodic checkpoints)."""
    config = _config(params, checkpoint_interval)
    ftl = config.build_ftl(nand=NandArray(config.geometry, NAND_20NM_MLC))
    space = ftl.space
    rng = np.random.default_rng(7)
    for lpn in range(space.user_pages):
        ftl.host_write_page(lpn)
    # Skewed overwrites leave stale copies behind and trigger GC.
    for lpn in rng.integers(0, space.user_pages // 4, space.user_pages // 2):
        ftl.host_write_page(int(lpn))
    if checkpoint_interval:
        # Land the crash mid-interval, not on a checkpoint boundary: the
        # tail scan must cover a representative half-interval of churn.
        for lpn in rng.integers(0, space.user_pages // 4, checkpoint_interval // 2):
            ftl.host_write_page(int(lpn))
    # The rail dies here: the frontiers' in-flight programs tear.
    for block in (ftl.active_user_block, ftl.active_gc_block):
        if block is not None:
            ftl.nand.tear_frontier_page(block)
    return ftl.nand.capture_durable_state()


def bench_recovery_scan(quick: bool) -> dict:
    params = SCALE["quick" if quick else "full"]
    durable = _churned_image(params)
    config = _config(params)

    walls = []
    for _ in range(params["rounds"]):
        # A power-on adopts (spends) its image: each round gets a copy.
        nand = config.restore_nand(durable.copy())
        start = time.perf_counter()
        ftl, report = recover_ftl(nand, config)
        walls.append(time.perf_counter() - start)
    best = min(walls)
    return {
        "scenario": dict(params),
        "pages_scanned": report.pages_scanned,
        "mapped_lpns": report.mapped_lpns,
        "stale_pages": report.stale_pages,
        "torn_pages": report.torn_pages,
        "wall_s": round(best, 4),
        "pages_per_sec": round(report.pages_scanned / best, 1),
        "sim_scan_ms": round(report.duration_ns / 1e6, 3),
    }


def bench_recovery_tail_scan(quick: bool) -> dict:
    """Checkpointed power-on vs the full scan, on the same crash image."""
    params = SCALE["quick" if quick else "full"]
    config = _config(params)
    # One checkpoint per 1/32nd of the device's user pages; the churn
    # then continues half an interval past the last checkpoint, so the
    # tail scan covers a representative mid-interval crash.
    interval = max(1, config.space_model().user_pages // 32)
    durable = _churned_image(params, checkpoint_interval=interval)
    # Drop the records; the reserved blocks keep their wear.
    stripped = durable.without_records()

    ckpt_walls, full_walls = [], []
    for _ in range(params["rounds"]):
        nand = config.restore_nand(durable.copy())
        start = time.perf_counter()
        ftl, ckpt_report = recover_ftl(nand, config)
        ckpt_walls.append(time.perf_counter() - start)

        nand = config.restore_nand(stripped.copy())
        start = time.perf_counter()
        ftl_full, full_report = recover_ftl(nand, config)
        full_walls.append(time.perf_counter() - start)

    if ckpt_report.full_scan:
        raise RuntimeError("checkpointed image fell back to a full scan")
    if not np.array_equal(
        ftl.page_map.l2p_snapshot(), ftl_full.page_map.l2p_snapshot()
    ):
        raise RuntimeError("tail-scan and full-scan recovery disagree on L2P")

    checkpointed_ms = ckpt_report.duration_ns / 1e6
    full_scan_ms = full_report.duration_ns / 1e6
    return {
        "scenario": dict(params, checkpoint_interval=interval),
        "checkpoint_generation": ckpt_report.checkpoint_generation,
        "meta_pages": ckpt_report.meta_pages_read,
        "tail_pages": ckpt_report.pages_scanned,
        "full_scan_pages": full_report.pages_scanned,
        "checkpointed_ms": round(checkpointed_ms, 3),
        "full_scan_ms": round(full_scan_ms, 3),
        "speedup_sim": round(full_scan_ms / checkpointed_ms, 2),
        "wall_s_checkpointed": round(min(ckpt_walls), 4),
        "wall_s_full": round(min(full_walls), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale for CI smoke runs",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write a single-run payload here instead of appending to the "
        "repo trajectory (BENCH_hotpaths.json)",
    )
    args = parser.parse_args(argv)
    repo_root = Path(__file__).resolve().parents[1]

    results = {}
    print("[bench_recovery] recovery_scan ...", flush=True)
    results["recovery_scan"] = bench_recovery_scan(args.quick)
    print(f"[bench_recovery]   {json.dumps(results['recovery_scan'])}", flush=True)
    print("[bench_recovery] recovery_tail_scan ...", flush=True)
    results["recovery_tail_scan"] = bench_recovery_tail_scan(args.quick)
    print(
        f"[bench_recovery]   {json.dumps(results['recovery_tail_scan'])}", flush=True
    )

    run = {
        "benchmark": "recovery",
        "mode": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    if args.output:
        output = Path(args.output)
        output.write_text(
            json.dumps({"schema": "bench-hotpaths/v1", **run}, indent=2) + "\n"
        )
        print(f"[bench_recovery] wrote {output}")
        return 0

    output = repo_root / "BENCH_hotpaths.json"
    entries = _load_trajectory(output)
    entries.append({
        "date": datetime.date.today().isoformat(),
        "commit": _git_commit(repo_root),
        "machine": _machine_fingerprint(),
        **run,
    })
    payload = {"schema": "bench-hotpaths/v2", "entries": entries}
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_recovery] appended entry {len(entries)} to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
