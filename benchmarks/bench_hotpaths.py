"""Hot-path benchmark: incremental indexes vs reference scans.

Measures the costs the indexes attack (PERFORMANCE.md) and the parallel
executor's wall-clock scaling.  Without ``--output`` the run is
*appended* to ``BENCH_hotpaths.json`` -- the repo's dated perf
trajectory (``bench-hotpaths/v2``: one entry per run with date, commit
and machine fingerprint) that ``tools/bench_gate.py`` gates against.
With ``--output PATH`` a single-run ``bench-hotpaths/v1`` payload is
written instead (what CI feeds the gate as the run under test).

* ``events_per_sec``  -- end-to-end simulator throughput (dispatched
  events per wall second of the measurement window) on a GC-heavy
  scenario, indexed vs scan (``repro.perf.scan_reference``).  Identical
  simulations -- the equivalence suite asserts bit-identical results --
  so the ratio is pure hot-path cost.
* ``victim_selection_us`` -- mean latency of one SIP-filtered victim
  selection over a populated FTL.
* ``flusher_tick_us``  -- mean latency of one flusher-tick interrogation
  (expired-dirty query + Dbuf prediction) over a large dirty set.
* ``sweep_jobs``       -- wall clock of the same 4-scenario sweep at
  ``--jobs 1`` vs ``--jobs 2`` (meaningful only on multi-core hosts;
  ``cpu_count`` is recorded so the gate can tell).

The GC-heavy scenario drives a large-population device (32k blocks in
full mode) with a buffered write-heavy uniform workload until the
over-provisioning pool churns: the JIT-GC controller polls victim state
on every device-idle transition and the measurement window performs
~1.5k victim selections.  Scan mode pays O(blocks) per ``has_victim``
poll, O(blocks log blocks) + O(rank x pages/block) per selection, and
O(dirty) per flusher tick; indexed mode answers the same questions from
the incremental indexes.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script invocation: make `repro` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import perf
from repro.core.buffered_predictor import BufferedWritePredictor
from repro.experiments.runner import (
    POLICY_FACTORIES,
    ScenarioSpec,
    _advance_tolerating_death,
    run_sweep,
)
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.victim import SipFilteredSelector
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.oskernel.cache import PageCache
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads.base import Region
from repro.workloads.synthetic import SyntheticWorkload

#: The GC-heavy seed scenario (see module docstring).  The quick variant
#: keeps the same shape at CI-smoke scale.
GC_HEAVY = {
    "full": dict(blocks=32768, pages_per_block=16, tau_s=20, warmup_s=25, measure_s=15),
    "quick": dict(blocks=12288, pages_per_block=16, tau_s=20, warmup_s=12, measure_s=10),
}


def _drive_gc_heavy(params: dict) -> dict:
    """Run the GC-heavy scenario; returns stats of the measured window.

    Prefill and warmup are excluded from the timed window -- they
    dispatch (almost) no events and would dilute the events/sec ratio
    identically on both paths.
    """
    config = SsdConfig.small(
        blocks=params["blocks"],
        pages_per_block=params["pages_per_block"],
        op_ratio=0.07,
    )
    policy = POLICY_FACTORIES["JIT-GC"]()
    user_bytes = params["blocks"] * params["pages_per_block"] * 4096
    host = HostSystem(
        config,
        policy,
        seed=42,
        cache_bytes=int(user_bytes * 0.93),
        flusher_period_ns=SECOND,
        tau_expire_ns=params["tau_s"] * SECOND,
    )
    host.prefill(host.user_pages)
    metrics = MetricsCollector(host, workload_name="Synthetic")
    workload = SyntheticWorkload(
        host,
        metrics,
        Region(0, host.user_pages),
        direct_fraction=0.0,
        write_fraction=0.95,
        min_pages=8,
        max_pages=8,
        zipf_theta=0.0,
        actors=4,
    )
    workload.start()
    _advance_tolerating_death(host, params["warmup_s"] * SECOND)
    dispatched_before = host.sim.dispatched
    selections_before = host.ftl.victim_selector.total_selections
    start = time.perf_counter()
    _advance_tolerating_death(host, params["measure_s"] * SECOND)
    elapsed = time.perf_counter() - start
    events = host.sim.dispatched - dispatched_before
    return {
        "events": events,
        "wall_s": round(elapsed, 3),
        "events_per_sec": round(events / elapsed, 1),
        "gc_selections": host.ftl.victim_selector.total_selections
        - selections_before,
        "dirty_pages": host.cache.dirty_pages,
    }


def bench_events_per_sec(quick: bool) -> dict:
    params = GC_HEAVY["quick" if quick else "full"]
    out = {"scenario": dict(params)}
    out["indexed"] = _drive_gc_heavy(params)
    with perf.scan_reference():
        out["scan"] = _drive_gc_heavy(params)
    out["speedup"] = round(
        out["indexed"]["events_per_sec"] / out["scan"]["events_per_sec"], 2
    )
    return out


def _populated_ftl() -> PageMappedFtl:
    geometry = NandGeometry(page_size=4096, pages_per_block=32, blocks_per_plane=512)
    timing = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)
    ftl = PageMappedFtl(
        NandArray(geometry, timing),
        SsdConfig(geometry=geometry, timing=timing, op_ratio=0.12),
        victim_selector=SipFilteredSelector(),
    )
    user = ftl.space.user_pages
    # Two overwrite rounds close most blocks and spread valid counts.
    for lpn in range(user // 2):
        ftl.host_write_page(lpn)
    for lpn in range(0, user // 2, 3):
        ftl.host_write_page(lpn)
    ftl.set_sip_list(range(0, user // 2, 7))
    return ftl


def bench_victim_selection(quick: bool) -> dict:
    rounds = 200 if quick else 1000
    out = {}
    for label in ("indexed", "scan"):
        if label == "indexed":
            ftl = _populated_ftl()
        else:
            with perf.scan_reference():
                ftl = _populated_ftl()
        fast = ftl.victim_index is not None
        start = time.perf_counter()
        for _ in range(rounds):
            if fast:
                ftl.victim_selector.select(
                    None,
                    ftl.page_map,
                    sip_lpns=ftl.sip_lpns,
                    excluded_blocks=ftl.retired_blocks,
                    valid_index=ftl.victim_index,
                    sip_overlap=ftl.sip_index,
                )
            else:
                ftl.victim_selector.select(
                    ftl.gc_candidates(),
                    ftl.page_map,
                    block_ages=ftl._ages(),
                    sip_lpns=ftl.sip_lpns,
                    excluded_blocks=ftl.retired_blocks,
                )
        elapsed = time.perf_counter() - start
        out[label] = {"mean_us": round(elapsed / rounds * 1e6, 2)}
    out["speedup"] = round(out["scan"]["mean_us"] / out["indexed"]["mean_us"], 2)
    return out


def bench_flusher_tick(quick: bool) -> dict:
    pages = 20_000 if quick else 100_000
    rounds = 20 if quick else 50
    period, tau = 5, 30
    out = {}
    for label in ("indexed", "scan"):
        indexed = label == "indexed"
        cache = PageCache(4096, 4 * pages * 4096, indexed=indexed)
        predictor = BufferedWritePredictor(cache, period, tau, incremental=indexed)
        for lpn in range(pages):
            cache.write_page(lpn, now=lpn % (tau + period))
        start = time.perf_counter()
        for i in range(rounds):
            now = tau + i * period
            cache.expired_dirty(now, tau)
            predictor.predict(now)
        elapsed = time.perf_counter() - start
        out[label] = {"pages": pages, "mean_us": round(elapsed / rounds * 1e6, 2)}
    out["speedup"] = round(out["scan"]["mean_us"] / out["indexed"]["mean_us"], 2)
    return out


def bench_sweep_jobs(quick: bool) -> dict:
    base = ScenarioSpec(
        blocks=128 if quick else 256,
        pages_per_block=32,
        warmup_s=5,
        measure_s=10 if quick else 30,
        seed=3,
    )
    specs = [base.with_policy(name) for name in ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC")]
    out = {"cpu_count": os.cpu_count()}
    for jobs in (1, 2):
        start = time.perf_counter()
        outcome = run_sweep(list(specs), jobs=jobs)
        elapsed = time.perf_counter() - start
        if not outcome.ok():
            raise RuntimeError(f"sweep failed at jobs={jobs}: {outcome.failures}")
        out[f"jobs{jobs}"] = {"wall_s": round(elapsed, 3)}
    out["speedup"] = round(out["jobs1"]["wall_s"] / out["jobs2"]["wall_s"], 2)
    return out


def _machine_fingerprint() -> dict:
    """Stable-ish identity of the host a trajectory entry was measured on.

    Absolute numbers are only comparable within one fingerprint; the gate
    therefore compares *ratios* (indexed/scan on the same host cancels
    the machine out) but records the fingerprint so a human reading the
    trajectory can tell which entries came from the same box.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python_implementation": platform.python_implementation(),
    }


def _git_commit(repo_root: Path) -> str:
    """Short commit hash of the measured tree (``unknown`` outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _load_trajectory(path: Path) -> list:
    """Existing trajectory entries; migrates a flat v1 payload in place."""
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    schema = payload.get("schema")
    if schema == "bench-hotpaths/v2":
        return list(payload["entries"])
    if schema == "bench-hotpaths/v1":
        # Pre-trajectory baseline: keep it as the first entry so the
        # history starts where the repo's measurements started.
        migrated = {"date": "unknown", "commit": "unknown",
                    "machine": {}}
        migrated.update(payload)
        migrated.pop("schema", None)
        return [migrated]
    raise SystemExit(f"unsupported trajectory schema {schema!r} in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale for CI smoke runs (minutes -> seconds)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write a single-run payload here instead of appending to the "
        "repo trajectory (BENCH_hotpaths.json)",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parents[1]

    results = {}
    for name, bench in (
        ("events_per_sec", bench_events_per_sec),
        ("victim_selection_us", bench_victim_selection),
        ("flusher_tick_us", bench_flusher_tick),
        ("sweep_jobs", bench_sweep_jobs),
    ):
        print(f"[bench_hotpaths] {name} ...", flush=True)
        results[name] = bench(args.quick)
        print(f"[bench_hotpaths]   {json.dumps(results[name])}", flush=True)

    run = {
        "mode": "quick" if args.quick else "full",
        # Mapping mode the measurements ran under: the gate only
        # compares like-for-like entries (dram vs dftl hot paths differ).
        "mapping": "dram",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    if args.output:
        # Single measurement for the gate's --current input (CI).
        payload = {"schema": "bench-hotpaths/v1", **run}
        output = Path(args.output)
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[bench_hotpaths] wrote {output}")
        return 0

    # Default: append a dated entry to the repo's perf trajectory.
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
    print(f"[bench_hotpaths] appended entry {len(entries)} to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
