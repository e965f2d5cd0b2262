"""Sweep-scaling benchmark and the shared ``BENCH_hotpaths.json`` helpers.

Measures the parallel executor's wall-clock scaling: the same
4-scenario sweep at ``--jobs 1`` vs ``--jobs 2`` (meaningful only on
multi-core hosts; ``cpu_count`` is recorded so the gate can tell).
Without ``--output`` the run is *appended* to ``BENCH_hotpaths.json`` --
the repo's dated, append-only perf trajectory (``bench-hotpaths/v2``:
one entry per run with date, commit and machine fingerprint).  With
``--output PATH`` a single-run ``bench-hotpaths/v1`` payload is written
instead (what CI feeds ``tools/bench_gate.py``).

The trajectory helpers (:func:`_load_trajectory`, :func:`_git_commit`,
:func:`_machine_fingerprint`) are shared with ``bench_recovery.py``,
``bench_cmt.py``, ``bench_warmstart.py`` and ``bench_reliability.py``.
Simulator speed itself is measured end to end by ``benchmarks/e2e``.

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

from repro.experiments.runner import ScenarioSpec, run_sweep


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

    Absolute numbers are only comparable within one fingerprint, so it
    is recorded beside every entry for a human reading the trajectory.
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

    print("[bench_hotpaths] sweep_jobs ...", flush=True)
    results = {"sweep_jobs": bench_sweep_jobs(args.quick)}
    print(f"[bench_hotpaths]   {json.dumps(results['sweep_jobs'])}", flush=True)

    run = {
        "mode": "quick" if args.quick else "full",
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
