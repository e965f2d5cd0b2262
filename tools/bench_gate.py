"""Regression gate for the sweep-scaling benchmark.

Benchmark numbers are machine-dependent, so the gate judges a *ratio*
measured on the same run, which transfers across hosts: in a
``benchmarks/bench_hotpaths.py`` payload the ``--jobs 2`` sweep must
beat ``--jobs 1`` by ``MIN_JOBS_SPEEDUP`` when the measuring host
actually has >= 2 CPUs; on single-core runners the check is skipped
(and says so).  Simulator speed itself is measured end to end by
``benchmarks/e2e``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick --output /tmp/bench.json
    python tools/bench_gate.py --current /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Minimum jobs1/jobs2 wall-clock ratio demanded on multi-core hosts.
MIN_JOBS_SPEEDUP = 1.2


def _load_current(path: Path) -> dict:
    """The run under test: always a flat single-run v1 payload."""
    payload = json.loads(path.read_text())
    if payload.get("schema") != "bench-hotpaths/v1":
        raise SystemExit(f"{path}: unsupported schema {payload.get('schema')!r}")
    return payload


def check(current: dict) -> list:
    """Gate a sweep-scaling payload on the ``--jobs 2`` speedup."""
    jobs = current["results"]["sweep_jobs"]
    cpus = jobs.get("cpu_count") or current.get("cpu_count") or 1
    if cpus < 2:
        print("[bench_gate] single-CPU host: skipping --jobs scaling check")
        return []
    if jobs["speedup"] < MIN_JOBS_SPEEDUP:
        return [
            f"sweep --jobs 2 speedup {jobs['speedup']}x is below "
            f"{MIN_JOBS_SPEEDUP}x on a {cpus}-CPU host"
        ]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", type=Path, required=True, metavar="JSON",
        help="results of the run under test",
    )
    args = parser.parse_args(argv)

    failures = check(_load_current(args.current))
    if failures:
        for failure in failures:
            print(f"[bench_gate] FAIL: {failure}")
        return 1
    print("[bench_gate] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
