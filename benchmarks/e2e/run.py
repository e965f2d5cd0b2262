#!/usr/bin/env python3
"""Run the end-to-end benchmark series and print every metric by name.

    python3 benchmarks/e2e/run.py --seed 42 --out results.json
    python3 benchmarks/e2e/run.py --workload gc-direct --seed 7 --trace 1

Each workload runs in a fresh single-threaded subprocess (``cell.py``).
``--trace 0`` (default) times the window with tracing off and prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the window
once untraced and once with spans around each layer's public functions,
and prints the per-layer metrics.  The exit code is non-zero when any
output check fails.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-ups per untraced run, each in its own process (so that peak RSS
#: is one host's); ``setup_s`` is their median and the last one measures.
SETUPS = 3
#: A child that is still running after this long is killed.
CHILD_TIMEOUT_S = 170
SMOKE_DIVISOR = 20

#: Percentile metrics are printed with the sample count they rest on.
SAMPLE_COUNT_OF = {
    "sim_lat_p50_us": "latency_ops",
    "sim_lat_p99_ms": "latency_ops",
    "sim_recovery_ms_p50": "recovery_points",
    "sim_recovery_ms_p95": "recovery_points",
    "metrics.lat_p999_ms": "latency_ops",
    "metrics.lat_p9999_ms": "latency_ops",
}


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    setup_only: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """One ``cell.py`` process; returns the JSON object it printed last."""
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.cell",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(int(traced)),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", os.path.abspath(trace_out)]
    env = dict(
        os.environ,
        # Fixed hash seed and one numeric thread: a second run of the
        # same commit must take the same path through the same code.
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
    )
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: cell exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, trace_out: Optional[str]
) -> dict:
    """The cell's result, with ``metrics`` set to what this mode reports."""
    if not traced:
        setups = [
            run_child(workload, seed, seconds, setup_only=True)["setup_s"]
            for _ in range(SETUPS - 1)
        ]
        cell = run_child(workload, seed, seconds)
        setups.append(cell["end_to_end"]["setup_s"])
        cell["end_to_end"]["setup_s"] = statistics.median(setups)
        cell["diagnostics"]["setups_s"] = setups
        cell["metrics"] = cell["end_to_end"]
        return cell
    # End-to-end numbers never come from a traced run: the same window
    # runs untraced first, and the difference is the tracing overhead.
    plain = run_child(workload, seed, seconds)
    cell = run_child(workload, seed, seconds, traced=True, trace_out=trace_out)
    cell["per_layer"]["obs.trace_overhead_pct"] = (
        100.0 * (cell["end_to_end"]["wall_s"] - plain["end_to_end"]["wall_s"])
    ) / plain["end_to_end"]["wall_s"]
    cell["checks"]["tracing_preserves_sim"] = (
        ""
        if cell["sim_digest"] == plain["sim_digest"]
        else f"traced digest {cell['sim_digest'][:12]} != untraced {plain['sim_digest'][:12]}"
    )
    cell["checks"].update(
        {f"untraced.{name}": failure for name, failure in plain["checks"].items() if failure}
    )
    cell["correct"] = not any(cell["checks"].values())
    cell["untraced_wall_s"] = plain["end_to_end"]["wall_s"]
    cell["metrics"] = cell["per_layer"]
    return cell


def declared(traced: bool) -> List[dict]:
    return SPEC["per_layer" if traced else "end_to_end"]


def check_declared(cell: dict, traced: bool) -> None:
    """The output and BENCHMARK.json must name exactly the same metrics."""
    want = {metric["name"] for metric in declared(traced)}
    got = set(cell["metrics"])
    if want != got:
        cell["checks"]["metrics_match_benchmark_json"] = (
            f"missing {sorted(want - got)}, undeclared {sorted(got - want)}"
        )
        cell["correct"] = False


def print_cell(cell: dict, traced: bool) -> None:
    diag = cell["diagnostics"]
    print(
        f"== {cell['workload']}  seed={cell['seed']}  seconds={cell['seconds']:g}"
        f"  {'traced' if traced else 'untraced'}"
        f"{'  NOISY' if cell['noisy'] else ''}"
    )
    for metric in declared(traced):
        name = metric["name"]
        line = f"  {name:<38} {cell['metrics'][name]:>16.6g} {metric['unit']}"
        if name in SAMPLE_COUNT_OF:
            line += f"   (n={diag[SAMPLE_COUNT_OF[name]]})"
        print(line)
    print(
        f"  attempted={cell['attempted']} failed={cell['failed']} ops={cell['ops']}"
        f"  sim_window_s={diag['sim_window_s']:g}  sim_events={diag['sim_events']}"
    )
    fastest, median, slowest = diag["host_kernel_ms"]
    print(
        f"  host_kernel_ms={fastest:.2f}/{median:.2f}/{slowest:.2f} (min/median/max"
        f" over {diag['slices']} slices)  wall_raw_s={diag['wall_raw_s']:.3f}"
        f"  cpu_s={diag['cpu_s']:.3f}  setup_raw_s={diag['setup_raw_s']:.3f}"
    )
    print(f"  sim_digest={cell['sim_digest']}")
    for name, failure in cell["checks"].items():
        print(f"  check {name}: {'ok' if not failure else 'FAILED -- ' + failure}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds",
        type=float,
        default=SPEC["run_seconds"],
        help="nominal window length; windows are fixed simulated work that "
        "scales with it (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"every window / {SMOKE_DIVISOR} (self-test scale; compare.py refuses it)",
    )
    parser.add_argument("--out", help="write every cell's full result here (JSON)")
    parser.add_argument(
        "--trace-out", help="with --trace 1: write <prefix>.<workload>.json span tables"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds / SMOKE_DIVISOR if args.smoke else args.seconds
    traced = bool(args.trace)
    selected = [args.workload] if args.workload else names

    cells: Dict[str, dict] = {}
    for name in selected:
        trace_out = f"{args.trace_out}.{name}.json" if args.trace_out and traced else None
        cell = run_workload(name, args.seed, seconds, traced, trace_out)
        check_declared(cell, traced)
        print_cell(cell, traced)
        cells[name] = cell

    if args.out:
        document = {
            "schema": 1,
            "seed": args.seed,
            "seconds": seconds,
            "smoke": seconds < SPEC["run_seconds"],
            "traced": traced,
            "workloads": cells,
        }
        Path(args.out).write_text(json.dumps(document, indent=1))

    units = {metric["name"]: metric["unit"] for metric in declared(traced)}
    single = len(selected) == 1
    summary = {
        "correct": all(cell["correct"] for cell in cells.values()),
        "attempted": sum(cell["attempted"] for cell in cells.values()),
        "failed": sum(cell["failed"] for cell in cells.values()),
        "metrics": {
            (name if single else f"{workload}.{name}"): {"value": value, "unit": units[name]}
            for workload, cell in cells.items()
            for name, value in cell["metrics"].items()
            if name in units
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
