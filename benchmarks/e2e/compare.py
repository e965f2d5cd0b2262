#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` files under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py --a parent_*.json --b change_*.json

One row per workload x end-to-end metric with each side's median and
quartiles, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     every run of B reads better than every run of A;
* ``unresolved`` the run-to-run spread (interquartile range over the
  median, the wider side) exceeds the bound and the runs do not separate
  completely, so the data cannot tell ``same`` from ``worse``;
* ``same``       otherwise.

Simulated metrics repeat exactly for a fixed seed, so each workload also
gets a ``sim_digest`` row: ``identical`` when A and B agree on every seed
they share.  Exits 1 when any row is ``worse`` or any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(paths: List[str]) -> List[dict]:
    documents = []
    for path in paths:
        document = json.loads(Path(path).read_text())
        if document["smoke"] or document["seconds"] != SPEC["run_seconds"]:
            raise SystemExit(
                f"{path}: windows of --seconds {document['seconds']:g} are not the "
                f"benchmark's ({SPEC['run_seconds']}); smoke runs are not comparable"
            )
        if document["traced"]:
            raise SystemExit(f"{path}: end-to-end numbers never come from a traced run")
        documents.append(document)
    return documents


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, how much worse B's median is, as a share of A's)``."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if sorted(a) == sorted(b) or (len(set(a)) == 1 and set(a) == set(b)):
        return "same", worse_by  # exact, as simulated metrics are per seed
    b_all_better = max(sign * v for v in b) < min(sign * v for v in a)
    b_all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if b_all_better:
        return "better", worse_by
    spread = max(
        (q3a - q1a) / abs(med_a) if med_a else 0.0,
        (q3b - q1b) / abs(med_b) if med_b else 0.0,
    )
    if spread > bound and not b_all_worse:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "same"), worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--a", nargs="+", required=True, help="result files of side A (parent)")
    parser.add_argument("--b", nargs="+", required=True, help="result files of side B (change)")
    args = parser.parse_args(argv)
    side_a, side_b = load(args.a), load(args.b)

    def cells(side: List[dict], workload: str) -> List[dict]:
        return [d["workloads"][workload] for d in side if workload in d["workloads"]]

    regressions = failures = 0
    print(
        f"{'workload':<14} {'metric':<20} {'unit':<6} "
        f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'B worse by':>11} {'bound':>6}  verdict"
    )
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs_a, runs_b = cells(side_a, workload), cells(side_b, workload)
        if not runs_a or not runs_b:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in runs_a]
            b = [run["end_to_end"][name] for run in runs_b]
            word, worse_by = verdict(a, b, metric["better"], metric["bound"])
            regressions += word == "worse"
            (q1a, ma, q3a), (q1b, mb, q3b) = quartiles(a), quartiles(b)
            print(
                f"{workload:<14} {name:<20} {metric['unit']:<6} "
                f"{ma:>12.6g} [{q1a:>9.5g},{q3a:>9.5g}] "
                f"{mb:>12.6g} [{q1b:>9.5g},{q3b:>9.5g}] "
                f"{100 * worse_by:>+10.2f}% {100 * metric['bound']:>5.1f}%  {word}"
            )
        digests: Dict[int, set] = {}
        for run in runs_a + runs_b:
            digests.setdefault(run["seed"], set()).add(run["sim_digest"])
        shared = {r["seed"] for r in runs_a} & {r["seed"] for r in runs_b}
        differing = sorted(seed for seed in shared if len(digests[seed]) > 1)
        print(
            f"{workload:<14} {'sim_digest':<20} {'':<6} "
            + (
                f"identical on seeds {sorted(shared)}"
                if shared and not differing
                else f"DIFFERS on seeds {differing}" if differing else "no shared seed"
            )
        )
        bad = [run for run in runs_a + runs_b if not run["correct"] or run["failed"]]
        failures += len(bad)
        noisy = sum(run["noisy"] for run in runs_a + runs_b)
        print(
            f"{workload:<14} {'runs':<20} {'':<6} A={len(runs_a)} B={len(runs_b)} "
            f"failed_checks={len(bad)} noisy={noisy}"
        )
    return 1 if regressions or failures else 0


if __name__ == "__main__":
    sys.exit(main())
