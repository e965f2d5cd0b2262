"""Regression gate for the repo's benchmark results.

Benchmark numbers are machine-dependent, so the gate judges *ratios*
(measured on the same run), which transfer across hosts.  It picks the
rule set matching the payload's ``benchmark`` stamp:

Sweep-scaling payloads (``benchmarks/bench_hotpaths.py``): the
``--jobs 2`` sweep must beat ``--jobs 1`` by ``MIN_JOBS_SPEEDUP`` when
the measuring host actually has >= 2 CPUs; on single-core runners the
check is skipped (and says so).  Simulator speed itself is gated end to
end by ``benchmarks/e2e``.

Recovery payloads (``benchmarks/bench_recovery.py``, ``benchmark``
starting with ``"recovery"``): the gate reports both power-on-ready
times -- the full OOB scan and the checkpoint-bounded tail scan of the
same crash image -- and requires their simulated-time ratio
(``speedup_sim``) to clear ``--min-recovery-speedup`` (default 10x, the
checkpoint protocol's design target).

Warm-start payloads (``benchmarks/bench_warmstart.py``, ``benchmark``
starting with ``"warmstart"``): the gate requires the analytic
warm-start's preconditioning ``speedup`` over the simulated
prefill+warmup -- a wall-time ratio on the same host, so it transfers
-- to clear ``--min-warmstart-speedup`` (default 5x, the feature's
design target).

CMT payloads (``benchmarks/bench_cmt.py``, ``benchmark`` starting with
``"cmt"``): the gate bounds the DFTL translation tier's cost -- the
dram/dftl events-per-sec ``slowdown`` must stay under
``--max-cmt-slowdown`` (default 5x), the translation share of all
programs under ``--max-trans-share`` (default 0.5), and the dftl WAF
must not undercut the dram WAF (translation writes are real writes).

Reliability payloads (``benchmarks/bench_reliability.py``,
``benchmark`` starting with ``"reliability"``): the gate bounds what the
armed-but-quiescent data-integrity subsystem costs -- the off/armed
events-per-sec ``slowdown`` must stay under
``--max-reliability-overhead`` (default 1.03: <3 % when no data is at
risk) -- and requires the armed run to actually be quiescent (zero
scrub relocations, zero UECCs, a fast-path count covering the reads).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick --output /tmp/bench.json
    python tools/bench_gate.py --current /tmp/bench.json

    PYTHONPATH=src python benchmarks/bench_recovery.py --quick --output /tmp/rec.json
    python tools/bench_gate.py --current /tmp/rec.json
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


def check_recovery(current: dict, min_recovery_speedup: float) -> list:
    """Gate a recovery payload on its checkpointed-vs-full-scan ratio."""
    failures = []
    tail = current["results"].get("recovery_tail_scan")
    if tail is None:
        return [
            "recovery payload carries no recovery_tail_scan results "
            "(re-run benchmarks/bench_recovery.py)"
        ]
    print(
        f"[bench_gate] power-on-ready: full scan {tail['full_scan_ms']}ms "
        f"({tail['full_scan_pages']} OOB reads) vs checkpointed "
        f"{tail['checkpointed_ms']}ms ({tail['meta_pages']} meta + "
        f"{tail['tail_pages']} tail reads)"
    )
    speedup = tail["speedup_sim"]
    if speedup < min_recovery_speedup:
        failures.append(
            f"recovery_tail_scan speedup_sim {speedup}x is below the "
            f"{min_recovery_speedup}x floor"
        )
    return failures


def check_warmstart(current: dict, min_warmstart_speedup: float) -> list:
    """Gate a warm-start payload on its preconditioning speedup."""
    pre = current["results"].get("warmstart_precondition")
    if pre is None:
        return [
            "warmstart payload carries no warmstart_precondition results "
            "(re-run benchmarks/bench_warmstart.py)"
        ]
    print(
        f"[bench_gate] preconditioning: sim {pre['sim_total_s']}s vs "
        f"analytic {pre['analytic_total_s']}s across "
        f"{len(pre.get('policies', {}))} policies"
    )
    speedup = pre["speedup"]
    if speedup < min_warmstart_speedup:
        return [
            f"warmstart preconditioning speedup {speedup}x is below the "
            f"{min_warmstart_speedup}x floor"
        ]
    return []


def check_cmt(current: dict, max_cmt_slowdown: float,
              max_trans_share: float) -> list:
    """Gate a CMT-overhead payload on its dram/dftl cost ratios."""
    cmt = current["results"].get("cmt_overhead")
    if cmt is None:
        return [
            "cmt payload carries no cmt_overhead results "
            "(re-run benchmarks/bench_cmt.py)"
        ]
    dftl = cmt["dftl"]
    print(
        f"[bench_gate] cmt overhead: dram "
        f"{cmt['dram']['events_per_sec']} ev/s vs dftl "
        f"{dftl['events_per_sec']} ev/s (slowdown {cmt['slowdown']}x); "
        f"hit rate {dftl['cmt_hit_rate']:.2%}, translation share "
        f"{dftl['trans_share']:.2%}, WAF delta {cmt['waf_delta']:+}"
    )
    failures = []
    if cmt["slowdown"] > max_cmt_slowdown:
        failures.append(
            f"cmt_overhead slowdown {cmt['slowdown']}x exceeds the "
            f"{max_cmt_slowdown}x ceiling"
        )
    if dftl["trans_share"] > max_trans_share:
        failures.append(
            f"translation share {dftl['trans_share']} of all programs "
            f"exceeds the {max_trans_share} ceiling"
        )
    # The scenario is time-bounded, so the dftl run completes fewer host
    # ops in the same sim window and the two WAFs are not the same
    # replay; what must hold is that translation programs contribute a
    # visible share of the dftl WAF at all.
    if dftl["trans_pages_written"] > 0 and dftl["trans_share"] <= 0.0:
        failures.append(
            "translation pages were written but their WAF share is zero "
            "-- translation writes are not being priced into WAF"
        )
    return failures


def check_reliability(current: dict, max_reliability_overhead: float) -> list:
    """Gate a reliability payload on its quiescent-overhead ratio."""
    rel = current["results"].get("reliability_overhead")
    if rel is None:
        return [
            "reliability payload carries no reliability_overhead results "
            "(re-run benchmarks/bench_reliability.py)"
        ]
    armed = rel["armed"]
    print(
        f"[bench_gate] reliability overhead: off "
        f"{rel['off']['events_per_sec']} ev/s vs armed "
        f"{armed['events_per_sec']} ev/s (slowdown {rel['slowdown']}x); "
        f"{armed['ecc_fast_reads']} fast reads, "
        f"{armed['scrub_blocks_refreshed']} scrubs, "
        f"{armed['uecc_count']} UECCs, WAF delta {rel['waf_delta']:+}"
    )
    failures = []
    if rel["slowdown"] > max_reliability_overhead:
        failures.append(
            f"reliability_overhead slowdown {rel['slowdown']}x exceeds the "
            f"{max_reliability_overhead}x ceiling (quiescent subsystem must "
            "cost <3% events/sec)"
        )
    # The bound only means anything if the armed run really was
    # quiescent: a run where the scrubber fired or data decayed is
    # measuring refresh work, not bookkeeping overhead.
    if armed["scrub_blocks_refreshed"] != 0:
        failures.append(
            f"armed run refreshed {armed['scrub_blocks_refreshed']} blocks "
            "-- not a no-data-at-risk measurement (wrong profile or scale?)"
        )
    if armed["uecc_count"] != 0:
        failures.append(
            f"armed run saw {armed['uecc_count']} UECCs -- the mlc-20nm "
            "profile must stay below the ECC cliff over a benchmark run"
        )
    if armed["ecc_fast_reads"] <= 0:
        failures.append(
            "armed run counted no fast-path reads -- the ladder is not "
            "actually installed on the read path"
        )
    return failures


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
    parser.add_argument(
        "--min-recovery-speedup", type=float, default=10.0,
        help="floor for a recovery payload's checkpointed-vs-full-scan "
        "simulated-time ratio (default: 10x)",
    )
    parser.add_argument(
        "--min-warmstart-speedup", type=float, default=5.0,
        help="floor for a warmstart payload's analytic-vs-simulated "
        "preconditioning wall-time ratio (default: 5x)",
    )
    parser.add_argument(
        "--max-cmt-slowdown", type=float, default=5.0,
        help="ceiling for a cmt payload's dram/dftl events-per-sec "
        "ratio (default: 5x)",
    )
    parser.add_argument(
        "--max-trans-share", type=float, default=0.5,
        help="ceiling for the translation-page share of all programs in "
        "a cmt payload's dftl run (default: 0.5)",
    )
    parser.add_argument(
        "--max-reliability-overhead", type=float, default=1.03,
        help="ceiling for a reliability payload's off/armed events-per-sec "
        "ratio when no data is at risk (default: 1.03, i.e. <3%%)",
    )
    args = parser.parse_args(argv)

    current = _load_current(args.current)
    benchmark = str(current.get("benchmark", ""))
    if benchmark.startswith("recovery"):
        failures = check_recovery(current, args.min_recovery_speedup)
    elif benchmark.startswith("warmstart"):
        failures = check_warmstart(current, args.min_warmstart_speedup)
    elif benchmark.startswith("reliability"):
        failures = check_reliability(current, args.max_reliability_overhead)
    elif benchmark.startswith("cmt"):
        failures = check_cmt(current, args.max_cmt_slowdown, args.max_trans_share)
    else:
        failures = check(current)
    if failures:
        for failure in failures:
            print(f"[bench_gate] FAIL: {failure}")
        return 1
    print("[bench_gate] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
