"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's experiment entry points so every paper
artifact can be regenerated from a shell:

* ``run``      -- one (workload, policy) scenario, metrics printed.
* ``compare``  -- the four-policy Fig. 7 comparison on one workload.
* ``fig2`` / ``fig7`` / ``table1`` / ``table2`` / ``table3``
               -- the full paper artifacts.
* ``oracle``   -- JIT-GC vs the ideal (future-knowing) policy.
* ``sweep``    -- many scenarios with fault isolation and checkpointing.
* ``crash-sweep`` -- exhaustive power-loss crash-point verification.
* ``latency-report`` -- tail-latency percentiles + per-cause attribution
               across policies on a GC-heavy scenario.
* ``lifetime-report`` -- measured WAF -> years-to-ECC-cliff projection
               per policy (the paper's "long lifetimes" claim).
* ``list``     -- available workloads and policies.

Scenario flags are not declared here: each is a
:class:`~repro.experiments.ScenarioSpec` field whose metadata holds its
spelling, help, choices and converter.  A subcommand names the fields it
exposes and a base spec their defaults come from, and builds its
scenario as one ``replace`` of that base.  Only the flags that configure
a command rather than a scenario are written out below.

Power-loss emulation rides on ``run``: ``--spo-at T`` cuts power at
simulated second T (repeatable), ``--spo-random N`` adds N seeded
random cuts in the measurement window; the device recovers from its
OOB metadata and the workload resumes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro import __version__
from repro.experiments import (
    POLICY_FACTORIES,
    ScenarioSpec,
    format_table,
    gc_heavy_spec,
    normalize_to,
    run_crash_sweep,
    run_latency_report,
    run_lifetime_report,
    run_fig2,
    run_fig7,
    run_oracle_comparison,
    run_policy_comparison,
    run_scenario,
    run_scenario_with_spo,
    run_sweep,
    run_table1,
    run_table2,
    run_table3,
)
from repro.faults import FAULT_PROFILES, SpoPlan
from repro.obs import TRACE_FORMATS, ObservabilityConfig
from repro.sim.simtime import SECOND
from repro.workloads import WORKLOADS

#: The run family (``run``, ``compare``, ``oracle``, the artifacts and
#: ``sweep``) measures shorter windows than ``ScenarioSpec()``.
_RUN_BASE = ScenarioSpec(warmup_s=20, measure_s=60, fault_profile="none")
_RUN_FLAGS = (
    "workload", "blocks", "pages_per_block", "warmup_s", "measure_s", "seed",
    "warm_start", "fault_profile", "mapping", "cmt_budget_bytes",
    "reliability", "checkpoint_interval", "checkpoint_policy",
)
#: crash-sweep's ``--faults`` defaults to the name "none", as the run family's.
_CRASH_BASE = gc_heavy_spec(fault_profile="none")
_CRASH_FLAGS = (
    "blocks", "pages_per_block", "measure_s", "warmup_s", "seed", "warm_start",
    "fault_profile", "mapping", "cmt_budget_bytes", "reliability",
    "checkpoint_interval",
)
_REPORT_BASE = gc_heavy_spec()
_REPORT_FLAGS = (
    "workload", "blocks", "pages_per_block", "measure_s", "seed", "mapping",
    "cmt_budget_bytes", "reliability",
)
# The report defaults to a working set below the crash sweep's 0.9:
# with idle headroom available, just-in-time background collection
# can actually differ from lazy collection -- at 0.9 every policy is
# pinned at the FGC watermark and the attribution tables converge.
_LATENCY_BASE = replace(_REPORT_BASE, working_set_fraction=0.75)
_LATENCY_FLAGS = _REPORT_FLAGS + ("working_set_fraction",)


def _add_spec_args(
    parser: argparse.ArgumentParser, base: ScenarioSpec, names: Sequence[str]
) -> None:
    """One flag per named field, as its metadata declares, defaulting to
    ``base``'s value."""
    fields = {f.name: f for f in dataclasses.fields(ScenarioSpec)}
    for name in names:
        meta = fields[name].metadata
        parser.add_argument(
            meta["flag"], dest=name, default=getattr(base, name), **meta["argparse"]
        )


def _spec_from(
    args: argparse.Namespace, base: ScenarioSpec, names: Sequence[str], **extra
) -> ScenarioSpec:
    """``base`` with each named field set from its parsed flag."""
    flags = vars(args)
    try:
        return replace(base, **{name: flags[name] for name in names}, **extra)
    except ValueError as exc:
        raise SystemExit(f"repro {args.command}: {exc}")


def _add_obs_args(
    parser: argparse.ArgumentParser,
    trace_help: str = "write a simulation trace to PATH (see OBSERVABILITY.md)",
    sampling: bool = True,
) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH", help=trace_help)
    parser.add_argument(
        "--trace-format", default="jsonl", choices=TRACE_FORMATS,
        help="trace file format: jsonl, or chrome (Perfetto-loadable)",
    )
    if sampling:
        parser.add_argument(
            "--metrics-interval", type=float, default=1.0, metavar="S",
            help="sim-time registry sampling period in seconds (0 disables)",
        )
        parser.add_argument(
            "--profile", action="store_true",
            help="profile event-loop wall time and print the report",
        )


def _add_scenario_args(parser: argparse.ArgumentParser, *names: str) -> None:
    """The run family's flags: its scenario fields, ``names``, observability."""
    _add_spec_args(parser, _RUN_BASE, _RUN_FLAGS + names)
    _add_obs_args(parser)


def _scenario_spec(args: argparse.Namespace, *names: str) -> ScenarioSpec:
    """The spec built from :func:`_add_scenario_args`'s flags."""
    obs = None
    if args.trace is not None or args.profile:
        obs = ObservabilityConfig(
            trace_path=args.trace,
            trace_format=args.trace_format,
            metrics_interval_ns=int(args.metrics_interval * SECOND),
            profile=args.profile,
            audit=args.trace is not None,
        )
    return _spec_from(args, _RUN_BASE, _RUN_FLAGS + names, obs=obs)


def _echo_run_header(spec: ScenarioSpec) -> None:
    """State the resolved seed (and fault profile) so every printed
    result is reproducible from its own transcript."""
    print(f"seed={spec.seed} faults={spec.fault_tag()}")


def _print_metrics(metrics) -> None:
    rows = [
        ["IOPS", f"{metrics.iops:.1f}"],
        ["WAF", f"{metrics.waf:.3f}"],
        ["host pages written", metrics.host_pages_written],
        ["GC pages migrated", metrics.gc_pages_migrated],
        ["FGC invocations", metrics.fgc_invocations],
        ["FGC stall time (s)", f"{metrics.fgc_time_ns / 1e9:.2f}"],
        ["BGC blocks", metrics.bgc_blocks],
        ["erases", metrics.erases],
        ["buffered write share", f"{metrics.buffered_fraction:.1%}"],
        ["mean op latency (ms)", f"{metrics.mean_latency_ns / 1e6:.3f}"],
        ["p50 op latency (ms)", f"{metrics.p50_latency_ns / 1e6:.3f}"],
        ["p95 op latency (ms)", f"{metrics.p95_latency_ns / 1e6:.3f}"],
        ["p99 op latency (ms)", f"{metrics.p99_latency_ns / 1e6:.3f}"],
        ["p999 op latency (ms)", f"{metrics.p999_latency_ns / 1e6:.3f}"],
        ["p9999 op latency (ms)", f"{metrics.p9999_latency_ns / 1e6:.3f}"],
        ["max op latency (ms)", f"{metrics.max_latency_ns / 1e6:.3f}"],
    ]
    if metrics.mapping_mode == "dftl":
        rows.extend(
            [
                ["mapping mode", metrics.mapping_mode],
                ["CMT hits/misses", f"{metrics.cmt_hits}/{metrics.cmt_misses}"],
                ["CMT hit rate", f"{metrics.cmt_hit_rate():.1%}"],
                [
                    "translation pages written",
                    metrics.trans_pages_written + metrics.trans_pages_migrated,
                ],
                [
                    "translation WAF share",
                    f"{metrics.translation_waf_share:.1%}",
                ],
            ]
        )
    if metrics.tail_causes:
        causes = ", ".join(
            f"{cause}={pair[0]}"
            for cause, pair in metrics.tail_causes.items()
            if pair[0]
        )
        rows.append(
            [
                f"tail ops >= p{metrics.tail_threshold_pct:g}",
                f"{metrics.tail_slow_ops} ({causes or 'none'})",
            ]
        )
    if metrics.trim_count:
        rows.append(["pages trimmed", metrics.trim_count])
    if metrics.prediction_accuracy_pct is not None:
        rows.append(["prediction accuracy", f"{metrics.prediction_accuracy_pct:.1f}%"])
    if metrics.sip_selections:
        rows.append(
            ["SIP-filtered victims", f"{metrics.sip_filtered}/{metrics.sip_selections}"]
        )
    if metrics.injected_faults or metrics.blocks_retired or metrics.device_read_only:
        rows.extend(
            [
                ["injected faults", metrics.injected_faults],
                ["read retries", metrics.read_retries],
                ["uncorrectable reads", metrics.uncorrectable_reads],
                ["program faults", metrics.program_faults],
                ["erase faults", metrics.erase_faults],
                ["blocks retired", metrics.blocks_retired],
                ["effective OP pages", metrics.effective_op_pages],
                ["device read-only", "yes" if metrics.device_read_only else "no"],
            ]
        )
    if metrics.ecc_fast_reads or metrics.ecc_retry_reads or metrics.uecc_count:
        ladder = ", ".join(
            f"L{level}={count}"
            for level, count in sorted(
                metrics.ecc_retry_histogram.items(), key=lambda kv: int(kv[0])
            )
        )
        rows.extend(
            [
                ["ECC fast reads", metrics.ecc_fast_reads],
                ["ECC retry reads", f"{metrics.ecc_retry_reads} ({ladder or '-'})"],
                ["ECC soft decodes", metrics.ecc_soft_decodes],
                ["UECC (data lost)", metrics.uecc_count],
                [
                    "scrub refreshes",
                    f"{metrics.scrub_blocks_refreshed} blocks / "
                    f"{metrics.scrub_pages_migrated} pages",
                ],
            ]
        )
    print(
        format_table(
            ["Metric", "Value"], rows, title=f"{metrics.workload} / {metrics.policy}"
        )
    )


def _spo_plan_from(args: argparse.Namespace) -> SpoPlan:
    try:
        return SpoPlan(
            at_ns=tuple(int(t * SECOND) for t in args.spo_at or ()),
            random_cuts=args.spo_random,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"repro run: invalid SPO plan: {exc}")


def cmd_run(args: argparse.Namespace) -> int:
    spec = _scenario_spec(args, "policy")
    _echo_run_header(spec)
    plan = _spo_plan_from(args)
    if plan.enabled:
        outcome = run_scenario_with_spo(spec, plan)
        metrics = outcome.metrics
        for cut, report in zip(outcome.cuts, outcome.reports):
            mode = (
                "full scan"
                if report.full_scan
                else f"checkpoint gen {report.checkpoint_generation} + tail"
            )
            print(
                f"power cut at {cut.t_ns / 1e9:.3f}s: {len(cut.torn)} torn "
                f"pages, {cut.events_dropped} events dropped; recovered "
                f"{report.mapped_lpns} LPNs in {report.duration_ns / 1e6:.1f}ms "
                f"({mode}, {report.pages_scanned} OOB reads)"
            )
        _print_metrics(metrics)
        print(
            f"survived {metrics.spo_count} power cuts; total recovery "
            f"{metrics.recovery_time_ns / 1e6:.1f}ms"
        )
    else:
        _print_metrics(run_scenario(spec))
    return 0


def cmd_crash_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from(args, gc_heavy_spec(trim_heavy=args.trim_heavy), _CRASH_FLAGS)
    _echo_run_header(spec)
    ticks = {"n": 0}

    def progress(check) -> None:
        ticks["n"] += 1
        if not check.ok:
            print(f"point {check.index} @ {check.t_ns}ns FAILED: {check.error}")
        elif ticks["n"] % 25 == 0:
            print(
                f"{ticks['n']} points verified "
                f"(t={check.t_ns / 1e9:.2f}s, {check.torn_pages} torn)"
            )

    try:
        result = run_crash_sweep(
            spec,
            points=args.points,
            stride_events=args.stride,
            progress=progress,
            nested_every=args.nested_every,
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise SystemExit(f"repro {args.command}: {exc}")
    print(result.summary())
    nested = sum(1 for p in result.points if p.nested)
    if nested:
        print(f"{nested} points also verified crash-during-recovery")
    return 0 if result.ok() else 1


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _scenario_spec(args)
    _echo_run_header(spec)
    results = run_policy_comparison(spec, jobs=args.jobs)
    iops = normalize_to({p: m.iops for p, m in results.items()}, "A-BGC")
    waf = normalize_to({p: m.waf for p, m in results.items()}, "A-BGC")
    rows = [
        [p, m.iops, iops[p], m.waf, waf[p], m.fgc_invocations, m.bgc_blocks]
        for p, m in results.items()
    ]
    print(
        format_table(
            ["Policy", "IOPS", "/A-BGC", "WAF", "/A-BGC", "FGC", "BGC"],
            rows,
            title=f"Policy comparison on {args.workload}",
        )
    )
    return 0


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for scenario execution (0 = adaptive: one "
        "per usable CPU, capped at the scenario count; 1 = in-process; "
        "results are identical, only wall-clock changes — see PERFORMANCE.md)",
    )


def _artifact_command(runner):
    def command(args: argparse.Namespace) -> int:
        print(runner(_scenario_spec(args)).format())
        return 0

    return command


def cmd_fig2(args: argparse.Namespace) -> int:
    print(run_fig2(_scenario_spec(args), jobs=args.jobs).format())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _scenario_spec(args)
    specs = [base.with_policy(name) for name in sorted(POLICY_FACTORIES)]
    _echo_run_header(base)
    outcome = run_sweep(
        specs,
        checkpoint=args.checkpoint,
        resume=not args.no_resume,
        timeout_s=args.timeout,
        on_result=lambda key, m: print(f"done {key}: {m.iops:.1f} IOPS"),
        jobs=args.jobs,
    )
    for key in outcome.skipped:
        print(f"skipped {key} (already in checkpoint)")
    for key, error in outcome.failures.items():
        print(f"FAILED {key}: {error}")
    rows = [
        [key, f"{m.iops:.1f}", f"{m.waf:.3f}", m.blocks_retired,
         "yes" if m.device_read_only else "no"]
        for key, m in outcome.results.items()
    ]
    print(
        format_table(
            ["Scenario", "IOPS", "WAF", "Retired", "Read-only"],
            rows,
            title=f"Sweep on {base.workload} (faults={base.fault_profile})",
        )
    )
    return 0 if outcome.ok() else 1


def cmd_latency_report(args: argparse.Namespace) -> int:
    obs = None
    if args.trace is not None:
        obs = ObservabilityConfig(trace_path=args.trace, trace_format=args.trace_format)
    spec = _spec_from(args, _LATENCY_BASE, _LATENCY_FLAGS, obs=obs)
    policies = None
    if args.policies:
        names = [name.strip() for name in args.policies.split(",") if name.strip()]
        unknown = [name for name in names if name not in POLICY_FACTORIES]
        if unknown:
            raise SystemExit(
                f"repro latency-report: unknown policies {unknown}; "
                f"known: {sorted(POLICY_FACTORIES)}"
            )
        policies = {name: POLICY_FACTORIES[name] for name in names}
    _echo_run_header(spec)
    result = run_latency_report(
        spec, policies, jobs=args.jobs, threshold_pct=args.threshold_pct
    )
    print(result.format())
    return 0 if result.attribution_ok() else 1


def cmd_lifetime_report(args: argparse.Namespace) -> int:
    spec = _spec_from(args, _REPORT_BASE, _REPORT_FLAGS)
    _echo_run_header(spec)
    result = run_lifetime_report(
        spec,
        jobs=args.jobs,
        reliability_profile=args.lifetime_profile,
        uber_target=args.uber_target,
        retention_target_s=args.retention_days * 86_400.0,
        drive_writes_per_day=args.dwpd,
    )
    print(result.format())
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads:", ", ".join(WORKLOADS))
    print("policies :", ", ".join(POLICY_FACTORIES))
    print("faults   :", ", ".join(sorted(FAULT_PROFILES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JIT-GC (DAC 2015) reproduction harness",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one (workload, policy) scenario")
    _add_scenario_args(run_parser, "policy")
    run_parser.add_argument(
        "--spo-at", type=float, action="append", default=None, metavar="S",
        help="cut power at simulated second S and recover (repeatable)",
    )
    run_parser.add_argument(
        "--spo-random", type=int, default=0, metavar="N",
        help="additionally cut power at N seeded-random instants in the "
        "measurement window",
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare", help="four-policy comparison")
    _add_scenario_args(compare_parser)
    _add_jobs_arg(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    fig2_parser = sub.add_parser("fig2", help="reserved-capacity sweep (paper Fig. 2)")
    _add_scenario_args(fig2_parser)
    _add_jobs_arg(fig2_parser)
    fig2_parser.set_defaults(func=cmd_fig2)

    for name, runner, help_text in (
        ("oracle", run_oracle_comparison, "JIT-GC vs the ideal policy"),
        ("fig7", run_fig7, "four policies x six benchmarks (paper Fig. 7)"),
        ("table1", run_table1, "buffered/direct write mix (paper Table 1)"),
        ("table2", run_table2, "prediction accuracy (paper Table 2)"),
        ("table3", run_table3, "SIP victim filtering (paper Table 3)"),
    ):
        artifact_parser = sub.add_parser(name, help=help_text)
        _add_scenario_args(artifact_parser)
        artifact_parser.set_defaults(func=_artifact_command(runner))

    sweep_parser = sub.add_parser(
        "sweep", help="all policies on one workload, isolated + checkpointed"
    )
    _add_scenario_args(sweep_parser)
    sweep_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist per-scenario results here; resumable after a crash",
    )
    sweep_parser.add_argument(
        "--no-resume", action="store_true",
        help="re-run scenarios even if the checkpoint already has them",
    )
    sweep_parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per scenario (seconds)",
    )
    _add_jobs_arg(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    crash_parser = sub.add_parser(
        "crash-sweep",
        help="verify crash-consistent recovery at many crash points of a "
        "GC-heavy run",
    )
    _add_spec_args(crash_parser, _CRASH_BASE, _CRASH_FLAGS)
    crash_parser.add_argument(
        "--points", type=int, default=100, metavar="N",
        help="crash points to verify (default: 100)",
    )
    crash_parser.add_argument(
        "--stride", type=int, default=512, metavar="EVENTS",
        help="simulator events between crash points (default: 512)",
    )
    crash_parser.add_argument(
        "--trim-heavy", action="store_true",
        help="run the synthetic workload with 25%% discards, so crash "
        "points land around TRIM journal writes",
    )
    crash_parser.add_argument(
        "--nested-every", type=int, default=0, metavar="K",
        help="every K-th point, also crash the recovery itself (torn "
        "post-recovery checkpoint) and verify the second power-on "
        "(0 = off)",
    )
    crash_parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="processes that split the points, at most 2 whatever is "
        "asked: a forked rank verifies the head and replays the run that "
        "far, this one replays the whole run and verifies the tail (0 = "
        "adaptive: one per usable CPU; 1 = in-process; results are "
        "identical, only wall-clock changes — see PERFORMANCE.md)",
    )
    crash_parser.set_defaults(func=cmd_crash_sweep)

    latency_parser = sub.add_parser(
        "latency-report",
        help="tail-latency percentiles + per-cause attribution across "
        "policies on a GC-heavy scenario",
    )
    _add_spec_args(latency_parser, _LATENCY_BASE, _LATENCY_FLAGS)
    latency_parser.add_argument(
        "--policies", default=None, metavar="A,B",
        help="comma-separated policy subset (default: all four)",
    )
    latency_parser.add_argument(
        "--threshold-pct", type=float, default=99.0, metavar="Q",
        help="percentile defining a slow op (default: 99)",
    )
    _add_obs_args(
        latency_parser,
        trace_help="also write per-policy traces (op completions, p99/p999 "
        "counter tracks) next to PATH",
        sampling=False,
    )
    _add_jobs_arg(latency_parser)
    latency_parser.set_defaults(func=cmd_latency_report)

    lifetime_parser = sub.add_parser(
        "lifetime-report",
        help="years-to-ECC-cliff projection per policy from measured WAF "
        "(the paper's long-lifetimes claim, quantified)",
    )
    _add_spec_args(lifetime_parser, _REPORT_BASE, _REPORT_FLAGS)
    lifetime_parser.add_argument(
        "--lifetime-profile", default="mlc-20nm",
        choices=("mlc-20nm", "mlc-20nm-accel"),
        help="reliability profile whose physics define the ECC cliff "
        "(independent of --reliability, which arms the *measured* run)",
    )
    lifetime_parser.add_argument(
        "--uber-target", type=float, default=1e-15, metavar="P",
        help="uncorrectable bit error rate ceiling at end of retention "
        "(default: 1e-15, the classic client-SSD operating point)",
    )
    lifetime_parser.add_argument(
        "--retention-days", type=float, default=365.25, metavar="D",
        help="retention window the UBER target must hold over "
        "(default: one year)",
    )
    lifetime_parser.add_argument(
        "--dwpd", type=float, default=1.0, metavar="N",
        help="assumed host volume in drive-writes per day (default: 1)",
    )
    _add_jobs_arg(lifetime_parser)
    lifetime_parser.set_defaults(func=cmd_lifetime_report)

    list_parser = sub.add_parser("list", help="available workloads and policies")
    list_parser.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every --jobs is an int where only 0 means adaptive: a negative count
    # is refused here, with argparse's exit status, before any run.
    if getattr(args, "jobs", 0) < 0:
        parser.error(
            f"argument --jobs: expected 0 (adaptive) or a worker count, got {args.jobs}"
        )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
