"""Characterization of the CLI -> ScenarioSpec seam.

Every experiment runner bound in :mod:`repro.cli` is replaced by a
recorder that raises as soon as it is called, so each argv below is
pinned to the exact :class:`ScenarioSpec` and keyword arguments the
subcommand would run -- without simulating anything.  The option
strings of every subcommand are pinned too: a flag that is added,
dropped or renamed shows up here, not only in the CI smoke job.
"""

import dataclasses

import pytest

from repro import cli
from repro.experiments import ScenarioSpec, gc_heavy_spec
from repro.faults import FaultProfile


RUNNERS = (
    "run_scenario",
    "run_scenario_with_spo",
    "run_policy_comparison",
    "run_oracle_comparison",
    "run_fig2",
    "run_fig7",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_sweep",
    "run_crash_sweep",
    "run_latency_report",
    "run_lifetime_report",
)

_DEFAULT = ScenarioSpec()


class _Called(Exception):
    pass


def _describe(value):
    """A plain, comparable picture of one runner argument."""
    if isinstance(value, ScenarioSpec):
        # Only the fields that differ from ScenarioSpec()'s defaults.
        return {
            f.name: _describe(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if getattr(value, f.name) != getattr(_DEFAULT, f.name)
        }
    if dataclasses.is_dataclass(value):
        return {type(value).__name__: dataclasses.asdict(value)}
    if isinstance(value, (list, tuple)):
        return [_describe(item) for item in value]
    if isinstance(value, dict):
        return {key: _describe(item) for key, item in value.items()}
    if callable(value):
        return "<callable>"
    return value


@pytest.fixture
def invoke(monkeypatch):
    calls = []
    for name in RUNNERS:

        def record(*args, _name=name, **kwargs):
            calls.append((_name, _describe(list(args)), _describe(kwargs)))
            raise _Called

        monkeypatch.setattr(cli, name, record)

    def run(argv):
        calls.clear()
        with pytest.raises(_Called):
            cli.main(argv)
        (call,) = calls
        return call

    return run


SCENARIO_FLAGS = [
    "--workload", "TPC-C", "--blocks", "128", "--pages-per-block", "16",
    "--warmup", "3", "--measure", "5", "--seed", "7",
    "--warm-start", "analytic", "--faults", "light", "--mapping", "dftl",
    "--cmt-budget-kb", "64", "--reliability", "mlc-20nm",
    "--checkpoint-interval", "512", "--checkpoint-policy", "adaptive",
    "--trace", "t.jsonl", "--trace-format", "chrome",
    "--metrics-interval", "0.5", "--profile",
]

SCENARIO_SPEC = {
    "workload": "TPC-C",
    "blocks": 128,
    "pages_per_block": 16,
    "warmup_s": 3,
    "measure_s": 5,
    "seed": 7,
    "fault_profile": "light",
    "checkpoint_interval": 512,
    "obs": {
        "ObservabilityConfig": {
            "trace_path": "t.jsonl",
            "trace_format": "chrome",
            "metrics_interval_ns": 500_000_000,
            "profile": True,
            "audit": True,
            "tail_attribution": False,
            "tail_threshold_pct": 99.0,
            "header": {},
        }
    },
    "warm_start": "analytic",
    "mapping": "dftl",
    "cmt_budget_bytes": 65536,
    "checkpoint_policy": "adaptive",
    "reliability": "mlc-20nm",
}

RUN_BASE = {"warmup_s": 20, "measure_s": 60, "fault_profile": "none"}

GC_HEAVY = {
    "blocks": 256,
    "working_set_fraction": 0.9,
    "warmup_s": 2,
    "measure_s": 30,
    "tau_expire_s": 2,
}

SWEEP_POLICIES = ("A-BGC", "ADP-GC", "JIT-GC", "L-BGC")


def _sweep(spec):
    """The sweep's four specs: ``spec`` under each policy (JIT-GC is
    the default, so it does not show in the described diff)."""
    return [
        spec if policy == "JIT-GC" else {**spec, "policy": policy}
        for policy in SWEEP_POLICIES
    ]


REPORT_FLAGS = [
    "--workload", "Postmark", "--blocks", "96", "--pages-per-block", "16",
    "--measure", "4", "--seed", "11", "--mapping", "dftl",
    "--cmt-budget-kb", "32", "--reliability", "mlc-20nm-accel", "--jobs", "2",
]

REPORT_SPEC = {
    **GC_HEAVY,
    "workload": "Postmark",
    "blocks": 96,
    "pages_per_block": 16,
    "measure_s": 4,
    "seed": 11,
    "mapping": "dftl",
    "cmt_budget_bytes": 32768,
    "reliability": "mlc-20nm-accel",
}


CASES = {
    "run-bare": (
        ["run"],
        ("run_scenario", [RUN_BASE], {}),
    ),
    "run-full": (
        ["run", *SCENARIO_FLAGS, "--policy", "A-BGC",
         "--spo-at", "1.5", "--spo-at", "2", "--spo-random", "3"],
        (
            "run_scenario_with_spo",
            [
                {**SCENARIO_SPEC, "policy": "A-BGC"},
                {
                    "SpoPlan": {
                        "at_ns": (1_500_000_000, 2_000_000_000),
                        "random_cuts": 3,
                        "seed": 7,
                        "every_k_events": None,
                    }
                },
            ],
            {},
        ),
    ),
    "run-reliability-off": (
        ["run", "--reliability", "off"],
        ("run_scenario", [RUN_BASE], {}),
    ),
    "compare-bare": (
        ["compare"],
        ("run_policy_comparison", [RUN_BASE], {"jobs": 0}),
    ),
    "compare-full": (
        ["compare", *SCENARIO_FLAGS, "--jobs", "3"],
        ("run_policy_comparison", [SCENARIO_SPEC], {"jobs": 3}),
    ),
    "oracle-bare": (
        ["oracle"],
        ("run_oracle_comparison", [RUN_BASE], {}),
    ),
    "oracle-full": (
        ["oracle", *SCENARIO_FLAGS],
        ("run_oracle_comparison", [SCENARIO_SPEC], {}),
    ),
    "fig2-bare": (
        ["fig2"],
        ("run_fig2", [RUN_BASE], {"jobs": 0}),
    ),
    "fig2-full": (
        ["fig2", *SCENARIO_FLAGS, "--jobs", "2"],
        ("run_fig2", [SCENARIO_SPEC], {"jobs": 2}),
    ),
    **{
        f"{name}-bare": ([name], (f"run_{name}", [RUN_BASE], {}))
        for name in ("fig7", "table1", "table2", "table3")
    },
    **{
        f"{name}-full": (
            [name, *SCENARIO_FLAGS],
            (f"run_{name}", [SCENARIO_SPEC], {}),
        )
        for name in ("fig7", "table1", "table2", "table3")
    },
    "sweep-bare": (
        ["sweep"],
        (
            "run_sweep",
            [_sweep(RUN_BASE)],
            {
                "checkpoint": None,
                "resume": True,
                "timeout_s": None,
                "on_result": "<callable>",
                "jobs": 0,
            },
        ),
    ),
    "sweep-full": (
        ["sweep", *SCENARIO_FLAGS, "--checkpoint", "s.json", "--no-resume",
         "--timeout", "2.5", "--jobs", "1"],
        (
            "run_sweep",
            [_sweep(SCENARIO_SPEC)],
            {
                "checkpoint": "s.json",
                "resume": False,
                "timeout_s": 2.5,
                "on_result": "<callable>",
                "jobs": 1,
            },
        ),
    ),
    "crash-sweep-bare": (
        ["crash-sweep"],
        (
            "run_crash_sweep",
            [{**GC_HEAVY, "fault_profile": "none"}],
            {
                "points": 100,
                "stride_events": 512,
                "progress": "<callable>",
                "nested_every": 0,
            },
        ),
    ),
    "crash-sweep-full": (
        ["crash-sweep", "--blocks", "64", "--pages-per-block", "16",
         "--measure", "2", "--warmup", "1", "--seed", "5",
         "--warm-start", "analytic", "--faults", "heavy", "--mapping", "dftl",
         "--cmt-budget-kb", "16", "--reliability", "mlc-20nm-accel",
         "--points", "7", "--stride", "64", "--trim-heavy",
         "--checkpoint-interval", "256", "--nested-every", "3"],
        (
            "run_crash_sweep",
            [
                {
                    **GC_HEAVY,
                    "workload": "Synthetic",
                    "workload_kwargs": {
                        "trim_fraction": 0.25,
                        "write_fraction": 0.85,
                        "zipf_theta": 0.9,
                    },
                    "blocks": 64,
                    "pages_per_block": 16,
                    "measure_s": 2,
                    "warmup_s": 1,
                    "seed": 5,
                    "warm_start": "analytic",
                    "fault_profile": "heavy",
                    "mapping": "dftl",
                    "cmt_budget_bytes": 16384,
                    "reliability": "mlc-20nm-accel",
                    "checkpoint_interval": 256,
                }
            ],
            {
                "points": 7,
                "stride_events": 64,
                "progress": "<callable>",
                "nested_every": 3,
            },
        ),
    ),
    "latency-report-bare": (
        ["latency-report"],
        (
            "run_latency_report",
            [{**GC_HEAVY, "working_set_fraction": 0.75}, None],
            {"jobs": 0, "threshold_pct": 99.0},
        ),
    ),
    "latency-report-full": (
        ["latency-report", *REPORT_FLAGS, "--working-set", "0.6",
         "--policies", "JIT-GC, L-BGC", "--threshold-pct", "95",
         "--trace", "lat.jsonl", "--trace-format", "chrome"],
        (
            "run_latency_report",
            [
                {
                    **REPORT_SPEC,
                    "working_set_fraction": 0.6,
                    "obs": {
                        "ObservabilityConfig": {
                            "trace_path": "lat.jsonl",
                            "trace_format": "chrome",
                            "metrics_interval_ns": 1_000_000_000,
                            "profile": False,
                            "audit": False,
                            "tail_attribution": False,
                            "tail_threshold_pct": 99.0,
                            "header": {},
                        }
                    },
                },
                {"JIT-GC": "<callable>", "L-BGC": "<callable>"},
            ],
            {"jobs": 2, "threshold_pct": 95.0},
        ),
    ),
    "lifetime-report-bare": (
        ["lifetime-report"],
        (
            "run_lifetime_report",
            [GC_HEAVY],
            {
                "jobs": 0,
                "reliability_profile": "mlc-20nm",
                "uber_target": 1e-15,
                "retention_target_s": 365.25 * 86_400.0,
                "drive_writes_per_day": 1.0,
            },
        ),
    ),
    "lifetime-report-full": (
        ["lifetime-report", *REPORT_FLAGS,
         "--lifetime-profile", "mlc-20nm-accel", "--uber-target", "1e-12",
         "--retention-days", "90", "--dwpd", "3"],
        (
            "run_lifetime_report",
            [REPORT_SPEC],
            {
                "jobs": 2,
                "reliability_profile": "mlc-20nm-accel",
                "uber_target": 1e-12,
                "retention_target_s": 90 * 86_400.0,
                "drive_writes_per_day": 3.0,
            },
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_argv_builds_pinned_spec(invoke, case):
    argv, expected = CASES[case]
    assert invoke(argv) == expected


_SCENARIO_OPTIONS = {
    "--workload", "--blocks", "--pages-per-block", "--warmup", "--measure",
    "--seed", "--warm-start", "--faults", "--mapping", "--cmt-budget-kb",
    "--reliability", "--checkpoint-interval", "--checkpoint-policy",
    "--trace", "--trace-format", "--metrics-interval", "--profile", "-h",
    "--help",
}

_REPORT_OPTIONS = {
    "--workload", "--blocks", "--pages-per-block", "--measure", "--seed",
    "--mapping", "--cmt-budget-kb", "--reliability", "--jobs", "-h", "--help",
}

OPTIONS = {
    "run": _SCENARIO_OPTIONS | {"--policy", "--spo-at", "--spo-random"},
    "compare": _SCENARIO_OPTIONS | {"--jobs"},
    "oracle": _SCENARIO_OPTIONS,
    "fig2": _SCENARIO_OPTIONS | {"--jobs"},
    "fig7": _SCENARIO_OPTIONS,
    "table1": _SCENARIO_OPTIONS,
    "table2": _SCENARIO_OPTIONS,
    "table3": _SCENARIO_OPTIONS,
    "sweep": _SCENARIO_OPTIONS
    | {"--checkpoint", "--no-resume", "--timeout", "--jobs"},
    "crash-sweep": {
        "--blocks", "--pages-per-block", "--measure", "--warmup", "--seed",
        "--warm-start", "--faults", "--mapping", "--cmt-budget-kb",
        "--reliability", "--points", "--stride", "--trim-heavy",
        "--checkpoint-interval", "--nested-every", "-h", "--help",
    },
    "latency-report": _REPORT_OPTIONS
    | {"--working-set", "--policies", "--threshold-pct", "--trace",
       "--trace-format"},
    "lifetime-report": _REPORT_OPTIONS
    | {"--lifetime-profile", "--uber-target", "--retention-days", "--dwpd"},
    "list": {"-h", "--help"},
}


def _subparsers():
    parser = cli.build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)
    ]
    return action.choices


def test_subcommand_set_is_pinned():
    assert set(_subparsers()) == set(OPTIONS)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_option_strings_are_pinned(command):
    parser = _subparsers()[command]
    options = {opt for action in parser._actions for opt in action.option_strings}
    assert options == OPTIONS[command]


def test_gc_heavy_spec_for_benchmark_crash_cell():
    faults = FaultProfile(
        program_fail_prob=2e-5, erase_fail_prob=2e-5, read_uncorrectable_prob=5e-5
    )
    spec = gc_heavy_spec(
        blocks=2048,
        measure_s=600,
        trim_heavy=True,
        checkpoint_interval=2048,
        mapping="dftl",
        fault_profile=faults,
    )
    assert _describe(spec) == {
        **GC_HEAVY,
        "workload": "Synthetic",
        "workload_kwargs": {
            "trim_fraction": 0.25,
            "write_fraction": 0.85,
            "zipf_theta": 0.9,
        },
        "blocks": 2048,
        "measure_s": 600,
        "checkpoint_interval": 2048,
        "mapping": "dftl",
        "fault_profile": _describe(faults),
    }


def test_gc_heavy_spec_defaults():
    assert _describe(gc_heavy_spec()) == GC_HEAVY
    assert _describe(gc_heavy_spec(trim_heavy=True)) == {
        **GC_HEAVY,
        "workload": "Synthetic",
        "workload_kwargs": {
            "trim_fraction": 0.25,
            "write_fraction": 0.85,
            "zipf_theta": 0.9,
        },
    }


def test_gc_heavy_spec_rejects_unknown_keyword():
    with pytest.raises(TypeError):
        gc_heavy_spec(no_such_knob=1)
