"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


QUICK = ["--blocks", "256", "--pages-per-block", "16", "--warmup", "4", "--measure", "10"]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "YCSB" in out and "TPC-C" in out
    assert "JIT-GC" in out and "L-BGC" in out


def test_run_command(capsys):
    assert main(["run", "--workload", "YCSB", "--policy", "L-BGC", *QUICK]) == 0
    out = capsys.readouterr().out
    assert "YCSB / L-BGC" in out
    assert "IOPS" in out and "WAF" in out


def test_run_rejects_unknown_choices():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "nope"])
    with pytest.raises(SystemExit):
        main(["run", "--policy", "nope"])


def test_compare_command(capsys):
    assert main(["compare", "--workload", "TPC-C", *QUICK]) == 0
    out = capsys.readouterr().out
    for policy in ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC"):
        assert policy in out


def test_parser_has_all_artifact_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("fig2", "fig7", "table1", "table2", "table3", "oracle"):
        assert command in text


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_run_echoes_seed_and_fault_profile(capsys):
    assert main(["run", "--seed", "99", "--faults", "light", *QUICK]) == 0
    out = capsys.readouterr().out
    assert "seed=99 faults=light" in out
    assert "injected faults" in out
    assert "device read-only" in out


def test_run_rejects_unknown_fault_profile():
    with pytest.raises(SystemExit):
        main(["run", "--faults", "nope"])


def test_sweep_command(tmp_path, capsys):
    checkpoint = str(tmp_path / "sweep.json")
    args = ["sweep", "--workload", "YCSB", "--blocks", "64",
            "--pages-per-block", "8", "--warmup", "0", "--measure", "1",
            "--checkpoint", checkpoint]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Sweep on YCSB" in out
    for policy in ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC"):
        assert policy in out
    # Resumed: everything skips.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("skipped") == 4


def test_run_with_jsonl_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(
        ["run", "--seed", "13", "--faults", "light",
         "--trace", str(trace), *QUICK]
    ) == 0
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "header"
    assert header["seed"] == 13
    assert header["fault_profile"] == "light"
    assert header["policy"] == "JIT-GC"
    events = [json.loads(line) for line in lines[1:]]
    assert events
    assert all(e["type"] == "event" for e in events)
    assert "manager.tick" in {e["name"] for e in events}


def test_run_with_chrome_trace(tmp_path, capsys):
    trace = tmp_path / "run.json"
    assert main(
        ["run", "--trace", str(trace), "--trace-format", "chrome", *QUICK]
    ) == 0
    document = json.loads(trace.read_text())
    assert set(document) == {"traceEvents", "otherData", "displayTimeUnit"}
    assert document["otherData"]["seed"] == 42
    real = [e for e in document["traceEvents"] if e["ph"] != "M"]
    assert real
    for event in real:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)


def test_run_rejects_unknown_trace_format(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--trace", str(tmp_path / "t"), "--trace-format", "xml"])


def test_run_with_profile_prints_report(capsys):
    assert main(["run", "--profile", *QUICK]) == 0
    out = capsys.readouterr().out
    assert "event-loop profile:" in out
    assert "wall" in out


def test_run_with_spo_cuts(capsys):
    assert main(["run", "--spo-at", "6", "--spo-random", "1", *QUICK]) == 0
    out = capsys.readouterr().out
    assert "power cut at" in out
    assert "recovered" in out
    assert "survived 2 power cuts" in out
    assert "IOPS" in out and "WAF" in out


def test_run_rejects_negative_spo_args():
    with pytest.raises(SystemExit):
        main(["run", "--spo-at", "-1", *QUICK])
    with pytest.raises(SystemExit):
        main(["run", "--spo-random", "-2", *QUICK])


def test_crash_sweep_command(capsys):
    args = ["crash-sweep", "--blocks", "96", "--pages-per-block", "16",
            "--measure", "5", "--points", "6", "--stride", "192"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "6/6 points recovered consistently" in out


@pytest.mark.parametrize(
    "command",
    ["crash-sweep", "compare", "fig2", "sweep", "latency-report", "lifetime-report"],
)
def test_negative_jobs_are_refused_before_any_run(monkeypatch, command, capsys):
    import repro.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a runner was called with a negative --jobs")

    for name in (
        "run_policy_comparison", "run_crash_sweep", "run_fig2", "run_sweep",
        "run_latency_report", "run_lifetime_report",
    ):
        monkeypatch.setattr(cli, name, no_run)
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--jobs", "-1"])
    assert excinfo.value.code == 2
    assert "argument --jobs: expected 0 (adaptive) or a worker count, got -1" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("flag", ["--points", "--stride"])
def test_crash_sweep_that_would_verify_nothing_exits_with_one_line(flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["crash-sweep", flag, "0"])
    assert str(excinfo.value.code).startswith("repro crash-sweep: ")


def test_sweep_suffixes_traces_per_scenario(tmp_path, capsys):
    trace = tmp_path / "sweep.jsonl"
    args = ["sweep", "--workload", "YCSB", "--blocks", "64",
            "--pages-per-block", "8", "--warmup", "0", "--measure", "1",
            "--trace", str(trace)]
    assert main(args) == 0
    written = sorted(p.name for p in tmp_path.glob("sweep-*.jsonl"))
    assert len(written) == 4
    for path in tmp_path.glob("sweep-*.jsonl"):
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "header"
        assert "fault_profile" in header


@pytest.mark.parametrize(
    "argv,field",
    [
        (["run", "--measure", "-5"], "measure_s"),
        (["compare", "--warmup", "-1"], "warmup_s"),
        (["latency-report", "--working-set", "1.5"], "working_set_fraction"),
        (["crash-sweep", "--measure", "0"], "measure_s"),
    ],
)
def test_bad_scenario_values_exit_before_any_run(monkeypatch, argv, field):
    """An invalid knob fails at spec construction, not after the
    preconditioning it would otherwise have paid for."""
    import repro.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a runner was called with an invalid spec")

    for name in (
        "run_scenario", "run_policy_comparison", "run_latency_report",
        "run_crash_sweep",
    ):
        monkeypatch.setattr(cli, name, no_run)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code not in (0, None)
    assert field in str(excinfo.value.code)
