"""Tests for the crash-point sweep harness and live SPO runs."""

import importlib.util
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments import crashsweep
from repro.experiments.crashsweep import (
    gc_heavy_spec,
    merge_phase_metrics,
    run_crash_sweep,
    run_scenario_with_spo,
    verify_crash_point,
)
from repro.experiments.runner import ScenarioSpec, _run_scenario_host, resolve_jobs
from repro.faults.powerloss import SpoPlan
from repro.ftl.stats import FtlStats
from repro.metrics.collector import RunMetrics
from repro.metrics.hdr import HdrHistogram
from repro.obs import ObservabilityConfig
from repro.sim.simtime import SECOND

_VALIDATOR = importlib.util.spec_from_file_location(
    "validate_trace", Path(__file__).resolve().parents[2] / "tools" / "validate_trace.py"
)
validate_trace = importlib.util.module_from_spec(_VALIDATOR)
_VALIDATOR.loader.exec_module(validate_trace)


def small_spec(**kwargs):
    defaults = dict(blocks=96, pages_per_block=16, measure_s=6, seed=9)
    defaults.update(kwargs)
    return gc_heavy_spec(**defaults)


# ----------------------------------------------------------------------
# The exhaustive sweep
# ----------------------------------------------------------------------
def test_sweep_verifies_every_point():
    result = run_crash_sweep(small_spec(), points=12, stride_events=192)
    assert result.ok()
    assert len(result.points) == 12
    assert "12/12" in result.summary()
    # The sweep hit GC-active states: torn frontier pages were seen and
    # every recovery actually swept programmed pages.
    assert sum(p.torn_pages for p in result.points) > 0
    assert all(p.pages_scanned > 0 and p.scan_ns > 0 for p in result.points)
    # Points advance in simulated time.
    times = [p.t_ns for p in result.points]
    assert times == sorted(times)


@pytest.mark.parametrize(
    "points,stride",
    [(0, 512), (3, 0), (3, -4)],
    ids=["no-points", "zero-stride", "negative-stride"],
)
def test_sweep_that_would_verify_nothing_is_rejected(monkeypatch, points, stride):
    """No point, or a stride that dispatches no event, used to report
    ``1/1`` (or ``0/0``) points recovered and pass; it is an error, raised
    before any host is built."""

    def no_host(spec):
        raise AssertionError("host built for an empty sweep")

    monkeypatch.setattr(crashsweep, "build_preconditioned_host", no_host)
    with pytest.raises(ValueError, match="points >= 1 and stride_events >= 1"):
        run_crash_sweep(small_spec(), points=points, stride_events=stride)


def test_sweep_composes_with_fault_profiles():
    result = run_crash_sweep(
        small_spec(fault_profile="light"), points=8, stride_events=192
    )
    assert result.ok()


def test_sweep_reports_progress():
    seen = []
    run_crash_sweep(small_spec(), points=3, stride_events=128, progress=seen.append)
    assert len(seen) == 3 and all(p.ok for p in seen)


# ----------------------------------------------------------------------
# Splitting the points: the child verifies the head, rank 0 the tail
# ----------------------------------------------------------------------
def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def verify_in_child_rank(monkeypatch, call, act):
    """Wrap ``verify_crash_point`` so that a child rank's ``call``-th
    verification runs ``act`` first."""
    parent = os.getpid()
    real = crashsweep.verify_crash_point
    calls = []

    def verify(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(None)
            if len(calls) == call:
                act()
        return real(*args, **kwargs)

    monkeypatch.setattr(crashsweep, "verify_crash_point", verify)


def log_verifications(monkeypatch, path):
    """Wrap ``_verify_point`` so that every rank appends ``pid index`` to
    the one file ``path`` for each point it finished verifying; returns
    a reader of ``(pid, index)`` pairs.  Each line is one ``O_APPEND``
    write, so lines from different ranks never interleave."""
    real = crashsweep._verify_point

    def verify(check, *args):
        real(check, *args)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {check.index}\n".encode())
        finally:
            os.close(fd)

    monkeypatch.setattr(crashsweep, "_verify_point", verify)

    def read():
        if not path.exists():
            return []
        return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]

    return read


def split_spec():
    return small_spec(
        trim_heavy=True, checkpoint_interval=512, mapping="dftl", fault_profile="light"
    )


def test_every_jobs_value_gives_the_same_points():
    results = [
        run_crash_sweep(split_spec(), points=12, stride_events=192, nested_every=2, jobs=jobs)
        for jobs in (1, 2, 3)
    ]
    assert results[0].ok() and len(results[0].points) == 12
    assert sum(p.nested for p in results[0].points) == 6
    assert results[1].points == results[0].points
    assert results[2].points == results[0].points
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [2])
def test_every_point_is_verified_exactly_once(monkeypatch, tmp_path, jobs):
    read = log_verifications(monkeypatch, tmp_path / "verified")
    result = run_crash_sweep(
        small_spec(), points=12, stride_events=128, nested_every=2, jobs=jobs
    )
    assert result.ok() and len(result.points) == 12
    log = read()
    assert sorted(index for _pid, index in log) == list(range(12))
    # Rank 0 verifies from its claim, at or after the middle, to the end;
    # the child verifies the head before it, each point once.
    parent = os.getpid()
    tail = [index for pid, index in log if pid == parent]
    assert tail and tail[0] >= 6
    assert tail == list(range(tail[0], 12))
    children = {pid for pid, _index in log if pid != parent}
    assert len(children) == 1
    assert [index for pid, index in log if pid != parent] == list(range(tail[0]))
    assert_no_child_left()


def test_an_explicit_jobs_above_the_cap_forks_one_child(monkeypatch):
    """Every ``jobs`` is capped at ``MAX_RANKS``, as ``resolve_jobs`` caps
    it at the task count: ``jobs=3`` runs two ranks and one child."""
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    result = run_crash_sweep(small_spec(), points=8, stride_events=128, jobs=3)
    assert len(forks) == 1
    assert result.ok() and len(result.points) == 8
    assert_no_child_left()


def test_a_split_sweep_leaves_rank_zero_where_a_one_rank_sweep_does(monkeypatch):
    """Every caller reads rank 0's live host after the sweep (the e2e
    cell takes its ``sim_*`` and end-of-window checks from it), so rank
    0 replays the whole run however the points are split."""
    real = crashsweep.build_preconditioned_host
    built = []

    def build_and_open(spec, deadline=None):
        host, collector, workload, measure_start = real(spec)
        collector.begin()
        built.append((host, collector))
        return host, collector, workload, measure_start

    monkeypatch.setattr(crashsweep, "build_preconditioned_host", build_and_open)
    ends = []
    for jobs in (1, 2):
        result = run_crash_sweep(split_spec(), points=12, stride_events=192, jobs=jobs)
        assert result.ok() and len(result.points) == 12
        host, collector = built[-1]
        collector.end()
        ends.append((host.sim.now, host.sim.dispatched, collector.results().to_wire()))
    assert ends[1] == ends[0]
    assert_no_child_left()


def test_split_sweep_reports_progress_in_index_order():
    seen = []
    result = run_crash_sweep(
        small_spec(), points=9, stride_events=128, jobs=2,
        progress=lambda check: seen.append(check.index),
    )
    assert seen == list(range(9)) == [p.index for p in result.points]
    assert_no_child_left()


def test_a_killed_rank_fails_the_points_it_never_reported(monkeypatch, tmp_path):
    read = log_verifications(monkeypatch, tmp_path / "verified")
    parent = os.getpid()
    past_point_1 = tmp_path / "rank 0 replayed past point 1"
    real = crashsweep._reference_run

    def marked(*args):
        for check in real(*args):
            if os.getpid() == parent and check.index == 2:
                past_point_1.touch()
            yield check

    def die_once_rank_zero_is_past_point_1():
        deadline = time.monotonic() + 60
        while not past_point_1.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(crashsweep, "_reference_run", marked)
    verify_in_child_rank(monkeypatch, 2, die_once_rank_zero_is_past_point_1)
    result = run_crash_sweep(small_spec(), points=8, stride_events=128, jobs=2)
    assert len(result.points) == 8
    assert not result.ok()
    # Rank 1 verified point 0 and died in point 1, after rank 0 had
    # replayed past it.  Rank 0 claims at the point where it learns
    # that, no later than the first p with 2p >= 8 + 1: every point rank
    # 1 left unreported before it fails, one contiguous run, and rank 0
    # verifies every point from it on.
    failed = [p.index for p in result.failed]
    assert failed, "point 1 was verified by neither rank"
    claimed = failed[-1] + 1
    assert failed == list(range(1, claimed)) and claimed <= 5
    assert all(
        p.error == f"rank 1 was killed by signal {signal.SIGKILL} before it reported this point"
        for p in result.failed
    )
    assert [index for pid, index in read() if pid == parent] == list(range(claimed, 8))
    assert all(p.ok for p in result.points[claimed:])
    assert_no_child_left()


def test_an_error_in_a_child_rank_reraises_on_its_turn(monkeypatch):
    def fail():
        raise RuntimeError("rank 1 broke")

    # The child verifies at least the first half of the points: its
    # fourth verification is point 3.
    verify_in_child_rank(monkeypatch, 4, fail)
    seen = []
    with pytest.raises(RuntimeError, match="rank 1 broke"):
        run_crash_sweep(small_spec(), points=8, stride_events=128, jobs=2, progress=seen.append)
    # Point 3 raised: the points before it are kept, none after it.
    assert [p.index for p in seen] == [0, 1, 2]
    assert all(p.ok for p in seen)
    assert_no_child_left()


def test_an_error_in_rank_zero_reraises_after_the_child_points_before_it(monkeypatch):
    parent = os.getpid()
    real = crashsweep._verify_point
    verified = []

    def verify(check, *args):
        if os.getpid() == parent:
            verified.append(check.index)
            raise RuntimeError("rank 0 broke")
        return real(check, *args)

    monkeypatch.setattr(crashsweep, "_verify_point", verify)
    seen = []
    with pytest.raises(RuntimeError, match="rank 0 broke"):
        run_crash_sweep(small_spec(), points=8, stride_events=128, jobs=2, progress=seen.append)
    # Rank 0 broke in the first point of its tail, which starts at or
    # after the middle: every point the child verified before it is kept,
    # and none after it.
    (broke,) = verified
    assert broke >= 4
    assert [p.index for p in seen] == list(range(broke))
    assert all(p.ok for p in seen)
    assert_no_child_left()


def test_a_rank_that_replays_a_different_run_fails_its_points(monkeypatch):
    parent = os.getpid()
    real = crashsweep._reference_run

    def skewed(*args):
        for check in real(*args):
            if os.getpid() != parent:
                check.t_ns += 1
            yield check

    monkeypatch.setattr(crashsweep, "_reference_run", skewed)
    result = run_crash_sweep(small_spec(), points=8, stride_events=128, jobs=2)
    # Every point rank 1 reported (the head, at least half of them)
    # fails; rank 0's own tail passes.
    failed = [p.index for p in result.failed]
    assert failed == list(range(len(failed))) and len(failed) >= 4
    assert all(p.error.startswith("rank 1 replayed a different run") for p in result.failed)
    assert all(p.ok for p in result.points[len(failed):])
    assert_no_child_left()


def test_a_one_point_sweep_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked a rank with nothing to split")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_crash_sweep(small_spec(), points=1, stride_events=128, jobs=2).ok()


def test_a_platform_without_fork_runs_the_sweep_in_one_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    result = run_crash_sweep(small_spec(), points=4, stride_events=128, jobs=2)
    assert result.ok() and len(result.points) == 4


def test_one_usable_cpu_runs_the_sweep_in_one_process(monkeypatch):
    """Adaptive ``jobs`` counts the CPUs the affinity mask allows, not the
    machine's: on one of them the sweep forks nothing."""

    def no_fork():
        raise AssertionError("forked a second rank onto one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "fork", no_fork)
    assert resolve_jobs(0, 10) == resolve_jobs(None, 10) == 1
    assert run_crash_sweep(small_spec(), points=4, stride_events=128).ok()


def test_adaptive_ranks_stop_at_the_measured_cap_on_many_cpus(monkeypatch):
    """Rank 0 replays the whole reference run and every rank holds its
    own heap, so adaptive ``jobs`` forks no more than ``MAX_RANKS - 1``
    children however many CPUs the mask allows."""
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    result = run_crash_sweep(small_spec(), points=8, stride_events=128)
    assert len(forks) == crashsweep.MAX_RANKS - 1 == 1
    assert result.points == run_crash_sweep(small_spec(), points=8, stride_events=128, jobs=1).points
    assert_no_child_left()


def test_trim_heavy_checkpointed_sweep_with_nested_points():
    # The durable-metadata path end to end: a TRIM-heavy synthetic
    # workload over a checkpointed device, every other point doubly
    # crashed (power cut again during the recovery's own checkpoint
    # write).  Every point must still recover bit-identically -- in
    # particular no TRIMmed page may resurrect.
    spec = small_spec(trim_heavy=True, checkpoint_interval=512)
    result = run_crash_sweep(spec, points=8, stride_events=192, nested_every=2)
    assert result.ok()
    assert len(result.points) == 8
    nested = [p for p in result.points if p.nested]
    assert len(nested) == 4
    assert all(p.ok for p in nested)


def test_nested_points_work_without_checkpoints():
    # nested_every on an un-checkpointed spec: the nested point tears
    # the recovery's own checkpoint, so the second power-on must fall
    # all the way back to the full scan -- and still verify.
    result = run_crash_sweep(small_spec(), points=4, stride_events=192,
                             nested_every=1)
    assert result.ok()
    assert all(p.nested for p in result.points)


def test_a_point_whose_first_battery_fails_is_not_counted_nested(monkeypatch):
    """``nested`` records the second power-on that was verified, not the
    one the schedule asked for: a first battery that raises skips it, and
    the CLI's "also verified crash-during-recovery" count with it."""
    real = crashsweep.recover_ftl

    def recover_one_stamp_ahead(nand, config, *args, **kwargs):
        ftl, report = real(nand, config, *args, **kwargs)
        ftl._write_seq += 1
        return ftl, report

    monkeypatch.setattr(crashsweep, "recover_ftl", recover_one_stamp_ahead)
    result = run_crash_sweep(small_spec(), points=1, stride_events=64, nested_every=1)
    (point,) = result.points
    assert not point.ok and point.error.startswith("CrashPointMismatch: write_seq")
    assert not point.nested


def test_verify_crash_point_leaves_live_ftl_untouched():
    spec = small_spec()
    _, host = _run_scenario_host(spec)
    before = host.ftl.page_map.l2p_snapshot()
    torn_before = host.ftl.nand.torn_pages
    report = verify_crash_point(host.ftl, spec.make_config())
    assert report.pages_scanned > 0
    assert (host.ftl.page_map.l2p_snapshot() == before).all()
    assert host.ftl.nand.torn_pages == torn_before
    host.ftl.invariant_check()


# ----------------------------------------------------------------------
# Live SPO runs
# ----------------------------------------------------------------------
def test_spo_run_survives_cuts_and_merges_phases():
    spec = small_spec()
    cut_t = (spec.warmup_s + 2) * SECOND
    outcome = run_scenario_with_spo(spec, SpoPlan(at_ns=(cut_t,), random_cuts=1, seed=5))
    assert len(outcome.cuts) == 2
    assert len(outcome.reports) == 2
    assert len(outcome.phases) == 3
    m = outcome.metrics
    assert m.spo_count == 2
    assert m.recovery_time_ns == sum(r.duration_ns for r in outcome.reports)
    assert m.host_pages_written == sum(p.host_pages_written for p in outcome.phases)
    assert m.duration_ns == sum(p.duration_ns for p in outcome.phases)
    assert m.iops > 0
    # Every recovery rebuilt a non-trivial mapping.
    assert all(r.mapped_lpns > 0 for r in outcome.reports)


def test_spo_cut_during_recovery_tears_the_post_checkpoint():
    # Two cuts 50 us apart on a checkpointed TRIM-heavy run: the second
    # lands long before the first recovery is host-ready, so it must
    # tear the (not yet durable) post-recovery checkpoint and the second
    # power-on must fall back past it.
    spec = small_spec(measure_s=4, trim_heavy=True, checkpoint_interval=512)
    cut_t = (spec.warmup_s + 1) * SECOND
    outcome = run_scenario_with_spo(
        spec, SpoPlan(at_ns=(cut_t, cut_t + 50_000))
    )
    assert len(outcome.cuts) == 2
    assert len(outcome.reports) == 2
    first, second = outcome.reports
    # Both recoveries ride the checkpoint fast path...
    assert not first.full_scan and not second.full_scan
    assert first.post_checkpoint_ns > 0
    # ...but the second had to discard the torn post-recovery checkpoint.
    assert second.torn_meta_records >= 1
    assert second.checkpoint_fallbacks >= 1
    assert outcome.metrics.spo_count == 2
    # The TRIM-heavy workload's discards are counted across phases.
    assert outcome.metrics.trim_count > 0


def test_spo_run_is_seed_deterministic():
    spec = small_spec(measure_s=4)
    plan = SpoPlan(random_cuts=1, seed=11)
    a = run_scenario_with_spo(spec, plan)
    b = run_scenario_with_spo(spec, plan)
    assert a.metrics == b.metrics
    assert [c.t_ns for c in a.cuts] == [c.t_ns for c in b.cuts]


def test_spo_records_recovery_audit():
    spec = small_spec(measure_s=4)
    spec.obs = ObservabilityConfig(audit=True, metrics_interval_ns=0)
    outcome = run_scenario_with_spo(
        spec, SpoPlan(at_ns=((spec.warmup_s + 1) * SECOND,))
    )
    assert len(outcome.cuts) == 1


def test_spo_cuts_outside_window_are_skipped():
    spec = small_spec(measure_s=4)
    end = (spec.warmup_s + spec.measure_s) * SECOND
    outcome = run_scenario_with_spo(spec, SpoPlan(at_ns=(end + SECOND,)))
    assert outcome.cuts == []
    assert outcome.metrics.spo_count == 0
    assert len(outcome.phases) == 1


def test_spo_recovery_outlasting_the_window_opens_no_phase():
    # Cut 10 ms before the window closes: the full scan runs past the
    # window's end, so the resumed host has nothing left to measure.
    spec = small_spec(measure_s=4)
    end = (spec.warmup_s + spec.measure_s) * SECOND
    outcome = run_scenario_with_spo(spec, SpoPlan(at_ns=(end - SECOND // 100,)))
    (report,) = outcome.reports
    assert report.duration_ns > SECOND // 100
    assert len(outcome.phases) == 1
    assert outcome.metrics.spo_count == 1
    assert outcome.metrics.recovery_time_ns == report.duration_ns


@pytest.mark.parametrize("fmt,name", [("jsonl", "spo.jsonl"), ("chrome", "spo.json")])
def test_traced_spo_run_writes_a_valid_trace_per_phase(tmp_path, fmt, name):
    spec = small_spec(measure_s=4, mapping="dftl")
    spec.obs = ObservabilityConfig(trace_path=str(tmp_path / name), trace_format=fmt)
    run_scenario_with_spo(spec, SpoPlan(at_ns=((spec.warmup_s + 2) * SECOND,)))
    stem, ext = name.split(".")
    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == sorted([name, f"{stem}-phase1.{ext}"])
    assert validate_trace.main([str(p) for p in paths]) == 0


#: Every RunMetrics window counter, each summed across power-cut phases.
_COUNTER_FIELDS = (
    "host_pages_written", "gc_pages_migrated", "fgc_invocations",
    "fgc_time_ns", "bgc_blocks", "erases", "sip_selections", "sip_filtered",
    "read_retries", "uncorrectable_reads", "program_faults", "erase_faults",
    "blocks_retired", "trim_count", "cmt_hits", "cmt_misses",
    "trans_pages_written", "trans_pages_migrated", "ecc_fast_reads",
    "ecc_retry_reads", "ecc_soft_decodes", "uecc_count",
    "scrub_blocks_refreshed", "scrub_pages_migrated",
)


def test_spo_merge_carries_every_counter_of_a_dftl_reliability_run():
    """dftl x reliability x checkpoints x SPO: the merged run is the sum
    of its phases, field for field, and its WAF is FtlStats' own."""
    spec = gc_heavy_spec(
        blocks=128,
        pages_per_block=16,
        seed=11,
        checkpoint_interval=256,
        mapping="dftl",
        reliability="mlc-20nm-accel",
    )
    outcome = run_scenario_with_spo(spec, SpoPlan(at_ns=(6 * SECOND,)))
    merged, phases = outcome.metrics, outcome.phases
    assert len(phases) == 2
    # The combination exercises the fields a dram, reliability-off run
    # leaves at zero, in both phases.
    assert all(p.cmt_hits > 0 for p in phases)
    assert sum(p.ecc_soft_decodes for p in phases) > 0
    assert sum(p.scrub_blocks_refreshed for p in phases) > 0
    for name in _COUNTER_FIELDS:
        assert getattr(merged, name) == sum(getattr(p, name) for p in phases), name
    assert merged.mapping_mode == "dftl"
    histogram = {}
    for p in phases:
        for level, count in p.ecc_retry_histogram.items():
            histogram[level] = histogram.get(level, 0) + count
    assert merged.ecc_retry_histogram == histogram
    summed = FtlStats(
        host_pages_written=merged.host_pages_written,
        gc_pages_migrated=merged.gc_pages_migrated,
        trans_pages_written=merged.trans_pages_written,
        trans_pages_migrated=merged.trans_pages_migrated,
    )
    assert merged.waf == summed.waf()
    assert merged.translation_waf_share == summed.translation_waf_share()


# ----------------------------------------------------------------------
# Phase merging
# ----------------------------------------------------------------------
def _metrics(**kwargs):
    defaults = dict(
        policy="JIT-GC",
        workload="YCSB",
        duration_ns=SECOND,
        iops=1000.0,
        waf=2.0,
        host_pages_written=100,
        gc_pages_migrated=100,
        fgc_invocations=1,
        fgc_time_ns=10,
        bgc_blocks=2,
        erases=5,
    )
    defaults.update(kwargs)
    return RunMetrics(**defaults)


def _hist_wire(*latencies):
    hist = HdrHistogram()
    for value in latencies:
        hist.record(value)
    return hist.to_wire()


def test_merge_phase_metrics_weights_and_sums():
    a = _metrics(
        duration_ns=1 * SECOND,
        iops=1000.0,
        p99_latency_ns=50,
        latency_hist=_hist_wire(50),
    )
    b = _metrics(
        duration_ns=3 * SECOND,
        iops=2000.0,
        host_pages_written=300,
        gc_pages_migrated=100,
        p99_latency_ns=80,
        latency_hist=_hist_wire(80),
        device_read_only=True,
        trim_count=25,
    )
    merged = merge_phase_metrics([a, b], spo_count=1, recovery_time_ns=42)
    assert merged.duration_ns == 4 * SECOND
    assert merged.iops == pytest.approx(1750.0)
    assert merged.host_pages_written == 400
    assert merged.gc_pages_migrated == 200
    assert merged.waf == pytest.approx(600 / 400)
    assert merged.p99_latency_ns == 80
    assert merged.device_read_only
    assert merged.trim_count == 25
    assert merged.spo_count == 1 and merged.recovery_time_ns == 42
    # Wire format round-trips the new fields.
    assert RunMetrics.from_wire(merged.to_wire()) == merged


def test_merge_requires_at_least_one_phase():
    with pytest.raises(ValueError):
        merge_phase_metrics([])


# ----------------------------------------------------------------------
# Fault-aware batching regression (the PR 4 gate fix): a faulted run
# must still batch its clean host-write extents instead of degrading
# the whole run to per-page writes.
# ----------------------------------------------------------------------
def test_light_fault_runs_still_batch_clean_extents():
    spec = ScenarioSpec(
        workload="YCSB",
        policy="JIT-GC",
        blocks=96,
        pages_per_block=16,
        warmup_s=2,
        measure_s=4,
        seed=3,
        fault_profile="light",
    )
    _, host = _run_scenario_host(spec)
    assert host.ftl.nand.batch_programs > 0
    assert host.ftl.nand.fault_injector.total_faults() >= 0
