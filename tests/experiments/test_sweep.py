"""Tests for the crash-tolerant sweep: isolation, checkpointing, resume,
timeouts, and persistence of the fault-metrics fields."""

import dataclasses
import json
import os

import pytest

from repro.experiments.persistence import (
    SweepCheckpoint,
    metrics_from_dict,
    metrics_to_dict,
)
from repro.experiments.runner import (
    ScenarioSpec,
    run_sweep,
)
from repro.metrics.collector import RunMetrics


def tiny_spec(**kwargs):
    """A scenario small enough to finish in well under a second."""
    defaults = dict(
        workload="YCSB",
        policy="JIT-GC",
        blocks=48,
        pages_per_block=8,
        warmup_s=0,
        measure_s=1,
        seed=7,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def fake_metrics(**kwargs):
    defaults = dict(
        policy="JIT-GC",
        workload="YCSB",
        duration_ns=10,
        iops=1.0,
        waf=1.0,
        host_pages_written=1,
        gc_pages_migrated=0,
        fgc_invocations=0,
        fgc_time_ns=0,
        bgc_blocks=0,
        erases=0,
    )
    defaults.update(kwargs)
    return RunMetrics(**defaults)


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------
def test_one_raising_scenario_does_not_kill_the_sweep():
    good = tiny_spec()
    bad = tiny_spec(workload="NO-SUCH-WORKLOAD")
    outcome = run_sweep([good, bad])

    assert not outcome.ok()
    assert good.key() in outcome.results
    assert bad.key() in outcome.failures
    assert outcome.failures[bad.key()].startswith("KeyError")


def test_duplicate_keys_rejected():
    spec = tiny_spec()
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep([spec, spec])


# ----------------------------------------------------------------------
# Checkpoint + resume
# ----------------------------------------------------------------------
def test_checkpoint_resume_skips_completed(tmp_path):
    path = tmp_path / "sweep.json"
    specs = [tiny_spec(), tiny_spec(policy="L-BGC")]

    first = run_sweep(specs, checkpoint=path)
    assert first.ok() and len(first.results) == 2 and not first.skipped

    fresh_runs = []
    second = run_sweep(
        specs, checkpoint=path, on_result=lambda key, m: fresh_runs.append(key)
    )
    assert second.ok()
    assert sorted(second.skipped) == sorted(s.key() for s in specs)
    assert fresh_runs == []  # nothing re-ran
    assert second.results.keys() == first.results.keys()


def test_resume_retries_previous_failures(tmp_path):
    path = tmp_path / "sweep.json"
    bad = tiny_spec(workload="NO-SUCH-WORKLOAD")
    first = run_sweep([bad], checkpoint=path)
    assert bad.key() in first.failures

    # The failure is durable...
    assert bad.key() in SweepCheckpoint(path).load().failures
    # ...and a resumed sweep retries it rather than skipping.
    second = run_sweep([bad], checkpoint=path)
    assert bad.key() in second.failures and not second.skipped


def test_checkpoint_partial_results_survive_a_crash(tmp_path):
    path = tmp_path / "sweep.json"
    good = tiny_spec()
    run_sweep([good], checkpoint=path)

    # Simulate a later crash: the file alone must reconstruct the result.
    restored = SweepCheckpoint(path).load()
    assert restored.is_completed(good.key())
    assert restored.completed[good.key()].duration_ns > 0


def test_no_resume_reruns_everything(tmp_path):
    path = tmp_path / "sweep.json"
    spec = tiny_spec()
    run_sweep([spec], checkpoint=path)
    fresh_runs = []
    outcome = run_sweep(
        [spec],
        checkpoint=path,
        resume=False,
        on_result=lambda key, m: fresh_runs.append(key),
    )
    assert outcome.ok() and fresh_runs == [spec.key()]


def test_checkpoint_creates_missing_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "sweep.json"
    outcome = run_sweep([tiny_spec()], checkpoint=path)
    assert outcome.ok()
    assert path.exists()


def test_checkpoint_file_is_valid_json_with_schema(tmp_path):
    path = tmp_path / "sweep.json"
    run_sweep([tiny_spec()], checkpoint=path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == "repro.sweep-checkpoint.v1"
    assert payload["completed"]


# ----------------------------------------------------------------------
# Wall-clock timeout
# ----------------------------------------------------------------------
def test_sweep_records_timeouts_as_failures(tmp_path):
    # A generous scenario with a microscopic budget must fail cleanly.
    spec = tiny_spec(blocks=256, pages_per_block=32, measure_s=30)
    outcome = run_sweep([spec], timeout_s=0.05)
    assert spec.key() in outcome.failures
    assert "ScenarioTimeoutError" in outcome.failures[spec.key()]


def test_sweep_records_timeouts_in_pool_workers():
    """The budget is a deadline the event loop checks, not a signal to
    the main thread, so it holds in worker processes too."""
    specs = [
        tiny_spec(policy=name, blocks=256, pages_per_block=32, measure_s=30)
        for name in ("L-BGC", "JIT-GC")
    ]
    outcome = run_sweep(specs, timeout_s=0.05, jobs=2)
    assert not outcome.results
    assert sorted(outcome.failures) == sorted(spec.key() for spec in specs)
    for error in outcome.failures.values():
        assert error.startswith("ScenarioTimeoutError")


# ----------------------------------------------------------------------
# Persistence of the fault-metric fields
# ----------------------------------------------------------------------
def test_metrics_roundtrip_preserves_fault_fields():
    metrics = fake_metrics(
        injected_faults=5,
        read_retries=2,
        program_faults=1,
        blocks_retired=3,
        effective_op_pages=128,
        op_timeline=[(10, 256), (20, 128)],
        device_read_only=True,
    )
    restored = metrics_from_dict(metrics_to_dict(metrics))
    assert restored == metrics
    assert restored.op_timeline == [(10, 256), (20, 128)]  # tuples, not lists
    assert dataclasses.asdict(restored) == dataclasses.asdict(metrics)


def test_scenario_key_includes_fault_profile():
    assert tiny_spec().key().endswith("faults-none")
    assert tiny_spec(fault_profile="heavy").key().endswith("faults-heavy")


# ----------------------------------------------------------------------
# Parallel executor: a --jobs run must agree with (and resume from) a
# serial run's checkpoint.
# ----------------------------------------------------------------------
def test_parallel_sweep_resumes_serial_checkpoint(tmp_path):
    base = ScenarioSpec(blocks=128, pages_per_block=32, warmup_s=5, measure_s=10, seed=3)
    first = [base.with_policy(name) for name in ("L-BGC", "JIT-GC")]
    checkpoint = os.fspath(tmp_path / "sweep.json")

    serial = run_sweep(first, checkpoint=checkpoint)
    assert serial.ok() and not serial.skipped

    superset = first + [base.with_policy("A-BGC")]
    parallel = run_sweep(superset, checkpoint=checkpoint, jobs=2)
    assert parallel.ok()
    # The serial results were resumed, not re-run...
    assert sorted(parallel.skipped) == sorted(spec.key() for spec in first)
    for spec in first:
        assert parallel.results[spec.key()] == serial.results[spec.key()]
    # ...results come back in input order, and the fresh scenario matches
    # what a serial run of it produces.
    assert list(parallel.results) == [spec.key() for spec in superset]
    alone = run_sweep([superset[-1]])
    assert parallel.results[superset[-1].key()] == alone.results[superset[-1].key()]


def _die_hard():
    """A policy factory that kills its worker process outright: no
    exception, no result, just a dead process (as an OOM kill would)."""
    os._exit(3)


def test_worker_death_fails_its_scenarios_and_they_resume(tmp_path):
    checkpoint = os.fspath(tmp_path / "sweep.json")
    specs = [tiny_spec(policy=name) for name in ("L-BGC", "JIT-GC", "A-BGC", "ADP-GC")]
    dying = specs[1].with_policy("JIT-GC", _die_hard)
    keys = [spec.key() for spec in specs]

    outcome = run_sweep([specs[0], dying, *specs[2:]], checkpoint=checkpoint, jobs=2)
    # The dead worker's scenario fails, and so may any other the broken
    # pool took down with it; nothing is lost or counted twice.
    assert outcome.failures[dying.key()].startswith("BrokenProcessPool")
    assert set(outcome.results) | set(outcome.failures) == set(keys)
    assert not set(outcome.results) & set(outcome.failures)
    assert list(outcome.results) == [key for key in keys if key in outcome.results]
    stored = SweepCheckpoint(checkpoint).load()
    assert set(stored.failures) == set(outcome.failures)
    assert not any(stored.is_completed(key) for key in outcome.failures)

    # Every failure is retried on resume; every success is skipped.
    resumed = run_sweep(specs, checkpoint=checkpoint, jobs=2)
    assert resumed.ok()
    assert sorted(resumed.skipped) == sorted(outcome.results)
    assert list(resumed.results) == keys


def test_streamed_aggregation_matches_serial_at_scale():
    # The worker pool's aggregation must reproduce the serial results
    # exactly at sweep scale.  Default 100 scenarios (the acceptance
    # scale); REPRO_SWEEP_SCALE trims it for constrained CI runners.
    count = int(os.environ.get("REPRO_SWEEP_SCALE", "100"))
    base = ScenarioSpec(
        workload="YCSB", blocks=48, pages_per_block=8, warmup_s=0, measure_s=1
    )
    policies = ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC")
    specs = [
        dataclasses.replace(base.with_policy(policies[i % len(policies)]), seed=i)
        for i in range(count)
    ]
    assert len({spec.key() for spec in specs}) == count
    serial = run_sweep(list(specs), jobs=1)
    streamed = run_sweep(list(specs), jobs=2)
    assert serial.ok() and streamed.ok()
    assert list(streamed.results) == list(serial.results) == [s.key() for s in specs]
    assert streamed.results == serial.results
