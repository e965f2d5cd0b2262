"""Tests for the synthetic workload and trace record/replay."""

import pytest

from repro.core.policies import NoBgcPolicy
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads import Region, SyntheticWorkload
from repro.workloads.trace import (
    TraceRecord,
    TraceRecorder,
    TraceWorkload,
    load_trace,
    save_trace,
)


def make_host():
    return HostSystem(SsdConfig.small(blocks=128, pages_per_block=16), NoBgcPolicy())


def test_synthetic_respects_direct_fraction():
    host = make_host()
    metrics = MetricsCollector(host, "synthetic")
    workload = SyntheticWorkload(
        host, metrics, Region(0, 512),
        direct_fraction=1.0, write_fraction=1.0, think_ns=1000,
        burst_ops=64, idle_ns=0,
    )
    workload.start()
    host.run_for(2 * SECOND)
    workload.stop()
    assert host.dispatcher.stats.buffered_bytes == 0
    assert host.dispatcher.stats.direct_bytes > 0


def test_synthetic_validation():
    host = make_host()
    metrics = MetricsCollector(host, "synthetic")
    with pytest.raises(ValueError):
        SyntheticWorkload(host, metrics, Region(0, 512), direct_fraction=1.5)
    with pytest.raises(ValueError):
        SyntheticWorkload(host, metrics, Region(0, 512), min_pages=3, max_pages=2)


def test_trace_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(0, "chmod", 0, 1)
    with pytest.raises(ValueError):
        TraceRecord(-1, "read", 0, 1)
    with pytest.raises(ValueError):
        TraceRecord(0, "write", 0, 0)


def test_trace_save_load_roundtrip(tmp_path):
    records = [
        TraceRecord(0, "write", 10, 4, direct=True),
        TraceRecord(1000, "read", 10, 4),
        TraceRecord(2000, "trim", 10, 4),
    ]
    path = tmp_path / "trace.csv"
    assert save_trace(records, path) == 3
    loaded = load_trace(path)
    assert loaded == records


def test_recorder_captures_dispatcher_traffic(tmp_path):
    host = make_host()
    recorder = TraceRecorder(host.dispatcher, host.sim)
    host.dispatcher.write(5, 2, direct=True)
    host.dispatcher.read(5, 2)
    host.dispatcher.trim(5, 2)
    host.run_for(SECOND)
    recorder.detach()
    host.dispatcher.write(9, 1, direct=True)  # after detach: not recorded
    ops = [(r.op, r.lpn, r.pages, r.direct) for r in recorder.records]
    assert ops == [("write", 5, 2, True), ("read", 5, 2, False), ("trim", 5, 2, False)]


def test_trace_replay_reproduces_traffic():
    # Record a synthetic run ...
    host1 = make_host()
    recorder = TraceRecorder(host1.dispatcher, host1.sim)
    metrics1 = MetricsCollector(host1, "synthetic")
    workload = SyntheticWorkload(
        host1, metrics1, Region(0, 512), think_ns=10_000, burst_ops=32, idle_ns=0
    )
    workload.start()
    host1.run_for(SECOND)
    workload.stop()
    recorder.detach()
    assert recorder.records

    # ... and replay it on a fresh host: byte-identical write traffic.
    host2 = make_host()
    metrics2 = MetricsCollector(host2, "trace")
    replay = TraceWorkload(host2, metrics2, Region(0, 512), recorder.records)
    replay.start()
    host2.run_for(5 * SECOND)
    s1, s2 = host1.dispatcher.stats, host2.dispatcher.stats
    assert s2.buffered_bytes == s1.buffered_bytes
    assert s2.direct_bytes == s1.direct_bytes


def ops_entered(host):
    """Every write/read/trim that entered the dispatcher so far."""
    stats = host.dispatcher.stats
    return (
        stats.buffered_ops
        + stats.direct_ops
        + stats.read_ops
        + stats.trim_ops
        + host.dispatcher.blocked_writers
    )


def test_recorder_records_a_trimming_workload():
    """``op_trim`` hands the dispatcher a completion callback; the
    recorder's wrapper has to take it and pass it on."""
    host = make_host()
    recorder = TraceRecorder(host.dispatcher, host.sim)
    metrics = MetricsCollector(host, "synthetic")
    workload = SyntheticWorkload(
        host, metrics, Region(0, 512),
        trim_fraction=0.2, think_ns=10_000, burst_ops=32, idle_ns=0,
    )
    workload.start()
    host.run_for(2 * SECOND)
    workload.stop()
    recorder.detach()
    trims = [r for r in recorder.records if r.op == "trim"]
    assert trims and len(trims) == host.dispatcher.stats.trim_ops
    assert len(recorder.records) == ops_entered(host)
    # Every discard completed: the actors went on issuing after each one.
    assert metrics.iops_meter.total_ops >= len(recorder.records) - workload.actors


def test_recorder_attached_after_start_sees_every_op():
    """The recorder patches the dispatcher *instance*: a workload may
    keep the dispatcher it was built with, but has to look ``write`` /
    ``read`` / ``trim`` up on it per call."""
    host = make_host()
    metrics = MetricsCollector(host, "synthetic")
    workload = SyntheticWorkload(
        host, metrics, Region(0, 512),
        trim_fraction=0.2, think_ns=10_000, burst_ops=32, idle_ns=0,
    )
    workload.start()
    host.run_for(SECOND // 2)
    before = ops_entered(host)
    assert before > 0
    recorder = TraceRecorder(host.dispatcher, host.sim)
    host.run_for(SECOND)
    recorder.detach()
    assert len(recorder.records) == ops_entered(host) - before
    assert {r.op for r in recorder.records} == {"write", "read", "trim"}
    host.run_for(SECOND // 2)  # detached: the workload runs on, unrecorded
    assert len(recorder.records) < ops_entered(host) - before
