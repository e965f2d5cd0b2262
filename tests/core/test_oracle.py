"""Tests for the oracle (ideal) BGC policy and its two-pass harness."""

import pytest

from repro.core.oracle import FutureWriteLog, FutureWriteRecorder, OracleGcPolicy
from repro.experiments.oracle import run_oracle_comparison
from repro.experiments.runner import ScenarioSpec
from repro.host import HostSystem
from repro.obs import ObservabilityConfig
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.request import IoKind, IoRequest


def test_future_log_windowing():
    log = FutureWriteLog(SECOND, [100, 200, 300, 400])
    assert log.demand_bytes(0, 2) == 300
    assert log.demand_bytes(SECOND, 2) == 500
    assert log.demand_bytes(3 * SECOND, 5) == 400  # clipped at the end
    assert log.demand_bytes(10 * SECOND, 2) == 0   # past the recording
    assert len(log) == 4


def test_future_log_validation():
    with pytest.raises(ValueError):
        FutureWriteLog(0, [])


def test_recorder_buckets_by_interval():
    from repro.core.policies import NoBgcPolicy

    host = HostSystem(SsdConfig.small(blocks=64, pages_per_block=8), NoBgcPolicy())
    recorder = FutureWriteRecorder(host.device, SECOND)
    host.device.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 2))
    host.run_for(SECOND + SECOND // 2)
    host.device.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 3))
    host.run_for(SECOND)
    log = recorder.log()
    assert log.volumes_bytes[0] == 2 * 4096
    assert log.volumes_bytes[1] == 3 * 4096


def test_recorder_ignores_reads():
    from repro.core.policies import NoBgcPolicy

    host = HostSystem(SsdConfig.small(blocks=64, pages_per_block=8), NoBgcPolicy())
    recorder = FutureWriteRecorder(host.device, SECOND)
    host.device.submit(IoRequest(IoKind.READ, 0, 4))
    host.run_for(SECOND)
    assert len(recorder.log()) == 0


def test_oracle_policy_reserves_known_demand():
    future = FutureWriteLog(SECOND, [4096 * 50] * 20)
    policy = OracleGcPolicy(future, horizon_intervals=2)
    host = HostSystem(SsdConfig.small(blocks=128, pages_per_block=16), policy)
    host.prefill(host.user_pages // 2)
    host.run_for(5 * SECOND)
    # 100 pages of future demand: the oracle reclaims toward it.
    assert host.ftl.free_pages() >= 100


def test_oracle_validation():
    with pytest.raises(ValueError):
        OracleGcPolicy(FutureWriteLog(SECOND, []), horizon_intervals=0)


def test_oracle_comparison_end_to_end():
    spec = ScenarioSpec(
        workload="TPC-C", blocks=256, pages_per_block=16, warmup_s=5, measure_s=15
    )
    result = run_oracle_comparison(spec)
    assert set(result.raw) == {"JIT-GC", "ORACLE"}
    assert result.raw["ORACLE"].iops > 0
    assert result.iops_gap() > 0
    assert "Oracle comparison" in result.format()


def test_oracle_comparison_runs_the_scenario_it_is_given(tmp_path):
    """Both passes run the runner's lifecycle: each traces to its own
    file, and a device worn to read-only ends the window, not the run."""
    spec = ScenarioSpec(
        workload="YCSB",
        blocks=128,
        pages_per_block=16,
        warmup_s=2,
        measure_s=30,
        fault_profile="heavy",
        obs=ObservabilityConfig(trace_path=str(tmp_path / "o.jsonl")),
    )
    result = run_oracle_comparison(spec)
    assert result.raw["JIT-GC"].device_read_only
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "o-JIT-GC.jsonl",
        "o-ORACLE.jsonl",
    ]
