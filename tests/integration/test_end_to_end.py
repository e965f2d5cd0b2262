"""End-to-end integration tests across the full stack."""

import pytest

from repro.core.policies import (
    AdaptiveGcPolicy,
    JitGcPolicy,
    aggressive_bgc_policy,
    lazy_bgc_policy,
)
from repro.experiments.runner import ScenarioSpec, build_preconditioned_host
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.workloads import BENCHMARKS, Region


def run_stack(policy, workload_name="YCSB", seconds=20, blocks=256, ppb=16):
    host = HostSystem(SsdConfig.small(blocks=blocks, pages_per_block=ppb), policy)
    working_set = host.user_pages // 2
    host.prefill(working_set)
    metrics = MetricsCollector(host, workload_name)
    workload = BENCHMARKS[workload_name](host, metrics, Region(0, working_set))
    workload.start()
    host.run_for(5 * SECOND)
    metrics.begin()
    host.run_for(seconds * SECOND)
    metrics.end()
    workload.stop()
    return host, metrics.results()


def test_full_stack_with_jit_gc_stays_consistent():
    host, result = run_stack(JitGcPolicy())
    host.ftl.invariant_check()
    assert result.iops > 0
    assert result.waf >= 1.0
    policy = host.policy
    assert policy.manager.decisions > 0
    assert policy.buffered_predictor.invocations > 0


def test_full_stack_with_all_policies():
    for policy in (lazy_bgc_policy(), aggressive_bgc_policy(), AdaptiveGcPolicy(), JitGcPolicy()):
        host, result = run_stack(policy, seconds=10)
        host.ftl.invariant_check()
        assert result.iops > 0


def test_prefill_ages_device_to_op_capacity():
    host = HostSystem(SsdConfig.small(blocks=256, pages_per_block=16), lazy_bgc_policy())
    working_set = host.user_pages // 2
    host.prefill(working_set)
    # Logically full: free capacity within ~2 blocks of the OP capacity.
    floor = host.ftl.space.op_pages
    assert floor <= host.ftl.free_pages() <= floor + 4 * 16
    assert host.ftl.used_pages() == working_set


def test_prefill_bounds_checked():
    host = HostSystem(SsdConfig.small(blocks=64, pages_per_block=8), lazy_bgc_policy())
    with pytest.raises(ValueError):
        host.prefill(host.user_pages + 1)


def test_device_never_loses_data_under_gc_pressure():
    """Write known values' addresses; after heavy churn and GC, every
    live mapping still resolves (read path exercises it)."""
    host, _ = run_stack(JitGcPolicy(), workload_name="Postmark", seconds=15)
    pm = host.ftl.page_map
    resolved = 0
    for lpn in range(0, host.user_pages, 97):
        ppn = pm.lookup(lpn)
        if ppn is not None:
            assert pm.is_valid(ppn)
            assert pm.lpn_of_ppn(ppn) == lpn
            resolved += 1
    assert resolved > 0


def test_wear_leveling_integration():
    config = SsdConfig.small(
        blocks=128, pages_per_block=16,
        enable_wear_leveling=True, wear_level_threshold=4,
    )
    host = HostSystem(config, lazy_bgc_policy())
    host.prefill(host.user_pages // 2)
    metrics = MetricsCollector(host, "YCSB")
    workload = BENCHMARKS["YCSB"](host, metrics, Region(0, host.user_pages // 2))
    workload.start()
    host.run_for(30 * SECOND)
    workload.stop()
    stats = host.ftl.nand.wear_stats()
    assert stats.total_erases > 0
    assert host.ftl.stats.wl_blocks_collected > 0
    host.ftl.invariant_check()


def test_extended_interface_roundtrip_in_running_system():
    host, _ = run_stack(JitGcPolicy(), seconds=10)
    interface = host.policy.interface
    assert interface.commands_issued > 0
    assert interface.get_waf() >= 1.0
    assert interface.query_free_capacity() == host.ftl.free_bytes()


def test_direct_write_gc_keeps_the_victim_index_bounded():
    """The e2e ``gc-direct`` cell at 256x64: uniform direct 8-32-page
    writes over 95 % of the device, so every write stalls on foreground
    collections and every overwrite supersedes victim-index entries far
    above the victim level -- the entries only compaction removes."""
    spec = ScenarioSpec(
        workload="Synthetic",
        blocks=256,
        pages_per_block=64,
        working_set_fraction=0.95,
        warmup_s=5,
        measure_s=20,
        seed=3,
        workload_kwargs=dict(
            actors=4, direct_fraction=1.0, write_fraction=0.95, zipf_theta=0.0,
            min_pages=8, max_pages=32,
        ),
    )
    host, collector, actors, _ = build_preconditioned_host(spec)
    collected_before = host.ftl.stats.fgc_blocks_collected
    collector.begin()
    host.run_for(spec.measure_s * SECOND)
    collector.end()
    actors.stop()

    assert host.ftl.stats.fgc_blocks_collected - collected_before > 300
    assert host.cache.dirty_pages == 0  # direct writes never dirtied the cache
    index = host.ftl.victim_index
    assert len(index._heap) <= 4 * len(index) + 64
    host.ftl.invariant_check()
