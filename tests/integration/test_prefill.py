"""HostSystem.prefill: the extent fill against a per-page reference.

The fill writes the working set as ``host_write_extent`` calls cut where
the checkpoint policy may next fire.  Its contract is that the device
ends exactly as a ``host_write_page`` loop leaves it: durable image
(checkpoints at the same host-page counts), mapping, victim index,
allocator, write sequence and every ``FtlStats`` counter.  The churn
that follows (``age=True``) stays per page and must then see the same
device.
"""

import math

import numpy as np
import pytest

from repro.core.policies import NoBgcPolicy
from repro.faults.injector import FaultProfile
from repro.ftl.checkpoint_policy import (
    AdaptiveCheckpointPolicy,
    CheckpointPolicy,
    IntervalCheckpointPolicy,
)
from repro.ftl.ftl import DeviceReadOnlyError
from repro.host import HostSystem
from repro.ssd.config import SsdConfig

INTERVAL = 100  # not a multiple of pages_per_block: cuts land mid-block
CHECKPOINTS = {
    "none": {},
    "interval": {"checkpoint_interval_pages": INTERVAL},
    "adaptive": {"checkpoint_interval_pages": INTERVAL, "checkpoint_policy": "adaptive"},
}
FAULTS = {
    "clean": None,
    "program-erase-fail": FaultProfile(program_fail_prob=0.002, erase_fail_prob=0.02),
    # Retires past the spare capacity: the fill ends read-only mid-way.
    "to-read-only": FaultProfile(program_fail_prob=0.01, erase_fail_prob=0.02),
}


def _host(mapping, checkpoint, faults):
    config = SsdConfig.small(
        blocks=128,
        pages_per_block=16,
        mapping_mode=mapping,
        fault_profile=FAULTS[faults],
        **CHECKPOINTS[checkpoint],
    )
    return HostSystem(config, NoBgcPolicy(), seed=3)


def _per_page_reference(host):
    """The fill written page by page: every extent the prefill hands the
    FTL goes through a ``host_write_page`` loop instead."""
    ftl = host.ftl

    def per_page(lpn, count):
        return sum(ftl.host_write_page(lpn + i) for i in range(count))

    ftl.host_write_extent = per_page


def _assert_same_device(a, b):
    da, db = a.nand.capture_durable_state(), b.nand.capture_durable_state()
    for name, value in vars(da).items():
        other = getattr(db, name)
        if name == "meta":
            assert [(r.kind, r.generation, r.payload) for r in value.records] == [
                (r.kind, r.generation, r.payload) for r in other.records
            ]
            assert value.ring == other.ring
        elif isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        else:
            assert value == other, name
    assert np.array_equal(a.page_map.l2p_snapshot(), b.page_map.l2p_snapshot())
    if a.config.mapping_mode == "dftl":
        assert np.array_equal(a.page_map.gtd_snapshot(), b.page_map.gtd_snapshot())
        assert list(a.page_map._cmt.items()) == list(b.page_map._cmt.items())
    assert dict(a.victim_index.items()) == dict(b.victim_index.items())
    assert sorted(a.allocator) == sorted(b.allocator)
    assert [f.block for f in a.frontiers] == [f.block for f in b.frontiers]
    assert a._write_seq == b._write_seq
    assert a._op_counter == b._op_counter
    assert a.stats == b.stats
    a.invariant_check()
    b.invariant_check()


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("checkpoint", sorted(CHECKPOINTS))
@pytest.mark.parametrize("mapping", ["dram", "dftl"])
def test_prefill_matches_the_per_page_fill(mapping, checkpoint, faults):
    extent, reference = (_host(mapping, checkpoint, faults) for _ in range(2))
    _per_page_reference(reference)
    pages = extent.user_pages * 3 // 4
    outcomes = []
    for host in (extent, reference):
        try:
            host.prefill(pages)
            outcomes.append("writable")
        except DeviceReadOnlyError:
            outcomes.append("read-only")
    assert outcomes == [outcomes[0]] * 2
    assert outcomes[0] == ("read-only" if faults == "to-read-only" else "writable")
    _assert_same_device(extent.ftl, reference.ftl)
    if checkpoint != "none":
        assert extent.ftl.stats.checkpoints_written > 0
    if faults != "clean":
        assert extent.ftl.stats.program_faults > 0


def test_interval_fill_takes_only_the_extent_path():
    host = _host("dram", "interval", "clean")
    ftl = host.ftl
    calls = {"host_write_page": 0, "host_write_extent": 0}
    for name in calls:
        def counted(*args, _name=name, _method=getattr(ftl, name)):
            calls[_name] += 1
            return _method(*args)
        setattr(ftl, name, counted)
    pages = host.user_pages * 3 // 4
    host.prefill(pages, age=False)
    assert calls["host_write_page"] == 0
    assert 0 < calls["host_write_extent"] <= math.ceil(pages / INTERVAL) + 1
    assert ftl.stats.checkpoints_written == pages // INTERVAL


@pytest.mark.parametrize("since", [0, 1, INTERVAL - 1])
def test_interval_policy_due_point(since):
    ftl = _host("dram", "interval", "clean").ftl
    policy = ftl.checkpoint_policy
    assert isinstance(policy, IntervalCheckpointPolicy)
    for lpn in range(since):
        ftl.host_write_page(lpn)
    due = policy.pages_until_due(ftl)
    assert due == INTERVAL - since
    # Exactly the due-th page is the first that fires the checkpoint.
    for lpn in range(due - 1):
        ftl.host_write_page(lpn)
        assert ftl.stats.checkpoints_written == 0
    ftl.host_write_page(0)
    assert ftl.stats.checkpoints_written == 1
    assert policy.pages_until_due(ftl) == INTERVAL


def test_adaptive_policy_cannot_predict_its_due_point():
    ftl = _host("dftl", "adaptive", "clean").ftl
    assert isinstance(ftl.checkpoint_policy, AdaptiveCheckpointPolicy)
    assert ftl.checkpoint_policy.pages_until_due(ftl) == 1
    assert CheckpointPolicy().pages_until_due(ftl) == 1
    assert _host("dram", "none", "clean").ftl.checkpoint_policy is None


# ----------------------------------------------------------------------
# Argument and configuration errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("age", [False, True])
def test_negative_prefill_is_rejected(age):
    host = _host("dram", "none", "clean")
    with pytest.raises(ValueError, match="outside"):
        host.prefill(-5, age=age)
    assert host.ftl.stats.host_pages_written == 0


def _bounded_writes(ftl, budget):
    """Fail a runaway churn loop instead of hanging the suite."""
    left = [budget]

    def bounded(lpn, _write=ftl.host_write_page):
        left[0] -= 1
        if left[0] < 0:
            raise RuntimeError("prefill churn did not terminate")
        return _write(lpn)

    ftl.host_write_page = bounded


@pytest.mark.parametrize(
    "knobs", [{"op_ratio": 0.01}, {"op_ratio": 0.07, "fgc_watermark": 8}]
)
def test_churn_floor_below_the_gc_floor_is_rejected(knobs):
    """The churn stops at op_pages + 2 blocks free; foreground GC keeps
    more than that free, so the loop used to spin forever."""
    host = HostSystem(SsdConfig.small(blocks=64, pages_per_block=8, **knobs), NoBgcPolicy())
    _bounded_writes(host.ftl, 20 * host.ftl.geometry.total_pages)
    with pytest.raises(ValueError, match="op_ratio.*fgc_watermark"):
        host.prefill(host.user_pages // 2)
    assert host.ftl.stats.host_pages_written == 0


def test_churn_floor_at_the_gc_floor_terminates():
    """The boundary case: op_pages + 2 blocks equals the least free space
    foreground GC leaves after a write, which the churn does reach."""
    config = SsdConfig.small(blocks=64, pages_per_block=8, op_ratio=0.013)
    host = HostSystem(config, NoBgcPolicy())
    ftl = host.ftl
    floor = ftl.space.op_pages + 2 * 8
    assert floor == (ftl.fgc_watermark + 1) * 8 - 1
    _bounded_writes(ftl, 20 * ftl.geometry.total_pages)
    host.prefill(host.user_pages // 2)
    assert ftl.free_pages() <= floor
