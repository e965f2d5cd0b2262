"""HostSystem.prefill: the batched fill and churn against a per-page reference.

The fill writes the working set as ``host_write_extent`` calls cut where
the checkpoint policy may next fire; the churn that follows
(``age=True``) writes its random LPNs as ``host_write_pages`` calls.
The contract of both is that the device ends exactly as a
``host_write_page`` loop leaves it: durable image (checkpoints at the
same host-page counts), mapping, CMT order, victim index, allocator,
write sequence and every ``FtlStats`` counter.
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
from repro.nand.errors import BatchFaultPending
from repro.ssd.config import SsdConfig

INTERVAL = 100  # not a multiple of pages_per_block: cuts land mid-block
MAPPINGS = {
    "dram": {"mapping_mode": "dram"},
    # A one-page CMT: nearly every churn chunk ends at a miss.
    "dftl": {"mapping_mode": "dftl"},
    # A CMT holding the whole map: churn chunks run to the frontier's end.
    "dftl-cached": {"mapping_mode": "dftl", "cmt_budget_bytes": 1 << 16},
}
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
        fault_profile=FAULTS[faults],
        **MAPPINGS[mapping],
        **CHECKPOINTS[checkpoint],
    )
    return HostSystem(config, NoBgcPolicy(), seed=3)


def _per_page_reference(host):
    """The prefill written page by page: every extent and every churn
    batch it hands the FTL goes through a ``host_write_page`` loop
    instead."""
    ftl = host.ftl

    def per_page(lpn, count):
        return sum(ftl.host_write_page(lpn + i) for i in range(count))

    def per_page_churn(lpns, keep_free):
        used = 0
        for lpn in lpns:
            if ftl.free_pages() <= keep_free:
                break
            ftl.host_write_page(int(lpn))
            used += 1
        return used

    ftl.host_write_extent = per_page
    ftl.host_write_pages = per_page_churn


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
@pytest.mark.parametrize("mapping", sorted(MAPPINGS))
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


@pytest.mark.parametrize("mapping", ["dram", "dftl"])
def test_churn_repeating_lpns_in_a_chunk_matches_per_page(mapping):
    """A working set of 5 LPNs puts each one several times in every
    frontier-sized chunk: only the last copy stays valid, and its old
    page is invalidated once."""
    batched, reference = (_host(mapping, "interval", "clean") for _ in range(2))
    _per_page_reference(reference)
    repeats = []
    remap_pages = batched.ftl.page_map.remap_pages

    def watched(lpns, first_ppn):
        repeats.append(len(lpns) - len(set(lpns.tolist())))
        return remap_pages(lpns, first_ppn)

    batched.ftl.page_map.remap_pages = watched
    for host in (batched, reference):
        host.prefill(5)
        assert host.ftl.used_pages() == 5
    _assert_same_device(batched.ftl, reference.ftl)
    assert max(repeats) > 0


@pytest.mark.parametrize(
    "mapping, program_fail_prob, outcome",
    [("dram", 0.005, "writable"), ("dram", 0.01, "read-only"), ("dftl", 0.005, "writable")],
)
def test_churn_through_program_faults_matches_per_page(mapping, program_fail_prob, outcome):
    """Program faults inside churn chunks (at 0.01 they drive the device
    read-only mid-churn): each faulted chunk falls back one page, and
    the device still ends as the per-page churn leaves it.  The CMT holds
    every translation page, so dftl chunks are not cut by misses."""
    hosts = [
        HostSystem(
            SsdConfig.small(
                blocks=128,
                pages_per_block=16,
                mapping_mode=mapping,
                fault_profile=FaultProfile(program_fail_prob=program_fail_prob),
                checkpoint_interval_pages=INTERVAL,
                cmt_budget_bytes=1 << 16,
            ),
            NoBgcPolicy(),
            seed=3,
        )
        for _ in range(2)
    ]
    _per_page_reference(hosts[1])
    ftl = hosts[0].ftl
    fallbacks = []

    write, batch = ftl.host_write_pages, ftl.nand.program_pages_batch

    def churn(lpns, keep_free):
        def counted(*args, **kwargs):
            try:
                return batch(*args, **kwargs)
            except BatchFaultPending:
                fallbacks.append(args[:3])
                raise

        ftl.nand.program_pages_batch = counted
        try:
            return write(lpns, keep_free)
        finally:
            del ftl.nand.program_pages_batch

    ftl.host_write_pages = churn
    outcomes = []
    for host in hosts:
        try:
            host.prefill(host.user_pages // 2)
            outcomes.append("writable")
        except DeviceReadOnlyError:
            outcomes.append("read-only")
    assert outcomes == [outcome] * 2
    assert fallbacks
    _assert_same_device(hosts[0].ftl, hosts[1].ftl)


def test_host_write_pages_under_a_sip_list_matches_per_page():
    """The batched remap does not tell the SIP-overlap counters; with a
    SIP list installed every page takes the per-page helper."""
    batched, reference = (_host("dram", "none", "clean").ftl for _ in range(2))
    lpns = np.random.default_rng(5).integers(0, 200, size=300)
    for ftl in (batched, reference):
        ftl.host_write_extent(0, 200)
        ftl.set_sip_list(range(0, 200, 3))
    assert batched.host_write_pages(lpns, 0) == len(lpns)
    for lpn in lpns.tolist():
        reference.host_write_page(lpn)
    _assert_same_device(batched, reference)
    assert np.array_equal(batched.sip_index.snapshot(), reference.sip_index.snapshot())


def test_host_write_pages_stamps_the_op_counter_clock_as_the_loop_does():
    """A standalone FTL's clock is its op counter, and the reliability
    model stamps each block's last program with it."""
    config = SsdConfig.small(blocks=128, pages_per_block=16, reliability="mlc-20nm")
    batched, reference = (config.build_ftl() for _ in range(2))
    lpns = np.random.default_rng(7).integers(0, 300, size=400)
    for ftl in (batched, reference):
        ftl.host_write_extent(0, 300)
    assert batched.host_write_pages(lpns, 0) == len(lpns)
    for lpn in lpns.tolist():
        reference.host_write_page(lpn)
    _assert_same_device(batched, reference)
    assert batched.nand.last_program_ns.any()


def test_host_write_pages_stops_at_the_floor_and_reports_its_count():
    host = _host("dram", "none", "clean")
    ftl = host.ftl
    lpns = np.arange(40) % 7
    keep_free = ftl.free_pages() - 25
    assert ftl.host_write_pages(lpns, keep_free) == 25
    assert ftl.free_pages() == keep_free
    assert ftl.stats.host_pages_written == 25
    assert ftl.host_write_pages(lpns, keep_free) == 0
    with pytest.raises(IndexError):
        ftl.host_write_pages(np.array([0, host.user_pages]), 0)
    assert ftl.stats.host_pages_written == 25


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
    """Fail a runaway churn loop instead of hanging the suite: every page
    handed to ``host_write_page`` or ``host_write_pages`` spends budget."""
    left = [budget]

    def spend(pages):
        left[0] -= pages
        if left[0] < 0:
            raise RuntimeError("prefill churn did not terminate")

    def bounded(lpn, _write=ftl.host_write_page):
        spend(1)
        return _write(lpn)

    def bounded_pages(lpns, keep_free, _write=ftl.host_write_pages):
        spend(len(lpns))
        return _write(lpns, keep_free)

    ftl.host_write_page = bounded
    ftl.host_write_pages = bounded_pages


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
