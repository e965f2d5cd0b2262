"""Tests for SPO planning and the power-loss emulator."""

import numpy as np
import pytest

from repro.core.policies import lazy_bgc_policy
from repro.faults.powerloss import PowerLossEmulator, SpoPlan
from repro.host import HostSystem
from repro.nand.array import OOB_UNSTAMPED
from repro.sim.engine import SimulationError
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig


# ----------------------------------------------------------------------
# SpoPlan
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(ValueError):
        SpoPlan(at_ns=(-1,))
    with pytest.raises(ValueError):
        SpoPlan(random_cuts=-1)


def test_plan_enabled():
    assert not SpoPlan().enabled
    assert SpoPlan(at_ns=(5,)).enabled
    assert SpoPlan(random_cuts=2).enabled


def test_cut_times_sorted_deduped_and_deterministic():
    plan = SpoPlan(at_ns=(900, 100, 100), random_cuts=4, seed=3)
    times = plan.cut_times(0, 1_000_000)
    assert times == sorted(set(times))
    assert {100, 900} <= set(times)
    assert len([t for t in times if t not in (100, 900)]) == 4
    assert times == SpoPlan(at_ns=(900, 100, 100), random_cuts=4, seed=3).cut_times(
        0, 1_000_000
    )
    assert times != SpoPlan(at_ns=(900, 100), random_cuts=4, seed=4).cut_times(
        0, 1_000_000
    )


def test_random_cuts_need_a_window():
    with pytest.raises(ValueError):
        SpoPlan(random_cuts=1).cut_times(10, 10)
    assert SpoPlan(at_ns=(5,)).cut_times(10, 10) == [5]


# ----------------------------------------------------------------------
# PowerLossEmulator
# ----------------------------------------------------------------------
def _small_host():
    config = SsdConfig.small(blocks=32, pages_per_block=8)
    host = HostSystem(config, lazy_bgc_policy(), seed=1)
    host.prefill(host.user_pages // 2)
    return host


def test_cut_power_tears_frontiers_and_kills_the_queue():
    host = _small_host()
    host.run_for(SECOND)
    ftl = host.ftl
    user_block = ftl.active_user_block
    frontier_page = int(ftl.nand.program_ptr[user_block])
    open_pages = [
        (block, int(ftl.nand.program_ptr[block]))
        for block in (user_block, ftl.active_gc_block)
        if ftl.nand.program_ptr[block] < host.config.geometry.pages_per_block
    ]
    emulator = PowerLossEmulator()
    cut = emulator.cut_power(host)

    assert cut.t_ns == host.sim.now
    assert cut.durable is not None
    # The flusher (at minimum) had an event pending on the rail.
    assert cut.events_dropped >= 1
    assert (user_block, frontier_page) in cut.torn
    # Dram mode tears exactly its two write streams, user then GC.
    assert cut.torn == open_pages
    # The torn page is consumed but unstamped on the captured image.
    ppn = user_block * host.config.geometry.pages_per_block + frontier_page
    assert cut.durable.program_ptr[user_block] == frontier_page + 1
    assert cut.durable.oob_seq[ppn] == OOB_UNSTAMPED
    assert emulator.cuts == [cut]
    # The dead simulator refuses further scheduling.
    with pytest.raises(SimulationError):
        host.run_for(SECOND)


def _dftl_host():
    # Four translation pages behind a one-page CMT: the prefill alone
    # writes translation pages back, so the third frontier is mid-block.
    config = SsdConfig.small(
        blocks=256, pages_per_block=8, mapping_mode="dftl", cmt_budget_bytes=4096
    )
    host = HostSystem(config, lazy_bgc_policy(), seed=1)
    host.prefill(host.user_pages // 2)
    return host


def test_dftl_cut_tears_the_translation_frontier_too_and_recovers():
    host = _dftl_host()
    host.run_for(SECOND)
    ftl = host.ftl
    ppb = host.config.geometry.pages_per_block
    trans_block = ftl.active_trans_block
    trans_page = int(ftl.nand.program_ptr[trans_block])
    assert 0 < trans_page < ppb  # open, and already holding flushed pages
    open_blocks = [
        f.block for f in ftl.frontiers if ftl.nand.program_ptr[f.block] < ppb
    ]

    cut = PowerLossEmulator().cut_power(host)

    # Every open write stream tears -- the same set the crash sweep's
    # verify_crash_point tears -- and the translation frontier's
    # in-flight page is among them, consumed but unstamped.
    assert [block for block, _page in cut.torn] == open_blocks
    assert (trans_block, trans_page) in cut.torn
    assert cut.durable.program_ptr[trans_block] == trans_page + 1
    assert cut.durable.oob_seq[trans_block * ppb + trans_page] == OOB_UNSTAMPED

    recovered, report = host.config.recover_from(cut.durable)
    assert report.torn_pages == len(cut.torn)
    assert report.trans_pages_mapped == ftl.page_map.gtd_mapped_count > 0
    # The dead host's DRAM mapping is the live reference.
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    assert np.array_equal(
        recovered.page_map.gtd_snapshot(), ftl.page_map.gtd_snapshot()
    )
    recovered.invariant_check()
    recovered.host_write_page(0)  # the recovered device serves writes


def test_resume_at_restores_the_timeline():
    host = _small_host()
    emulator = PowerLossEmulator()
    cut = emulator.cut_power(host)
    resumed = HostSystem(
        host.config,
        lazy_bgc_policy(),
        seed=2,
        start_time_ns=cut.t_ns + 123,
    )
    assert resumed.sim.now == cut.t_ns + 123
    resumed.run_for(SECOND)
    assert resumed.sim.now == cut.t_ns + 123 + SECOND
