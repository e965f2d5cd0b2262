"""The crash-point equality battery, one check at a time.

:func:`verify_crash_point` recovers a copy of the live device and compares
the two.  Each case below perturbs the *recovered* side right after
recovery returns and expects exactly that check's
:class:`CrashPointMismatch`; the negatives perturb pages no table maps
(a stale copy, a torn frontier page), where the two images may differ
freely.  The device is a checkpointed, TRIM-heavy dftl one, so the
translation-tier checks run too.
"""

import re

import numpy as np
import pytest

from repro.experiments import crashsweep
from repro.experiments.crashsweep import (
    CrashPointMismatch,
    gc_heavy_spec,
    verify_crash_point,
)
from repro.experiments.runner import _run_scenario_host
from repro.ftl.mapping import UNMAPPED

SPEC = gc_heavy_spec(
    blocks=96,
    pages_per_block=16,
    measure_s=6,
    seed=9,
    trim_heavy=True,
    checkpoint_interval=512,
    mapping="dftl",
)


@pytest.fixture(scope="module")
def live():
    _, host = _run_scenario_host(SPEC)
    page_map = host.ftl.page_map
    assert page_map.mapped_count > 2
    assert np.count_nonzero(page_map.gtd_snapshot() != UNMAPPED) >= 2
    return host


def recovering_with(monkeypatch, mutate):
    """Make ``verify_crash_point``'s recoveries hand back a perturbed FTL."""
    real = crashsweep.recover_ftl

    def recover(nand, config, *args, **kwargs):
        ftl, report = real(nand, config, *args, **kwargs)
        mutate(ftl, nand)
        return ftl, report

    monkeypatch.setattr(crashsweep, "recover_ftl", recover)


def _mapped(table):
    return np.flatnonzero(table != UNMAPPED)


def swap_l2p(ftl, nand):
    a, b = _mapped(ftl.page_map._l2p)[:2]
    l2p = ftl.page_map._l2p
    l2p[[a, b]] = l2p[[b, a]]


def bump_mapped_count(ftl, nand):
    ftl.page_map.mapped_count += 1


def bump_valid_count(ftl, nand):
    ftl.page_map._valid_per_block[ftl.active_user_block] += 1


def bump_erase_count(ftl, nand):
    nand.endurance.erase_counts[0] += 1


def bump_write_seq(ftl, nand):
    ftl._write_seq += 1


def swap_gtd(ftl, nand):
    a, b = _mapped(ftl.page_map._gtd)[:2]
    gtd = ftl.page_map._gtd
    gtd[[a, b]] = gtd[[b, a]]


def bump_gtd_mapped_count(ftl, nand):
    ftl.page_map.gtd_mapped_count += 1


def restamp_translation_page(ftl, nand):
    gtd = ftl.page_map._gtd
    nand.oob_seq[gtd[_mapped(gtd)[-1]]] += 1


def restamp_data_page(ftl, nand):
    l2p = ftl.page_map._l2p
    nand.oob_seq[l2p[_mapped(l2p)[-1]]] += 1


def shrink_free_pool(ftl, nand):
    assert ftl.allocator.allocate() is not None


CHECKS = [
    (swap_l2p, "L2P mismatch after recovery: 2 LPNs map differently"),
    (bump_mapped_count, "mapped_count "),
    (bump_valid_count, "per-block valid counts diverged"),
    (bump_erase_count, "erase counters diverged across the cut"),
    (bump_write_seq, "write_seq "),
    (swap_gtd, "GTD mismatch after recovery: 2 TVPNs map differently"),
    (bump_gtd_mapped_count, "gtd_mapped_count "),
    (restamp_translation_page, "OOB stamps of mapped translation pages diverged"),
    (restamp_data_page, "OOB stamps of mapped pages diverged"),
    (shrink_free_pool, "free pool "),
]


@pytest.mark.parametrize(
    "mutate,message", CHECKS, ids=[mutate.__name__ for mutate, _ in CHECKS]
)
def test_each_check_catches_its_own_divergence(live, monkeypatch, mutate, message):
    recovering_with(monkeypatch, mutate)
    with pytest.raises(CrashPointMismatch, match="^" + re.escape(message)):
        verify_crash_point(live.ftl, live.config)


def test_the_unperturbed_recovery_passes(live):
    report = verify_crash_point(live.ftl, live.config, nested=True)
    assert not report.read_only and not report.full_scan


def test_a_restamped_stale_page_is_no_divergence(live, monkeypatch):
    """A page whose data was superseded is garbage on both images: its
    stamp is never read back, so it may differ."""
    page_map, nand = live.ftl.page_map, live.ftl.nand
    stale = np.flatnonzero((nand.oob_seq != -1) & ~page_map._valid)
    assert stale.size

    def restamp(ftl, recovered):
        recovered.oob_seq[stale] += 1
        recovered.oob_lpn[stale] = 0

    recovering_with(monkeypatch, restamp)
    verify_crash_point(live.ftl, live.config)


def test_a_restamped_torn_frontier_page_is_no_divergence(live, monkeypatch):
    """The cut tears each open frontier's next page on the copy only; a
    stamp appearing there (the live page is still erased) maps nothing."""
    nand, ppb = live.ftl.nand, live.ftl.geometry.pages_per_block
    torn = [
        frontier.block * ppb + int(nand.program_ptr[frontier.block])
        for frontier in live.ftl.frontiers
        if int(nand.program_ptr[frontier.block]) < ppb
    ]
    assert torn

    def restamp(ftl, recovered):
        for ppn in torn:
            assert recovered.oob_seq[ppn] == -1  # torn: consumed, unstamped
            recovered.oob_lpn[ppn] = 0
            recovered.oob_seq[ppn] = 1

    recovering_with(monkeypatch, restamp)
    verify_crash_point(live.ftl, live.config)


def test_a_nested_crash_point_leaves_the_live_device_alone(live, monkeypatch):
    """Both power-ons of a nested point adopt a *captured* image, never
    the live arrays: with each recovered device written to right after
    its battery passed, the live NAND columns, L2P and GTD stay
    bit-identical."""
    ftl, nand = live.ftl, live.ftl.nand

    def state():
        return {
            "oob_lpn": nand.oob_lpn.copy(),
            "oob_seq": nand.oob_seq.copy(),
            "program_ptr": nand.program_ptr.copy(),
            "block_states": nand.block_states.copy(),
            "l2p": ftl.page_map.l2p_snapshot(),
            "gtd": ftl.page_map.gtd_snapshot(),
        }

    real = crashsweep._check_recovered_against_live
    written = []

    def check_then_write(live_ftl, live_side, recovered, *args, **kwargs):
        # The nested power-on runs over the first device's writes, so only
        # the first battery can still match the live device.
        if not written:
            real(live_ftl, live_side, recovered, *args, **kwargs)
        for lpn in range(recovered.page_map.entries_per_tpage * 2):
            recovered.host_write_page(lpn)
        written.append(recovered)

    monkeypatch.setattr(crashsweep, "_check_recovered_against_live", check_then_write)
    before = state()
    report = verify_crash_point(ftl, live.config, nested=True)
    assert not report.read_only and len(written) == 2
    after = state()
    for name, column in before.items():
        assert np.array_equal(after[name], column), name
    ftl.invariant_check()
