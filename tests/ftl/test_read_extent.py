"""``host_read_extent`` against the per-page loop it replaced.

The extent path groups CMT accesses per translation page, slices the
L2P once per group and hands each group to the media, which reads a
plain device's group in one bulk call and defers the NAND bookkeeping of
fast-path ladder reads; none of that may be observable.  The reference kept here is the
per-page routine as it stood before the extent path existed
(:func:`reference_read_page`), driven over three identically prepared
FTLs: one reads each extent whole, one in a drawn partition of
sub-extents (single pages through ``host_read_page``), one page by page
through the reference.

The geometry has 64-byte pages, so a translation page holds 8 entries
and a 16-page extent spans up to three of them; blocks hold 4 pages, so
an extent written in one go repeats each physical block four times.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FAULT_PROFILES, FaultInjector, FaultProfile
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import CachedPageMap, PageMap
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.reliability import BitErrorModel, ReliabilityModel, ReliabilityProfile
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=64, pages_per_block=4, blocks_per_plane=48)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)
#: Three translation pages' worth of written LPNs, so that drawn reads
#: keep landing on the same blocks; reads reach past them into
#: never-written holes.
WRITE_SPAN, READ_SPAN = 24, 30
BUCKET = 1 << ReliabilityModel._DIST_SHIFT

#: One simulated ns is one modelled second: moving the test clock by
#: 150 k / 500 k / 2 M makes verdicts retry / soft decode / UECC
#: (tests/ftl/test_scrub.py derives the thresholds).
ACCEL = ReliabilityProfile(
    name="test-accel",
    bit_error_model=BitErrorModel(base_rber=1e-4, retention_scale_s=5_000.0),
    retention_threshold_s=100_000.0,
    disturb_threshold=1_000,
    scrub_scan_blocks=GEOMETRY.total_blocks,
    retention_accel=1e9,
)
RELIABILITY = {"off": None, "mlc": "mlc-20nm", "acc": ACCEL}
#: ``light`` draws from the read stream on every read but practically
#: never fires; ``reads`` fires often enough to walk the retry budget.
INJECTORS = {
    "none": None,
    "light": FAULT_PROFILES["light"],
    "reads": FaultProfile(read_uncorrectable_prob=0.25, read_retry_success_prob=0.5),
}


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def make_ftl(mapping, reliability, injector, cmt_pages=1, geometry=GEOMETRY):
    profile = INJECTORS[injector]
    config = SsdConfig(
        geometry=geometry,
        timing=TIMING,
        op_ratio=0.5,
        mapping_mode=mapping,
        cmt_budget_bytes=cmt_pages * geometry.page_size,
        reliability=RELIABILITY[reliability],
    )
    nand = NandArray(
        geometry,
        TIMING,
        read_disturb=config.build_read_disturb(),
        fault_injector=FaultInjector(profile, seed=5) if profile else None,
    )
    clock = _Clock()
    return PageMappedFtl(nand, config, clock=clock), clock


def reference_read_page(ftl, lpn):
    """The per-page host read as it stood before ``host_read_extent``:
    the page's own translation-tier touch, then its read."""
    latency = ftl.page_map.touch_span(lpn, 1, dirty=False)
    ppn = ftl.page_map.lookup(lpn)
    ftl.stats.host_pages_read += 1
    if ppn is None:
        return latency + ftl.nand.timing.transfer_ns_per_page
    read_ns, _ok = ftl.media.read(
        ftl.page_map.block_of(ppn), ftl.page_map.page_of(ppn)
    )
    return latency + read_ns + ftl.nand.timing.transfer_ns_per_page


def read_partitioned(ftl, lpn, count, cuts):
    """Read ``[lpn, lpn + count)`` as the sub-extents ``cuts`` delimit."""
    bounds = [0] + sorted({c for c in cuts if c < count}) + [count]
    latency = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            latency += ftl.host_read_page(lpn + lo)
        else:
            latency += ftl.host_read_extent(lpn + lo, hi - lo)
    return latency


def snapshot(ftl):
    """Everything a host read may touch, in comparable form."""
    pm, nand = ftl.page_map, ftl.nand
    dftl = isinstance(pm, CachedPageMap)
    injector, disturb = nand.fault_injector, nand.read_disturb
    return {
        "stats": dataclasses.asdict(ftl.stats),
        "retry_histogram": dict(ftl.media.ecc_retry_histogram),
        "ladder_memo": {block: list(entry) for block, entry in ftl.media._memo.items()},
        "read_counts": disturb.read_counts.tolist() if disturb is not None else None,
        "nand": (nand.page_reads, nand.page_programs, nand.program_ptr.tolist()),
        "cmt": list(pm._cmt.items()) if dftl else None,
        "gtd": pm._gtd.tolist() if dftl else None,
        "l2p": pm._l2p.tolist(),
        "write_seq": ftl._write_seq,
        "frontiers": [frontier.block for frontier in ftl.frontiers],
        # The streams' states are the injector's next draws.
        "injector": (
            {name: rng.bit_generator.state for name, rng in injector._rngs.items()},
            list(injector.fault_log),
        )
        if injector is not None
        else None,
    }


LPNS = st.integers(0, WRITE_SPAN - 1)
#: One round: maybe write an extent, maybe move the clock, maybe leave a
#: block's verdict 0-2 reads short of the end of its disturb bucket, then
#: read an extent (with the cut points of the partitioned replay).
ROUNDS = st.lists(
    st.tuples(
        st.none() | st.tuples(LPNS, st.integers(1, 8)),
        st.sampled_from([0, 0, 1_000, 150_000, 500_000, 2_000_000]),
        st.none() | st.tuples(LPNS, st.integers(0, 2)),
        st.tuples(
            st.integers(0, READ_SPAN - 1),
            st.integers(1, 16),
            st.lists(st.integers(1, 15), max_size=4),
        ),
    ),
    min_size=1,
    max_size=8,
)


def park_countdown(ftl, lpn, reads_left):
    """Make the ladder verdict of ``lpn``'s block run out after
    ``reads_left`` more reads: through its memo entry when it has one,
    else through the disturb counter the next verdict is computed from."""
    ppn = ftl.page_map.lookup(lpn)
    if ppn is None or ftl.nand.read_disturb is None:
        return
    block = ftl.page_map.block_of(ppn)
    entry = ftl.media._memo.get(block)
    if entry is not None:
        entry[2] = reads_left
    else:
        ftl.nand.read_disturb.read_counts[block] = BUCKET - 1 - reads_left


@pytest.mark.parametrize("injector", sorted(INJECTORS))
@pytest.mark.parametrize("reliability", sorted(RELIABILITY))
@pytest.mark.parametrize("mapping", ["dram", "dftl"])
@settings(max_examples=60, deadline=None)
@given(rounds=ROUNDS, cmt_pages=st.integers(1, 3))
def test_extent_read_equals_every_partition_down_to_single_pages(
    mapping, reliability, injector, rounds, cmt_pages
):
    trio = [make_ftl(mapping, reliability, injector, cmt_pages) for _ in range(3)]
    (whole, _), (split, _), (paged, _) = trio
    for write, tick, countdown, (lpn, count, cuts) in rounds:
        for ftl, clock in trio:
            if write is not None:
                for page in range(write[0], min(sum(write), WRITE_SPAN)):
                    ftl.host_write_page(page)
            clock.now += tick
            if countdown is not None:
                park_countdown(ftl, *countdown)
        latencies = (
            whole.host_read_extent(lpn, count),
            read_partitioned(split, lpn, count, cuts),
            sum(reference_read_page(paged, lpn + i) for i in range(count)),
        )
        assert latencies[0] == latencies[1] == latencies[2]
        expected = snapshot(paged)
        assert snapshot(whole) == expected
        assert snapshot(split) == expected
    whole.invariant_check()


def _nand_op_log(ftl, monkeypatch):
    """Every NAND page read (by block) and program of ``ftl``, in order;
    a bulk read logs each of its pages."""
    log = []
    nand = ftl.nand
    real_read, real_program = nand.read_page, nand.program_page
    real_scattered = nand.read_pages_scattered

    def read_page(block, page):
        log.append(("read", block))
        return real_read(block, page)

    def read_pages_scattered(blocks):
        log.extend(("read", block) for block in blocks)
        return real_scattered(blocks)

    def program_page(block, page, *args):
        log.append(("program", block))
        return real_program(block, page, *args)

    monkeypatch.setattr(nand, "read_page", read_page)
    monkeypatch.setattr(nand, "read_pages_scattered", read_pages_scattered)
    monkeypatch.setattr(nand, "program_page", program_page)
    return log


def test_dirty_eviction_lands_between_the_two_groups_data_reads(monkeypatch):
    """The second translation page's miss evicts a dirty entry: its
    translation read and the evicted page's program happen after the
    first group's data reads and before the second's."""
    logs = []
    for read in (
        lambda ftl: ftl.host_read_extent(6, 4),
        lambda ftl: sum(reference_read_page(ftl, lpn) for lpn in range(6, 10)),
    ):
        ftl, _ = make_ftl("dftl", "off", "none", cmt_pages=2)
        for lpn in (6, 7, 8, 9, 30, 0):
            ftl.host_write_page(lpn)
        # CMT, LRU first: tvpn 3 (dirty, from LPN 30), tvpn 0 (dirty).
        assert list(ftl.page_map._cmt.items()) == [(3, True), (0, True)]
        before = dataclasses.replace(ftl.stats)
        log = _nand_op_log(ftl, monkeypatch)
        latency = read(ftl)
        assert ftl.stats.cmt_evictions - before.cmt_evictions == 1
        assert ftl.stats.trans_pages_written - before.trans_pages_written == 1
        assert ftl.stats.trans_pages_read - before.trans_pages_read == 1
        logs.append((latency, log, snapshot(ftl)))
    assert logs[0] == logs[1]
    kinds = [kind for kind, _ in logs[0][1]]
    # data 6, data 7, tvpn 1's translation page, tvpn 3's writeback, data 8, data 9
    assert kinds == ["read", "read", "read", "program", "read", "read"]


@pytest.mark.parametrize("mapping", ["dram", "dftl"])
@pytest.mark.parametrize("lpn,count", [(-1, 2), (-4, 4), (0, 10**6), (None, 2)])
def test_out_of_range_extent_raises_and_changes_nothing(mapping, lpn, count):
    ftl, _ = make_ftl(mapping, "mlc", "none")
    for page in range(8):
        ftl.host_write_page(page)
    if lpn is None:
        lpn = ftl.space.user_pages - 1  # first page in range, last one not
    before = snapshot(ftl)
    with pytest.raises(IndexError):
        ftl.host_read_extent(lpn, count)
    assert snapshot(ftl) == before


@pytest.mark.parametrize("mapping, groups", [("dram", [16]), ("dftl", [4, 8, 4])])
def test_plain_device_reads_each_translation_group_in_one_bulk_call(
    mapping, groups, monkeypatch
):
    """No injector, no ladder: the media is the array, and a group of an
    extent (the whole extent in dram mode) is one bulk read."""
    ftl, _ = make_ftl(mapping, "off", "none", cmt_pages=3)
    for lpn in range(WRITE_SPAN):
        ftl.host_write_page(lpn)
    nand, calls = ftl.nand, []
    real_scattered = nand.read_pages_scattered
    monkeypatch.setattr(nand, "read_page", lambda block, page: calls.append("page"))

    def read_pages_scattered(blocks):
        calls.append(len(blocks))
        return real_scattered(blocks)

    monkeypatch.setattr(nand, "read_pages_scattered", read_pages_scattered)
    reads_before = nand.page_reads
    ftl.host_read_extent(4, 16)
    assert calls == groups
    assert nand.page_reads - reads_before == 16


def test_sixteen_pages_in_one_translation_page_cost_one_cmt_touch(monkeypatch):
    """Cost guard: the extent consults the CMT once per translation page
    and never calls the per-LPN lookup, yet accounts every page."""
    geometry = NandGeometry(page_size=128, pages_per_block=4, blocks_per_plane=48)
    ftl, _ = make_ftl("dftl", "mlc", "none", geometry=geometry)
    assert ftl.page_map.entries_per_tpage == 16
    for lpn in range(16, 32):
        ftl.host_write_page(lpn)
    calls = {"cmt_touch": 0, "lookup": 0}
    real_touch, real_lookup = CachedPageMap.cmt_touch, PageMap.lookup

    def cmt_touch(self, tvpn, dirty):
        calls["cmt_touch"] += 1
        return real_touch(self, tvpn, dirty)

    def lookup(self, lpn):
        calls["lookup"] += 1
        return real_lookup(self, lpn)

    monkeypatch.setattr(CachedPageMap, "cmt_touch", cmt_touch)
    monkeypatch.setattr(PageMap, "lookup", lookup)
    before = dataclasses.replace(ftl.stats)
    ftl.host_read_extent(16, 16)
    assert calls == {"cmt_touch": 1, "lookup": 0}
    accesses = (ftl.stats.cmt_hits + ftl.stats.cmt_misses) - (
        before.cmt_hits + before.cmt_misses
    )
    assert accesses == 16
    assert ftl.stats.host_pages_read - before.host_pages_read == 16
    assert ftl.stats.ecc_fast_reads - before.ecc_fast_reads == 16
