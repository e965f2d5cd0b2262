"""Property-based tests (hypothesis) on core data structures and the
FTL's fundamental invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdh import CumulativeDataHistogram
from repro.ftl.ftl import PageMappedFtl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig
from tests.ftl.stamped import StampedPageMap

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=24)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


# ----------------------------------------------------------------------
# PageMap: arbitrary remap/unmap sequences preserve all invariants.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=15)),
        max_size=60,
    )
)
def test_pagemap_invariants_under_arbitrary_ops(ops):
    pm = StampedPageMap(GEOMETRY, user_pages=16)
    next_ppn = iter(range(GEOMETRY.total_pages))
    for is_write, lpn in ops:
        if is_write:
            try:
                ppn = next(next_ppn)
            except StopIteration:
                break
            pm.remap(lpn, ppn)
        else:
            pm.unmap(lpn)
    pm.invariant_check()
    # Every mapped LPN resolves, and resolution round-trips.
    for lpn in range(16):
        ppn = pm.lookup(lpn)
        if ppn is not None:
            assert pm.lpn_of_ppn(ppn) == lpn


# ----------------------------------------------------------------------
# FTL: random write/trim traffic never corrupts state, data stays
# readable, and WAF is always >= 1.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    writes=st.integers(min_value=50, max_value=400),
)
def test_ftl_invariants_under_random_traffic(seed, writes):
    import random

    rng = random.Random(seed)
    ftl = PageMappedFtl(
        NandArray(GEOMETRY, TIMING),
        SsdConfig(geometry=GEOMETRY, timing=TIMING, op_ratio=0.25, fgc_watermark=2),
    )
    user = ftl.space.user_pages
    live = set()
    for _ in range(writes):
        action = rng.random()
        lpn = rng.randrange(user // 2)
        if action < 0.8:
            ftl.host_write_page(lpn)
            live.add(lpn)
        elif action < 0.9 and live:
            victim = rng.choice(sorted(live))
            ftl.trim([victim])
            live.discard(victim)
        else:
            ftl.host_read_page(lpn)
    ftl.invariant_check()
    assert ftl.used_pages() == len(live)
    assert ftl.stats.waf() >= 1.0
    # Every live page still resolves to a valid physical page.
    for lpn in sorted(live):
        ppn = ftl.page_map.lookup(lpn)
        assert ppn is not None
        assert ftl.page_map.is_valid(ppn)


# ----------------------------------------------------------------------
# CDH: percentile read-outs are monotone in the probability and bounded
# by the observation range.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    observations=st.lists(
        st.integers(min_value=0, max_value=10**7), min_size=1, max_size=40
    ),
    p_low=st.floats(min_value=0.05, max_value=0.5),
    p_high=st.floats(min_value=0.55, max_value=1.0),
)
def test_cdh_percentile_monotone_and_bounded(observations, p_low, p_high):
    cdh = CumulativeDataHistogram(bin_bytes=4096)
    for value in observations:
        cdh.observe(value)
    low = cdh.percentile_bytes(p_low)
    high = cdh.percentile_bytes(p_high)
    assert low <= high
    assert cdh.percentile_bytes(1.0) >= max(observations)


# ----------------------------------------------------------------------
# Simulator: arbitrary schedules dispatch in non-decreasing time order.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
def test_simulator_dispatch_order(delays):
    from repro.sim.engine import Simulator

    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# Bandwidth estimator: estimate always strictly positive and converges
# toward a constant observed rate.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rate=st.integers(min_value=1000, max_value=10**9),
    prior=st.integers(min_value=1000, max_value=10**9),
)
def test_bandwidth_estimator_converges(rate, prior):
    from repro.sim.simtime import SECOND
    from repro.ssd.bandwidth import BandwidthEstimator

    est = BandwidthEstimator(prior_bytes_per_sec=float(prior), alpha=0.5)
    for _ in range(40):
        est.observe(rate, SECOND)
    assert est.bytes_per_second > 0
    assert abs(est.bytes_per_second - rate) / rate < 0.01
