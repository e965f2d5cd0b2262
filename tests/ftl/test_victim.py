"""Tests for victim selection: greedy, cost-benefit and SIP filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.mapping import PageMap
from repro.ftl.space import SipOverlapIndex, ValidCountIndex
from repro.ftl.victim import (
    CostBenefitSelector,
    GreedySelector,
    SipFilteredSelector,
)
from repro.nand.geometry import NandGeometry

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)


def build_map(block_contents):
    """block_contents: {block: [lpn, ...]} programs pages sequentially."""
    pm = PageMap(GEOMETRY, user_pages=GEOMETRY.total_pages)
    for block, lpns in block_contents.items():
        for offset, lpn in enumerate(lpns):
            pm.remap(lpn, pm.ppn(block, offset))
    return pm


def test_greedy_picks_min_valid():
    pm = build_map({0: [1, 2, 3], 1: [4], 2: [5, 6]})
    decision = GreedySelector().select(np.array([0, 1, 2]), pm)
    assert decision.block == 1
    assert decision.candidates_considered == 3
    assert decision.filtered_by_sip == 0


def test_greedy_tie_breaks_low_block():
    pm = build_map({3: [1], 5: [2]})
    decision = GreedySelector().select(np.array([3, 5]), pm)
    assert decision.block == 3


def test_greedy_empty_candidates():
    pm = build_map({})
    decision = GreedySelector().select(np.array([], dtype=int), pm)
    assert decision.block is None


def test_cost_benefit_prefers_older_blocks():
    # Same utilisation, different age: the older block wins.
    pm = build_map({0: [1, 2], 1: [3, 4]})
    ages = np.zeros(GEOMETRY.total_blocks)
    ages[0] = 100
    ages[1] = 10
    decision = CostBenefitSelector().select(np.array([0, 1]), pm, block_ages=ages)
    assert decision.block == 0


def test_cost_benefit_weighs_utilisation():
    # Very full old block loses to empty young block.
    pm = build_map({0: [1, 2, 3, 4], 1: []})
    ages = np.zeros(GEOMETRY.total_blocks)
    ages[0] = 1000
    ages[1] = 1
    decision = CostBenefitSelector().select(np.array([0, 1]), pm, block_ages=ages)
    assert decision.block == 1


def test_sip_filter_skips_sip_heavy_block():
    """The greedy-best block is SIP-dominated: it must be skipped and the
    skip counted (Table 3 metric)."""
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    decision = selector.select(np.array([0, 1]), pm, sip_lpns={1})
    assert decision.block == 1  # block 0 (valid={1}) is 100% SIP
    assert decision.filtered_by_sip == 1
    assert selector.total_filtered == 1
    assert selector.total_selections == 1


def test_sip_filter_no_sip_list_behaves_greedy():
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector()
    decision = selector.select(np.array([0, 1]), pm, sip_lpns=set())
    assert decision.block == 0
    assert decision.filtered_by_sip == 0


def test_sip_filter_below_threshold_not_skipped():
    pm = build_map({0: [1, 2, 3], 1: [4, 5, 6, 7]})
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    # Only 1/3 of block 0's valid pages are SIP -> keep it.
    decision = selector.select(np.array([0, 1]), pm, sip_lpns={1})
    assert decision.block == 0
    assert decision.filtered_by_sip == 0


def test_sip_filter_all_filtered_falls_back_to_greedy():
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    decision = selector.select(np.array([0, 1]), pm, sip_lpns={1, 2, 3})
    assert decision.block == 0  # fallback: plain greedy best
    assert decision.filtered_by_sip == 2


def test_sip_filter_empty_block_chosen_immediately():
    """A block with zero valid pages is a perfect victim regardless of SIP."""
    pm = build_map({0: [1], 1: []})
    pm.remap(1, pm.ppn(2, 0))  # invalidate block 0's only page
    selector = SipFilteredSelector()
    decision = selector.select(np.array([0, 1]), pm, sip_lpns={99})
    assert decision.block in (0, 1)
    assert pm.valid_count(decision.block) == 0


def test_sip_filtered_fraction():
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector()
    selector.select(np.array([0, 1]), pm, sip_lpns={1})      # one filter event
    selector.select(np.array([0, 1]), pm, sip_lpns=set())    # none
    assert selector.filtered_fraction() == pytest.approx(0.5)


def test_sip_filter_parameter_validation():
    with pytest.raises(ValueError):
        SipFilteredSelector(sip_fraction_threshold=0.0)
    with pytest.raises(ValueError):
        SipFilteredSelector(sip_fraction_threshold=1.5)
    with pytest.raises(ValueError):
        SipFilteredSelector(max_rank_scan=0)


def test_sip_valid_pages_counts_only_valid():
    pm = build_map({0: [1, 2]})
    pm.remap(1, pm.ppn(1, 0))  # LPN 1 leaves block 0
    selector = SipFilteredSelector()
    assert selector.sip_valid_pages(0, pm, {1, 2}) == 1


# ----------------------------------------------------------------------
# Indexed (lazy walk) path vs candidate-array (materialised ranking) path
# ----------------------------------------------------------------------
def indexed_state(block_contents, sip_lpns):
    """Page map plus the two indexes the FTL hands a selector, every
    programmed block tracked as closed."""
    pm = build_map(block_contents)
    index = ValidCountIndex()
    for block in block_contents:
        index.track(block, pm.valid_count(block))
    overlap = SipOverlapIndex(GEOMETRY.total_blocks)
    overlap.replace(sip_lpns, pm)
    return pm, index, overlap


def decision_fields(decision):
    return (
        decision.block,
        decision.filtered_by_sip,
        decision.candidates_considered,
        decision.valid_pages,
    )


def materialised_decision(pm, blocks, sip_lpns, excluded, threshold, max_rank_scan):
    """The selection rule spelled out over a fully sorted ranking."""
    ranked = sorted((pm.valid_count(b), b) for b in blocks if b not in excluded)
    if not ranked:
        return None, 0, 0, None
    chosen, filtered = ranked[0], 0
    for valid, block in ranked[:max_rank_scan] if sip_lpns else []:
        if valid >= GEOMETRY.pages_per_block:
            break  # no garbage from here on: greedy head
        sip_pages = sum(lpn in sip_lpns for _, lpn in pm.valid_lpns_in_block(block))
        if valid == 0 or sip_pages / valid <= threshold:
            chosen = (valid, block)
            break
        filtered += 1
    return chosen[1], filtered, len(ranked), chosen[0]


@settings(max_examples=200, deadline=None)
@given(
    fill=st.lists(st.integers(0, 4), min_size=1, max_size=16),
    sip_lpns=st.sets(st.integers(0, 63)),
    excluded=st.sets(st.integers(0, 15), max_size=3),
    threshold=st.sampled_from([0.25, 0.5, 1.0]),
    max_rank_scan=st.integers(1, 8),
)
def test_sip_filter_lazy_walk_equals_materialised_ranking(
    fill, sip_lpns, excluded, threshold, max_rank_scan
):
    """Block ``b`` holds LPNs ``4b .. 4b+fill[b]-1``; a SIP set over the
    same range covers none, some or (the greedy fallback) all of them."""
    contents = {b: list(range(4 * b, 4 * b + n)) for b, n in enumerate(fill)}
    pm, index, overlap = indexed_state(contents, sip_lpns)
    lazy = SipFilteredSelector(threshold, max_rank_scan)
    materialised = SipFilteredSelector(threshold, max_rank_scan)
    heap_before = sorted(index._heap)

    walked = lazy.select(
        None, pm, sip_lpns=sip_lpns, excluded_blocks=excluded,
        valid_index=index, sip_overlap=overlap,
    )
    scanned = materialised.select(
        np.array(sorted(contents)), pm, sip_lpns=sip_lpns, excluded_blocks=excluded
    )

    assert decision_fields(walked) == decision_fields(scanned)
    assert decision_fields(walked) == materialised_decision(
        pm, contents, sip_lpns, excluded, threshold, max_rank_scan
    )
    assert lazy.total_filtered == materialised.total_filtered
    assert lazy.total_selections == materialised.total_selections
    assert sorted(index._heap) == heap_before  # the walk pushed back what it took


@pytest.mark.parametrize("sip_lpns", [set(), {1, 2, 3}])
def test_sip_filter_every_block_excluded_selects_nothing(sip_lpns):
    contents = {0: [1], 1: [2, 3]}
    pm, index, overlap = indexed_state(contents, sip_lpns)
    selector = SipFilteredSelector()
    indexed = selector.select(
        None, pm, sip_lpns=sip_lpns, excluded_blocks={0, 1},
        valid_index=index, sip_overlap=overlap,
    )
    scanned = selector.select(
        np.array([0, 1]), pm, sip_lpns=sip_lpns, excluded_blocks={0, 1}
    )
    empty = selector.select(np.array([], dtype=int), pm, sip_lpns=sip_lpns)
    untracked = selector.select(
        None, pm, sip_lpns=sip_lpns, valid_index=ValidCountIndex(), sip_overlap=overlap
    )
    for decision in (indexed, scanned, empty, untracked):
        assert decision.block is None
        assert decision.candidates_considered == 0
    assert selector.total_selections == 0
