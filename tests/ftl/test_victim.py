"""Tests for victim selection: greedy and SIP filtering, off the FTL's indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.space import SipOverlapIndex, ValidCountIndex
from repro.ftl.victim import GreedySelector, SipFilteredSelector
from repro.nand.geometry import NandGeometry
from tests.ftl.stamped import StampedPageMap

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)


def build_map(block_contents):
    """block_contents: {block: [lpn, ...]} programs pages sequentially."""
    pm = StampedPageMap(GEOMETRY, user_pages=GEOMETRY.total_pages)
    for block, lpns in block_contents.items():
        for offset, lpn in enumerate(lpns):
            pm.remap(lpn, pm.ppn(block, offset))
    return pm


def track(pm, blocks):
    """The valid-count index the FTL keeps, with ``blocks`` closed."""
    index = ValidCountIndex()
    for block in blocks:
        index.track(block, pm.valid_count(block))
    return index


def indexed_state(block_contents, sip_lpns):
    """Page map plus the two indexes the FTL hands a selector, every
    programmed block tracked as closed."""
    pm = build_map(block_contents)
    index = track(pm, block_contents)
    overlap = SipOverlapIndex(GEOMETRY.total_blocks)
    overlap.replace(sip_lpns, pm)
    return pm, index, overlap


def select(selector, block_contents, sip_lpns=frozenset(), excluded=None):
    pm, index, overlap = indexed_state(block_contents, sip_lpns)
    return selector.select(
        pm, index, overlap, sip_lpns=set(sip_lpns), excluded_blocks=excluded
    )


def test_greedy_picks_min_valid():
    decision = select(GreedySelector(), {0: [1, 2, 3], 1: [4], 2: [5, 6]})
    assert decision.block == 1
    assert decision.candidates_considered == 3
    assert decision.filtered_by_sip == 0
    assert decision.valid_pages == 1


def test_greedy_tie_breaks_low_block():
    decision = select(GreedySelector(), {3: [1], 5: [2]})
    assert decision.block == 3


def test_greedy_empty_candidates():
    decision = select(GreedySelector(), {})
    assert decision.block is None


def test_sip_filter_skips_sip_heavy_block():
    """The greedy-best block is SIP-dominated: it must be skipped and the
    skip counted (Table 3 metric)."""
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    decision = select(selector, {0: [1], 1: [2, 3]}, sip_lpns={1})
    assert decision.block == 1  # block 0 (valid={1}) is 100% SIP
    assert decision.filtered_by_sip == 1
    assert selector.total_filtered == 1
    assert selector.total_selections == 1


def test_sip_filter_no_sip_list_behaves_greedy():
    decision = select(SipFilteredSelector(), {0: [1], 1: [2, 3]}, sip_lpns=set())
    assert decision.block == 0
    assert decision.filtered_by_sip == 0


def test_sip_filter_below_threshold_not_skipped():
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    # Only 1/3 of block 0's valid pages are SIP -> keep it.
    decision = select(selector, {0: [1, 2, 3], 1: [4, 5, 6, 7]}, sip_lpns={1})
    assert decision.block == 0
    assert decision.filtered_by_sip == 0


def test_sip_filter_all_filtered_falls_back_to_greedy():
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    decision = select(selector, {0: [1], 1: [2, 3]}, sip_lpns={1, 2, 3})
    assert decision.block == 0  # fallback: plain greedy best
    assert decision.filtered_by_sip == 2


def test_sip_filter_empty_block_chosen_immediately():
    """A block with zero valid pages is a perfect victim regardless of SIP."""
    pm = build_map({0: [1], 1: []})
    pm.remap(1, pm.ppn(2, 0))  # invalidate block 0's only page
    overlap = SipOverlapIndex(GEOMETRY.total_blocks)
    overlap.replace({9}, pm)
    decision = SipFilteredSelector().select(pm, track(pm, [0, 1]), overlap, sip_lpns={9})
    assert decision.block == 0
    assert decision.valid_pages == 0


def test_sip_filtered_fraction():
    contents = {0: [1], 1: [2, 3]}
    selector = SipFilteredSelector()
    select(selector, contents, sip_lpns={1})  # one filter event
    select(selector, contents, sip_lpns=set())  # none
    assert selector.filtered_fraction() == pytest.approx(0.5)


def test_sip_filter_parameter_validation():
    with pytest.raises(ValueError):
        SipFilteredSelector(sip_fraction_threshold=0.0)
    with pytest.raises(ValueError):
        SipFilteredSelector(sip_fraction_threshold=1.5)
    with pytest.raises(ValueError):
        SipFilteredSelector(max_rank_scan=0)


def test_sip_overlap_counts_only_valid_pages():
    """A block's SIP content, as the selector reads it off the overlap
    index, counts only the SIP LPNs still valid in that block."""
    pm = build_map({0: [1, 2]})
    overlap = SipOverlapIndex(GEOMETRY.total_blocks)
    overlap.replace({1, 2}, pm)
    assert overlap.overlap(0) == 2
    pm.set_valid_observer(overlap.on_valid_delta)
    pm.remap(1, pm.ppn(1, 0))  # LPN 1 leaves block 0
    assert overlap.overlap(0) == 1
    assert overlap.overlap(1) == 1


# ----------------------------------------------------------------------
# The lazy walk off the index vs the rule over a materialised ranking
# ----------------------------------------------------------------------
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
    selector = SipFilteredSelector(threshold, max_rank_scan)
    heap_before = sorted(index._heap)

    walked = selector.select(
        pm, index, overlap, sip_lpns=sip_lpns, excluded_blocks=excluded
    )

    expected = materialised_decision(
        pm, contents, sip_lpns, excluded, threshold, max_rank_scan
    )
    assert decision_fields(walked) == expected
    assert selector.total_selections == (expected[0] is not None)
    assert selector.total_filtered == (expected[1] if expected[0] is not None else 0)
    assert sorted(index._heap) == heap_before  # the walk pushed back what it took


@pytest.mark.parametrize("sip_lpns", [set(), {1, 2, 3}])
def test_sip_filter_every_block_excluded_selects_nothing(sip_lpns):
    contents = {0: [1], 1: [2, 3]}
    pm, index, overlap = indexed_state(contents, sip_lpns)
    selector = SipFilteredSelector()
    for chooser in (selector, GreedySelector()):
        excluded = chooser.select(
            pm, index, overlap, sip_lpns=sip_lpns, excluded_blocks={0, 1}
        )
        empty = select(chooser, {}, sip_lpns=sip_lpns)
        # Blocks programmed in the map but never closed: nothing tracked.
        untracked = chooser.select(pm, ValidCountIndex(), overlap, sip_lpns=sip_lpns)
        for decision in (excluded, empty, untracked):
            assert decision.block is None
            assert decision.candidates_considered == 0
    assert selector.total_selections == 0
