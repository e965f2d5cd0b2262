"""Tests for the Fig. 1 space model (user/OP split, reserved capacity) and
the valid-count index that shares its module."""

import copy
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.ftl.space import SipOverlapIndex, SpaceModel, ValidCountIndex
from repro.nand.geometry import NandGeometry

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=64, blocks_per_plane=100)


def test_from_op_ratio_split():
    space = SpaceModel.from_op_ratio(GEOMETRY, op_ratio=0.07)
    assert space.user_pages + space.op_pages == GEOMETRY.total_pages
    # 7% of user capacity, within integer rounding of one page.
    assert space.op_pages == pytest.approx(0.07 * space.user_pages, rel=0.01)


def test_op_ratio_property_roundtrip():
    space = SpaceModel.from_op_ratio(GEOMETRY, op_ratio=0.25)
    assert space.op_ratio == pytest.approx(0.25, rel=0.01)


def test_bytes_accessors():
    space = SpaceModel.from_op_ratio(GEOMETRY)
    assert space.user_bytes == space.user_pages * 4096
    assert space.op_bytes == space.op_pages * 4096


def test_reserved_pages_fig2_sweep():
    """The Fig. 2 x-axis: Cresv = k * C_OP for k in 0.5 .. 1.5."""
    space = SpaceModel.from_op_ratio(GEOMETRY, op_ratio=0.10)
    half = space.reserved_pages(0.5)
    one = space.reserved_pages(1.0)
    fifteen = space.reserved_pages(1.5)
    assert one == space.op_pages
    assert half == pytest.approx(space.op_pages / 2, abs=1)
    assert fifteen == pytest.approx(1.5 * space.op_pages, abs=1)


def test_reserved_pages_negative_rejected():
    space = SpaceModel.from_op_ratio(GEOMETRY)
    with pytest.raises(ValueError):
        space.reserved_pages(-0.1)


def test_clamp_reserved_cap():
    """Paper Sec 2: Cresv <= Cunused + C_OP."""
    space = SpaceModel.from_op_ratio(GEOMETRY, op_ratio=0.10)
    request = space.reserved_pages(1.5)
    # Nearly full device: unused space is tiny.
    used = space.user_pages - 10
    clamped = space.clamp_reserved_pages(request, used)
    assert clamped == 10 + space.op_pages
    # Empty device: no clamping needed.
    assert space.clamp_reserved_pages(request, 0) == request


def test_clamp_never_negative():
    space = SpaceModel.from_op_ratio(GEOMETRY)
    assert space.clamp_reserved_pages(0, space.user_pages) == 0


def test_user_pages_must_leave_op():
    with pytest.raises(ValueError):
        SpaceModel(geometry=GEOMETRY, user_pages=GEOMETRY.total_pages)
    with pytest.raises(ValueError):
        SpaceModel(geometry=GEOMETRY, user_pages=0)


def test_invalid_op_ratio():
    for ratio in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            SpaceModel.from_op_ratio(GEOMETRY, op_ratio=ratio)


# ----------------------------------------------------------------------
# ValidCountIndex: bulk install vs one track() per block
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    history=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 64), st.booleans()), max_size=30
    ),
    install=st.dictionaries(st.integers(0, 39), st.integers(0, 64), max_size=40),
)
def test_track_many_equals_one_track_per_block(history, install):
    """Same tracked population, same generations, same full pop order --
    also for blocks that were tracked before (a pre-existing generation)
    and with stale entries of earlier lives still in the heap."""
    bulk, looped = ValidCountIndex(), ValidCountIndex()
    for index in (bulk, looped):
        for block, count, erase in history:
            index.track(block, count)
            if count:
                index.adjust(block, -1)
            if erase:
                index.untrack(block)
    blocks = [block for block in install if not bulk.tracks(block)]
    counts = [install[block] for block in blocks]

    bulk.track_many(blocks, counts)
    for block, count in zip(blocks, counts):
        looped.track(block, count)

    assert dict(bulk.items()) == dict(looped.items())
    assert bulk._gen == looped._gen
    everything = len(bulk)
    assert bulk.ranked_prefix(everything) == looped.ranked_prefix(everything)
    assert bulk.peek_min() == looped.peek_min()
    # ...and the two stay in step under the updates that follow an install.
    for block in blocks[::2]:
        if install[block]:
            bulk.adjust(block, -1)
            looped.adjust(block, -1)
    assert bulk.ranked_prefix(everything) == looped.ranked_prefix(everything)


# ----------------------------------------------------------------------
# ValidCountIndex: every mutator against a dict oracle, across compactions
# ----------------------------------------------------------------------
class ValidCountIndexMachine(RuleBasedStateMachine):
    """Drives the index the way the FTL does -- close, invalidate (by
    method, through the fused observer and a host write's runs of old
    pages), erase, re-close -- beside a plain ``{block: count}`` dict and
    a twin index that takes each run as its own ``adjust_if_tracked``.
    Twelve blocks keep the compaction threshold near a hundred entries,
    so ``churn`` crosses it often."""

    BLOCKS = 12
    PPB = 64
    compactions = 0  # over every example of one test run

    blocks = st.integers(0, BLOCKS - 1)

    def __init__(self):
        super().__init__()
        self.index = ValidCountIndex()
        self.sip = SipOverlapIndex(self.BLOCKS)
        # Bound before the first compaction, used until the last step.
        self.observer = self.index.make_fused_observer(self.sip)
        self.heap = self.index._heap
        self.oracle = {}
        self.twin = ValidCountIndex()

    def _clip(self, block, delta):
        """``delta`` clipped so the oracle's count stays in [0, PPB]."""
        count = self.oracle[block]
        return max(-count, min(self.PPB - count, delta))

    @rule(block=blocks, count=st.integers(0, PPB))
    def track(self, block, count):
        if block not in self.oracle:  # also the re-track after an erase
            self.index.track(block, count)
            self.twin.track(block, count)
            self.oracle[block] = count

    @rule(install=st.dictionaries(blocks, st.integers(0, PPB), max_size=BLOCKS))
    def track_many(self, install):
        new = [block for block in install if block not in self.oracle]
        self.index.track_many(new, [install[block] for block in new])
        self.twin.track_many(new, [install[block] for block in new])
        self.oracle.update((block, install[block]) for block in new)

    @rule(block=blocks)
    def untrack(self, block):
        self.index.untrack(block)
        self.twin.untrack(block)
        self.oracle.pop(block, None)

    @rule(block=blocks, delta=st.integers(-PPB, PPB))
    def adjust(self, block, delta):
        if block in self.oracle:
            delta = self._clip(block, delta)
            self.index.adjust(block, delta)
            self.twin.adjust(block, delta)
            self.oracle[block] += delta

    @rule(block=blocks, delta=st.integers(-PPB, PPB))
    def adjust_if_tracked(self, block, delta):
        if block in self.oracle:
            delta = self._clip(block, delta)
            self.oracle[block] += delta
        self.index.adjust_if_tracked(block, delta)
        self.twin.adjust_if_tracked(block, delta)

    @rule(runs=st.lists(st.tuples(blocks, st.integers(1, PPB)), max_size=8))
    def invalidate_runs(self, runs):
        """A host write's ``(block, pages)`` runs of old copies: tracked
        and untracked blocks, a block possibly repeated, never below 0."""
        clipped = []
        for block, pages in runs:
            if block in self.oracle:
                pages = min(pages, self.oracle[block])
                self.oracle[block] -= pages
            clipped.append((block, pages))
        self.index.invalidate_runs(clipped)
        for block, pages in clipped:
            self.twin.adjust_if_tracked(block, -pages)

    @rule(block=blocks, pages=st.integers(1, PPB), up=st.booleans(), back=st.booleans())
    def churn(self, block, pages, up, back):
        """Per-page validity events through the pre-compaction observer:
        ``pages`` steps one way, then (``back``) the same steps back."""
        step = 1 if up else -1
        tracked = block in self.oracle
        if tracked:
            pages = abs(self._clip(block, step * pages))
        before = len(self.heap)
        for direction in (step, -step)[: 1 + back]:
            for lpn in range(pages):
                self.observer(block, lpn, direction)
                self.twin.adjust_if_tracked(block, direction)
        if tracked and pages:
            if not back:
                self.oracle[block] += step * pages
            # The closure's pushes landed in the heap the index ranks from.
            entry = (self.oracle[block], block, self.index._gen[block])
            assert entry in self.index._heap
            if len(self.heap) < before + pages * (1 + back):
                type(self).compactions += 1

    @rule(k=st.integers(1, BLOCKS), excluded=st.sets(blocks))
    def ranked_prefix_is_read_only(self, k, excluded):
        assert self.index.ranked_prefix(k, excluded) == self._ranking(excluded)[:k]

    def _ranking(self, excluded):
        return [
            (block, count)
            for count, block in sorted((c, b) for b, c in self.oracle.items())
            if block not in excluded
        ]

    @invariant()
    def ranking_matches_oracle(self):
        index = self.index
        assert index._heap is self.heap, "compaction must rebuild in place"
        for each in (index, self.twin):
            assert len(each._heap) <= 4 * len(each) + 64
        twin = copy.deepcopy(self.twin)
        with closing(copy.deepcopy(index).ranked()) as walk, closing(twin.ranked()) as same:
            assert list(walk) == list(same)
        assert dict(index.items()) == self.oracle
        ranking = self._ranking(())
        assert index.min_block() == (ranking[0] if ranking else None)
        assert index.peek_min() == (ranking[0][::-1] if ranking else None)
        # The full ranking is read off a copy: walking it to the end
        # would sweep the dead entries the bound above is about.
        for excluded in (set(), set(range(0, self.BLOCKS, 2))):
            probe = copy.deepcopy(index)
            expected = self._ranking(excluded)
            assert probe.min_block(excluded) == (expected[0] if expected else None)
            assert probe.ranked_prefix(self.BLOCKS, excluded) == expected


def test_valid_count_index_against_dict_oracle():
    ValidCountIndexMachine.compactions = 0
    run_state_machine_as_test(
        ValidCountIndexMachine,
        # A fixed sample: the count below is of this run's examples, and
        # a random forty fall short of it about one run in twenty.
        settings=settings(
            max_examples=40, stateful_step_count=120, deadline=None, derandomize=True
        ),
    )
    assert ValidCountIndexMachine.compactions >= 3
