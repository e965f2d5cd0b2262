"""Tests for the Fig. 1 space model (user/OP split, reserved capacity) and
the valid-count index that shares its module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.space import SpaceModel, ValidCountIndex
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
