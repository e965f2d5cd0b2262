"""Tests for the NAND array state machine: erase-before-write, program
order, bad blocks, operation counting and power-on over a captured
image."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.array import STATE_BAD, BlockState, NandArray
from repro.nand.endurance import EnduranceModel
from repro.nand.errors import (
    AddressError,
    BadBlockError,
    EraseBeforeWriteError,
    ProgramOrderError,
)
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


def make_array(**kwargs):
    return NandArray(GEOMETRY, TIMING, **kwargs)


def test_initial_state_all_erased():
    nand = make_array()
    for block in range(GEOMETRY.total_blocks):
        assert nand.block_state(block) == BlockState.ERASED
        assert nand.next_programmable_page(block) == 0


def test_program_returns_latency_and_advances_frontier():
    nand = make_array()
    assert nand.program_page(0, 0) == 100
    assert nand.next_programmable_page(0) == 1
    assert nand.block_state(0) == BlockState.OPEN


def test_block_becomes_full():
    nand = make_array()
    for page in range(4):
        nand.program_page(2, page)
    assert nand.block_state(2) == BlockState.FULL


def test_out_of_order_program_rejected():
    nand = make_array()
    nand.program_page(0, 0)
    with pytest.raises(ProgramOrderError):
        nand.program_page(0, 2)


def test_reprogram_without_erase_rejected():
    nand = make_array()
    nand.program_page(0, 0)
    with pytest.raises(EraseBeforeWriteError):
        nand.program_page(0, 0)


def test_erase_resets_frontier():
    nand = make_array()
    for page in range(4):
        nand.program_page(1, page)
    assert nand.erase_block(1) == 1000
    assert nand.block_state(1) == BlockState.ERASED
    assert nand.next_programmable_page(1) == 0
    nand.program_page(1, 0)  # programmable again


def test_read_latency_and_counter():
    nand = make_array()
    nand.program_page(0, 0)
    assert nand.read_page(0, 0) == 10
    assert nand.page_reads == 1


def test_operation_counters():
    nand = make_array()
    nand.program_page(0, 0)
    nand.program_page(0, 1)
    nand.read_page(0, 0)
    nand.erase_block(0)
    assert nand.page_programs == 2
    assert nand.page_reads == 1
    assert nand.block_erases == 1


def test_factory_bad_blocks_rejected_everywhere():
    nand = make_array(initial_bad_blocks=[3])
    assert nand.is_bad(3)
    with pytest.raises(BadBlockError):
        nand.program_page(3, 0)
    with pytest.raises(BadBlockError):
        nand.read_page(3, 0)
    with pytest.raises(BadBlockError):
        nand.erase_block(3)


def test_wear_out_marks_block_bad():
    endurance = EnduranceModel(GEOMETRY.total_blocks, pe_cycle_limit=2)
    nand = NandArray(GEOMETRY, TIMING, endurance)
    nand.erase_block(0)
    assert not nand.is_bad(0)
    nand.erase_block(0)
    assert nand.is_bad(0)
    assert nand.good_blocks() == GEOMETRY.total_blocks - 1


def test_endurance_size_mismatch_rejected():
    wrong = EnduranceModel(GEOMETRY.total_blocks + 1)
    with pytest.raises(ValueError):
        NandArray(GEOMETRY, TIMING, wrong)


def test_wear_stats_reflect_erases():
    nand = make_array()
    nand.erase_block(0)
    nand.erase_block(0)
    nand.erase_block(1)
    stats = nand.wear_stats()
    assert stats.total_erases == 3
    assert stats.max_erase_count == 2
    assert stats.min_erase_count == 0


def test_factory_and_grown_bad_block_counters():
    nand = make_array(initial_bad_blocks=[3, 5, 3])  # duplicate counted once
    assert nand.factory_bad_blocks == 2
    assert nand.grown_bad_blocks == 0
    nand.mark_bad(0)
    nand.mark_bad(0)  # idempotent
    assert nand.grown_bad_blocks == 1
    assert nand.is_bad(0)
    assert nand.good_blocks() == GEOMETRY.total_blocks - 3


def test_is_bad_agrees_with_both_bad_block_records():
    """``is_bad`` reads the one-byte mirror; the state vector is the
    authority.  They must agree wherever a block can turn bad."""

    def check(nand, expected):
        for block in range(GEOMETRY.total_blocks):
            verdict = nand.is_bad(block)
            assert verdict is (block in expected)
            assert verdict == (nand.block_states[block] == STATE_BAD)
            assert verdict == bool(nand._bad[block])
            assert verdict == (nand.block_state(block) == BlockState.BAD)

    endurance = EnduranceModel(GEOMETRY.total_blocks, pe_cycle_limit=2)
    nand = NandArray(GEOMETRY, TIMING, endurance, initial_bad_blocks=[3, 5])
    check(nand, {3, 5})                      # factory marks
    nand.mark_bad(0)
    check(nand, {0, 3, 5})                   # a grown mark
    nand.erase_block(6)
    check(nand, {0, 3, 5})
    nand.erase_block(6)
    check(nand, {0, 3, 5, 6})                # a wear-out erase
    restored = NandArray(
        GEOMETRY,
        TIMING,
        EnduranceModel(GEOMETRY.total_blocks, pe_cycle_limit=2),
        durable=nand.capture_durable_state(),
    )
    check(restored, {0, 3, 5, 6})            # across a power cut
    for block in (-1, GEOMETRY.total_blocks):
        with pytest.raises(AddressError):
            nand.is_bad(block)


def test_mark_bad_rejects_all_operations():
    nand = make_array()
    nand.mark_bad(1)
    with pytest.raises(BadBlockError):
        nand.program_page(1, 0)
    with pytest.raises(BadBlockError):
        nand.erase_block(1)


def test_reread_page_without_injector_succeeds():
    nand = make_array()
    nand.program_page(0, 0)
    assert nand.reread_page(0, 0) == TIMING.read_ns
    assert nand.page_reads == 1


def test_injected_program_fail_consumes_frontier_page():
    from repro.faults.injector import FaultInjector, FaultProfile
    from repro.nand.errors import ProgramFailError

    injector = FaultInjector(FaultProfile(program_fail_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    with pytest.raises(ProgramFailError):
        nand.program_page(0, 0)
    # The spoiled page can never be reprogrammed without an erase.
    assert nand.next_programmable_page(0) == 1
    assert nand.page_programs == 0


def test_injected_erase_fail_keeps_contents_and_stresses_cells():
    from repro.faults.injector import FaultInjector, FaultProfile
    from repro.nand.errors import EraseFailError

    injector = FaultInjector(FaultProfile(erase_fail_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    nand.program_page(0, 0)
    with pytest.raises(EraseFailError):
        nand.erase_block(0)
    # Frontier untouched, but the failed erase still counted as a cycle.
    assert nand.next_programmable_page(0) == 1
    assert nand.endurance.erase_count(0) == 1
    assert nand.block_erases == 0


def test_injected_uncorrectable_read():
    from repro.faults.injector import FaultInjector, FaultProfile
    from repro.nand.errors import UncorrectableReadError

    injector = FaultInjector(FaultProfile(read_uncorrectable_prob=1.0), seed=0)
    nand = make_array(fault_injector=injector)
    nand.program_page(0, 0)
    with pytest.raises(UncorrectableReadError) as excinfo:
        nand.read_page(0, 0)
    assert excinfo.value.latency_ns == TIMING.read_ns


# ----------------------------------------------------------------------
# The address probe against the geometry-backed check it replaced
# ----------------------------------------------------------------------
def reference_check_addr(nand, block, page, operation):
    """Address validation as the geometry-property chain spells it."""
    nand.geometry.check_block(block)
    nand.geometry.check_page(page)
    if nand.block_states[block] == STATE_BAD:
        raise BadBlockError(block, operation)


def _apply_nand_op(nand, op, block, page):
    try:
        if op == "read":
            return ("ok", nand.read_page(block, page))
        if op == "program":
            return ("ok", nand.program_page(block, page))
        if op == "erase":
            return ("ok", nand.erase_block(block))
        nand.mark_bad(block)
        return ("ok", None)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "program", "erase", "mark_bad"]),
            st.integers(min_value=-3, max_value=GEOMETRY.total_blocks + 5),
            st.integers(min_value=-3, max_value=GEOMETRY.pages_per_block + 2),
        ),
        max_size=120,
    )
)
def test_nand_fast_check_matches_scan(ops):
    """The int-and-byte probe raises exactly what the geometry-backed
    check raises (negative addresses included) and leaves the array in
    the same state, op for op."""
    fast = make_array()
    ref = make_array()
    ref._check_addr = lambda block, page, operation: reference_check_addr(
        ref, block, page, operation
    )
    for op, block, page in ops:
        assert _apply_nand_op(fast, op, block, page) == _apply_nand_op(
            ref, op, block, page
        )
    assert np.array_equal(fast.program_ptr, ref.program_ptr)
    assert np.array_equal(fast.block_states, ref.block_states)
    assert np.array_equal(fast.erase_counts, ref.erase_counts)
    assert bytes(fast._bad) == bytes(ref._bad)
    assert (fast.page_reads, fast.page_programs, fast.block_erases) == (
        ref.page_reads, ref.page_programs, ref.block_erases
    )
    assert fast.good_blocks() == ref.good_blocks()


def test_nand_batch_ops_match_per_page_loops():
    batched = make_array()
    looped = make_array()
    ppb = GEOMETRY.pages_per_block
    lat_batch = batched.program_pages_batch(0, 0, 3)
    lat_loop = sum(looped.program_page(0, page) for page in range(3))
    assert lat_batch == lat_loop
    lat_batch = batched.read_pages_batch(0, 3)
    lat_loop = sum(looped.read_page(0, page) for page in range(3))
    assert lat_batch == lat_loop
    assert np.array_equal(batched.program_ptr, looped.program_ptr)
    assert np.array_equal(batched.block_states, looped.block_states)
    assert (batched.page_reads, batched.page_programs) == (
        looped.page_reads, looped.page_programs
    )
    # Frontier violations and overflow raise the per-page loop's types.
    with pytest.raises(EraseBeforeWriteError):
        batched.program_pages_batch(0, 0, 1)  # behind the frontier (3)
    with pytest.raises(ProgramOrderError):
        batched.program_pages_batch(1, 2, 1)  # ahead of block 1's frontier (0)
    with pytest.raises(AddressError):
        batched.program_pages_batch(0, 3, ppb)  # runs past the block end


# ----------------------------------------------------------------------
# Power-on adopts the captured image (SsdConfig.restore_nand)
# ----------------------------------------------------------------------
def _config(geometry=GEOMETRY, **kwargs):
    return SsdConfig(geometry=geometry, timing=TIMING, **kwargs)


def _image():
    nand = make_array()
    nand.program_page(0, 0, lpn=5, seq=1)
    nand.program_page(0, 1, lpn=6, seq=2)
    return nand.capture_durable_state()


COLUMNS = ("block_states", "program_ptr", "oob_lpn", "oob_seq", "last_program_ns")


def _columns(nand):
    return {name: getattr(nand, name).copy() for name in COLUMNS} | {
        "erase_counts": nand.erase_counts.copy()
    }


def test_a_second_power_on_of_one_image_is_refused():
    config, image = _config(), _image()
    config.restore_nand(image)
    with pytest.raises(ValueError, match="already powered on"):
        config.restore_nand(image)
    with pytest.raises(ValueError, match="already powered on"):
        image.copy()  # its columns are a running device's now


def test_devices_from_an_image_and_its_copy_share_no_column():
    config, image = _config(), _image()
    twin = image.copy()
    spare = twin.copy()
    one, two = config.restore_nand(image), config.restore_nand(twin)
    for name in COLUMNS:
        assert not np.shares_memory(getattr(one, name), getattr(two, name)), name
    assert not np.shares_memory(one.erase_counts, two.erase_counts)
    before = _columns(two)

    one.program_page(0, 2, lpn=7, seq=3)
    one.erase_block(1)
    one.mark_bad(2)

    after = _columns(two)
    for name, column in before.items():
        assert np.array_equal(after[name], column), name
    assert not two.is_bad(2)
    # The spare copy -- the image as captured -- is untouched as well.
    for name in COLUMNS + ("erase_counts",):
        assert np.array_equal(getattr(spare, name), before[name]), name
    assert int(spare.program_ptr[0]) == 2 and spare.bad == bytes(GEOMETRY.total_blocks)


def test_an_image_stripped_of_its_records_owns_its_columns():
    """``without_records`` is a copy: the twin powers on beside the
    original, and only the records go -- the ring keeps its wear."""
    config = _config()
    ftl = config.build_ftl()
    for lpn in range(6):
        ftl.host_write_page(lpn)
    ftl.write_checkpoint()
    image = ftl.nand.capture_durable_state()
    stripped = image.without_records()
    assert stripped.meta.records == () and image.meta.records
    assert stripped.meta.ring == image.meta.ring
    for name in COLUMNS + ("erase_counts", "factory_bad"):
        assert not np.shares_memory(getattr(stripped, name), getattr(image, name)), name
        assert np.array_equal(getattr(stripped, name), getattr(image, name)), name
    config.restore_nand(image)
    config.restore_nand(stripped)  # not spent by the original's power-on
    with pytest.raises(ValueError, match="already powered on"):
        image.without_records()


@pytest.mark.parametrize(
    "device, meta_blocks",
    [
        (NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16), 4),
        (NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=8), 4),
        (GEOMETRY, 2),
    ],
    ids=["block-count", "page-count", "metadata-ring"],
)
def test_an_image_of_another_geometry_is_refused_naming_both(device, meta_blocks):
    image = _image()
    config = _config(device, meta_blocks=meta_blocks)
    message = (
        f"media image geometry ({GEOMETRY.total_blocks} blocks, "
        f"{GEOMETRY.total_pages} pages, 4-block metadata ring) does not match "
        f"the device's ({device.total_blocks} blocks, {device.total_pages} "
        f"pages, {meta_blocks}-block metadata ring)"
    )
    with pytest.raises(ValueError) as refused:
        config.restore_nand(image)
    assert str(refused.value) == message
    # Refused before anything was built: the image is not spent.
    assert not image.spent
    _config().restore_nand(image)
