"""Property-based recovery tests (hypothesis).

The vectorized recovery rebuild (:func:`repro.ftl.recovery.recover_ftl`)
is checked against an independent pure-Python oracle that reconstructs the
mapping straight from the durable OOB columns, page by page.  For random
workload seeds and random crash points the recovered FTL must agree with
the oracle on every page-level fact: mapped LPNs, per-block valid
counts and erase counters.

The durable-horizon property extends this to the checkpointed/journaled
metadata path: whatever prefix of the durable state survives the cut --
metadata log intact, its newest record (checkpoint *or* tombstone) torn
mid-program, or the whole region lost -- recovery must never install a
mapping entry stamped at or past the durable write-sequence horizon,
and must never resurrect an LPN whose newest durable event is an intact
tombstone.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ftl.mapping import TRANS_LPN_BASE, UNMAPPED
from repro.ftl.metastore import (
    KIND_CHECKPOINT,
    KIND_UNMAP,
    build_checkpoint,
    build_tombstones,
)
from repro.ftl.recovery import _load_metadata, _rebuild, recover_ftl
from repro.nand.array import OOB_UNSTAMPED, STATE_FULL, NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)
PPB = GEOMETRY.pages_per_block
CONFIG = SsdConfig(geometry=GEOMETRY, timing=TIMING, op_ratio=0.25)


def oob_oracle(durable, user_pages):
    """Reference reconstruction: newest stamped copy wins, page by page.

    Deliberately written as the obvious O(pages) Python loop -- it shares
    no code (and no numpy idioms) with the production scan.
    """
    bad = np.frombuffer(durable.bad, dtype=np.uint8)
    l2p = [UNMAPPED] * user_pages
    best_seq = [OOB_UNSTAMPED] * user_pages
    for block in range(GEOMETRY.total_blocks):
        if bad[block]:
            continue
        for page in range(int(durable.program_ptr[block])):
            ppn = block * PPB + page
            seq = int(durable.oob_seq[ppn])
            if seq == OOB_UNSTAMPED:
                continue  # torn or status-failed: no trustworthy data
            lpn = int(durable.oob_lpn[ppn])
            if seq > best_seq[lpn]:
                best_seq[lpn] = seq
                l2p[lpn] = ppn
    return np.asarray(l2p, dtype=np.int64)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    total_writes=st.integers(min_value=1, max_value=400),
    crash_fraction=st.floats(min_value=0.05, max_value=1.0),
)
def test_recovered_state_equals_oob_oracle(seed, total_writes, crash_fraction):
    ftl = CONFIG.build_ftl(nand=NandArray(GEOMETRY, TIMING))
    space = ftl.space
    rng = np.random.default_rng(seed)
    hot = max(1, space.user_pages // 3)  # skewed overwrites force GC

    # Run the workload up to a random crash point...
    crash_at = max(1, int(total_writes * crash_fraction))
    for op in range(crash_at):
        if rng.random() < 0.7:
            lpn = int(rng.integers(0, hot))
        else:
            lpn = int(rng.integers(0, space.user_pages))
        ftl.host_write_page(lpn)

    # ...cut power there: frontiers tear, DRAM is lost.
    crashed = CONFIG.restore_nand(ftl.nand.capture_durable_state())
    for block in (ftl.active_user_block, ftl.active_gc_block):
        if block is not None:
            crashed.tear_frontier_page(block)

    recovered, report = recover_ftl(crashed, CONFIG)
    oracle_l2p = oob_oracle(crashed.capture_durable_state(), space.user_pages)

    # Page-level state equals the oracle's reconstruction...
    assert np.array_equal(recovered.page_map.l2p_snapshot(), oracle_l2p)
    mapped = oracle_l2p[oracle_l2p != UNMAPPED]
    oracle_valid = np.bincount(mapped // PPB, minlength=GEOMETRY.total_blocks)
    assert np.array_equal(
        recovered.page_map.valid_counts(), oracle_valid.astype(np.int32)
    )
    assert report.mapped_lpns == int(len(mapped))
    assert np.array_equal(recovered.nand.erase_counts, ftl.nand.erase_counts)

    # ...and equals the never-crashed reference (torn pages were only
    # ever in-flight, never acknowledged, so no mapping is lost).
    assert np.array_equal(
        recovered.page_map.l2p_snapshot(), ftl.page_map.l2p_snapshot()
    )
    assert recovered._write_seq == ftl._write_seq
    recovered.invariant_check()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    total_ops=st.integers(min_value=5, max_value=300),
    interval=st.integers(min_value=4, max_value=64),
    trim_rate=st.floats(min_value=0.0, max_value=0.35),
    final_trim=st.booleans(),
    tear=st.sampled_from(["none", "half", "empty", "strip"]),
)
# Regression: a TRIM whose tombstone sat in the torn journal record,
# with the trimmed page's block GC-erased before the cut.  The
# checkpoint fallback used to resurrect the mapping into the erased
# (now free) block, failing invariant_check.
@example(
    seed=524287, total_ops=58, interval=26, trim_rate=0.125,
    final_trim=False, tear="half",
)
def test_recovery_never_exceeds_durable_horizon(
    seed, total_ops, interval, trim_rate, final_trim, tear
):
    """No surviving prefix of durable state can leak past the horizon.

    ``tear`` picks the prefix: the full metadata log, its newest record
    torn to half its pages / to nothing (covering torn checkpoints and
    torn tombstones, whichever was written last), or the metadata region
    stripped entirely (the full-scan fallback).
    """
    config = dataclasses.replace(CONFIG, checkpoint_interval_pages=interval)
    ftl = config.build_ftl(nand=NandArray(GEOMETRY, TIMING))
    space = ftl.space
    rng = np.random.default_rng(seed)
    hot = max(1, space.user_pages // 3)

    last_event = {}
    for _ in range(total_ops):
        lpn = int(rng.integers(0, hot if rng.random() < 0.7 else space.user_pages))
        if rng.random() < trim_rate:
            ftl.trim([lpn])
            last_event[lpn] = "trim"
        else:
            ftl.host_write_page(lpn)
            last_event[lpn] = "write"
    if final_trim:
        # Force the newest metadata record to be a tombstone, so the
        # "half"/"empty" tears exercise the torn-tombstone path too.
        lpn = int(rng.integers(0, space.user_pages))
        ftl.host_write_page(lpn)
        ftl.trim([lpn])
        last_event[lpn] = "trim"

    #: Every durable stamp and tombstone was burned strictly before this.
    horizon = ftl._write_seq

    durable = ftl.nand.capture_durable_state()
    if tear == "strip":  # the records go; the reserved blocks keep their wear
        durable = durable.without_records()
    crashed = CONFIG.restore_nand(durable)
    for block in (ftl.active_user_block, ftl.active_gc_block):
        if block is not None:
            crashed.tear_frontier_page(block)
    torn_record = None
    if tear in ("half", "empty") and crashed.meta.records:
        torn_record = crashed.meta.tear_last(
            keep_pages=None if tear == "half" else 0
        )

    recovered, report = recover_ftl(crashed, CONFIG)

    # The horizon bound: the recovered counter and every surviving
    # mapping entry's stamp predate the durable horizon.
    assert recovered._write_seq <= horizon
    image = crashed.capture_durable_state()
    l2p = recovered.page_map.l2p_snapshot()
    mapped_ppns = l2p[l2p != UNMAPPED]
    assert np.all(np.asarray(image.oob_seq)[mapped_ppns] < horizon)

    # Durable TRIMs stay dead.  A tombstone inside the torn record was
    # never durable, so only intact-journal runs make the strong claim.
    if tear == "none":
        for lpn, event in last_event.items():
            if event == "trim":
                assert recovered.page_map.lookup(lpn) is None
    if torn_record is not None:
        assert report.torn_meta_records >= 1
    recovered.invariant_check()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_newest_stamp_wins_merges_equal_a_per_key_dict(data):
    """The one rebuild -- over an empty base (no checkpoint) and over a
    checkpoint at a drawn horizon -- against the obvious oracle: a dict
    keeping, per key, the event with the highest stamp.

    The image is fabricated, not run: random ``(lpn, seq, ppn)`` stamps
    (several per LPN, and up to a dozen on the one translation page, so
    keys repeat heavily), tombstones interleaved in the same sequence
    space and split over several journal records, every block FULL so the
    whole device is the tail, and a checkpoint at a random horizon ``H``
    whose base is the oracle's state of the events below ``H``.
    """
    user_pages, trans_pages = 24, 1
    n_events = data.draw(st.integers(1, GEOMETRY.total_pages))
    is_tomb = data.draw(
        st.lists(st.booleans(), min_size=n_events, max_size=n_events)
    )
    keys = data.draw(
        st.lists(
            st.one_of(st.integers(0, user_pages - 1), st.just(TRANS_LPN_BASE)),
            min_size=n_events,
            max_size=n_events,
        )
    )
    seqs = data.draw(st.permutations(range(n_events)))
    ppns = data.draw(st.permutations(range(GEOMETRY.total_pages)))
    horizon = data.draw(st.integers(0, n_events))
    journal_cuts = data.draw(st.integers(1, 3))

    nand = NandArray(GEOMETRY, TIMING)
    nand.program_ptr[:] = PPB
    nand.block_states[:] = STATE_FULL
    events = []  # (seq, key, ppn or UNMAPPED)
    for key, tomb, seq, ppn in zip(keys, is_tomb, seqs, ppns):
        if tomb and key != TRANS_LPN_BASE:  # translation pages are never trimmed
            events.append((seq, key, UNMAPPED))
        else:
            nand.oob_lpn[ppn] = key
            nand.oob_seq[ppn] = seq
            events.append((seq, key, ppn))
    tombs = [(key, seq) for seq, key, ppn in events if ppn == UNMAPPED]
    for part in range(journal_cuts):
        chunk = tombs[part::journal_cuts]
        if chunk:
            nand.meta.append(
                KIND_UNMAP, build_tombstones(*(list(col) for col in zip(*chunk)))
            )

    def oracle(upto=None):
        newest = {}
        for seq, key, ppn in events:
            if (upto is None or seq < upto) and seq >= newest.get(key, (-1,))[0]:
                newest[key] = (seq, ppn)
        l2p = np.full(user_pages, UNMAPPED, dtype=np.int64)
        gtd = np.full(trans_pages, UNMAPPED, dtype=np.int64)
        for key, (_seq, ppn) in newest.items():
            if key == TRANS_LPN_BASE:
                gtd[0] = ppn
            else:
                l2p[key] = ppn
        return l2p, gtd, newest

    want_l2p, want_gtd, newest = oracle()
    n_stamps = n_events - len(tombs)

    def check(horizon, generation):
        meta = _load_metadata(nand, user_pages)
        l2p, write_seq, report = _rebuild(nand, meta, user_pages, trans_pages)
        assert report.checkpoint_generation == generation
        assert report.full_scan == (generation == -1)
        assert np.array_equal(l2p, want_l2p)
        assert np.array_equal(report.gtd, want_gtd)
        assert write_seq == report.write_seq == max(horizon, n_events)
        assert report.pages_scanned == GEOMETRY.total_pages
        assert report.torn_pages == GEOMETRY.total_pages - n_stamps
        # One definition on both runs: a tombstone is replayed when it is
        # at or past the horizon and the newest event of its key; a swept
        # stamp is stale unless it is that.
        winners = [
            ppn for seq, key, ppn in events
            if seq >= horizon and newest[key][0] == seq
        ]
        replayed = sum(1 for ppn in winners if ppn == UNMAPPED)
        assert report.tombstones_replayed == replayed
        assert report.stale_pages == n_stamps - (len(winners) - replayed)

    # No checkpoint: an empty base at horizon 0, the whole device the tail.
    check(0, -1)

    # Checkpoint at H + the tail (here: the whole device) merged onto it.
    base_l2p, base_gtd, _ = oracle(upto=horizon)
    nand.meta.append(
        KIND_CHECKPOINT,
        build_checkpoint(
            1, horizon, base_l2p, np.zeros(GEOMETRY.total_blocks, dtype=np.int32),
            nand.erase_counts, PPB, gtd=base_gtd,
        ),
        generation=1,
    )
    check(horizon, 1)
