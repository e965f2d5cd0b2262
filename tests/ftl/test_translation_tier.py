"""The translation tier, pinned: what a flash-resident map charges for
each host command, collection and checkpoint, and what it records.

A dftl device with a two-page cached mapping table (16 entries per
translation page) runs one scripted sequence of per-page and extent
writes, reads, TRIMs, collections and checkpoints.  Every call's
returned latency, the translation counters and the mapping-fault
records are pinned, so any move of the tier -- a touch taken at another
point, a miss priced differently, a writeback on another frontier --
shows here first.
"""

import dataclasses
import hashlib
import random
from collections import Counter

from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.obs.audit import DecisionAuditLog
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=128, pages_per_block=8, blocks_per_plane=32)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)

TIER_STATS = (
    "cmt_hits",
    "cmt_misses",
    "cmt_evictions",
    "trans_pages_read",
    "trans_pages_written",
    "trans_pages_migrated",
)


def make_ftl(mode):
    config = SsdConfig(
        geometry=GEOMETRY,
        timing=TIMING,
        op_ratio=0.25,
        fgc_penalty=1.0,
        mapping_mode=mode,
        cmt_budget_bytes=2 * GEOMETRY.page_size if mode == "dftl" else None,
    )
    ftl = config.build_ftl(nand=NandArray(GEOMETRY, TIMING))
    ftl.audit = ftl.media.audit = DecisionAuditLog()
    return ftl


def script(ftl):
    """``(command, returned ns)`` for each step of the fixed sequence."""
    rng = random.Random(3)
    user = ftl.space.user_pages
    steps = [("fill", ftl.host_write_extent(0, user // 2))]
    for _ in range(12):
        steps.append(("write", ftl.host_write_page(rng.randrange(user))))
    for _ in range(6):
        lpn = rng.randrange(user - 40)
        steps.append(("write_extent", ftl.host_write_extent(lpn, rng.randrange(1, 40))))
    for _ in range(6):
        lpn = rng.randrange(user - 40)
        steps.append(("read_extent", ftl.host_read_extent(lpn, rng.randrange(1, 40))))
    steps.append(("read", ftl.host_read_page(rng.randrange(user))))
    steps.append(("trim", ftl.trim([5, 40, 41, 90, 5, user - 1])))
    steps.append(("checkpoint", ftl.write_checkpoint()))
    steps.append(("read_extent", ftl.host_read_extent(30, 20)))
    for _ in range(user * 2):
        ftl.host_write_page(rng.randrange(user))
    steps.append(("churn", ftl.stats.fgc_blocks_collected > 0))
    for _ in range(3):
        steps.append(("gc", ftl.collect_one_block(background=True)))
    steps.append(("trim", ftl.trim(range(100, 130))))
    steps.append(("checkpoint", ftl.write_checkpoint()))
    steps.append(("write_extent", ftl.host_write_extent(7, 33)))
    ftl.invariant_check()
    return steps


def digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


PINNED_STEPS = [
    ("fill", 10802),
    *[("write", ns) for ns in (211, 201, 201, 211, 211, 211, 201, 201, 211, 211, 101, 211)],
    *[("write_extent", ns) for ns in (1937, 1625, 3351, 5966, 7066, 2120)],
    *[("read_extent", ns) for ns in (330, 295, 65, 448, 240, 198)],
    ("read", 21),
    ("trim", 230),
    ("checkpoint", 1700),
    ("read_extent", 230),
    ("churn", True),
    ("gc", 1880),
    ("gc", 1440),
    ("gc", 1550),
    ("trim", 730),
    ("checkpoint", 2700),
    ("write_extent", 29243),
]

PINNED_STATS = {
    "cmt_hits": 461,
    "cmt_misses": 1012,
    "cmt_evictions": 994,
    "trans_pages_read": 999,
    "trans_pages_written": 994,
    "trans_pages_migrated": 1206,
}

#: The first records, in order: ``(t_ns, dur_ns, tvpn, kind, pages)``.
PINNED_FIRST_FAULTS = [
    (33, 100, 2, "writeback", 1),
    (49, 100, 3, "writeback", 1),
    (65, 100, 4, "writeback", 1),
    (81, 100, 5, "writeback", 1),
    (97, 100, 6, "writeback", 1),
    (103, 110, 3, "writeback", 2),
    (104, 100, 9, "writeback", 1),
    (105, 100, 8, "writeback", 1),
    (106, 110, 2, "writeback", 2),
    (107, 110, 5, "writeback", 2),
    (108, 110, 9, "writeback", 2),
    (109, 100, 7, "writeback", 1),
]


def test_the_translation_tier_prices_a_scripted_sequence_as_pinned():
    ftl = make_ftl("dftl")
    assert script(ftl) == PINNED_STEPS
    assert {name: getattr(ftl.stats, name) for name in TIER_STATS} == PINNED_STATS
    faults = [
        (r.t_ns, r.dur_ns, r.tvpn, r.kind, r.pages)
        for r in ftl.audit.mapping_fault_spans
    ]
    assert faults[: len(PINNED_FIRST_FAULTS)] == PINNED_FIRST_FAULTS
    assert Counter((kind, pages) for *_, kind, pages in faults) == {
        ("writeback", 2): 983,
        ("miss", 1): 16,
        ("writeback", 1): 11,
    }
    assert sum(dur for _, dur, *_ in faults) == 109390
    # The whole sequence, order included.
    assert digest(faults) == "9d3b5370ff2508cc"


def test_a_dram_map_runs_the_same_sequence_with_no_translation_traffic():
    ftl = make_ftl("dram")
    script(ftl)
    assert {name: getattr(ftl.stats, name) for name in TIER_STATS} == dict.fromkeys(
        TIER_STATS, 0
    )
    assert ftl.audit.mapping_fault_spans == []
    assert ftl.translation_write_overhead() == 0.0


def test_the_dram_maps_tier_is_free_and_changes_nothing():
    ftl = make_ftl("dram")
    for lpn in range(0, 60, 3):
        ftl.host_write_page(lpn)
    pm, nand = ftl.page_map, ftl.nand

    def state():
        return (
            dataclasses.asdict(ftl.stats),
            pm.l2p_snapshot().tolist(),
            pm.valid_counts().tolist(),
            (nand.page_reads, nand.page_programs, nand.program_ptr.tolist()),
        )

    before = state()
    assert pm.touch_span(0, 40, True) == 0
    assert pm.touch_span(3, 1, False) == 0
    assert pm.touch_group(5, 90) == (90, 0)  # one read group: the whole extent
    assert pm.touch_lpns([1, 2, 40]) == 0
    assert pm.touch_lpns([]) == 0
    assert pm.directory() is None
    pm.checkpointed()
    assert state() == before
    assert ftl.audit.mapping_fault_spans == []


def test_the_cached_maps_read_groups_end_on_translation_page_boundaries():
    ftl = make_ftl("dftl")
    pm = ftl.page_map
    assert pm.entries_per_tpage == 16
    # Never-flushed translation pages: the misses cost nothing.
    assert pm.touch_group(5, 90) == (16, 0)
    assert pm.touch_group(16, 90) == (32, 0)
    assert pm.touch_group(80, 90) == (90, 0)
    assert (ftl.stats.cmt_misses, ftl.stats.cmt_hits) == (3, 10 + 15 + 9)
