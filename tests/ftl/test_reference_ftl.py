"""The production FTL against an independent reference FTL.

:class:`ReferenceFtl` is the textbook page-mapped FTL, in the shape of
wiscsee's ``cleanftl/pmftl.py``: ``l2p`` / ``p2l`` dicts, a valid
bitmap, one append point and greedy garbage collection, in plain Python
with no index, no batching and no NumPy.  It shares no code with
:class:`~repro.ftl.ftl.PageMappedFtl`, so agreement between the two says
something about the production indexes and batched paths instead of
restating them.

A hypothesis state machine drives both with the same host operations --
page and extent writes, extent reads, TRIM, background collection, SIP
lists, and a power cut followed by :func:`~repro.ftl.recovery.recover_ftl`
-- over the dram and dftl mapping modes, and after every step compares
them at the logical level: the mapped LPN set, and each mapped LPN's
physical page carrying that LPN's newest OOB stamp on the media.
``invariant_check()`` runs after every step too; it cross-checks the
valid-count and SIP-overlap indexes against a recount.
"""

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.ftl.mapping import UNMAPPED
from repro.ftl.recovery import recover_ftl
from repro.ftl.victim import SipFilteredSelector
from repro.nand.array import OOB_UNSTAMPED
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.ssd.config import SsdConfig

GEOMETRY = NandGeometry(page_size=512, pages_per_block=16, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


class ReferenceFtl:
    """Page-mapped FTL with one append point and greedy GC.

    Every acknowledged operation is durable here, so a power cut changes
    nothing: the reference is what the recovered device must equal.
    """

    def __init__(self, blocks: int, pages_per_block: int) -> None:
        self.ppb = pages_per_block
        self.l2p = {}  # logical page -> physical page
        self.p2l = {}  # physical page -> logical page
        self.valid = [False] * (blocks * pages_per_block)
        self.free = deque(range(blocks))
        self.used = []  # closed blocks: the GC candidates
        self.block = self.free.popleft()
        self.next_page = 0

    def write(self, lpn: int) -> None:
        self._append(lpn)
        while len(self.free) < 2:
            self.collect()

    def trim(self, lpn: int) -> None:
        ppn = self.l2p.pop(lpn, None)
        if ppn is not None:
            self.valid[ppn] = False
            del self.p2l[ppn]

    def mapped_in(self, lpn: int, count: int) -> int:
        return sum(1 for page in range(lpn, lpn + count) if page in self.l2p)

    def collect(self) -> None:
        """Greedy: relocate the fewest-valid closed block, then free it."""
        if not self.used:
            return
        victim = min(self.used, key=lambda block: (self._valid_in(block), block))
        self.used.remove(victim)
        start = victim * self.ppb
        for ppn in range(start, start + self.ppb):
            if self.valid[ppn]:
                self._append(self.p2l[ppn])
        self.free.append(victim)

    def _valid_in(self, block: int) -> int:
        start = block * self.ppb
        return sum(self.valid[start:start + self.ppb])

    def _append(self, lpn: int) -> None:
        if self.next_page == self.ppb:
            self.used.append(self.block)
            self.block = self.free.popleft()
            self.next_page = 0
        self.trim(lpn)
        ppn = self.block * self.ppb + self.next_page
        self.next_page += 1
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        self.valid[ppn] = True


def newest_stamps(nand, user_pages: int) -> dict:
    """LPN -> (seq, ppn) of its newest stamped copy on the media, by the
    obvious loop over every programmed page of every good block."""
    ppb = nand.geometry.pages_per_block
    newest = {}
    for block in range(nand.geometry.total_blocks):
        if nand.is_bad(block):
            continue
        for ppn in range(block * ppb, block * ppb + int(nand.program_ptr[block])):
            lpn, seq = int(nand.oob_lpn[ppn]), int(nand.oob_seq[ppn])
            if seq != OOB_UNSTAMPED and 0 <= lpn < user_pages:
                if seq > newest.get(lpn, (OOB_UNSTAMPED, None))[0]:
                    newest[lpn] = (seq, ppn)
    return newest


class FtlAgainstReference(RuleBasedStateMachine):
    mode = "dram"

    def __init__(self) -> None:
        super().__init__()
        self.config = SsdConfig(
            geometry=GEOMETRY,
            timing=TIMING,
            op_ratio=0.25,
            mapping_mode=self.mode,
            cmt_budget_bytes=GEOMETRY.page_size if self.mode == "dftl" else None,
        )
        self.ftl = self.config.build_ftl()
        self.ftl.victim_selector = SipFilteredSelector()
        self.user_pages = self.ftl.space.user_pages
        #: LPNs the host touches.  A dftl device whose working set nears
        #: its whole logical space can exhaust the free pool inside
        #: foreground GC (ROADMAP item 1(a), open), so dftl stays below it.
        self.span = self.user_pages if self.mode == "dram" else self.user_pages * 7 // 10
        self.ref = ReferenceFtl(GEOMETRY.total_blocks, GEOMETRY.pages_per_block)
        self.trimmed = set()

    def _extent(self, data, max_count: int = 32):
        lpn = data.draw(st.integers(0, self.span - 1), label="lpn")
        count = data.draw(st.integers(1, min(max_count, self.span - lpn)), label="count")
        return lpn, count

    @rule(data=st.data())
    def write_page(self, data):
        lpn = data.draw(st.integers(0, self.span - 1), label="lpn")
        self.ftl.host_write_page(lpn)
        self.ref.write(lpn)
        self.trimmed.discard(lpn)

    @rule(data=st.data())
    def write_extent(self, data):
        lpn, count = self._extent(data)
        self.ftl.host_write_extent(lpn, count)
        for page in range(lpn, lpn + count):
            self.ref.write(page)
        self.trimmed.difference_update(range(lpn, lpn + count))

    @rule(data=st.data())
    def read_extent(self, data):
        lpn, count = self._extent(data)
        latency = self.ftl.host_read_extent(lpn, count)
        transfer = count * TIMING.transfer_ns_per_page
        if self.mode == "dram":  # a dftl CMT miss costs even over holes
            assert (latency > transfer) == (self.ref.mapped_in(lpn, count) > 0)
        assert latency >= transfer

    @rule(data=st.data())
    def trim(self, data):
        lpn, count = self._extent(data, max_count=8)
        self.ftl.trim(range(lpn, lpn + count))
        for page in range(lpn, lpn + count):
            self.ref.trim(page)
        self.trimmed.update(range(lpn, lpn + count))

    @rule(data=st.data())
    def set_sip_list(self, data):
        lpns = data.draw(st.lists(st.integers(0, self.span - 1), max_size=64))
        self.ftl.set_sip_list(lpns)

    @precondition(lambda self: self.ftl.has_victim())
    @rule()
    def collect_background(self):
        self.ftl.collect_one_block(background=True)
        self.ref.collect()

    @rule()
    def power_cut(self):
        nand = self.ftl.nand
        for frontier in self.ftl.frontiers:
            nand.tear_frontier_page(frontier.block)
        durable = nand.capture_durable_state()
        self.ftl, _ = recover_ftl(self.config.restore_nand(durable), self.config)
        self.ftl.victim_selector = SipFilteredSelector()
        l2p = self.ftl.page_map.l2p_snapshot()
        assert not any(l2p[lpn] != UNMAPPED for lpn in self.trimmed)

    @invariant()
    def agrees_with_reference(self):
        self.ftl.invariant_check()
        l2p = self.ftl.page_map.l2p_snapshot()
        mapped = {lpn for lpn in range(self.user_pages) if l2p[lpn] != UNMAPPED}
        assert mapped == set(self.ref.l2p)
        newest = newest_stamps(self.ftl.nand, self.user_pages)
        for lpn in mapped:
            assert newest[lpn][1] == int(l2p[lpn]), lpn


class DftlAgainstReference(FtlAgainstReference):
    mode = "dftl"


@pytest.mark.parametrize("machine", [FtlAgainstReference, DftlAgainstReference])
def test_ftl_agrees_with_the_reference_ftl(machine):
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=40, stateful_step_count=50, deadline=None),
    )
