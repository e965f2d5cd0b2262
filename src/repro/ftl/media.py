"""The flash behind the FTL: how a wearing device's reads and erases degrade.

:class:`Media` wraps a :class:`~repro.nand.array.NandArray` with the
recovery a controller runs below its mapping layer: read-retry of
uncorrectable reads, the deterministic ECC escalation ladder of an armed
reliability profile, erase-retry, and the audit record (traced as a
``fault.*`` event) of every episode.  Results come back as
``(latency_ns, ok)``; what a lost page or a failed erase means for the
mapping (unmap, retire) stays with the FTL, as do program retries, which
re-slot on a write frontier.  Without an injector or a ladder the media
is the array itself: an extent's or a victim's reads are one bulk call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ftl.mapping import UNMAPPED
from repro.ftl.scrub import RefreshScrubber
from repro.ftl.stats import FtlStats
from repro.nand.array import NandArray
from repro.nand.errors import EraseFailError, UncorrectableReadError
from repro.nand.reliability import ReadOutcome, ReliabilityModel
from repro.obs.audit import DISABLED_AUDIT, FaultRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ssd.config import SsdConfig


class Media:
    """Reads and erases of one device's NAND array, with their recovery.

    Retry budgets and the reliability profile come from ``config``; the
    outcomes are booked in the FTL's ``stats``.  ``clock`` (simulated
    ns) is the device's one time base: see :meth:`set_clock`.
    """

    def __init__(
        self, nand: NandArray, config: "SsdConfig", stats: FtlStats, clock: Callable[[], int]
    ) -> None:
        self.nand = nand
        self.stats = stats
        self.max_read_retries = config.max_read_retries
        self.max_erase_retries = config.max_erase_retries
        self._ppb = nand.geometry.pages_per_block
        #: No-op default, replaced by :meth:`repro.obs.Observability.install`.
        self.audit = DISABLED_AUDIT
        #: The live data-integrity subsystem (repro.nand.reliability +
        #: repro.ftl.scrub): when armed, every read consults the ladder
        #: and the scrubber nominates at-risk blocks for the FTL to
        #: refresh; when off, the whole path is one ``is None`` check.
        profile = config.reliability
        self.model = ReliabilityModel(profile) if profile is not None else None
        self.scrubber = RefreshScrubber(profile) if profile and profile.scrub else None
        #: Read-retry level histogram {level: successful reads}; level
        #: ``len(retry_rber_factors)`` means the soft decoder.  Kept off
        #: FtlStats (plain-int snapshot/delta contract) and surfaced in
        #: RunMetrics by the collector.
        self.ecc_retry_histogram: Dict[int, int] = {}
        #: block -> [verdict, expiry_ns, reads left]; see :meth:`verdict`.
        self._memo: Dict[int, list] = {}
        self.set_clock(clock)

    def set_clock(self, clock: Callable[[], int]) -> None:
        """Bind the device's time base: with the ladder armed, the array
        stamps each program's retention from it and the ladder ages blocks
        against it, so a rebound clock (an FTL built before the simulator
        that adopts it) moves both together.  It also dates fault notes."""
        self.clock = clock
        if self.model is not None:
            self.nand.set_reliability_clock(clock)

    def note_fault(
        self, kind: str, block: int, page: int, resolution: str, retries: int = 0
    ) -> None:
        """Audit one fault-recovery episode (the audit log traces it)."""
        if self.audit.enabled:
            self.audit.record(
                FaultRecord(self.clock(), kind, block, page, resolution, retries)
            )

    def verdict(self, block: int) -> ReadOutcome:
        """ECC escalation ladder verdict for a read of ``block`` now.

        Expected RBER is wear x retention age x disturb count, each
        bucketed by the model.  The memo keeps the steady-state cost to
        one dict probe: a verdict holds until the block's retention
        bucket rolls over (from the stamp it was computed against) or its
        disturb bucket could advance (a countdown of reads), and is
        dropped on erase, which changes all three inputs.  A stamp
        refreshed by a later program only shortens the true age, so
        holding the older verdict until the (earlier) expiry is
        conservative, never optimistic.
        """
        now = self.clock()
        entry = self._memo.get(block)
        if entry is not None and now < entry[1] and entry[2] > 0:
            entry[2] -= 1
            return entry[0]
        nand = self.nand
        stamp_ns = int(nand.last_program_ns[block])
        disturb = nand.read_disturb
        # A negative age is clock skew across power cycles (standalone
        # op-counter clocks restart at zero): treat as freshly programmed.
        outcome, hold_ns, reads = self.model.verdict(
            int(nand.erase_counts[block]),
            max(0, now - stamp_ns),
            disturb.counts[block] if disturb is not None else 0,
        )
        self._memo[block] = [outcome, stamp_ns + hold_ns, reads - 1]  # less this read
        return outcome

    def read(self, block: int, page: int) -> Tuple[int, bool]:
        """Read one physical page; returns ``(latency_ns, ok)``.

        With the ladder armed it runs first: within-strength reads cost
        base latency, stressed ones pay priced retry levels or the soft
        decoder, and beyond-cliff reads are UECCs.  An injected
        uncorrectable read is retried up to the budget.  ``ok`` False is
        a lost page, counted as an uncorrectable read.
        """
        stats, nand = self.stats, self.nand
        extra_ns = 0
        if self.model is not None:
            outcome = self.verdict(block)
            extra_ns = outcome.extra_ns
            if not outcome.ok:
                # The whole priced ladder ran and the data is still
                # beyond the code; callers handle it like any lost read.
                stats.uecc_count += 1
                stats.uncorrectable_reads += 1
                self.note_fault("read", block, page, "uecc", outcome.level)
                try:
                    base_ns = nand.read_page(block, page)
                except UncorrectableReadError as fault:
                    base_ns = fault.latency_ns
                return base_ns + extra_ns, False
            if outcome.level == 0:
                stats.ecc_fast_reads += 1
            else:
                stats.ecc_retry_reads += 1
                hist = self.ecc_retry_histogram
                hist[outcome.level] = hist.get(outcome.level, 0) + 1
                if outcome.soft:
                    stats.ecc_soft_decodes += 1
                resolution = "ecc-soft-decode" if outcome.soft else "ecc-retry"
                self.note_fault("read", block, page, resolution, outcome.level)
        try:
            return nand.read_page(block, page) + extra_ns, True
        except UncorrectableReadError as fault:
            latency = fault.latency_ns + extra_ns
        for attempt in range(1, self.max_read_retries + 1):
            stats.read_retries += 1
            try:
                latency += nand.reread_page(block, page)
            except UncorrectableReadError as fault:
                latency += fault.latency_ns
                continue
            self.note_fault("read", block, page, "read-retry", attempt)
            return latency, True
        stats.uncorrectable_reads += 1
        self.note_fault("read", block, page, "data-lost", self.max_read_retries)
        return latency, False

    def read_extent(self, ppns: List[int]) -> int:
        """Read the mapped pages among ``ppns`` (one translation group of
        a host extent; ``UNMAPPED`` holes skipped) in order; returns the
        latency.

        A plain device reads them in one
        :meth:`~repro.nand.array.NandArray.read_pages_scattered` call;
        under an injector each is a :meth:`read`, in order (fault draws
        are per read).  Under the ladder alone each page is checked and
        booked at its turn in one pass: a page whose block holds a live
        fast-path verdict takes one step of the verdict's countdown and
        the array's bounds and bad-block probe, bumps the block's disturb
        counter, and is counted in ``page_reads`` and ``ecc_fast_reads``,
        exactly as :meth:`read` would book it; any other page takes
        :meth:`read`, which sees every counter the pages before it bumped.
        :meth:`read_ppn` is the one-page form.
        """
        ppb, nand = self._ppb, self.nand
        if nand.fault_injector is not None:
            return sum(
                self.read(ppn // ppb, ppn % ppb)[0] for ppn in ppns if ppn != UNMAPPED
            )
        if self.model is None:
            return nand.read_pages_scattered(
                [ppn // ppb for ppn in ppns if ppn != UNMAPPED]
            )
        memo_get, now = self._memo.get, self.clock()
        disturb = nand.read_disturb
        counts = disturb.counts if disturb is not None else None
        # The array's own read probe (NandArray.read_page), inlined.
        num_blocks, bad = nand._num_blocks, nand._bad
        latency = fast = 0
        for ppn in ppns:
            if ppn == UNMAPPED:
                continue
            block = ppn // ppb
            entry = memo_get(block)
            if entry is not None and entry[2] > 0 and now < entry[1] and not entry[0].level:
                entry[2] -= 1
                if not 0 <= block < num_blocks or bad[block]:
                    nand._check_block(block, "read")  # raises the matching error
                if counts is not None:
                    counts[block] += 1
                fast += 1
            else:
                latency += self.read(block, ppn % ppb)[0]
        if fast:
            self.stats.ecc_fast_reads += fast
            nand.page_reads += fast
        return latency + fast * nand._read_ns

    def read_ppn(self, ppn: int) -> int:
        """Read the one mapped page ``ppn`` (a CMT miss's translation
        page); returns the latency.

        :meth:`read_extent`'s pass over one page, without the group set-up
        that would cost more than the page: a page whose block holds a
        live fast-path verdict is booked here, unless an injector (whose
        draws are per read) is attached; any other page takes
        :meth:`read`.  A memo entry exists only with the ladder armed.
        """
        block, nand = ppn // self._ppb, self.nand
        entry = self._memo.get(block)
        if (
            entry is None
            or entry[2] <= 0
            or entry[0].level
            or nand.fault_injector is not None
            or self.clock() >= entry[1]
        ):
            return self.read(block, ppn % self._ppb)[0]
        entry[2] -= 1
        if not 0 <= block < nand._num_blocks or nand._bad[block]:
            nand._check_block(block, "read")  # raises the matching error
        if nand.read_disturb is not None:
            nand.read_disturb.counts[block] += 1
        self.stats.ecc_fast_reads += 1
        nand.page_reads += 1
        return nand._read_ns

    def read_block(self, block: int, pages: np.ndarray) -> Optional[Tuple[int, List[int]]]:
        """Read ahead the valid ``pages`` (ascending offsets) of a block
        being relocated; returns the latency and the positions in
        ``pages`` of the pages lost, or None -- no read-ahead -- under an
        injector, whose per-operation draws must stay interleaved with
        the relocation's programs and retirements, so each page takes
        :meth:`read` at its turn.

        A plain block, or one on the ladder's fast path, is one bulk call
        (the verdict is block-granular, so one check covers every page).
        A stressed block is read page by page through :meth:`read`, with
        the ladder's tolls and notes.
        """
        if self.nand.fault_injector is not None:
            return None
        if self.model is not None:
            if self.verdict(block).level:
                latency, lost = 0, []
                for position, page in enumerate(pages.tolist()):
                    read_ns, ok = self.read(block, page)
                    latency += read_ns
                    if not ok:
                        lost.append(position)
                return latency, lost
            self.stats.ecc_fast_reads += len(pages)
        return self.nand.read_pages_batch(block, len(pages)), []

    def erase(self, block: int) -> Tuple[int, bool]:
        """Erase ``block`` with bounded retries; returns ``(latency_ns,
        ok)``.  ``ok`` False: every attempt failed and the block must be
        retired as grown-bad (the fault is noted here)."""
        # The erase re-bases the retention clock, resets the disturb
        # counter and bumps the P/E count: a memoised verdict is stale.
        self._memo.pop(block, None)
        latency = 0
        for _ in range(self.max_erase_retries + 1):
            try:
                return latency + self.nand.erase_block(block), True
            except EraseFailError as fault:
                latency += fault.latency_ns
                self.stats.erase_faults += 1
        self.note_fault("erase", block, -1, "block-retired", self.max_erase_retries)
        return latency, False
