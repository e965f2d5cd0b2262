"""Physical wear model of the reserved metadata region.

The durable-metadata log (:mod:`repro.ftl.metastore`) records *what*
survives a power cut; this module models *where it lives*: a small ring
of NAND blocks reserved outside the user-addressable space, exactly like
the metadata blocks of a real controller.  The log owns the ring and
programs every record's pages through it.  Programs advance a ring
frontier; wrapping onto a previously written block erases it first, so
metadata traffic ages the reserved blocks through the same endurance
arithmetic user blocks see, and -- with a fault profile armed -- its
programs and erases can fail like user operations (drawn from the
injector's dedicated "meta" stream so user fault sequences stay
untouched).

The ring is deliberately simpler than the user-space FTL: records are
compacted logically by :meth:`~repro.ftl.metastore.MetaLog.compact`
(old checkpoint generations dropped), so physically the ring only ever
needs to reclaim whole blocks in write order -- no per-page validity
tracking.  A block whose erase fails, or that reaches the P/E limit, is
retired; when every reserved block is retired the region is *exhausted*:
the log tears any record it cannot land in full, and the FTL goes
read-only (a device that can no longer persist its mapping cannot accept
writes or TRIMs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - the log lives in the ftl package
    from repro.ftl.metastore import MetaRecord


@dataclass
class MetaProgramOutcome:
    """Accounting for one metadata append routed through the region.

    :meth:`MetaRegion.program` fills the counts; the log's append adds
    the price and the record as it stands on NAND.

    Attributes:
        pages_programmed: payload pages successfully programmed.
        program_faults: pages whose program status-failed (each consumed
            a page and was rewritten on the next one).
        erases: ring-wrap block erases performed.
        erase_faults: erase attempts that failed (block retired).
        blocks_retired: reserved blocks retired during this append.
        exhausted: the region ran out of usable blocks; the tail of the
            payload was *not* durably programmed.
    """

    pages_programmed: int = 0
    program_faults: int = 0
    erases: int = 0
    erase_faults: int = 0
    blocks_retired: int = 0
    exhausted: bool = False
    #: Total NAND time consumed (programs -- successful and status-failed
    #: -- plus erase attempts), priced by the log at the array's timings.
    latency_ns: int = 0
    #: The appended record: torn, holding only the pages that landed,
    #: when the ring ran out mid-record.
    record: Optional["MetaRecord"] = None


@dataclass(frozen=True)
class RingWear:
    """Immutable wear snapshot of a :class:`MetaRegion` (its half of the
    log's durable image); equal snapshots compare equal."""

    erase_counts: Tuple[int, ...]
    retired: Tuple[bool, ...]
    written: Tuple[bool, ...]
    block: int
    page: int


class MetaRegion:
    """Ring of reserved NAND blocks absorbing durable-metadata programs.

    Args:
        blocks: reserved block count (small on real drives; the default
            lives in :class:`~repro.ssd.config.SsdConfig`).
        pages_per_block: geometry of the reserved blocks.
        pe_cycle_limit: endurance rating; None disables wear-out.
        fault_injector: the device's injector (``meta_*`` draws) or None.
    """

    def __init__(
        self,
        blocks: int,
        pages_per_block: int,
        pe_cycle_limit: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        if blocks < 1:
            raise ValueError(f"meta region needs >= 1 block, got {blocks}")
        if pages_per_block < 1:
            raise ValueError(f"pages_per_block must be >= 1, got {pages_per_block}")
        self.blocks = blocks
        self.pages_per_block = pages_per_block
        self.pe_cycle_limit = pe_cycle_limit
        self.fault_injector = fault_injector

        self.erase_counts = np.zeros(blocks, dtype=np.int64)
        self.retired = np.zeros(blocks, dtype=bool)
        #: Blocks holding data from an earlier pass (erase before reuse).
        self._written = np.zeros(blocks, dtype=bool)
        self._block = 0
        self._page = 0

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """No reserved block can absorb another metadata program."""
        return bool(self.retired.all())

    def live_blocks(self) -> int:
        return int((~self.retired).sum())

    def total_erases(self) -> int:
        return int(self.erase_counts.sum())

    # ------------------------------------------------------------------
    def _retire(self, block: int, outcome: MetaProgramOutcome) -> None:
        self.retired[block] = True
        outcome.blocks_retired += 1

    def _roll_frontier(self, outcome: MetaProgramOutcome) -> bool:
        """Advance to the next usable erased block; False when exhausted."""
        for _ in range(self.blocks):
            self._block = (self._block + 1) % self.blocks
            block = self._block
            if self.retired[block]:
                continue
            self._page = 0
            if not self._written[block]:
                return True
            # Ring wrap: reclaim the oldest block before reuse.
            injector = self.fault_injector
            if injector is not None and injector.meta_erase_fails(
                block, int(self.erase_counts[block])
            ):
                # A failed erase still stresses the cells (matches the
                # user path); with no spare pool to retry into, retire.
                self.erase_counts[block] += 1
                outcome.erase_faults += 1
                self._retire(block, outcome)
                continue
            self.erase_counts[block] += 1
            outcome.erases += 1
            self._written[block] = False
            if (
                self.pe_cycle_limit is not None
                and self.erase_counts[block] >= self.pe_cycle_limit
            ):
                self._retire(block, outcome)
                continue
            return True
        return False

    def program(self, pages: int) -> MetaProgramOutcome:
        """Absorb ``pages`` metadata-page programs at the ring frontier.

        Mirrors the user-path failure semantics: a status-failed program
        consumes its page and the payload page is rewritten on the next
        one; an erase failure or wear-out retires the block.  Returns
        the accounting the log prices and the FTL turns into stats and
        -- on ``exhausted`` -- the read-only transition.
        """
        outcome = MetaProgramOutcome()
        if pages <= 0:
            return outcome
        if self.retired[self._block]:
            # The frontier block was retired (or the region restored
            # mid-life); find a fresh one before programming.
            if not self._roll_frontier(outcome):
                outcome.exhausted = True
                return outcome
        remaining = pages
        injector = self.fault_injector
        while remaining > 0:
            if self._page >= self.pages_per_block:
                if not self._roll_frontier(outcome):
                    outcome.exhausted = True
                    return outcome
            block, page = self._block, self._page
            self._page += 1
            self._written[block] = True
            if injector is not None and injector.meta_program_fails(
                block, page, int(self.erase_counts[block])
            ):
                outcome.program_faults += 1
                continue  # page wasted; payload page retries on the next
            outcome.pages_programmed += 1
            remaining -= 1
        return outcome

    # ------------------------------------------------------------------
    # Durability (captured with the NAND media image)
    # ------------------------------------------------------------------
    def capture(self) -> RingWear:
        return RingWear(
            tuple(self.erase_counts.tolist()),
            tuple(self.retired.tolist()),
            tuple(self._written.tolist()),
            self._block,
            self._page,
        )

    def load(self, wear: RingWear) -> None:
        """Copy a :meth:`capture` back into this ring (same block count)."""
        self.erase_counts[:] = wear.erase_counts
        self.retired[:] = wear.retired
        self._written[:] = wear.written
        self._block = wear.block
        self._page = wear.page

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetaRegion {self.live_blocks()}/{self.blocks} live "
            f"frontier={self._block}:{self._page} erases={self.total_erases()}>"
        )
