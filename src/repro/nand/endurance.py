"""Wear statistics and the block wear-out model.

Lifetime is the second axis of the paper's evaluation: WAF (write
amplification factor) is the proxy, because every amplified write turns
into extra program/erase cycles.  :class:`EnduranceModel` tracks erase
counts per block and can retire blocks that exceed their rated P/E cycles
(20 nm MLC is typically rated around 3K cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class WearStats:
    """Summary of wear across the array at a point in time."""

    total_erases: int
    max_erase_count: int
    min_erase_count: int
    mean_erase_count: float
    erase_count_stddev: float
    worn_out_blocks: int

    def imbalance(self) -> float:
        """Max/mean erase ratio; 1.0 means perfectly even wear."""
        if self.mean_erase_count == 0:
            return 1.0
        return self.max_erase_count / self.mean_erase_count


class EnduranceModel:
    """Per-block erase counting with optional wear-out.

    Args:
        num_blocks: flat block count of the array.
        pe_cycle_limit: rated program/erase cycles; ``None`` disables
            wear-out (blocks never retire, counts still tracked).
    """

    def __init__(self, num_blocks: int, pe_cycle_limit: Optional[int] = 3000) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if pe_cycle_limit is not None and pe_cycle_limit <= 0:
            raise ValueError(f"pe_cycle_limit must be positive, got {pe_cycle_limit}")
        self.num_blocks = num_blocks
        self.pe_cycle_limit = pe_cycle_limit
        # int32 is ample (rated limits are in the thousands) and keeps the
        # per-block state vectors cache-dense alongside the NAND array's.
        self.erase_counts = np.zeros(num_blocks, dtype=np.int32)
        self.total_erases = 0

    def record_erase(self, block: int) -> bool:
        """Count an erase of ``block``; returns True if the block wore out.

        A block wears out on the erase that *reaches* the P/E limit.
        """
        count = self.erase_counts.item(block) + 1
        self.erase_counts[block] = count
        self.total_erases += 1
        return self.pe_cycle_limit is not None and count >= self.pe_cycle_limit

    def erase_count(self, block: int) -> int:
        return self.erase_counts.item(block)

    def remaining_cycles(self, block: int) -> Optional[int]:
        """Rated cycles left for ``block``; ``None`` if wear-out disabled."""
        if self.pe_cycle_limit is None:
            return None
        return max(0, self.pe_cycle_limit - int(self.erase_counts[block]))

    def stats(self) -> WearStats:
        """Snapshot of array-wide wear statistics."""
        counts = self.erase_counts
        worn = 0
        if self.pe_cycle_limit is not None:
            worn = int(np.count_nonzero(counts >= self.pe_cycle_limit))
        return WearStats(
            total_erases=self.total_erases,
            max_erase_count=int(counts.max(initial=0)),
            min_erase_count=int(counts.min(initial=0)),
            mean_erase_count=float(counts.mean()) if len(counts) else 0.0,
            erase_count_stddev=float(counts.std()) if len(counts) else 0.0,
            worn_out_blocks=worn,
        )
