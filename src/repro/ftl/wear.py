"""Wear-aware free-block allocation and static wear levelling.

Two cooperating mechanisms:

* :class:`WearAwareAllocator` keeps the free-block pool as a min-heap
  ordered by erase count, so new write frontiers always land on the
  least-worn free block (dynamic wear levelling).
* :class:`StaticWearLeveler` watches the spread between the most- and
  least-erased blocks and, past a threshold, nominates a cold block
  (low erase count, data rarely rewritten) to be forcibly collected so
  its block re-enters circulation.

The paper's FTL (Fig. 3) includes a wear leveller alongside address
remapping; GC-policy experiments keep it enabled with a wide threshold so
it does not mask GC effects.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.nand.endurance import EnduranceModel


class WearAwareAllocator:
    """Free-block pool ordered by erase count (least-worn first).

    Ties break on block number so allocation order is deterministic.
    """

    def __init__(self, endurance: EnduranceModel, initial_free: Iterable[int] = ()) -> None:
        self.endurance = endurance
        # One heapify over the initial pool instead of a push per block;
        # entries are distinct tuples, so the pop order is the same.
        blocks = np.fromiter(initial_free, dtype=np.int64).tolist()
        self._members = set(blocks)
        if len(self._members) != len(blocks):
            raise ValueError("initial free pool lists a block twice")
        self._heap: List[tuple] = list(
            zip(endurance.erase_counts[blocks].tolist(), blocks)
        )
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, block: int) -> bool:
        return block in self._members

    def __iter__(self) -> Iterator[int]:
        """The free blocks, in no particular order."""
        return iter(self._members)

    def release(self, block: int) -> None:
        """Return an erased block to the pool."""
        if block in self._members:
            raise ValueError(f"block {block} already in the free pool")
        self._members.add(block)
        heapq.heappush(self._heap, (self.endurance.erase_count(block), block))

    def allocate(self) -> Optional[int]:
        """Take the least-worn free block, or None if the pool is empty.

        Heap entries carry the erase count at release time; since blocks
        are only erased *before* release, entries never go stale.
        """
        while self._heap:
            _, block = heapq.heappop(self._heap)
            if block in self._members:
                self._members.discard(block)
                return block
        return None


class StaticWearLeveler:
    """Threshold-triggered static wear levelling.

    When ``max(erase_count) - min(erase_count)`` among in-use blocks
    exceeds ``threshold``, :meth:`pick_cold_block` nominates the in-use
    block with the lowest erase count.  The FTL then treats that block as
    a forced GC victim: its (cold) data migrates onto a worn free block
    and the cold block's low-wear cells re-enter the free pool.

    Args:
        endurance: shared erase-count model.
        threshold: allowed erase-count spread before levelling kicks in.
    """

    def __init__(self, endurance: EnduranceModel, threshold: int = 64) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.endurance = endurance
        self.threshold = threshold
        #: Number of levelling migrations triggered (for reports).
        self.invocations = 0

    def needs_levelling(self, in_use_blocks: np.ndarray) -> bool:
        """True when the wear spread across ``in_use_blocks`` is too wide."""
        if len(in_use_blocks) == 0:
            return False
        counts = self.endurance.erase_counts[in_use_blocks]
        return int(counts.max() - counts.min()) > self.threshold

    def pick_cold_block(self, in_use_blocks: np.ndarray) -> Optional[int]:
        """The coldest (least-erased) in-use block, or None if empty."""
        if len(in_use_blocks) == 0:
            return None
        counts = self.endurance.erase_counts[in_use_blocks]
        self.invocations += 1
        return int(in_use_blocks[int(np.argmin(counts))])
