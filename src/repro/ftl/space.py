"""The SSD space model of the paper's Fig. 1.

The total physical capacity splits into a *user capacity* (addressable by
the host) and an *over-provisioning capacity* ``C_OP`` reserved for the
FTL.  At any instant the user capacity further splits into *used* space
(``Cused``, logical pages the host has written) and *unused* space
(``Cunused``).  A background-GC policy is characterised by its reserved
capacity ``Cresv``:

* lazy  -- ``Cresv < C_OP`` (paper's L-BGC uses ``0.5 x C_OP``),
* aggressive -- ``Cresv > C_OP`` (A-BGC uses ``1.5 x C_OP``), capped at
  ``Cunused + C_OP`` so BGC never chases space the host could not use.

:class:`SpaceModel` holds the static split and converts between bytes,
pages and blocks; dynamic quantities (Cused, Cfree) live in the FTL which
owns the mapping state.

This module also hosts the GC hot-path indexes (PERFORMANCE.md):
:class:`ValidCountIndex` keeps victim candidates ordered by valid-page
count so greedy selection stops rescanning every closed block, and
:class:`SipOverlapIndex` keeps per-block counts of valid pages whose LPN
is on the SIP list so the paper's filter stops recounting
``valid_lpns_in_block x sip_lpns`` per GC invocation.
"""

from __future__ import annotations

import heapq
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.nand.geometry import NandGeometry

#: :class:`ValidCountIndex` compacts its heap once it holds more than
#: ``_HEAP_FACTOR * tracked + _HEAP_SLACK`` entries.
_HEAP_FACTOR, _HEAP_SLACK = 4, 64


class ValidCountIndex:
    """Min-ordered index of GC candidates keyed by ``(valid_count, block)``.

    Tracks the FTL's closed in-use blocks.  The heap holds stale entries
    lazily: each tracked block carries a *generation* (bumped when the
    block is re-closed after an erase) and an entry is live only when
    both its generation and its count match the current tracked state.
    Every count change pushes an entry and only dead *heads* are popped,
    so a superseded entry ranked above the victim level would stay for
    ever: the heap is rebuilt from the tracked state, one live entry per
    block, whenever it outgrows ``4 * tracked + 64`` entries -- O(tracked)
    memory at amortised O(1) per push, and no effect on the ranking.

    Ranking is by ascending ``(count, block)``: fewest valid pages
    first, ties toward the lowest block number.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []
        self._count: Dict[int, int] = {}
        self._gen: Dict[int, int] = {}

    def __len__(self) -> int:
        """Number of tracked (closed, in-use) blocks."""
        return len(self._count)

    def tracks(self, block: int) -> bool:
        return block in self._count

    def count(self, block: int) -> int:
        """Tracked valid count of ``block`` (must be tracked)."""
        return self._count[block]

    def items(self) -> Iterable[Tuple[int, int]]:
        """``(block, count)`` view of the tracked population (tests)."""
        return self._count.items()

    def track(self, block: int, count: int) -> None:
        """Start tracking ``block`` (it was just closed) at ``count``."""
        gen = self._gen.get(block, 0) + 1
        self._gen[block] = gen
        self._count[block] = count
        heapq.heappush(self._heap, (count, block, gen))
        self._compact_if_bloated()

    def track_many(self, blocks: Sequence[int], counts: Sequence[int]) -> None:
        """Bulk :meth:`track` of distinct ``blocks`` (power-on rebuild).

        ``blocks`` and ``counts`` are parallel int sequences or arrays.
        The new ``(count, block, gen)`` rows join the heap as they are and
        one ``heapify`` orders it -- no push per block, no rebuild of the
        rows from the dicts.  Heap entries are distinct tuples, so the pop
        order is the same whichever way the heap was built.  Every block
        starts its first generation except the few tracked in an earlier
        life, which are looked up, not every block.
        """
        blocks = np.asarray(blocks, dtype=np.int64).tolist()
        counts = np.asarray(counts, dtype=np.int64).tolist()
        gens = dict.fromkeys(blocks, 1)
        for block in gens.keys() & self._gen.keys():
            gens[block] = self._gen[block] + 1
        self._gen.update(gens)
        self._count.update(zip(blocks, counts))
        self._heap.extend(zip(counts, blocks, gens.values()))
        heapq.heapify(self._heap)
        self._compact_if_bloated()

    def tracks_exactly(self, blocks: np.ndarray, counts: np.ndarray) -> bool:
        """True when the tracked population is ``blocks`` (ascending and
        distinct) at ``counts`` -- the invariant check's comparison, on
        arrays instead of two block-keyed dicts."""
        tracked = len(self._count)
        if tracked != len(blocks):
            return False
        held = np.fromiter(self._count, dtype=np.int64, count=tracked)
        at = np.fromiter(self._count.values(), dtype=np.int64, count=tracked)
        order = held.argsort()
        return bool(
            np.array_equal(held[order], blocks) and np.array_equal(at[order], counts)
        )

    def untrack(self, block: int) -> None:
        """Stop tracking ``block`` (erased or retired); idempotent."""
        self._count.pop(block, None)
        self._compact_if_bloated()

    def adjust(self, block: int, delta: int) -> None:
        """Apply a valid-count delta to a tracked block."""
        count = self._count[block] + delta
        self._count[block] = count
        heapq.heappush(self._heap, (count, block, self._gen[block]))
        self._compact_if_bloated()

    def adjust_if_tracked(self, block: int, delta: int) -> None:
        """One-lookup :meth:`tracks` + :meth:`adjust` (per-page hot path)."""
        count = self._count.get(block)
        if count is not None:
            count += delta
            self._count[block] = count
            heapq.heappush(self._heap, (count, block, self._gen[block]))
            self._compact_if_bloated()

    def invalidate_runs(self, runs: Iterable[Tuple[int, int]]) -> None:
        """:meth:`adjust_if_tracked` by ``-pages`` for each ``(block,
        pages)`` run of old copies a batched host write invalidated, in
        one call: the same pushes, and the heap's bloat is checked once,
        after the last."""
        counts = self._count
        gens = self._gen
        heap = self._heap
        for block, pages in runs:
            count = counts.get(block)
            if count is not None:
                count -= pages
                counts[block] = count
                heapq.heappush(heap, (count, block, gens[block]))
        self._compact_if_bloated()

    def make_fused_observer(self, sip: "SipOverlapIndex"):
        """A single ``(block, lpn, delta)`` callable fusing
        :meth:`adjust_if_tracked` with :meth:`SipOverlapIndex.on_valid_delta`.

        The page map fires its observer twice per host write; binding the
        index internals into one closure removes two method-dispatch
        layers from that path.  The bound containers (``_count``,
        ``_gen``, ``_heap``, SIP counters) are created once and mutated
        in place (:meth:`_compact` included), so the closure never goes
        stale; the SIP LPN set is re-read through ``sip`` because
        :meth:`SipOverlapIndex.replace` rebinds it.
        """
        count_get = self._count.get
        counts = self._count
        gens = self._gen
        heap = self._heap
        heappush = heapq.heappush
        compact = self._compact
        sip_counts = sip._counts

        def observer(block: int, lpn: int, delta: int) -> None:
            count = count_get(block)
            if count is not None:
                count += delta
                counts[block] = count
                heappush(heap, (count, block, gens[block]))
                if len(heap) > _HEAP_FACTOR * len(counts) + _HEAP_SLACK:
                    compact()
            if lpn in sip.lpns:
                sip_counts[block] += delta

        return observer

    def _compact(self) -> None:
        """Rebuild the heap as one live entry per tracked block -- in
        place, because :meth:`make_fused_observer` closures hold the list."""
        gens = self._gen
        self._heap[:] = [(count, block, gens[block]) for block, count in self._count.items()]
        heapq.heapify(self._heap)

    def _compact_if_bloated(self) -> None:
        if len(self._heap) > _HEAP_FACTOR * len(self._count) + _HEAP_SLACK:
            self._compact()

    def _is_live(self, entry: Tuple[int, int, int]) -> bool:
        count, block, gen = entry
        return self._gen.get(block) == gen and self._count.get(block) == count

    def peek_min(self) -> Optional[Tuple[int, int]]:
        """``(count, block)`` of the best candidate, or None when empty.

        Dead heads are discarded permanently, so the amortized cost is
        O(log n) per superseded entry.
        """
        heap = self._heap
        while heap and not self._is_live(heap[0]):
            heapq.heappop(heap)
        if not heap:
            return None
        count, block, _gen = heap[0]
        return count, block

    def ranked(self, excluded: Optional[Set[int]] = None) -> Iterator[Tuple[int, int]]:
        """Tracked blocks outside ``excluded`` as ``(block, count)`` by
        ascending ``(count, block)``, produced on demand.

        Each step pops the heap: dead entries are dropped for good, live
        ones pushed back when the generator is closed -- which the caller
        must do (``contextlib.closing``) before touching the index again.
        """
        exclude = excluded or ()
        heap = self._heap
        popped: List[Tuple[int, int, int]] = []
        seen: Set[int] = set()
        try:
            while heap:
                entry = heapq.heappop(heap)
                if not self._is_live(entry) or entry[1] in seen:
                    continue
                popped.append(entry)
                seen.add(entry[1])
                if entry[1] not in exclude:
                    yield entry[1], entry[0]
        finally:
            for entry in popped:
                heapq.heappush(heap, entry)

    def ranked_prefix(self, k: int, excluded: Optional[Set[int]] = None) -> List[Tuple[int, int]]:
        """The first ``k`` pairs of :meth:`ranked`, as a list."""
        with closing(self.ranked(excluded)) as walk:
            return list(islice(walk, k))

    def min_block(self, excluded: Optional[Set[int]] = None) -> Optional[Tuple[int, int]]:
        """Best ``(block, count)`` candidate outside ``excluded``."""
        if not excluded:
            top = self.peek_min()
            return None if top is None else (top[1], top[0])
        ranked = self.ranked_prefix(1, excluded)
        return ranked[0] if ranked else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ValidCountIndex tracked={len(self._count)} heap={len(self._heap)}>"


class SipOverlapIndex:
    """Per-block count of valid pages whose LPN is soon-to-be-invalidated.

    Maintained from two event streams:

    * :meth:`replace` -- the host installed a new SIP list; only the set
      *delta* against the previous list is walked (one mapping lookup
      per changed LPN).
    * :meth:`on_valid_delta` -- a page became valid/invalid; O(1) set
      membership test.

    ``overlap(block)`` then answers the SIP-filtered selector's
    per-candidate question in O(1) instead of O(pages/block).
    """

    def __init__(self, total_blocks: int) -> None:
        self._counts = np.zeros(total_blocks, dtype=np.int32)
        #: The authoritative current SIP LPN set.
        self.lpns: Set[int] = set()

    def overlap(self, block: int) -> int:
        """Valid pages of ``block`` whose LPN is on the SIP list."""
        return int(self._counts[block])

    def snapshot(self) -> np.ndarray:
        """Copy of the per-block overlap counters (tests)."""
        return self._counts.copy()

    def on_valid_delta(self, block: int, lpn: int, delta: int) -> None:
        if lpn in self.lpns:
            self._counts[block] += delta

    def migrate(self, src: int, dst: int, count: int) -> None:
        """Move ``count`` SIP-overlapping pages from ``src`` to ``dst``.

        Batched equivalent of ``count`` paired ``on_valid_delta(src, ·, -1)``
        / ``on_valid_delta(dst, ·, +1)`` calls; used by the FTL's batched
        GC migration, which bypasses the per-page observer.
        """
        if count:
            self._counts[src] -= count
            self._counts[dst] += count

    def remap_batch(self, dest_block: int, gained: int, lost_blocks) -> None:
        """Batched host-remap deltas (per-page observer bypassed).

        ``gained`` SIP pages became valid on ``dest_block``; one SIP page
        became invalid on each entry of ``lost_blocks`` (duplicates mean
        multiple pages on that block).
        """
        if gained:
            self._counts[dest_block] += gained
        for block in lost_blocks:
            self._counts[block] -= 1

    def replace(self, lpns: Iterable[int], page_map) -> Set[int]:
        """Swap in a new SIP list, adjusting counts by the set delta.

        Returns the new set (also stored as :attr:`lpns`).
        """
        new = set(lpns)
        old = self.lpns
        removed = old - new
        if removed:
            np.subtract.at(self._counts, page_map.mapped_blocks(removed), 1)
        added = new - old
        if added:
            np.add.at(self._counts, page_map.mapped_blocks(added), 1)
        self.lpns = new
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SipOverlapIndex sip={len(self.lpns)}>"


@dataclass(frozen=True)
class SpaceModel:
    """Static capacity split of an SSD.

    Attributes:
        geometry: the NAND geometry beneath.
        user_pages: logical pages exposed to the host.
    """

    geometry: NandGeometry
    user_pages: int

    def __post_init__(self) -> None:
        if self.user_pages <= 0:
            raise ValueError(f"user_pages must be positive, got {self.user_pages}")
        if self.user_pages >= self.geometry.total_pages:
            raise ValueError(
                f"user_pages ({self.user_pages}) must be smaller than the physical "
                f"page count ({self.geometry.total_pages}) to leave OP space"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_op_ratio(cls, geometry: NandGeometry, op_ratio: float = 0.07) -> "SpaceModel":
        """Build a split where ``C_OP = op_ratio x user capacity``.

        The SM843T reserves 7 % of its 240 GB user capacity (16 GB) as OP,
        which is the default here.
        """
        if not 0 < op_ratio < 1:
            raise ValueError(f"op_ratio must be in (0, 1), got {op_ratio}")
        total = geometry.total_pages
        # user * (1 + op_ratio) = total  =>  user = total / (1 + op_ratio)
        user_pages = int(total / (1.0 + op_ratio))
        return cls(geometry=geometry, user_pages=user_pages)

    # ------------------------------------------------------------------
    @property
    def user_bytes(self) -> int:
        return self.user_pages * self.geometry.page_size

    @property
    def op_pages(self) -> int:
        """Over-provisioning capacity ``C_OP`` in pages."""
        return self.geometry.total_pages - self.user_pages

    @property
    def op_bytes(self) -> int:
        return self.op_pages * self.geometry.page_size

    @property
    def op_ratio(self) -> float:
        """OP capacity as a fraction of user capacity."""
        return self.op_pages / self.user_pages

    # ------------------------------------------------------------------
    def reserved_pages(self, cresv_over_op: float) -> int:
        """Pages of the reserved capacity ``Cresv = cresv_over_op x C_OP``.

        ``cresv_over_op`` is the x-axis of the paper's Fig. 2
        (0.5 ... 1.5).
        """
        if cresv_over_op < 0:
            raise ValueError(f"cresv_over_op must be >= 0, got {cresv_over_op}")
        return int(round(cresv_over_op * self.op_pages))

    def clamp_reserved_pages(self, requested: int, used_pages: int) -> int:
        """Apply the paper's cap ``Cresv <= Cunused + C_OP``.

        An aggressive policy must not reserve more space than could ever
        be free given the current amount of live user data.
        """
        unused = max(0, self.user_pages - used_pages)
        return max(0, min(requested, unused + self.op_pages))

    def pages_for_bytes(self, nbytes: int) -> int:
        return self.geometry.pages_for_bytes(nbytes)

    # ------------------------------------------------------------------
    # Degraded capacity (grown bad blocks eat the OP space)
    # ------------------------------------------------------------------
    def effective_op_pages(self, retired_pages: int) -> int:
        """``C_OP`` after ``retired_pages`` of physical capacity retired.

        Grown bad blocks cannot shrink the advertised user capacity, so
        every retired page comes straight out of over-provisioning.
        Clamped at zero: past that point the device can no longer hold
        its advertised capacity and must go read-only.
        """
        if retired_pages < 0:
            raise ValueError(f"retired_pages must be >= 0, got {retired_pages}")
        return max(0, self.op_pages - retired_pages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpaceModel user={self.user_pages}p op={self.op_pages}p "
            f"({self.op_ratio:.1%})>"
        )
