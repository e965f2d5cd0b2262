"""Page-level address mapping with validity tracking, and what a lookup costs.

:class:`PageMap` is the FTL's logical heart: the LPN→PPN table, a
per-page validity bitmap and per-block valid-page counters.  Out-place
updates (the NAND erase-before-write consequence) are expressed here:
remapping an LPN invalidates its previous physical page, creating the
garbage that GC later reclaims.

The reverse map is the NAND's: a successful program stamps the page's
LPN into ``NandArray.oob_lpn``, and the map reads a valid page's LPN from
a read-only view of that column, so a page is remapped only once stamped.

Physical page numbers are flat: ``ppn = block * pages_per_block + page``.

Each map is also the FTL's *translation tier*, whose methods the FTL
calls on every map (``touch_span``, ``touch_group``, ``touch_lpns``,
``touch_each``, ``cached_prefix``, ``directory``, ``checkpointed``);
:func:`build_page_map` picks the map a device's config asks for.  On
the all-DRAM :class:`PageMap` (the default, bit-frozen by the
equivalence suites) the tier is free; the
DFTL-class :class:`CachedPageMap` keeps translation pages on NAND
behind a cached mapping table and prices its misses and writebacks.

Translation pages are addressed by *virtual translation page number*
(``tvpn = lpn // entries_per_tpage``) and stamped on NAND with the
encoded OOB LPN ``TRANS_LPN_BASE + tvpn``, which keeps the recovery
scan's newest-stamp-wins merge working unchanged over both page classes:
stamps below the base rebuild the data L2P, stamps at or above it
rebuild the GTD.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.ftl.stats import FtlStats
from repro.nand.geometry import NandGeometry
from repro.obs.audit import MappingFaultRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ftl.media import Media
    from repro.ssd.config import SsdConfig

#: Sentinel for "unmapped" entries in both translation directions.
UNMAPPED: int = -1

#: OOB-stamp namespace split between data pages and translation pages:
#: a stamped LPN at or above this base is a translation page and encodes
#: ``TRANS_LPN_BASE + tvpn``.  Far above any realistic logical space
#: (2^48 4-KiB pages = 1 EiB) and comfortably inside int64 OOB slots.
TRANS_LPN_BASE: int = 1 << 48


def translation_layout(page_size: int, user_pages: int) -> Tuple[int, int]:
    """``(entries per translation page, translation pages)``: 8-byte
    entries, enough pages to cover ``user_pages`` LPNs."""
    entries = page_size // 8
    return entries, -(-user_pages // entries)  # ceil


def write_streams(mapping_mode: str) -> int:
    """Write streams (user, GC and any translation) over a ``mapping_mode`` map."""
    return CachedPageMap.streams if mapping_mode == "dftl" else PageMap.streams


def build_page_map(
    config: "SsdConfig", user_pages: int, media: "Media", stats: FtlStats,
    program_translation: Callable[[int], Tuple[int, int, int]],
    l2p: Optional[np.ndarray] = None, gtd: Optional[np.ndarray] = None,
) -> "PageMap":
    """The map ``config`` asks for over ``media``'s NAND stamps, adopting
    a recovered ``l2p`` / ``gtd`` (None: blank).  A flash-resident map's
    tier prices with ``media``, ``stats`` and ``program_translation``
    (see :class:`CachedPageMap`); its CMT budget defaults to 1/64 of the
    full map's DRAM."""
    stamps = media.nand.oob_lpn
    if config.mapping_mode != "dftl":
        return PageMap(config.geometry, user_pages, stamps, l2p)
    budget = config.cmt_budget_bytes or user_pages * 8 // 64
    return CachedPageMap(
        config.geometry, user_pages, stamps, max(1, budget // config.geometry.page_size),
        l2p, gtd, media=media, stats=stats, program_translation=program_translation,
    )


def _check_in_physical_space(table: np.ndarray, total_pages: int, what: str) -> None:
    """Reject a table with an entry outside ``{UNMAPPED} ∪ [0, total_pages)``.

    Two reductions, no temporary: ``UNMAPPED`` is -1, so the allowed set
    is exactly ``[-1, total_pages)``.  Runs before an install touches any
    state -- a negative entry would otherwise wrap round as a fancy index.
    """
    if len(table) and (
        int(table.min()) < UNMAPPED or int(table.max()) >= total_pages
    ):
        raise ValueError(
            f"{what} entry outside the physical space [0, {total_pages})"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class PageMap:
    """LPN↔PPN translation state.

    Args:
        geometry: NAND geometry (defines the physical page space).
        user_pages: size of the logical page space.
        stamps: the NAND's OOB LPN column (``NandArray.oob_lpn``); the
            map reads a valid page's LPN from a read-only view of it.
        l2p: a rebuilt L2P table to install (power-on recovery), adopted
            as :meth:`load_mapping` adopts it; None starts every LPN
            unmapped.
    """

    def __init__(
        self,
        geometry: NandGeometry,
        user_pages: int,
        stamps: np.ndarray,
        l2p: Optional[np.ndarray] = None,
    ) -> None:
        if user_pages <= 0:
            raise ValueError(f"user_pages must be positive, got {user_pages}")
        self.geometry = geometry
        self.user_pages = user_pages
        # Cached int: the per-write paths below do flat-address math per
        # call and must not walk the geometry attribute chain each time.
        self._ppb = geometry.pages_per_block
        self._stamps = _read_only(stamps)
        if l2p is not None:
            # No blank planes first: load_mapping fills the validity
            # plane once and adopts ``l2p`` as the forward table.
            self._valid = np.empty(geometry.total_pages, dtype=bool)
            self._valid_per_block = np.empty(geometry.total_blocks, dtype=np.int32)
            self.load_mapping(l2p)
        else:
            self._l2p = np.full(user_pages, UNMAPPED, dtype=np.int64)
            self._valid = np.zeros(geometry.total_pages, dtype=bool)
            self._valid_per_block = np.zeros(geometry.total_blocks, dtype=np.int32)
            #: Number of LPNs currently mapped (the paper's ``Cused`` in pages).
            self.mapped_count = 0
        #: Single observer called as ``(block, lpn, delta)`` on every
        #: per-page validity change (delta is +1 or -1).  The FTL's
        #: victim/SIP indexes subscribe here; None costs one ``is None``
        #: check per mutation.
        self._observer: Optional[Callable[[int, int, int], None]] = None

    def set_valid_observer(
        self, observer: Optional[Callable[[int, int, int], None]]
    ) -> None:
        """Install (or with ``None`` remove) the validity-change observer."""
        self._observer = observer

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def ppn(self, block: int, page: int) -> int:
        return block * self._ppb + page

    def block_of(self, ppn: int) -> int:
        return ppn // self._ppb

    def page_of(self, ppn: int) -> int:
        return ppn % self._ppb

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.user_pages:
            raise IndexError(f"LPN {lpn} out of range [0, {self.user_pages})")

    def check_extent(self, first_lpn: int, count: int) -> None:
        """Reject a negative count or an extent that leaves the logical space."""
        if count < 0:
            raise ValueError(f"extent page count must be >= 0, got {count}")
        if first_lpn < 0 or first_lpn + count > self.user_pages:
            raise IndexError(
                f"LPN extent [{first_lpn}, {first_lpn + count}) out of range "
                f"[0, {self.user_pages})"
            )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def remap(self, lpn: int, new_ppn: int) -> Optional[int]:
        """Point ``lpn`` at ``new_ppn``; returns the invalidated old PPN.

        The caller must have already programmed ``new_ppn``.  If the LPN
        was mapped, its old physical page becomes invalid (garbage).

        This is the per-host-write inner loop: address math is inlined
        on the cached ``_ppb`` int (see :meth:`check_lpn` for the bounds
        contract it preserves).
        """
        if not 0 <= lpn < self.user_pages:
            raise IndexError(f"LPN {lpn} out of range [0, {self.user_pages})")
        old_ppn = int(self._l2p[lpn])
        if old_ppn != UNMAPPED:
            self._invalidate_ppn(old_ppn)
        else:
            self.mapped_count += 1
        self._l2p[lpn] = new_ppn
        self._valid[new_ppn] = True
        block = new_ppn // self._ppb
        self._valid_per_block[block] += 1
        if self._observer is not None:
            self._observer(block, lpn, 1)
        return old_ppn if old_ppn != UNMAPPED else None

    def unmap(self, lpn: int) -> Optional[int]:
        """TRIM: drop the mapping of ``lpn``; returns the freed PPN."""
        self.check_lpn(lpn)
        old_ppn = int(self._l2p[lpn])
        if old_ppn == UNMAPPED:
            return None
        self._invalidate_ppn(old_ppn)
        self._l2p[lpn] = UNMAPPED
        self.mapped_count -= 1
        return old_ppn

    def mapped_lpns(self, lpns: Iterable[int]) -> List[int]:
        """The distinct LPNs of ``lpns`` that map to a page, first seen first.

        A TRIM command covers an extent, but typically only part of it
        still maps to live pages (re-trims and sparse files are common);
        the returned list is exactly the set the FTL must tombstone in
        the durable unmap journal -- already-unmapped LPNs need none,
        because they were either never written or their previous
        tombstone already outranks every surviving copy.  Reads only:
        the FTL unmaps them once their tombstones have landed.
        """
        lpns = list(lpns)
        if lpns:
            self.check_lpn(min(lpns))
            self.check_lpn(max(lpns))
        l2p = self._l2p
        return list(dict.fromkeys(lpn for lpn in lpns if l2p[lpn] != UNMAPPED))

    # Extents up to this size take the scalar loop.  Per call on a
    # 4096x64 dram map under random 1-32-page overwrites (PERFORMANCE.md
    # "The write-and-collect path"): scalar 2.8 + 0.58 us per page (a
    # probe and five scalar stores each), vectorised 7.3 + 0.17 us per
    # page -- scalar ahead through 8 pages, level at 9-10, behind from 11.
    # Page-cache write-backs (almost all <= 4 pages) stay scalar; the
    # chunks of direct 8-32-page extents mostly do not.
    _SCALAR_EXTENT_MAX = 8

    def remap_extent(
        self, first_lpn: int, count: int, first_ppn: int
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Batched :meth:`remap` of a contiguous LPN extent onto a
        contiguous just-programmed PPN run inside one block.

        Semantically identical to ``remap(first_lpn + i, first_ppn + i)``
        for ``i in range(count)``.  Returns the old-PPN list (``UNMAPPED``
        where the LPN was fresh) and its ``(block, pages)`` runs:
        consecutive mapped old PPNs of one block, holes skipped.  Like
        :meth:`migrate_pages` it does NOT fire the per-page observer --
        the caller (the FTL's batched host write) applies one index delta
        per returned run.  Small extents take a scalar loop; large ones
        the vectorized path -- both apply the exact same state
        transitions.  The caller has validated the extent
        (:meth:`check_extent`); it is not checked again here.
        """
        l2p = self._l2p
        old_ppns = l2p[first_lpn:first_lpn + count].tolist()
        valid = self._valid
        per_block = self._valid_per_block
        ppb = self._ppb
        # The old copies of a contiguous extent were themselves written
        # as runs: group them once, for the counters here and for the
        # caller's index.
        runs: List[Tuple[int, int]] = []
        fresh = 0
        prev = -1
        pages = 0
        for old in old_ppns:
            if old == UNMAPPED:
                fresh += 1
                continue
            block = old // ppb
            if block != prev:
                if pages:
                    runs.append((prev, pages))
                prev = block
                pages = 1
            else:
                pages += 1
        if pages:
            runs.append((prev, pages))
        if count <= self._SCALAR_EXTENT_MAX:
            lpn, ppn = first_lpn, first_ppn
            for old in old_ppns:
                if old != UNMAPPED:
                    if not valid[old]:
                        raise RuntimeError("double invalidation in remap_extent")
                    valid[old] = False
                l2p[lpn] = ppn
                valid[ppn] = True
                lpn += 1
                ppn += 1
        else:
            old = l2p[first_lpn:first_lpn + count]
            if fresh:
                old = old[old != UNMAPPED]
            if fresh < count:
                if np.count_nonzero(valid[old]) != count - fresh:
                    raise RuntimeError("double invalidation in remap_extent")
                valid[old] = False
            l2p[first_lpn:first_lpn + count] = np.arange(
                first_ppn, first_ppn + count, dtype=np.int64
            )
            valid[first_ppn:first_ppn + count] = True
        self.mapped_count += fresh
        for block, pages in runs:
            per_block[block] = per_block.item(block) - pages
        dst_block = first_ppn // ppb
        per_block[dst_block] = per_block.item(dst_block) + count
        return old_ppns, runs

    def remap_pages(self, lpns: np.ndarray, first_ppn: int) -> List[Tuple[int, int]]:
        """Batched :meth:`remap` of scattered ``lpns`` onto a contiguous
        just-programmed PPN run inside one block.

        Semantically identical to ``remap(lpns[i], first_ppn + i)`` in
        order: an LPN repeated in ``lpns`` ends on its last copy's page,
        the pages of its earlier copies are garbage, and its old page is
        invalidated once.  Returns ``(block, pages)``: how many old pages
        each block lost, for the caller's index.  The earlier copies are
        not in it: they lie in the destination block, an open frontier no
        index tracks.  Like :meth:`remap_extent` it does NOT fire the
        per-page observer, and the caller has validated ``lpns``.
        """
        count = len(lpns)
        ppns = np.arange(first_ppn, first_ppn + count, dtype=np.int64)
        # The first of each LPN in the reversed run is its last copy.
        distinct, last = np.unique(lpns[::-1], return_index=True)
        if len(distinct) < count:
            lpns, ppns = distinct, ppns[(count - 1) - last]
        l2p, valid, per_block = self._l2p, self._valid, self._valid_per_block
        old = l2p[lpns]
        old = old[old != UNMAPPED]
        if not valid[old].all():
            raise RuntimeError("double invalidation in remap_pages")
        valid[old] = False
        blocks, pages = np.unique(old // self._ppb, return_counts=True)
        per_block[blocks] -= pages.astype(np.int32)
        l2p[lpns] = ppns
        valid[ppns] = True
        dst_block = first_ppn // self._ppb
        per_block[dst_block] = per_block.item(dst_block) + len(lpns)
        self.mapped_count += len(lpns) - len(old)
        return list(zip(blocks.tolist(), pages.tolist()))

    def load_mapping(self, l2p: np.ndarray) -> None:
        """Install a complete L2P table in one shot (recovery scan).

        ``l2p`` is a full ``user_pages``-long PPN vector (``UNMAPPED``
        where the LPN has no surviving copy); the validity bitmap,
        per-block counters and ``mapped_count`` are all rebuilt from it.
        The map *adopts* ``l2p`` as its forward table -- no copy, so the
        caller hands over a private table (the recovery rebuild's is) --
        unless it is read-only or not a contiguous int64 vector, when it
        takes a copy.  Replaces any existing state and does **not** fire
        the validity observer -- the recovery path
        rebuilds its indexes from the resulting counters itself.  A
        table of the wrong length, or with an entry outside the physical
        space, is rejected with a :class:`ValueError` before any state
        changes.
        """
        if len(l2p) != self.user_pages:
            raise ValueError(
                f"l2p table sized {len(l2p)}, map holds {self.user_pages} LPNs"
            )
        _check_in_physical_space(l2p, len(self._valid), "l2p")
        self._l2p = np.require(l2p, np.int64, ("C", "W"))
        ppns = self._l2p[self._l2p != UNMAPPED]
        # The validity plane is the mapped PPNs' slots, and the per-block
        # counters are its row sums.  Two LPNs sharing a PPN land in one
        # slot, so a short count is the duplicate test.
        self._valid.fill(False)
        self._valid[ppns] = True
        if np.count_nonzero(self._valid) != len(ppns):
            raise ValueError("l2p table maps two LPNs to the same physical page")
        self._valid_per_block[:] = self._recount_valid()
        self.mapped_count = int(len(ppns))

    def _invalidate_ppn(self, ppn: int) -> None:
        if not self._valid[ppn]:
            raise RuntimeError(f"double invalidation of PPN {ppn}")
        self._valid[ppn] = False
        block = ppn // self._ppb
        self._valid_per_block[block] -= 1
        if self._observer is not None:
            self._observer(block, self._stamps.item(ppn), -1)

    def clear_block(self, block: int) -> None:
        """Reset per-page state of ``block`` after an erase.

        All pages of the block must already be invalid (GC migrates valid
        pages out before erasing); this is asserted to catch GC bugs.
        """
        if self._valid_per_block[block] != 0:
            raise RuntimeError(
                f"erasing block {block} with {self._valid_per_block[block]} valid pages"
            )
        start = block * self.geometry.pages_per_block
        end = start + self.geometry.pages_per_block
        self._valid[start:end] = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def l2p_snapshot(self) -> np.ndarray:
        """Copy of the full LPN→PPN vector (``UNMAPPED`` where unmapped).

        For recovery oracles -- one array compare instead of
        ``user_pages`` :meth:`lookup` calls.
        """
        return self._l2p.copy()

    def l2p_view(self) -> np.ndarray:
        """Read-only view of the LPN→PPN vector, valid until the next
        mutation: for a compare or a serialisation that must not pay a
        copy (crash-sweep verification, checkpoint writes)."""
        return _read_only(self._l2p)

    def lookup(self, lpn: int) -> Optional[int]:
        """Current PPN of ``lpn``, or None if unmapped."""
        self.check_lpn(lpn)
        ppn = int(self._l2p[lpn])
        return None if ppn == UNMAPPED else ppn

    def lpn_of_ppn(self, ppn: int) -> Optional[int]:
        """LPN stored at ``ppn`` if that physical page is valid."""
        return self._stamps.item(ppn) if self._valid[ppn] else None

    def mapped_blocks(self, lpns: Iterable[int]) -> np.ndarray:
        """Block index of each currently-mapped LPN in ``lpns``.

        Vectorized batch form of :meth:`lookup` + :meth:`block_of`;
        unmapped LPNs are dropped.  A block appears once per mapped LPN
        it holds, so the result feeds ``np.add.at`` style accumulation.
        """
        arr = np.fromiter(lpns, dtype=np.int64)
        ppns = self._l2p[arr]
        return ppns[ppns != UNMAPPED] // self.geometry.pages_per_block

    def is_valid(self, ppn: int) -> bool:
        return bool(self._valid[ppn])

    def valid_count(self, block: int) -> int:
        return self._valid_per_block.item(block)

    def valid_counts(self) -> np.ndarray:
        """Read-only view of per-block valid-page counters."""
        return self._valid_per_block

    def valid_lpns_in_block(self, block: int) -> Iterator[int]:
        """Yield (page_offset, lpn) for each valid page in ``block``.

        Yields in ascending page order, which keeps GC migration
        deterministic.
        """
        start = block * self.geometry.pages_per_block
        end = start + self.geometry.pages_per_block
        valid = self._valid[start:end]
        lpns = self._stamps[start:end]
        for offset in np.flatnonzero(valid):
            yield int(offset), int(lpns[offset])

    # ------------------------------------------------------------------
    # Batched mutations (the relocation routine)
    # ------------------------------------------------------------------
    def evacuate_block(self, block: int) -> Tuple[np.ndarray, np.ndarray]:
        """Take every valid page out of ``block``: the source half of a
        relocation.

        Returns the valid pages' offsets and their (stamped) LPNs in
        ascending page order (the order relocation depends on for
        determinism) and leaves the block as :meth:`clear_block` leaves
        it.  The returned LPNs still point at their old pages, now
        invalid, until :meth:`migrate_pages` lands them or
        :meth:`drop_evacuated` unmaps them: nothing may remap, unmap or
        look them up in between (the FTL's relocation routine and
        DESIGN.md section 7a say what runs there).  A miscounted block --
        or, on a :class:`CachedPageMap`, one holding both page classes --
        is refused untouched.  Does not fire the validity observer.
        """
        start = block * self._ppb
        end = start + self._ppb
        offsets = self._valid[start:end].nonzero()[0]
        lpns = self._stamps[start:end][offsets]
        self._check_evacuation(block, lpns)
        self._valid[start:end] = False
        self._valid_per_block[block] = 0
        return offsets, lpns

    def _check_evacuation(self, block: int, lpns: np.ndarray) -> None:
        """Refuse to evacuate ``block`` when its valid pages (``lpns``)
        disagree with its counter."""
        if len(lpns) != self._valid_per_block.item(block):
            raise RuntimeError(
                f"block {block} holds {len(lpns)} valid pages, its counter "
                f"says {self._valid_per_block.item(block)}"
            )

    def migrate_pages(self, lpns: np.ndarray, dst_block: int, dst_start: int) -> None:
        """Land ``lpns``, taken by :meth:`evacuate_block`, on consecutive
        pages of ``dst_block`` from ``dst_start``: the destination half,
        one call per run of a frontier block.

        The pair equals per-page ``remap(lpn, new_ppn)`` calls during a
        relocation (``mapped_count`` is unchanged); between the two an
        LPN not yet landed points at an invalid page, which nothing may
        read (see :meth:`evacuate_block`).  Does **not** fire the
        per-page validity observer -- the caller (the FTL's relocation)
        applies the equivalent index updates in bulk itself.
        """
        base = dst_block * self._ppb + dst_start
        end = base + len(lpns)
        self._valid[base:end] = True
        table, index = self._forward(lpns)
        table[index] = np.arange(base, end, dtype=np.int64)
        per_block = self._valid_per_block
        per_block[dst_block] = per_block.item(dst_block) + len(lpns)

    def drop_evacuated(self, lpn: int) -> None:
        """Unmap a data ``lpn`` taken by :meth:`evacuate_block` that will
        never land (its read was lost): its old page is invalid already,
        so only the forward entry and ``mapped_count`` change."""
        ppn = self._l2p.item(lpn)
        if ppn == UNMAPPED or self._valid[ppn]:
            raise RuntimeError(f"LPN {lpn} was not evacuated")
        self._l2p[lpn] = UNMAPPED
        self.mapped_count -= 1

    def reinstate_pages(self, lpns: np.ndarray) -> None:
        """Undo :meth:`evacuate_block` for ``lpns`` that were never
        landed (a relocation cut short by an exception): they still
        point at their old pages, which become valid again."""
        table, index = self._forward(lpns)
        ppns = table[index]
        self._valid[ppns] = True
        np.add.at(self._valid_per_block, ppns // self._ppb, 1)

    def translation_run(self, lpns: np.ndarray) -> bool:
        """Whether ``lpns``, evacuated from one block, are translation pages."""
        return False

    # ------------------------------------------------------------------
    # The translation tier: free here, every entry is in DRAM
    # ------------------------------------------------------------------
    streams = 2  # write streams the FTL runs: user and GC

    def touch_span(self, first_lpn: int, count: int, dirty: bool) -> int:
        """Look up (``dirty``: update) ``count`` entries from ``first_lpn``;
        returns the NAND latency (ns)."""
        return 0

    def touch_group(self, lpn: int, end: int) -> Tuple[int, int]:
        """Look up the read group of ``[lpn, end)`` that starts at ``lpn``
        (here the whole extent); returns its end and the NAND ns."""
        return end, 0

    def touch_lpns(self, lpns: Iterable[int]) -> int:
        """Update the entries of ``lpns``; returns the NAND latency (ns)."""
        return 0

    def touch_each(self, lpns: np.ndarray) -> int:
        """Update the entry of each of ``lpns`` in turn, as that many
        one-entry :meth:`touch_span` calls; returns the NAND latency (ns)."""
        return 0

    def cached_prefix(self, lpns: np.ndarray) -> int:
        """How many leading ``lpns`` :meth:`touch_each` can take while
        only the last of them may touch NAND (here: all of them)."""
        return len(lpns)

    def directory(self) -> Optional[np.ndarray]:
        """What a checkpoint persists of the tier beside the L2P (a view)."""
        return None

    def checkpointed(self) -> None:
        """A checkpoint holding :meth:`directory` was just written."""

    def _forward(self, lpns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The forward table that maps ``lpns`` (stamped LPNs of one
        page class) and their indexes in it."""
        return self._l2p, lpns

    def _recount_valid(self) -> np.ndarray:
        """Per-block valid-page counts recounted from the validity bitmap."""
        return self._valid.reshape(-1, self._ppb).sum(axis=1, dtype=np.int32)

    def _check_plane(self, population: int, counters: str) -> None:
        """The validity plane holds ``population`` pages (the sum of
        ``counters``), and the per-block counters agree with it."""
        if np.count_nonzero(self._valid) != population:
            raise AssertionError(f"valid-page population does not match {counters}")
        if not np.array_equal(self._recount_valid(), self._valid_per_block):
            raise AssertionError("per-block valid counters out of sync")

    def _check_entries(
        self, table: np.ndarray, stamp_base: int, name: str, key: str
    ) -> None:
        """Every mapped entry of ``table`` is a PPN of the physical space
        holding a valid page whose OOB stamp reads back ``stamp_base +
        index``; raises on the lowest offending index."""
        mapped = np.flatnonzero(table != UNMAPPED)
        if not len(mapped):
            return
        ppns = table[mapped]
        outside = None
        if int(ppns.min()) < 0 or int(ppns.max()) >= len(self._valid):
            outside = (ppns < 0) | (ppns >= len(self._valid))
            ppns = np.where(outside, 0, ppns)
        stamps = mapped + stamp_base if stamp_base else mapped
        bad = ~self._valid[ppns] | (self._stamps[ppns] != stamps)
        if outside is not None:
            bad |= outside
        if bad.any():
            at = int(np.argmax(bad))
            if outside is not None and outside[at]:
                problem = f"{name} entry outside the physical space"
            else:
                problem = f"{name}/stamp mismatch"
            raise AssertionError(f"{problem} at {key} {int(mapped[at])}")

    def invariant_check(self) -> None:
        """Full-state consistency check on batched array ops (O(total pages)).

        The per-LPN loop it must agree with, messages included, lives in
        ``tests/ftl/test_mapping.py``.
        """
        self._check_plane(self.mapped_count, "mapped_count")
        self._check_entries(self._l2p, 0, "l2p", "LPN")


class CachedPageMap(PageMap):
    """DFTL-class mapping store: on-NAND translation pages + GTD + CMT.

    Extends :class:`PageMap` with the flash-resident translation tier:

    * the **GTD** (global translation directory) is an int64 vector of
      one entry per virtual translation page (``tvpn``), pinning the PPN
      of that translation page's newest on-NAND copy (``UNMAPPED`` until
      first flushed).  At 8 bytes per ``entries_per_tpage`` mapping
      entries it is ~1/512 of the full map and is assumed DRAM-resident,
      exactly like DFTL's.
    * the **CMT** (cached mapping table) is an LRU over translation
      pages, capped at ``cmt_capacity_pages``.  Every tier call consults
      it; a miss costs a NAND read of the translation page, a dirty
      eviction a NAND program of a fresh copy on the FTL's translation
      frontier.

    Translation pages share the physical validity plane with data pages:
    a translation page's OOB stamp is the encoded ``TRANS_LPN_BASE +
    tvpn``, so ``valid_lpns_in_block`` / per-block counters / the
    valid-count observer all see translation blocks exactly like data
    blocks -- which is how GC learns the second block class for free.
    ``mapped_count`` keeps its host semantics (data LPNs only, the
    paper's ``Cused``); the translation population is tracked apart
    in :attr:`gtd_mapped_count`.

    The ground-truth L2P stays in the inherited DRAM arrays: the
    simulator always knows the true mapping, and what this class adds is
    the *cost model* (which translations are cached, what each access
    pays) plus the durable translation-page layout that recovery and the
    crash sweep verify bit-identically.
    """

    streams = 3  # user, GC and translation

    def __init__(
        self,
        geometry: NandGeometry,
        user_pages: int,
        stamps: np.ndarray,
        cmt_capacity_pages: int,
        l2p: Optional[np.ndarray] = None,
        gtd: Optional[np.ndarray] = None,
        *,
        media: Optional["Media"],
        stats: FtlStats,
        program_translation: Optional[Callable[[int], Tuple[int, int, int]]],
    ) -> None:
        if cmt_capacity_pages < 1:
            raise ValueError(
                f"cmt_capacity_pages must be >= 1, got {cmt_capacity_pages}"
            )
        if l2p is not None and gtd is None:
            raise ValueError("a recovered flash-resident map needs its recovered GTD")
        super().__init__(geometry, user_pages, stamps, l2p)
        #: Mapping entries per translation page (8-byte PPN entries).
        self.entries_per_tpage, self.trans_pages = translation_layout(
            geometry.page_size, user_pages
        )
        #: GTD: tvpn -> PPN of the newest flushed translation page.
        self._gtd = np.full(self.trans_pages, UNMAPPED, dtype=np.int64)
        #: Translation pages with a flushed on-NAND copy.
        self.gtd_mapped_count = 0
        #: LRU cached mapping table: tvpn -> dirty flag, newest last.
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        self.cmt_capacity_pages = cmt_capacity_pages
        #: The tier's collaborators: the flash seam (reads, audit, clock),
        #: the counters, and the FTL's program of one stamped page on its
        #: translation frontier -> ``(block, page, ns)``, which must not
        #: hold the FTL strongly (the FTL holds this map).
        self._media = media
        self._stats = stats
        self._program_translation = program_translation
        if gtd is not None:
            self.load_gtd(gtd)

    # ------------------------------------------------------------------
    # Translation addressing
    # ------------------------------------------------------------------
    def trans_ppn(self, tvpn: int) -> Optional[int]:
        """PPN of ``tvpn``'s newest flushed copy, or None if never flushed."""
        ppn = self._gtd.item(tvpn)
        return None if ppn == UNMAPPED else ppn

    def gtd_snapshot(self) -> np.ndarray:
        """Copy of the GTD vector."""
        return self._gtd.copy()

    def _check_evacuation(self, block: int, lpns: np.ndarray) -> None:
        # Only this map stamps translation pages, so only it can meet a
        # block holding both page classes: refuse one before evacuating.
        super()._check_evacuation(block, lpns)
        trans = np.count_nonzero(lpns >= TRANS_LPN_BASE)
        if 0 < trans < len(lpns):
            raise RuntimeError(f"block {block} holds {trans} translation and some data pages")

    def translation_run(self, lpns: np.ndarray) -> bool:
        # A block holds one page class (evacuate_block refuses a mixed
        # one), so the first stamp decides.
        return len(lpns) > 0 and lpns.item(0) >= TRANS_LPN_BASE

    def _forward(self, lpns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # A translation run lands in (or is put back from) the GTD.
        if self.translation_run(lpns):
            return self._gtd, lpns - TRANS_LPN_BASE
        return self._l2p, lpns

    # ------------------------------------------------------------------
    # Translation-page mutations (mirroring remap/load_mapping)
    # ------------------------------------------------------------------
    def remap_trans(self, tvpn: int, new_ppn: int) -> Optional[int]:
        """Point ``tvpn``'s directory entry at a just-programmed copy.

        The old copy (if any) becomes garbage exactly like a data page's:
        the validity observer fires, so the valid-count index -- and with
        it victim selection -- covers translation blocks with no extra
        bookkeeping.  Returns the invalidated old PPN.
        """
        if not 0 <= tvpn < self.trans_pages:
            raise IndexError(f"tvpn {tvpn} out of range [0, {self.trans_pages})")
        old_ppn = int(self._gtd[tvpn])
        if old_ppn != UNMAPPED:
            self._invalidate_ppn(old_ppn)
        else:
            self.gtd_mapped_count += 1
        self._gtd[tvpn] = new_ppn
        self._valid[new_ppn] = True
        block = new_ppn // self._ppb
        self._valid_per_block[block] += 1
        if self._observer is not None:
            self._observer(block, TRANS_LPN_BASE + tvpn, 1)
        return old_ppn if old_ppn != UNMAPPED else None

    def load_gtd(self, gtd: np.ndarray) -> None:
        """Install a recovered GTD in one shot.

        Must run *after* :meth:`load_mapping` (which resets the shared
        validity plane); adds each flushed translation page back into the
        validity bitmap / per-block counters.  An entry whose page is not
        stamped with its tvpn (so also a second tvpn on one page), or is
        mapped by a data LPN, is refused before any state changes.  Does
        not fire the observer, matching :meth:`load_mapping`'s contract.
        """
        if len(gtd) != self.trans_pages:
            raise ValueError(
                f"gtd sized {len(gtd)}, directory holds {self.trans_pages} entries"
            )
        _check_in_physical_space(gtd, len(self._valid), "gtd")
        tvpns = np.flatnonzero(gtd != UNMAPPED)
        ppns = gtd[tvpns]
        unstamped = self._stamps[ppns] != TRANS_LPN_BASE + tvpns
        if unstamped.any():
            tvpn = int(tvpns[np.argmax(unstamped)])
            raise ValueError(f"gtd entry at tvpn {tvpn} names a page not stamped with it")
        if self._valid[ppns].any():
            raise ValueError("gtd entry collides with a mapped data page")
        self._gtd[:] = gtd
        self._valid[ppns] = True
        self._valid_per_block += np.bincount(
            ppns // self._ppb, minlength=len(self._valid_per_block)
        )
        self.gtd_mapped_count = int(len(tvpns))
        self._cmt.clear()

    # ------------------------------------------------------------------
    # CMT (the modelled DRAM budget)
    # ------------------------------------------------------------------
    def cmt_touch(self, tvpn: int, dirty: bool) -> Tuple[bool, List[Tuple[int, bool]]]:
        """Reference ``tvpn`` in the CMT; LRU-promote or fault it in.

        Returns ``(hit, evicted)`` where ``evicted`` lists the
        ``(tvpn, was_dirty)`` entries displaced to make room (at most
        one).  :meth:`_access` prices the consequences: a miss reads the
        translation page off NAND, a dirty eviction programs a fresh copy
        and updates the GTD through :meth:`remap_trans`.
        """
        cmt = self._cmt
        if tvpn in cmt:
            cmt.move_to_end(tvpn)
            if dirty:
                cmt[tvpn] = True
            return True, []
        evicted: List[Tuple[int, bool]] = []
        while len(cmt) >= self.cmt_capacity_pages:
            evicted.append(cmt.popitem(last=False))
        cmt[tvpn] = dirty
        return False, evicted

    # ------------------------------------------------------------------
    # The translation tier: CMT hits are free, misses and writebacks pay
    # ------------------------------------------------------------------
    def touch_span(self, first_lpn: int, count: int, dirty: bool) -> int:
        # One CMT access per translation page spanned; the other entries
        # are MRU hits: counted, and free.
        ept = self.entries_per_tpage
        first, last = first_lpn // ept, (first_lpn + count - 1) // ept
        latency = 0
        for tvpn in range(first, last + 1):
            latency += self._access(tvpn, dirty)
        self._stats.cmt_hits += count - (last - first + 1)
        return latency

    def touch_group(self, lpn: int, end: int) -> Tuple[int, int]:
        # A read group ends at the next translation-page boundary.
        ept = self.entries_per_tpage
        stop = min(end, lpn - lpn % ept + ept)
        latency = self._access(lpn // ept, False)
        self._stats.cmt_hits += stop - lpn - 1
        return stop, latency

    def touch_lpns(self, lpns: Iterable[int]) -> int:
        # One dirty access per distinct translation page, ascending.
        tvpns = np.asarray(lpns, dtype=np.int64) // self.entries_per_tpage
        return sum(self._access(tvpn, True) for tvpn in sorted(set(tvpns.tolist())))

    def touch_each(self, lpns: np.ndarray) -> int:
        # One dirty access per entry, in order: the LRU ends as the
        # per-page loop leaves it.
        tvpns = (lpns // self.entries_per_tpage).tolist()
        return sum(self._access(tvpn, True) for tvpn in tvpns)

    def cached_prefix(self, lpns: np.ndarray) -> int:
        # Hits only reorder the CMT, so its membership holds until the
        # first miss, which may read a page in and write one back.
        # Scalar reads: the first LPN is most often the miss.
        cmt, ept = self._cmt, self.entries_per_tpage
        for at in range(len(lpns)):
            if lpns.item(at) // ept not in cmt:
                return at + 1
        return len(lpns)

    def directory(self) -> Optional[np.ndarray]:
        # A read-only view of the GTD, valid until the next mutation.
        return _read_only(self._gtd)

    def checkpointed(self) -> None:
        # The whole directory is durable: cached entries stop being
        # writeback debt.
        self._cmt = OrderedDict.fromkeys(self._cmt, False)

    def _access(self, tvpn: int, dirty: bool) -> int:
        """Consult the CMT for one translation page; returns ns latency.

        A hit is free.  A miss reads the page's newest flushed copy (if
        any) with :meth:`Media.read_ppn <repro.ftl.media.Media.read_ppn>`;
        a *dirty* eviction writes back a fresh copy, stamped in the
        translation namespace, and points the GTD at it.  Non-zero cost
        is recorded as a ``mapping-fault`` episode for tail attribution.
        """
        hit, evicted = self.cmt_touch(tvpn, dirty)
        stats = self._stats
        latency = 0
        kind = "miss"
        if hit:
            stats.cmt_hits += 1
        else:
            stats.cmt_misses += 1
            ppn = self.trans_ppn(tvpn)
            if ppn is not None:
                latency += self._media.read_ppn(ppn)
                stats.trans_pages_read += 1
        pages = 1 if latency else 0
        for victim, was_dirty in evicted:
            if was_dirty:
                stats.cmt_evictions += 1
                block, page, program_ns = self._program_translation(TRANS_LPN_BASE + victim)
                self.remap_trans(victim, block * self._ppb + page)
                stats.trans_pages_written += 1
                latency += program_ns
                pages += 1
                kind = "writeback"
        if latency and self._media.audit.enabled:
            self._media.audit.record(
                MappingFaultRecord(self._media.clock(), latency, tvpn, kind, pages)
            )
        return latency

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def invariant_check(self) -> None:
        """Cross-check the shared validity plane over both page classes."""
        self._check_plane(
            self.mapped_count + self.gtd_mapped_count,
            "mapped_count + gtd_mapped_count",
        )
        self._check_entries(self._l2p, 0, "l2p", "LPN")
        tvpns = np.count_nonzero(self._gtd != UNMAPPED)
        if tvpns != self.gtd_mapped_count:
            raise AssertionError("gtd_mapped_count out of sync with the GTD")
        self._check_entries(self._gtd, TRANS_LPN_BASE, "gtd", "tvpn")
        if len(self._cmt) > self.cmt_capacity_pages:
            raise AssertionError("CMT exceeds its capacity")
