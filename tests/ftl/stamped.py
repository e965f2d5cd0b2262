"""Bare page maps over an OOB plane of their own.

A map reads each valid page's LPN from the NAND's OOB stamps, and the
FTL remaps a page only after the NAND has stamped it.  These maps stand
in for that NAND: each holds its writable plane as ``oob`` (the map
itself sees it read-only) and stamps the pages a remap is about to point
at.  Everything else is the map under test.
"""

import numpy as np

from repro.ftl.mapping import TRANS_LPN_BASE, UNMAPPED, CachedPageMap, PageMap
from repro.ftl.stats import FtlStats


def blank_plane(geometry):
    """An OOB LPN column with no page stamped."""
    return np.full(geometry.total_pages, UNMAPPED, dtype=np.int64)


class _Stamping:
    """Stamp each destination page, as a successful program does, then
    run the map's own remap."""

    def remap(self, lpn, new_ppn):
        self.oob[new_ppn] = lpn
        return super().remap(lpn, new_ppn)

    def remap_extent(self, first_lpn, count, first_ppn):
        self.oob[first_ppn:first_ppn + count] = np.arange(first_lpn, first_lpn + count)
        return super().remap_extent(first_lpn, count, first_ppn)

    def migrate_pages(self, lpns, dst_block, dst_start):
        base = dst_block * self.geometry.pages_per_block + dst_start
        self.oob[base:base + len(lpns)] = lpns
        super().migrate_pages(lpns, dst_block, dst_start)

    def remap_trans(self, tvpn, new_ppn):
        self.oob[new_ppn] = TRANS_LPN_BASE + tvpn
        return super().remap_trans(tvpn, new_ppn)


class StampedPageMap(_Stamping, PageMap):
    def __init__(self, geometry, user_pages, l2p=None):
        self.oob = blank_plane(geometry)
        super().__init__(geometry, user_pages, self.oob, l2p)


class StampedCachedPageMap(_Stamping, CachedPageMap):
    """A flash-resident map whose tier is never called: no flash to read
    or program behind it."""

    def __init__(self, geometry, user_pages, cmt_capacity_pages):
        self.oob = blank_plane(geometry)
        super().__init__(
            geometry, user_pages, self.oob, cmt_capacity_pages,
            media=None, stats=FtlStats(), program_translation=None,
        )
