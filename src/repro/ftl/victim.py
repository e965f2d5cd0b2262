"""GC victim-block selection policies.

The paper's extension to the garbage collector (Sec 3.1/3.3) is a modified
victim-selection rule: blocks holding many *soon-to-be-invalidated pages*
(SIP -- dirty data still sitting in the host page cache whose on-flash old
version will be overwritten shortly) are poor victims, because migrating
those pages is work that the imminent overwrite will waste.

This module provides:

* :class:`GreedySelector` -- classic min-valid-count victim selection.
* :class:`SipFilteredSelector` -- the paper's rule: greedy, but skip
  candidates whose valid pages are dominated by SIP entries.  It counts
  filtered candidates, which reproduces the paper's Table 3.

Both are served by the FTL's indexes: the candidates come off the
:class:`~repro.ftl.space.ValidCountIndex` in greedy order and SIP content
off the :class:`~repro.ftl.space.SipOverlapIndex` counters.  The FTL
starts with a :class:`GreedySelector`; a policy's selector is installed
over it by :class:`~repro.host.HostSystem`.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Set

from repro.ftl.mapping import PageMap
from repro.ftl.space import SipOverlapIndex, ValidCountIndex


@dataclass
class VictimDecision:
    """Outcome of one victim selection.

    Attributes:
        block: chosen victim block, or None if no candidate existed.
        candidates_considered: how many blocks were examined.
        filtered_by_sip: how many better-ranked candidates were skipped
            because of their SIP content (0 for SIP-oblivious selectors).
        valid_pages: valid-page count of the chosen block (its migration
            cost), when a block was chosen.
        score: the selector's ranking score for the chosen block (its
            valid count).  Feeds the decision-audit log.
    """

    block: Optional[int]
    candidates_considered: int = 0
    filtered_by_sip: int = 0
    valid_pages: Optional[int] = None
    score: Optional[float] = None


class VictimSelector:
    """Interface: choose a victim among the blocks the FTL's index tracks."""

    def select(
        self,
        page_map: PageMap,
        valid_index: ValidCountIndex,
        sip_overlap: SipOverlapIndex,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        """Pick a victim.

        Args:
            page_map: mapping state (the geometry).
            valid_index: the candidates -- closed in-use blocks -- in
                (valid count, block) order.
            sip_overlap: per-block count of valid pages on the SIP list.
            sip_lpns: current soon-to-be-invalidated LPN set; used by the
                SIP-filtered selector.
            excluded_blocks: blocks that must never be chosen (retired
                grown-bad blocks); skipped while ranking.

        Returns:
            a :class:`VictimDecision`; ``block`` is None iff no eligible
            candidate remains.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


def _considered_via_index(
    valid_index: ValidCountIndex, excluded_blocks: Optional[Set[int]]
) -> int:
    """Candidate population of an index-served selection: the tracked
    blocks minus any excluded block that is (transiently) still tracked.
    """
    considered = len(valid_index)
    if excluded_blocks:
        considered -= sum(1 for block in excluded_blocks if valid_index.tracks(block))
    return considered


class GreedySelector(VictimSelector):
    """Choose the candidate with the fewest valid pages.

    Ties break toward the lowest block number, keeping runs deterministic.
    The index holds the candidates in (count, block) order, so a
    selection is O(1) amortized.
    """

    def select(
        self,
        page_map: PageMap,
        valid_index: ValidCountIndex,
        sip_overlap: SipOverlapIndex,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        pick = valid_index.min_block(excluded_blocks)
        if pick is None:
            return VictimDecision(block=None)
        best, valid = pick
        return VictimDecision(
            block=best,
            candidates_considered=_considered_via_index(valid_index, excluded_blocks),
            valid_pages=valid,
            score=float(valid),
        )


class SipFilteredSelector(VictimSelector):
    """Greedy selection that avoids SIP-heavy blocks (paper Sec 3.1).

    Candidates are ranked by valid count (greedy order).  Walking that
    ranking, a candidate is *filtered* -- skipped, and counted for
    Table 3 -- when more than ``sip_fraction_threshold`` of its valid
    pages appear in the SIP list.  If every examined candidate is
    filtered, the plain greedy choice is used (GC must still make
    progress).  At most ``max_rank_scan`` candidates are examined, each
    at the cost of one overlap-counter read.

    Args:
        sip_fraction_threshold: fraction of valid pages that must be SIP
            for a block to be skipped (paper does not give a number; 0.5
            by default, swept in the ablation bench).
        max_rank_scan: bound on the greedy-ranked prefix to examine.
    """

    def __init__(self, sip_fraction_threshold: float = 0.5, max_rank_scan: int = 8) -> None:
        if not 0.0 < sip_fraction_threshold <= 1.0:
            raise ValueError(
                f"sip_fraction_threshold must be in (0, 1], got {sip_fraction_threshold}"
            )
        if max_rank_scan < 1:
            raise ValueError(f"max_rank_scan must be >= 1, got {max_rank_scan}")
        self.sip_fraction_threshold = sip_fraction_threshold
        self.max_rank_scan = max_rank_scan
        #: Cumulative number of candidates skipped due to SIP content.
        self.total_filtered = 0
        #: Cumulative number of selections performed.
        self.total_selections = 0

    def select(
        self,
        page_map: PageMap,
        valid_index: ValidCountIndex,
        sip_overlap: SipOverlapIndex,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        considered = _considered_via_index(valid_index, excluded_blocks)
        if not sip_lpns:
            # Nothing can be filtered: the greedy head is the answer.
            return self._decision(valid_index.min_block(excluded_blocks), considered, 0)
        # The ranking is consumed on demand, SIP content read off the
        # O(1) overlap counters.
        with closing(valid_index.ranked(excluded_blocks)) as ranking:
            pick, filtered = self._first_unfiltered(
                islice(ranking, self.max_rank_scan),
                page_map.geometry.pages_per_block,
                sip_overlap,
            )
        return self._decision(pick, considered, filtered)

    def _first_unfiltered(self, ranking, ppb: int, sip_overlap: SipOverlapIndex):
        """Walk ``(block, valid)`` pairs in greedy order up to the first
        one that is not SIP-heavy; returns ``(pair, candidates skipped)``.

        The pair is the greedy head when every examined candidate was
        skipped, and None when the ranking is empty.
        """
        head = None
        filtered = 0
        for pick in ranking:
            block, valid = pick
            if head is None:
                head = pick
            if valid == 0:
                # Nothing to migrate: SIP content is irrelevant.
                return pick, filtered
            if valid >= ppb:
                # Ranked ascending by valid count: this and all later
                # candidates hold no garbage.  Stop; fall back to greedy.
                break
            if sip_overlap.overlap(block) / valid <= self.sip_fraction_threshold:
                return pick, filtered
            filtered += 1
        # Everything in the scanned prefix was SIP-heavy; fall back to
        # plain greedy so GC still reclaims space.
        return head, filtered

    def _decision(self, pick, considered: int, filtered: int) -> VictimDecision:
        """Count one selection of ``pick`` (a ``(block, valid)`` pair;
        None: no eligible candidate) and report it."""
        if pick is None:
            return VictimDecision(block=None)
        self.total_selections += 1
        self.total_filtered += filtered
        block, valid = pick
        return VictimDecision(
            block=block,
            candidates_considered=considered,
            filtered_by_sip=filtered,
            valid_pages=valid,
            score=float(valid),
        )

    def filtered_fraction(self) -> float:
        """Fraction of selections in which at least the top-ranked greedy
        candidate was skipped -- the paper's Table 3 metric."""
        if self.total_selections == 0:
            return 0.0
        return self.total_filtered / self.total_selections
