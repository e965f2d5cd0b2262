"""GC victim-block selection policies.

The paper's extension to the garbage collector (Sec 3.1/3.3) is a modified
victim-selection rule: blocks holding many *soon-to-be-invalidated pages*
(SIP -- dirty data still sitting in the host page cache whose on-flash old
version will be overwritten shortly) are poor victims, because migrating
those pages is work that the imminent overwrite will waste.

This module provides:

* :class:`GreedySelector` -- classic min-valid-count victim selection.
* :class:`CostBenefitSelector` -- age-weighted cost-benefit selection
  (provided for completeness / ablations).
* :class:`SipFilteredSelector` -- the paper's rule: greedy, but skip
  candidates whose valid pages are dominated by SIP entries.  It counts
  filtered candidates, which reproduces the paper's Table 3.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Set

import numpy as np

from repro.ftl.mapping import PageMap


def filter_excluded(
    candidates: np.ndarray, excluded_blocks: Optional[Set[int]]
) -> np.ndarray:
    """Drop candidates the FTL has excluded (e.g. retired bad blocks).

    Retirement can race victim selection inside one recovery episode --
    a block picked up as a candidate may be marked bad before the
    selector runs -- so every selector filters defensively rather than
    trusting the candidate list.
    """
    if not excluded_blocks or len(candidates) == 0:
        return candidates
    mask = np.fromiter(
        (int(block) not in excluded_blocks for block in candidates),
        dtype=bool,
        count=len(candidates),
    )
    return candidates[mask]


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
        score: the selector's ranking score for the chosen block --
            valid count for greedy-family selectors, the cost-benefit
            value for :class:`CostBenefitSelector`, the age for
            :class:`FifoSelector`.  Feeds the decision-audit log.
    """

    block: Optional[int]
    candidates_considered: int = 0
    filtered_by_sip: int = 0
    valid_pages: Optional[int] = None
    score: Optional[float] = None


class VictimSelector:
    """Interface: choose a victim among candidate blocks."""

    #: Human-readable policy name (reports, repr).
    name = "abstract"

    #: True when :meth:`select` accepts ``candidates=None`` plus the
    #: ``valid_index`` / ``sip_overlap`` fast-path keywords.  The FTL
    #: only passes them when this is set, so selector subclasses with
    #: the original signature keep working unchanged.
    uses_valid_index = False

    def select(
        self,
        candidates: np.ndarray,
        page_map: PageMap,
        block_ages: Optional[np.ndarray] = None,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        """Pick a victim.

        Args:
            candidates: array of block numbers eligible for GC (closed,
                non-free, non-active blocks).
            page_map: mapping state (valid counts, reverse map).
            block_ages: optional per-block "age" proxy (time since the
                block was closed); used by cost-benefit.
            sip_lpns: current soon-to-be-invalidated LPN set; used by the
                SIP-filtered selector.
            excluded_blocks: blocks that must never be chosen (retired
                grown-bad blocks); filtered before ranking.

        Returns:
            a :class:`VictimDecision`; ``block`` is None iff no eligible
            candidate remains.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


def _considered_via_index(valid_index, excluded_blocks: Optional[Set[int]]) -> int:
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
    """

    name = "greedy"
    uses_valid_index = True

    def select(
        self,
        candidates: Optional[np.ndarray],
        page_map: PageMap,
        block_ages: Optional[np.ndarray] = None,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
        valid_index=None,
        sip_overlap=None,
    ) -> VictimDecision:
        if valid_index is not None and candidates is None:
            # Fast path: the FTL's ValidCountIndex already holds the
            # candidates in (count, block) order -- O(1) amortized.
            pick = valid_index.min_block(excluded_blocks)
            if pick is None:
                return VictimDecision(block=None)
            best, valid = pick
            return VictimDecision(
                block=best,
                candidates_considered=_considered_via_index(
                    valid_index, excluded_blocks
                ),
                valid_pages=valid,
                score=float(valid),
            )
        candidates = filter_excluded(candidates, excluded_blocks)
        if len(candidates) == 0:
            return VictimDecision(block=None)
        counts = page_map.valid_counts()[candidates]
        pick = int(np.argmin(counts))
        best = int(candidates[pick])
        valid = int(counts[pick])
        return VictimDecision(
            block=best,
            candidates_considered=len(candidates),
            valid_pages=valid,
            score=float(valid),
        )


class CostBenefitSelector(VictimSelector):
    """Cost-benefit selection: maximise ``(1 - u) * age / (1 + u)``.

    ``u`` is the block's valid-page utilisation.  Favors old blocks with
    moderate garbage over very young nearly-empty blocks whose remaining
    valid pages are likely still hot.  Included as an alternative backend
    for ablation studies; the paper's policies use greedy selection.
    """

    name = "cost-benefit"

    def select(
        self,
        candidates: np.ndarray,
        page_map: PageMap,
        block_ages: Optional[np.ndarray] = None,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        candidates = filter_excluded(candidates, excluded_blocks)
        if len(candidates) == 0:
            return VictimDecision(block=None)
        ppb = page_map.geometry.pages_per_block
        utilisation = page_map.valid_counts()[candidates] / ppb
        if block_ages is None:
            ages = np.ones(len(candidates), dtype=np.float64)
        else:
            ages = block_ages[candidates].astype(np.float64) + 1.0
        score = (1.0 - utilisation) * ages / (1.0 + utilisation)
        pick = int(np.argmax(score))
        best = int(candidates[pick])
        return VictimDecision(
            block=best,
            candidates_considered=len(candidates),
            valid_pages=page_map.valid_count(best),
            score=float(score[pick]),
        )


class RandomSelector(VictimSelector):
    """Uniform-random victim selection (the classic worst-case baseline).

    Useful to bound how much greedy selection itself contributes before
    attributing WAF differences to GC *timing* policies.
    """

    name = "random"

    def __init__(self, rng: Optional["np.random.Generator"] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def select(
        self,
        candidates: np.ndarray,
        page_map: PageMap,
        block_ages: Optional[np.ndarray] = None,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        candidates = filter_excluded(candidates, excluded_blocks)
        if len(candidates) == 0:
            return VictimDecision(block=None)
        pick = int(candidates[int(self._rng.integers(0, len(candidates)))])
        return VictimDecision(
            block=pick,
            candidates_considered=len(candidates),
            valid_pages=page_map.valid_count(pick),
        )


class FifoSelector(VictimSelector):
    """Oldest-closed-block-first selection (log-structured sweep order).

    With ``block_ages`` supplied by the FTL, the candidate closed
    longest ago wins -- the circular-log cleaning order of early FTLs.
    """

    name = "fifo"

    def select(
        self,
        candidates: np.ndarray,
        page_map: PageMap,
        block_ages: Optional[np.ndarray] = None,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
    ) -> VictimDecision:
        candidates = filter_excluded(candidates, excluded_blocks)
        if len(candidates) == 0:
            return VictimDecision(block=None)
        if block_ages is None:
            best = int(candidates[0])
            age = None
        else:
            pick = int(np.argmax(block_ages[candidates]))
            best = int(candidates[pick])
            age = float(block_ages[candidates][pick])
        return VictimDecision(
            block=best,
            candidates_considered=len(candidates),
            valid_pages=page_map.valid_count(best),
            score=age,
        )


class SipFilteredSelector(VictimSelector):
    """Greedy selection that avoids SIP-heavy blocks (paper Sec 3.1).

    Candidates are ranked by valid count (greedy order).  Walking that
    ranking, a candidate is *filtered* -- skipped, and counted for
    Table 3 -- when more than ``sip_fraction_threshold`` of its valid
    pages appear in the SIP list.  If every examined candidate is
    filtered, the plain greedy choice is used (GC must still make
    progress).  At most ``max_rank_scan`` candidates are examined so
    selection stays O(k · pages/block).

    Args:
        sip_fraction_threshold: fraction of valid pages that must be SIP
            for a block to be skipped (paper does not give a number; 0.5
            by default, swept in the ablation bench).
        max_rank_scan: bound on the greedy-ranked prefix to examine.
    """

    name = "sip-filtered-greedy"
    uses_valid_index = True

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

    def sip_valid_pages(self, block: int, page_map: PageMap, sip_lpns: Set[int]) -> int:
        """Number of valid pages in ``block`` whose LPN is in the SIP list."""
        return sum(1 for _, lpn in page_map.valid_lpns_in_block(block) if lpn in sip_lpns)

    def select(
        self,
        candidates: Optional[np.ndarray],
        page_map: PageMap,
        block_ages: Optional[np.ndarray] = None,
        sip_lpns: Optional[Set[int]] = None,
        excluded_blocks: Optional[Set[int]] = None,
        valid_index=None,
        sip_overlap=None,
    ) -> VictimDecision:
        if valid_index is not None and candidates is None:
            # Fast path: ranking straight off the index, consumed on
            # demand; SIP content off the O(1) overlap counters.
            considered = _considered_via_index(valid_index, excluded_blocks)
            if not sip_lpns:
                # Nothing can be filtered: the greedy head is the answer.
                return self._decision(
                    valid_index.min_block(excluded_blocks), considered, 0
                )
            ranking = valid_index.ranked(excluded_blocks)
        else:
            candidates = filter_excluded(candidates, excluded_blocks)
            considered = len(candidates)
            counts = page_map.valid_counts()[candidates]
            order = np.argsort(counts, kind="stable")
            ranking = ((int(candidates[i]), int(counts[i])) for i in order)
        with closing(ranking):
            pick, filtered = self._first_unfiltered(
                islice(ranking, self.max_rank_scan), page_map, sip_lpns, sip_overlap
            )
        return self._decision(pick, considered, filtered)

    def _first_unfiltered(self, ranking, page_map: PageMap, sip_lpns, sip_overlap):
        """Walk ``(block, valid)`` pairs in greedy order up to the first
        one that is not SIP-heavy; returns ``(pair, candidates skipped)``.

        The pair is the greedy head when every examined candidate was
        skipped, and None when the ranking is empty.
        """
        ppb = page_map.geometry.pages_per_block
        head = None
        filtered = 0
        for pick in ranking:
            block, valid = pick
            if head is None:
                head = pick
            if not sip_lpns or valid == 0:
                # No SIP list, or nothing to migrate: SIP content is
                # irrelevant.
                return pick, filtered
            if valid >= ppb:
                # Ranked ascending by valid count: this and all later
                # candidates hold no garbage.  Stop; fall back to greedy.
                break
            if sip_overlap is not None:
                sip_pages = sip_overlap.overlap(block)
            else:
                sip_pages = self.sip_valid_pages(block, page_map, sip_lpns)
            if sip_pages / valid <= self.sip_fraction_threshold:
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
