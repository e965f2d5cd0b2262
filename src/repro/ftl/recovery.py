"""Crash-consistent FTL recovery from durable metadata + per-page OOB.

After a sudden power-off the controller's DRAM state -- the L2P table,
valid-page counters, victim/SIP indexes, write frontiers, free pool -- is
gone.  Everything needed to rebuild it survives on the media:

* each successfully programmed page carries ``(lpn, seq)`` in its OOB
  slot, stamped atomically with the data (:mod:`repro.nand.array`);
* the NAND metadata region (:mod:`repro.ftl.metastore`) holds mapping
  *checkpoints* (L2P snapshot + write-seq horizon + per-block program
  pointers and erase counts) and the *unmap journal* (TRIM tombstones);
* per-block program pointers and block states are implied by the cell
  contents (modelled directly by the durable int32 vectors);
* erase counts and the factory bad-block table live in flash metadata,
  as on a real drive.

Every power-on takes the same rebuild, over a *base image*:

1. **Metadata read** -- every surviving metadata record is read (charged
   at tR per metadata page).  Torn records (power cut mid-program) fail
   their CRC and are discarded; a torn *checkpoint* falls back to the
   previous complete generation.  The newest complete checkpoint is the
   base; with none at all the base is empty -- horizon 0, every L2P and
   GTD entry unmapped, program pointers and erase counts zero.
2. **Tail scan** -- with a base of horizon ``H``: only pages programmed
   past its per-block program pointers are swept (blocks whose erase
   count moved since the snapshot are rescanned whole -- they were
   erased, and possibly reprogrammed, after it).  Over the empty base
   the tail is every programmed page of every good block.
3. **Newest-stamp-wins merge** -- per namespace (L2P, and in dftl mode
   the GTD), tail OOB stamps and journaled tombstones with ``seq >= H``
   are merged onto the base; programs and unmaps burn sequence numbers
   from one shared counter, so the highest stamp per LPN is its
   definitive fate (tombstone -> gone).  Stamps older than the horizon
   -- e.g. surfaced by rescanning a block whose erase *failed* and left
   stale cells behind -- are already adjudicated by the base and are
   ignored.  Base entries left dangling at a page erased since the
   snapshot are dropped.
4. **Torn-page discard** -- a consumed page whose OOB is unstamped was
   interrupted mid-program; it holds no trustworthy data.
5. **Layout re-discovery** -- ERASED blocks form the free pool, OPEN
   blocks (a partially-programmed frontier) resume as the active
   write frontiers (user, GC and -- dftl -- translation), FULL blocks
   are closed GC candidates, and bad blocks not in the factory table
   are the grown-bad (retired) set.
6. **Index rebuild + invariant check** -- the valid-count and SIP
   indexes are rebuilt from the reconstructed map and the recovered FTL
   must pass the same :meth:`~repro.ftl.ftl.PageMappedFtl.invariant_check`
   as a live one before serving I/O.

Recovery itself is *re-entrant*: the scan is pure reads, so a power cut
during it leaves the media image unchanged and the next power-on simply
re-runs it.  The only durable write recovery may issue is the optional
post-recovery checkpoint (``post_checkpoint=True``); cut mid-write, that
record tears and the *next* recovery falls back exactly as in step 1 --
the nested crash-sweep in :mod:`repro.experiments.crashsweep` verifies
this crash-during-recovery-after-crash path point by point.

What recovery deliberately does *not* restore (it cannot -- the state
was volatile): the host's SIP list, block close times (ages restart at
zero), operation counters and statistics.  TRIM is durable: tombstones
in the unmap journal replay newest-stamp-wins, so a crash between TRIM
and erase no longer resurrects the mapping (the pre-PR-6 caveat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ftl.ftl import FtlError, PageMappedFtl
from repro.ftl.mapping import TRANS_LPN_BASE, UNMAPPED, translation_layout, write_streams
from repro.ftl.metastore import (
    KIND_CHECKPOINT,
    CheckpointImage,
)
from repro.nand.array import (
    OOB_UNSTAMPED,
    STATE_BAD,
    STATE_ERASED,
    STATE_FULL,
    STATE_OPEN,
    NandArray,
)
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ssd.config import SsdConfig


class RecoveryError(FtlError):
    """The media image is inconsistent with any reachable FTL state."""


@dataclass
class RecoveredFtlState:
    """Rebuilt FTL state handed to :class:`PageMappedFtl` (``recovered=``).

    Attributes:
        l2p: full LPN→PPN table (``UNMAPPED`` where no copy survived);
            the FTL's page map adopts it, so it must be private.
        free_blocks: erased blocks for the wear-aware pool (a list or an
            int array).
        closed_blocks: fully-programmed in-use blocks (GC candidates; a
            list or an int array).
        retired_blocks: grown-bad blocks (bad marks absent from the
            factory table).
        active_user_block: resumed user write frontier (None -> allocate
            a fresh one from the pool).
        active_gc_block: resumed GC write frontier (None -> allocate).
        write_seq: next write-sequence stamp (max surviving stamp or
            tombstone + 1), preserving monotonicity across the power
            cycle.
        checkpoint_generation: highest checkpoint generation present in
            the metadata log, torn records included -- the next
            checkpoint must outrank even a torn newest generation.
        gtd: rebuilt global translation directory (dftl mapping mode;
            None for dram recoveries).
        active_trans_block: resumed translation write frontier (dftl
            only; None -> allocate).
    """

    l2p: np.ndarray
    free_blocks: Sequence[int]
    closed_blocks: Sequence[int]
    retired_blocks: Set[int]
    active_user_block: Optional[int]
    active_gc_block: Optional[int]
    write_seq: int
    checkpoint_generation: int = 0
    gtd: Optional[np.ndarray] = None
    active_trans_block: Optional[int] = None


@dataclass
class RecoveryReport:
    """What one recovery scan saw and rebuilt.

    ``duration_ns`` models the power-on-ready cost: one tR read per
    surviving metadata page plus one tR OOB read per swept user page --
    the checkpoint's tail, or every programmed page when no checkpoint
    survived (``full_scan``: the base was empty).  ``post_checkpoint_ns``
    (programs of the optional post-recovery checkpoint) is kept separate:
    a drive is host-ready before it, and writes it lazily afterwards.
    ``stale_pages`` counts swept stamps that lost the merge: below the
    horizon, or beaten by a newer stamp or tombstone of their key.
    """

    duration_ns: int = 0
    pages_scanned: int = 0
    torn_pages: int = 0
    stale_pages: int = 0
    mapped_lpns: int = 0
    free_blocks: int = 0
    open_blocks: int = 0
    closed_blocks: int = 0
    retired_blocks: int = 0
    write_seq: int = 0
    read_only: bool = False
    #: Metadata pages read (checkpoint + tombstone records).
    meta_pages_read: int = 0
    #: True when no complete checkpoint survived (the base was empty).
    full_scan: bool = True
    #: Generation of the checkpoint loaded (-1 when none survived).
    checkpoint_generation: int = -1
    #: Journaled unmap entries at or past the horizon that won the
    #: newest-stamp-wins merge.
    tombstones_replayed: int = 0
    #: Torn/corrupt metadata records discarded (checkpoints + journals).
    torn_meta_records: int = 0
    #: Torn checkpoints skipped before a complete generation was found.
    checkpoint_fallbacks: int = 0
    #: Metadata program time of the optional post-recovery checkpoint.
    post_checkpoint_ns: int = 0
    #: Torn (block, page) addresses, for the audit log (capped by caller).
    torn_addresses: List[Tuple[int, int]] = field(default_factory=list)
    #: Rebuilt global translation directory (dftl scans only).
    gtd: Optional[np.ndarray] = None
    #: Translation-page stamps that won the newest-wins GTD merge.
    trans_pages_mapped: int = 0


def _newest_per_key(keys: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """Index of the newest-stamped entry of each distinct key.

    Sort-and-take-last-per-key: the entries are put in stamp order, each
    is tagged ``(key, position in that order)`` in one int64, and after
    sorting the tags the last one of every key is its newest entry.  Keys
    come back distinct, so a caller's ``table[keys[idx]] = values[idx]``
    never assigns one slot twice -- NumPy leaves the winner of a repeated
    fancy-assignment index unspecified.  Stamps are unique on any image
    the FTL wrote (one shared counter); were two entries of a key to tie,
    one of them is returned.  Keys must be non-negative and
    ``keys.max() * len(keys)`` must fit 62 bits (any device whose page
    count fits 31 does).
    """
    # A sweep yields stamps in PPN order, ascending within each block: a
    # merge sort rides those runs (~4x the default's speed on a full
    # device).
    by_seq = np.argsort(seqs, kind="stable")
    bits = len(keys).bit_length()
    tags = keys[by_seq]
    tags <<= bits
    tags |= np.arange(len(keys), dtype=np.int64)
    tags.sort()
    position = tags & ((1 << bits) - 1)
    tags >>= bits  # the keys again, sorted, each key's entries in stamp order
    last = np.ones(len(tags), dtype=bool)
    np.not_equal(tags[1:], tags[:-1], out=last[:-1])
    return by_seq[position[last]]


def _sweep(
    nand: NandArray,
    start: np.ndarray,
    end: np.ndarray,
    user_pages: int,
    trans_pages: int,
) -> Tuple[
    int,
    np.ndarray,
    Tuple[np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]:
    """Read the OOB of pages ``[start[b], end[b])`` of every block ``b``.

    Returns ``(pages_scanned, torn_ppns, (ppns, lpns, seqs), (ppns,
    tvpns, seqs))``, everything in ascending PPN order.  The page set is
    built from the runs themselves, so the cost is that of the pages
    swept, not of the device.  A stamped LPN at or above
    ``TRANS_LPN_BASE`` encodes the translation page ``tvpn = lpn -
    TRANS_LPN_BASE``; anything else must be a data LPN in ``[0,
    user_pages)``.  With ``trans_pages == 0`` (dram mapping mode) a
    translation stamp is corruption.
    """
    counts = end - start
    first = np.arange(len(end), dtype=np.int64) * nand.geometry.pages_per_block + start
    pages = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )
    seqs = nand.oob_seq[pages]
    stamped = seqs != OOB_UNSTAMPED
    cand = pages[stamped]
    seqs = seqs[stamped]
    lpns = nand.oob_lpn[cand]
    is_trans = lpns >= TRANS_LPN_BASE
    if is_trans.any() and trans_pages == 0:
        raise RecoveryError(
            "OOB sweep found a translation-page stamp but the mapping mode "
            "keeps the full map in DRAM -- corrupt stamp or mode mismatch"
        )
    d_lpns = lpns[~is_trans]
    if d_lpns.size and (int(d_lpns.min()) < 0 or int(d_lpns.max()) >= user_pages):
        raise RecoveryError(
            "OOB sweep found an LPN outside the logical space "
            f"[0, {user_pages}) -- corrupt stamp"
        )
    tvpns = lpns[is_trans] - TRANS_LPN_BASE
    if tvpns.size and int(tvpns.max()) >= trans_pages:
        raise RecoveryError(
            "OOB sweep found a translation stamp outside the directory "
            f"[0, {trans_pages}) -- corrupt stamp"
        )
    return (
        int(pages.size),
        pages[~stamped],
        (cand[~is_trans], d_lpns, seqs[~is_trans]),
        (cand[is_trans], tvpns, seqs[is_trans]),
    )


@dataclass
class _DurableMetadata:
    """Parsed contents of the NAND metadata region."""

    checkpoint: Optional[CheckpointImage]
    tomb_lpns: np.ndarray
    tomb_seqs: np.ndarray
    meta_pages: int
    torn_records: int
    checkpoint_fallbacks: int
    max_generation: int


def _load_metadata(nand: NandArray, user_pages: int) -> _DurableMetadata:
    """Read and parse the metadata log, newest complete checkpoint first.

    Torn records parse as ``None`` and are skipped; a torn checkpoint
    counts as a fallback (an older complete generation, or the empty
    base, takes over).  Tombstone vectors are concatenated across all
    surviving journal records -- the merge orders them by stamp, so
    record boundaries carry no meaning.  One walk over the log sorts the
    records; only the few checkpoints are walked again, newest first.
    """
    torn_records = 0
    fallbacks = 0
    checkpoints = []
    lpn_parts: List[np.ndarray] = []
    seq_parts: List[np.ndarray] = []
    for record in nand.meta.records:
        if record.kind == KIND_CHECKPOINT:
            checkpoints.append(record)
            continue
        parsed = record.parsed
        if parsed is None:
            torn_records += 1
            continue
        lpn_parts.append(parsed[0])
        seq_parts.append(parsed[1])
    max_generation = max((record.generation for record in checkpoints), default=0)

    checkpoint: Optional[CheckpointImage] = None
    for record in reversed(checkpoints):
        image = record.parsed
        if image is None:
            torn_records += 1
            fallbacks += 1
            continue
        if (
            image.user_pages != user_pages
            or image.blocks != nand.geometry.total_blocks
            or image.pages_per_block != nand.geometry.pages_per_block
        ):
            raise RecoveryError(
                "checkpoint geometry mismatch: snapshot covers "
                f"{image.user_pages} LPNs / {image.blocks} blocks, device has "
                f"{user_pages} / {nand.geometry.total_blocks}"
            )
        # Every entry must be UNMAPPED (-1) or a PPN: the span of the
        # table, cached on the immutable image, decides it.
        total_pages = nand.geometry.total_pages
        low, high = image.l2p_span
        if low < UNMAPPED or high >= total_pages:
            raise RecoveryError("checkpoint L2P entry outside the physical space")
        if image.gtd is not None:
            low, high = image.gtd_span
            if low < UNMAPPED or high >= total_pages:
                raise RecoveryError(
                    "checkpoint GTD entry outside the physical space"
                )
        checkpoint = image
        break

    empty = np.empty(0, dtype=np.int64)
    tomb_lpns = np.concatenate(lpn_parts) if lpn_parts else empty
    if tomb_lpns.size and (
        int(tomb_lpns.min()) < 0 or int(tomb_lpns.max()) >= user_pages
    ):
        raise RecoveryError(
            f"tombstone LPN outside the logical space [0, {user_pages})"
        )
    return _DurableMetadata(
        checkpoint=checkpoint,
        tomb_lpns=tomb_lpns,
        tomb_seqs=np.concatenate(seq_parts) if seq_parts else empty,
        meta_pages=nand.meta.pages_held(),
        torn_records=torn_records,
        checkpoint_fallbacks=fallbacks,
        max_generation=max_generation,
    )


def _merge_namespace(
    nand: NandArray,
    base: Optional[np.ndarray],
    size: int,
    stamps: Tuple[np.ndarray, np.ndarray, np.ndarray],
    tombs: Tuple[np.ndarray, np.ndarray],
    horizon: int,
    oob_base: int,
    unsettled: Optional[np.ndarray],
) -> Tuple[np.ndarray, int, int, int, int]:
    """Rebuild one mapping table -- the L2P or the GTD -- over its base.

    The swept ``stamps`` ``(ppns, keys, seqs)`` and the journaled
    ``tombs`` ``(keys, seqs)`` at or past ``horizon`` are merged
    newest-stamp-wins onto ``base`` (``None``: an empty base, ``size``
    entries all ``UNMAPPED``).  Anything below the horizon is already
    folded into the base -- replaying such a tombstone would unmap a key
    whose newer (pre-snapshot) copy has no stamp in the tail.

    Then dangling entries are dropped.  A base entry can point into a
    block erased after the snapshot: the page was invalidated (overwrite
    or TRIM) and the block collected, but the superseding event is not
    durable -- e.g. its tombstone sat in a torn journal record.  It
    dangles at an unprogrammed page (or at another key's data if the
    block was reprogrammed), and no durable copy of that key is left, so
    a surviving entry must land on a page stamped ``oob_base + key``.  A
    merge winner always does, so an empty base needs no check.  Nor does
    an entry on a page the snapshot had already programmed in a block
    not erased since: its OOB is the one the snapshot saw, stamped with
    that key.  ``unsettled`` (:func:`_unsettled_pages`; ``None`` with an
    empty base) marks the other pages, and only entries on them are
    checked -- a few blocks' worth instead of the whole table.

    Returns ``(table, mapped, stale, tombstones_replayed, next_seq)``:
    ``mapped`` counts the table's entries, ``stale`` the swept stamps
    that did not win, and ``next_seq`` is past every merged stamp and
    tombstone (``horizon`` at least).
    """
    if base is None:
        table = np.full(size, UNMAPPED, dtype=np.int64)
    else:
        table = base.copy()
    ppns, keys, seqs = stamps
    tomb_keys, tomb_seqs = tombs
    stale = int(ppns.size)
    if horizon:  # every stamp and tombstone is at or past a zero horizon
        fresh = seqs >= horizon
        ppns, keys, seqs = ppns[fresh], keys[fresh], seqs[fresh]
        fresh = tomb_seqs >= horizon
        tomb_keys, tomb_seqs = tomb_keys[fresh], tomb_seqs[fresh]
    n_stamps = ppns.size
    if tomb_keys.size:
        keys = np.concatenate([keys, tomb_keys])
        seqs = np.concatenate([seqs, tomb_seqs])
        ppns = np.concatenate(
            [ppns, np.full(tomb_keys.size, UNMAPPED, dtype=np.int64)]
        )
    replayed = 0
    next_seq = horizon
    if keys.size:
        newest = _newest_per_key(keys, seqs)
        table[keys[newest]] = ppns[newest]
        replayed = int(np.count_nonzero(newest >= n_stamps))
        stale -= newest.size - replayed
        next_seq = max(horizon, int(seqs.max()) + 1)

    if base is None:
        mapped = int(np.count_nonzero(table != UNMAPPED))
        return table, mapped, stale, replayed, next_seq
    # An UNMAPPED (-1) entry reads the mask's trailing False.
    suspect = np.flatnonzero(unsettled[table])
    ppns = table[suspect]
    dangling = nand.oob_seq[ppns] == OOB_UNSTAMPED
    owner = nand.oob_lpn[ppns]
    if oob_base:
        owner -= oob_base
    dangling |= owner != suspect
    if dangling.any():
        table[suspect[dangling]] = UNMAPPED
    mapped = int(np.count_nonzero(table != UNMAPPED))
    return table, mapped, stale, replayed, next_seq


def _unsettled_pages(
    base_ptr: np.ndarray, erase_moved: np.ndarray, ppb: int
) -> np.ndarray:
    """Pages whose OOB may differ from what a snapshot saw, as a mask
    over the flat page space plus one trailing ``False`` (which index
    ``UNMAPPED`` reads): every page of a block erased since, and every
    page at or past the snapshot's program pointer.  Everywhere else the
    cells are untouched -- a page is stamped once per erase."""
    mask = np.zeros(len(base_ptr) * ppb + 1, dtype=bool)
    pages = mask[:-1].reshape(len(base_ptr), ppb)
    np.greater_equal(np.arange(ppb), base_ptr[:, None], out=pages)
    pages |= erase_moved[:, None]
    return mask


def _rebuild(
    nand: NandArray,
    meta: _DurableMetadata,
    user_pages: int,
    trans_pages: int = 0,
) -> Tuple[np.ndarray, int, RecoveryReport]:
    """Rebuild the L2P (and the GTD, in dftl mode) from the newest
    complete checkpoint plus the log tail.

    With no complete checkpoint the base is an empty image -- horizon 0,
    every entry ``UNMAPPED``, program pointers and erase counts zero --
    so the tail is every programmed page and every tombstone is fresh.
    """
    ppb = nand.geometry.pages_per_block
    ckpt = meta.checkpoint
    unsettled = None
    if ckpt is None:
        horizon, generation, l2p_base, gtd_base = 0, -1, None, None
        base_ptr = np.zeros_like(nand.program_ptr)
        base_erases = np.zeros_like(nand.endurance.erase_counts)
    else:
        horizon, generation, l2p_base, gtd_base = (
            ckpt.write_seq, ckpt.generation, ckpt.l2p, ckpt.gtd
        )
        base_ptr, base_erases = ckpt.program_ptr, ckpt.erase_counts

    ptr_now = nand.program_ptr.astype(np.int64)
    bad = nand.block_states == STATE_BAD
    erase_moved = nand.endurance.erase_counts.astype(np.int64) != base_erases
    regressed = (~bad) & (~erase_moved) & (ptr_now < base_ptr)
    if regressed.any():
        raise RecoveryError(
            f"block {int(np.flatnonzero(regressed)[0])} program pointer moved "
            "backwards without an erase -- media image inconsistent with the "
            "checkpoint"
        )
    # Unerased blocks: only pages past the snapshot pointer are new.
    # Erased-since blocks: rescan whole (they may hold fresh data, or --
    # after a *failed* erase that bumped the counter but kept the cells
    # -- stale stamps below the horizon, which the merge discards).
    # Bad blocks are skipped wholesale (their BBT entry says "do not
    # trust").
    end = np.where(bad, 0, ptr_now)
    start = np.minimum(np.where(erase_moved, 0, base_ptr), end)
    if ckpt is not None:
        unsettled = _unsettled_pages(base_ptr, erase_moved, ppb)
    pages_scanned, torn, data, trans = _sweep(
        nand, start, end, user_pages, trans_pages
    )
    l2p, mapped_lpns, stale, tombstones_replayed, write_seq = _merge_namespace(
        nand, l2p_base, user_pages, data, (meta.tomb_lpns, meta.tomb_seqs),
        horizon, 0, unsettled,
    )
    del data  # device-sized over an empty base: release it before the GTD

    # GTD: a CKP1 base (or none) means no translation page was ever
    # flushed as of the snapshot.  Translation pages are never trimmed.
    gtd: Optional[np.ndarray] = None
    trans_mapped = 0
    if trans_pages:
        if gtd_base is not None and len(gtd_base) != trans_pages:
            raise RecoveryError(
                f"checkpoint GTD covers {len(gtd_base)} translation "
                f"pages, device needs {trans_pages}"
            )
        empty = np.empty(0, dtype=np.int64)
        gtd, trans_mapped, trans_stale, _, trans_seq = _merge_namespace(
            nand, gtd_base, trans_pages, trans, (empty, empty), horizon,
            TRANS_LPN_BASE, unsettled,
        )
        stale += trans_stale
        write_seq = max(write_seq, trans_seq)

    report = RecoveryReport(
        duration_ns=(meta.meta_pages + pages_scanned) * nand.timing.read_ns,
        pages_scanned=pages_scanned,
        torn_pages=int(torn.size),
        stale_pages=stale,
        mapped_lpns=mapped_lpns,
        write_seq=write_seq,
        meta_pages_read=meta.meta_pages,
        full_scan=meta.checkpoint is None,
        checkpoint_generation=generation,
        tombstones_replayed=tombstones_replayed,
        torn_meta_records=meta.torn_records,
        checkpoint_fallbacks=meta.checkpoint_fallbacks,
        torn_addresses=[(int(p) // ppb, int(p) % ppb) for p in torn[:64]],
        gtd=gtd,
        trans_pages_mapped=trans_mapped,
    )
    return l2p, write_seq, report


def rediscover_layout(
    nand: NandArray,
) -> Tuple[np.ndarray, List[int], np.ndarray, Set[int]]:
    """Classify every block from its durable physical state.

    Returns ``(free, open, closed, retired)`` -- ascending int arrays for
    the two large classes, which the FTL's pool and victim index are
    built from as arrays:

    * ERASED (and good) -> free pool;
    * OPEN -> a write frontier interrupted mid-block (at most one per
      write stream exists: user, GC and -- dftl -- translation);
    * FULL -> closed, in-use, GC candidate;
    * BAD and not factory-marked -> grown-bad (retired).
    """
    states = nand.block_states
    free = np.flatnonzero(states == STATE_ERASED)
    open_blocks = np.flatnonzero(states == STATE_OPEN).tolist()
    closed = np.flatnonzero(states == STATE_FULL)
    grown = (states == STATE_BAD) & ~nand.factory_bad
    retired = set(np.flatnonzero(grown).tolist())
    return free, open_blocks, closed, retired


def recover_ftl(
    nand: NandArray,
    config: "SsdConfig",
    post_checkpoint: bool = False,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[PageMappedFtl, RecoveryReport]:
    """Full post-power-cut recovery: load metadata, scan, rebuild, verify.

    ``nand`` is the powered-back-on array (typically
    :meth:`SsdConfig.restore_nand <repro.ssd.config.SsdConfig.restore_nand>`
    over a captured media image); ``config`` is the device it belongs to
    -- the scan and the rebuilt :class:`PageMappedFtl` read every knob
    from it -- and ``registry`` is the FTL's metrics registry.  The FTL
    runs on its operation-counter clock until a host adopts it.
    With ``post_checkpoint=True`` the recovered FTL immediately writes a
    fresh checkpoint (generation past every one seen, torn included), so
    the *next* power-on need not redo this scan; its program cost is
    reported separately in ``post_checkpoint_ns`` because the device is
    already host-ready when it starts.  Returns the recovered FTL --
    already past :meth:`~PageMappedFtl.invariant_check` -- and the scan
    report.

    Raises:
        RecoveryError: the media image cannot be reconciled (corrupt
            OOB stamp, geometry-mismatched checkpoint, or more open
            frontiers than write streams).
    """
    space = config.space_model()
    dftl = config.mapping_mode == "dftl"
    layout = translation_layout(nand.geometry.page_size, space.user_pages)
    trans_pages = layout[1] if dftl else 0
    meta = _load_metadata(nand, space.user_pages)
    l2p, write_seq, report = _rebuild(nand, meta, space.user_pages, trans_pages)
    free, open_blocks, closed, retired = rediscover_layout(nand)

    max_streams = write_streams(config.mapping_mode)
    if len(open_blocks) > max_streams:
        raise RecoveryError(
            f"{len(open_blocks)} partially-programmed blocks found; "
            f"the FTL runs exactly {max_streams} write streams"
        )
    # Ascending order is deterministic; which open frontier served which
    # stream is volatile knowledge, and either assignment is valid.  In
    # dftl mode the translation frontier *is* identifiable by its stamp
    # namespace; failing that, the highest open block holding no stamp
    # at all (every programmed page tore) -- never one holding data, as a
    # block holds one page class.
    active_trans = None
    if dftl and open_blocks:
        ppb = nand.geometry.pages_per_block
        stamps = {
            b: nand.oob_lpn[b * ppb : b * ppb + int(nand.program_ptr[b])]
            for b in open_blocks
        }
        trans_stamped = [b for b in open_blocks if (stamps[b] >= TRANS_LPN_BASE).any()]
        if len(trans_stamped) > 1:
            raise RecoveryError(
                f"{len(trans_stamped)} open blocks carry translation stamps; "
                "the FTL runs exactly one translation stream"
            )
        if trans_stamped:
            active_trans = trans_stamped[0]
        elif len(open_blocks) == 3:
            unstamped = [b for b in open_blocks if (stamps[b] == OOB_UNSTAMPED).all()]
            if not unstamped:
                raise RecoveryError("3 open blocks all carry data stamps")
            active_trans = unstamped[-1]
    data_open = [b for b in open_blocks if b != active_trans]
    active_user = data_open[0] if len(data_open) >= 1 else None
    active_gc = data_open[1] if len(data_open) >= 2 else None

    recovered = RecoveredFtlState(
        l2p=l2p,
        free_blocks=free,
        closed_blocks=closed,
        retired_blocks=retired,
        active_user_block=active_user,
        active_gc_block=active_gc,
        write_seq=write_seq,
        checkpoint_generation=meta.max_generation,
        gtd=report.gtd,
        active_trans_block=active_trans,
    )
    ftl = PageMappedFtl(nand, config, registry=registry, recovered=recovered)
    ftl.invariant_check()

    report.free_blocks = ftl.free_pool_blocks()
    report.open_blocks = len(open_blocks)
    report.closed_blocks = len(closed)
    report.retired_blocks = len(retired)
    report.read_only = ftl.read_only
    if post_checkpoint and not ftl.read_only:
        report.post_checkpoint_ns = ftl.write_checkpoint(trigger="recovery")
    return ftl, report
