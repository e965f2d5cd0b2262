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

Power-on recovery proceeds checkpoint-first:

1. **Metadata read** -- every surviving metadata record is read (charged
   at tR per metadata page).  Torn records (power cut mid-program) fail
   their CRC and are discarded; a torn *checkpoint* falls back to the
   previous complete generation, and with no complete checkpoint at all
   the scan falls back to the PR-5 full-device sweep.
2. **Tail scan** -- with a checkpoint of horizon ``H``: only pages
   programmed past the checkpoint's per-block program pointers are
   swept (blocks whose erase count moved since the snapshot are rescanned
   whole -- they were erased, and possibly reprogrammed, after it).
3. **Newest-stamp-wins merge** -- tail OOB stamps and journaled
   tombstones with ``seq >= H`` are merged onto the checkpoint's L2P;
   programs and unmaps burn sequence numbers from one shared counter, so
   the highest stamp per LPN is its definitive fate (tombstone -> gone).
   Stamps older than the horizon -- e.g. surfaced by rescanning a block
   whose erase *failed* and left stale cells behind -- are already
   adjudicated by the checkpoint and are ignored.
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
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

import numpy as np

from repro.ftl.ftl import FtlError, PageMappedFtl
from repro.ftl.mapping import TRANS_LPN_BASE, UNMAPPED
from repro.ftl.metastore import (
    KIND_CHECKPOINT,
    KIND_UNMAP,
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
        l2p: full LPN→PPN table (``UNMAPPED`` where no copy survived).
        free_blocks: erased blocks for the wear-aware pool.
        closed_blocks: fully-programmed in-use blocks (GC candidates).
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
    free_blocks: List[int]
    closed_blocks: List[int]
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
    the checkpoint tail on the fast path, every programmed page on the
    full-scan fallback.  ``post_checkpoint_ns`` (programs of the optional
    post-recovery checkpoint) is kept separate: a drive is host-ready
    before it, and writes it lazily afterwards.
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
    #: True when no complete checkpoint bounded the scan.
    full_scan: bool = True
    #: Generation of the checkpoint loaded (-1 on the full-scan path).
    checkpoint_generation: int = -1
    #: Journaled unmap entries that won the newest-stamp-wins merge.
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
    by_seq = np.argsort(seqs)
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


def _split_stamps(
    cand: np.ndarray,
    lpns: np.ndarray,
    seqs: np.ndarray,
    user_pages: int,
    trans_pages: int,
    where: str,
) -> Tuple[
    Tuple[np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]:
    """Partition OOB stamps into data and translation namespaces.

    A stamped LPN at or above ``TRANS_LPN_BASE`` encodes the translation
    page ``tvpn = lpn - TRANS_LPN_BASE``; anything else must be a data
    LPN in ``[0, user_pages)``.  With ``trans_pages == 0`` (dram mapping
    mode) a translation stamp is corruption.  Returns
    ``((data_ppns, data_lpns, data_seqs), (trans_ppns, tvpns, trans_seqs))``.
    """
    is_trans = lpns >= TRANS_LPN_BASE
    if is_trans.any() and trans_pages == 0:
        raise RecoveryError(
            f"{where} found a translation-page stamp but the mapping mode "
            "keeps the full map in DRAM -- corrupt stamp or mode mismatch"
        )
    d_lpns = lpns[~is_trans]
    if d_lpns.size and (int(d_lpns.min()) < 0 or int(d_lpns.max()) >= user_pages):
        raise RecoveryError(
            f"{where} found an LPN outside the logical space "
            f"[0, {user_pages}) -- corrupt stamp"
        )
    tvpns = lpns[is_trans] - TRANS_LPN_BASE
    if tvpns.size and int(tvpns.max()) >= trans_pages:
        raise RecoveryError(
            f"{where} found a translation stamp outside the directory "
            f"[0, {trans_pages}) -- corrupt stamp"
        )
    return (
        (cand[~is_trans], d_lpns, seqs[~is_trans]),
        (cand[is_trans], tvpns, seqs[is_trans]),
    )


def _sweep(
    nand: NandArray,
    start: np.ndarray,
    end: np.ndarray,
    user_pages: int,
    trans_pages: int,
    where: str,
) -> Tuple[
    int,
    np.ndarray,
    Tuple[np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]:
    """Read the OOB of pages ``[start[b], end[b])`` of every block ``b``.

    Returns ``(pages_scanned, torn_ppns, data_stamps, trans_stamps)``,
    the stamps as :func:`_split_stamps` partitions them, everything in
    ascending PPN order.  The page set is built from the runs themselves,
    so the cost is that of the pages swept, not of the device.
    """
    counts = end - start
    first = np.arange(len(end), dtype=np.int64) * nand.geometry.pages_per_block + start
    pages = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )
    seqs = nand.oob_seq[pages]
    stamped = seqs != OOB_UNSTAMPED
    cand = pages[stamped]
    data, trans = _split_stamps(
        cand, nand.oob_lpn[cand], seqs[stamped], user_pages, trans_pages, where
    )
    return int(pages.size), pages[~stamped], data, trans


def scan_oob(
    nand: NandArray, user_pages: int, trans_pages: int = 0
) -> Tuple[np.ndarray, int, RecoveryReport]:
    """Sweep every programmed page's OOB and rebuild the L2P table.

    Returns ``(l2p, write_seq, report)`` where ``report`` carries the
    scan-cost accounting (layout fields are filled by the caller).
    Vectorized over the whole device: the per-page "is it programmed,
    is it stamped, is it the newest copy of its LPN" decisions are a few
    flat-array passes, not a Python loop.

    With ``trans_pages > 0`` (dftl mapping mode) translation-page stamps
    participate in their own newest-wins merge and the rebuilt GTD is
    returned in ``report.gtd``.
    """
    ppb = nand.geometry.pages_per_block
    # Page i of block b is programmed iff i < program_ptr[b]; bad blocks
    # are skipped wholesale (their BBT entry says "do not trust").
    programmed = np.where(nand.block_states == STATE_BAD, 0, nand.program_ptr)
    pages_scanned, torn, (d_cand, d_lpns, d_seqs), (t_cand, tvpns, t_seqs) = _sweep(
        nand, np.zeros_like(programmed), programmed, user_pages, trans_pages,
        "OOB sweep",
    )

    l2p = np.full(user_pages, UNMAPPED, dtype=np.int64)
    write_seq = 0
    stale = 0
    if d_cand.size:
        newest = _newest_per_key(d_lpns, d_seqs)
        l2p[d_lpns[newest]] = d_cand[newest]
        stale = int(d_cand.size - newest.size)
        write_seq = int(d_seqs.max()) + 1

    gtd: Optional[np.ndarray] = None
    trans_mapped = 0
    if trans_pages:
        gtd = np.full(trans_pages, UNMAPPED, dtype=np.int64)
        if t_cand.size:
            newest = _newest_per_key(tvpns, t_seqs)
            gtd[tvpns[newest]] = t_cand[newest]
            stale += int(t_cand.size - newest.size)
            write_seq = max(write_seq, int(t_seqs.max()) + 1)
        trans_mapped = int((gtd != UNMAPPED).sum())

    report = RecoveryReport(
        duration_ns=pages_scanned * nand.timing.read_ns,
        pages_scanned=pages_scanned,
        torn_pages=int(torn.size),
        stale_pages=stale,
        mapped_lpns=int((l2p != UNMAPPED).sum()),
        write_seq=write_seq,
        torn_addresses=[
            (int(p) // ppb, int(p) % ppb) for p in torn[:64]
        ],
        gtd=gtd,
        trans_pages_mapped=trans_mapped,
    )
    return l2p, write_seq, report


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
    counts as a fallback (an older complete generation, or the full
    scan, takes over).  Tombstone vectors are concatenated across all
    surviving journal records -- the merge orders them by stamp, so
    record boundaries carry no meaning.
    """
    records = nand.meta.records
    meta_pages = sum(record.pages for record in records)
    torn_records = 0
    fallbacks = 0
    max_generation = 0

    checkpoint: Optional[CheckpointImage] = None
    for record in reversed(records):
        if record.kind != KIND_CHECKPOINT:
            continue
        max_generation = max(max_generation, record.generation)
        if checkpoint is not None:
            continue
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

    lpn_parts: List[np.ndarray] = []
    seq_parts: List[np.ndarray] = []
    for record in records:
        if record.kind != KIND_UNMAP:
            continue
        if record.parsed is None:
            torn_records += 1
            continue
        lpns, seqs = record.parsed
        lpn_parts.append(lpns)
        seq_parts.append(seqs)
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
        meta_pages=meta_pages,
        torn_records=torn_records,
        checkpoint_fallbacks=fallbacks,
        max_generation=max_generation,
    )


def _checkpoint_recovery(
    nand: NandArray,
    ckpt: CheckpointImage,
    meta: _DurableMetadata,
    user_pages: int,
    trans_pages: int = 0,
) -> Tuple[np.ndarray, int, RecoveryReport]:
    """Rebuild the L2P (and GTD, in dftl mode) from a checkpoint plus
    the log-tail merge."""
    ppb = nand.geometry.pages_per_block
    horizon = ckpt.write_seq

    ptr_now = nand.program_ptr.astype(np.int64)
    bad = nand.block_states == STATE_BAD
    erase_moved = nand.endurance.erase_counts.astype(np.int64) != ckpt.erase_counts
    regressed = (~bad) & (~erase_moved) & (ptr_now < ckpt.program_ptr)
    if regressed.any():
        raise RecoveryError(
            f"block {int(np.flatnonzero(regressed)[0])} program pointer moved "
            "backwards without an erase -- media image inconsistent with the "
            "checkpoint"
        )
    # Unerased blocks: only pages past the snapshot pointer are new.
    # Erased-since blocks: rescan whole (they may hold fresh data, or --
    # after a *failed* erase that bumped the counter but kept the cells
    # -- stale stamps below the horizon, which the seq filter discards).
    # Bad blocks are skipped wholesale.
    end = np.where(bad, 0, ptr_now)
    start = np.minimum(np.where(erase_moved, 0, ckpt.program_ptr), end)
    pages_scanned, torn, (cand, lpns, seqs), (t_cand, tvpns, t_seqs) = _sweep(
        nand, start, end, user_pages, trans_pages, "tail scan"
    )
    fresh = seqs >= horizon
    stale_trans = 0
    if trans_pages:
        t_fresh = t_seqs >= horizon
        stale_trans = int((~t_fresh).sum())
        t_cand, tvpns, t_seqs = t_cand[t_fresh], tvpns[t_fresh], t_seqs[t_fresh]
    cand, lpns, seqs = cand[fresh], lpns[fresh], seqs[fresh]

    # Tombstones below the horizon are already folded into the
    # checkpoint's L2P; replaying one would wrongly unmap an LPN whose
    # newer (pre-checkpoint) copy has no stamp in the tail.
    tomb_keep = meta.tomb_seqs >= horizon
    tomb_lpns = meta.tomb_lpns[tomb_keep]
    tomb_seqs = meta.tomb_seqs[tomb_keep]

    l2p = ckpt.l2p.copy()
    stale = int((~fresh).sum()) + stale_trans
    tombstones_replayed = 0
    write_seq = horizon
    if cand.size or tomb_lpns.size:
        all_lpns = np.concatenate([lpns, tomb_lpns])
        all_seqs = np.concatenate([seqs, tomb_seqs])
        all_ppns = np.concatenate(
            [cand, np.full(tomb_lpns.size, UNMAPPED, dtype=np.int64)]
        )
        newest = _newest_per_key(all_lpns, all_seqs)
        l2p[all_lpns[newest]] = all_ppns[newest]
        tombstones_replayed = int((newest >= cand.size).sum())
        stale += int(cand.size - (newest.size - tombstones_replayed))
        write_seq = max(write_seq, int(all_seqs.max()) + 1)

    # A checkpoint entry can point into a block erased after the
    # snapshot: the page was invalidated (overwrite or TRIM) and the
    # block collected, but the superseding event is not durable -- e.g.
    # its tombstone sat in a torn journal record.  No newer stamp
    # re-bound the LPN above, so the entry dangles at an unprogrammed
    # page (or at another LPN's data if the block was reprogrammed).
    # There is no durable copy of that LPN left; drop the entry rather
    # than resurrect a mapping into garbage.
    mapped = np.flatnonzero(l2p != UNMAPPED)
    mapped_lpns = int(mapped.size)
    if mapped.size:
        ppns = l2p[mapped]
        dangling = (nand.oob_seq[ppns] == OOB_UNSTAMPED) | (
            nand.oob_lpn[ppns] != mapped
        )
        if dangling.any():
            l2p[mapped[dangling]] = UNMAPPED
            mapped_lpns -= int(np.count_nonzero(dangling))

    # GTD: checkpoint base (a CKP1 base means no translation page was
    # ever flushed as of the snapshot), newest-wins merge of the tail's
    # translation stamps, and the same dangling-entry drop as the L2P --
    # a directory entry must land on a page stamped with its own tvpn.
    gtd: Optional[np.ndarray] = None
    trans_mapped = 0
    if trans_pages:
        if ckpt.gtd is not None:
            if len(ckpt.gtd) != trans_pages:
                raise RecoveryError(
                    f"checkpoint GTD covers {len(ckpt.gtd)} translation "
                    f"pages, device needs {trans_pages}"
                )
            gtd = ckpt.gtd.copy()
        else:
            gtd = np.full(trans_pages, UNMAPPED, dtype=np.int64)
        if t_cand.size:
            newest = _newest_per_key(tvpns, t_seqs)
            gtd[tvpns[newest]] = t_cand[newest]
            stale += int(t_cand.size - newest.size)
            write_seq = max(write_seq, int(t_seqs.max()) + 1)
        tv = np.flatnonzero(gtd != UNMAPPED)
        if tv.size:
            ppns = gtd[tv]
            dangling = (nand.oob_seq[ppns] == OOB_UNSTAMPED) | (
                nand.oob_lpn[ppns] != TRANS_LPN_BASE + tv
            )
            if dangling.any():
                gtd[tv[dangling]] = UNMAPPED
        trans_mapped = int((gtd != UNMAPPED).sum())

    report = RecoveryReport(
        duration_ns=(meta.meta_pages + pages_scanned) * nand.timing.read_ns,
        pages_scanned=pages_scanned,
        torn_pages=int(torn.size),
        stale_pages=stale,
        mapped_lpns=mapped_lpns,
        write_seq=write_seq,
        meta_pages_read=meta.meta_pages,
        full_scan=False,
        checkpoint_generation=ckpt.generation,
        tombstones_replayed=tombstones_replayed,
        torn_meta_records=meta.torn_records,
        checkpoint_fallbacks=meta.checkpoint_fallbacks,
        torn_addresses=[(int(p) // ppb, int(p) % ppb) for p in torn[:64]],
        gtd=gtd,
        trans_pages_mapped=trans_mapped,
    )
    return l2p, write_seq, report


def _full_scan_recovery(
    nand: NandArray,
    meta: _DurableMetadata,
    user_pages: int,
    trans_pages: int = 0,
) -> Tuple[np.ndarray, int, RecoveryReport]:
    """PR-5 full OOB sweep, extended with tombstone replay.

    With no usable checkpoint every journaled tombstone participates: a
    tombstone beats a surviving stamp of its LPN iff it is newer (the
    shared sequence counter makes the comparison exact).  Translation
    pages are never tombstoned -- the sweep's newest-wins GTD stands.
    """
    l2p, write_seq, report = scan_oob(nand, user_pages, trans_pages)
    if meta.tomb_lpns.size:
        tomb_best = np.full(user_pages, OOB_UNSTAMPED, dtype=np.int64)
        newest = _newest_per_key(meta.tomb_lpns, meta.tomb_seqs)
        tomb_best[meta.tomb_lpns[newest]] = meta.tomb_seqs[newest]
        mapped = l2p != UNMAPPED
        newest_stamp = np.full(user_pages, OOB_UNSTAMPED, dtype=np.int64)
        # l2p holds, per mapped LPN, the PPN of its newest stamped copy.
        newest_stamp[mapped] = nand.oob_seq[l2p[mapped]]
        killed = mapped & (tomb_best > newest_stamp)
        l2p[killed] = UNMAPPED
        report.tombstones_replayed = int(killed.sum())
        report.mapped_lpns = int((l2p != UNMAPPED).sum())
        write_seq = max(write_seq, int(meta.tomb_seqs.max()) + 1)
    report.write_seq = write_seq
    report.meta_pages_read = meta.meta_pages
    report.torn_meta_records = meta.torn_records
    report.checkpoint_fallbacks = meta.checkpoint_fallbacks
    report.duration_ns += meta.meta_pages * nand.timing.read_ns
    return l2p, write_seq, report


def rediscover_layout(
    nand: NandArray,
) -> Tuple[List[int], List[int], List[int], Set[int]]:
    """Classify every block from its durable physical state.

    Returns ``(free, open, closed, retired)``:

    * ERASED (and good) -> free pool;
    * OPEN -> a write frontier interrupted mid-block (at most one per
      write stream exists: user, GC and -- dftl -- translation);
    * FULL -> closed, in-use, GC candidate;
    * BAD and not factory-marked -> grown-bad (retired).
    """
    states = nand.block_states
    free = np.flatnonzero(states == STATE_ERASED).tolist()
    open_blocks = np.flatnonzero(states == STATE_OPEN).tolist()
    closed = np.flatnonzero(states == STATE_FULL).tolist()
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
    trans_pages = 0
    if dftl:
        entries_per_tpage = nand.geometry.page_size // 8
        trans_pages = -(-space.user_pages // entries_per_tpage)  # ceil
    meta = _load_metadata(nand, space.user_pages)
    if meta.checkpoint is not None:
        l2p, write_seq, report = _checkpoint_recovery(
            nand, meta.checkpoint, meta, space.user_pages, trans_pages
        )
    else:
        l2p, write_seq, report = _full_scan_recovery(
            nand, meta, space.user_pages, trans_pages
        )
    free, open_blocks, closed, retired = rediscover_layout(nand)

    max_streams = 3 if dftl else 2
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
