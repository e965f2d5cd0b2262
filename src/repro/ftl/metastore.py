"""Durable FTL metadata on NAND: mapping checkpoints and the unmap journal.

PR 5 made user data crash-consistent by stamping ``(lpn, write_seq)``
into every page's OOB area, but all *metadata* still lived in DRAM:
power-on recovery had to scan every programmed page, and TRIM was a
DRAM-only edit that a crash silently undid (the "resurrect after TRIM"
caveat of DESIGN.md §8).  This module adds the flash-resident metadata
plane that fixes both:

* **Checkpoint records** snapshot the full L2P table together with the
  write-sequence *horizon* ``H`` (the next sequence number at snapshot
  time) and the per-block program pointers / erase counts.  Recovery
  loads the newest complete checkpoint and only scans pages programmed
  past those pointers -- every mapping change after the snapshot is
  represented by an OOB stamp or a tombstone with ``seq >= H``.
* **Tombstone records** journal TRIM (and GC data-loss) unmaps.  Each
  tombstoned LPN burns a sequence number from the *same* monotonic
  counter as page programs, so programs and unmaps form one total order
  and recovery replays them newest-stamp-wins.

Records live in a small ring of reserved metadata blocks
(:class:`~repro.nand.metaregion.MetaRegion`) -- physically separate
from the user-addressable blocks (real drives reserve root/metadata
blocks the same way), so user-capacity accounting, GC and the free pool
are untouched.  :class:`MetaLog` is the one owner of that durable state:
one :meth:`~MetaLog.append` adds a record, programs its pages through
the ring and prices them at the array's timings; a record the ring
cannot land in full (every reserved block retired) is torn on the spot.
Every record is self-describing (magic + element counts),
CRC-checksummed and, for checkpoints, generation-stamped; a record cut
mid-write parses as *torn* and is ignored, which is exactly the
fallback-to-previous-generation behaviour re-entrant recovery needs.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nand.metaregion import MetaProgramOutcome, MetaRegion, RingWear
from repro.nand.timing import NandTiming

#: Record kinds stored in the metadata log.
KIND_CHECKPOINT = "checkpoint"
KIND_UNMAP = "unmap"

#: On-NAND magics double as format-version tags (bump the digit to rev).
#: CKP1 carries the L2P-only image (dram mapping mode); CKP2 appends the
#: global translation directory for the dftl mapping mode.  Both parse.
MAGIC_CHECKPOINT = b"CKP1"
MAGIC_CHECKPOINT2 = b"CKP2"
MAGIC_TOMBSTONE = b"TMB1"

#: magic, generation, write_seq horizon, user_pages, blocks, pages_per_block
_CKPT_HEADER = struct.Struct("<4sQQQQI")
#: CKP2 extension, directly after the common header: GTD entry count.
_CKPT2_GTD = struct.Struct("<Q")
#: magic, tombstone entry count
_TOMB_HEADER = struct.Struct("<4sI")
#: trailing CRC32 of everything before it
_CRC = struct.Struct("<I")


@dataclass(frozen=True)
class MetaRecord:
    """One append-only record in the NAND metadata log.

    ``payload`` holds the full serialized bytes for a complete record;
    a *torn* record (power cut mid-program) keeps only the pages that
    landed before the cut and is marked ``torn`` -- its payload will
    fail the CRC and parse as ``None``.
    """

    kind: str
    seq: int  # append order within the log (display/debug only)
    generation: int  # checkpoint generation; 0 for unmap records
    payload: bytes
    pages: int  # metadata pages the surviving payload occupies
    torn: bool = False

    @cached_property
    def parsed(self) -> Union[CheckpointImage, Tuple[np.ndarray, np.ndarray], None]:
        """The CRC-checked payload, parsed once per record.

        A :class:`CheckpointImage`, a tombstone ``(lpns, seqs)`` pair, or
        ``None`` when the record is torn.  Records are immutable and
        shared by reference between the live log, :meth:`MetaLog.capture`
        and :meth:`MetaLog.load`, so every power-on over the same
        image reuses the parse; :meth:`MetaLog.tear_last` builds a *new*
        record, which therefore never inherits one.  The arrays are
        read-only views of ``payload``.
        """
        if self.kind == KIND_CHECKPOINT:
            return parse_checkpoint(self.payload)
        return parse_tombstones(self.payload)

    @cached_property
    def newest_stamp(self) -> Optional[int]:
        """Highest sequence number of a complete, non-empty tombstone
        record (``None`` otherwise), cached like :attr:`parsed`: every
        compaction asks it of every journal record still held."""
        if self.kind != KIND_UNMAP or self.parsed is None or not self.parsed[1].size:
            return None
        return int(self.parsed[1].max())


@dataclass(frozen=True)
class CheckpointImage:
    """A parsed, CRC-verified checkpoint record."""

    generation: int
    #: Write-sequence horizon ``H``: every sequence number ``< H`` was
    #: burned before this snapshot; every post-snapshot program or
    #: tombstone carries ``seq >= H``.
    write_seq: int
    pages_per_block: int
    l2p: np.ndarray  # int64[user_pages], UNMAPPED where unmapped
    program_ptr: np.ndarray  # int32[blocks] at snapshot time
    erase_counts: np.ndarray  # int64[blocks] at snapshot time
    #: Global translation directory (dftl mapping mode, CKP2 records):
    #: int64[trans_pages], PPN of each translation page's newest flushed
    #: copy.  None for CKP1 (dram) checkpoints.
    gtd: Optional[np.ndarray] = None

    @property
    def user_pages(self) -> int:
        return int(len(self.l2p))

    @cached_property
    def l2p_span(self) -> Tuple[int, int]:
        """Lowest and highest L2P entry.  The image is immutable and
        shared by every power-on over its record, so recovery's range
        check reads two cached ints instead of a pass over the table."""
        return _span(self.l2p)

    @cached_property
    def gtd_span(self) -> Tuple[int, int]:
        """Lowest and highest GTD entry (see :attr:`l2p_span`); the GTD
        must be present."""
        return _span(self.gtd)

    @property
    def blocks(self) -> int:
        return int(len(self.program_ptr))


def _span(table: np.ndarray) -> Tuple[int, int]:
    if not len(table):
        return (-1, -1)
    return int(table.min()), int(table.max())


def build_checkpoint(
    generation: int,
    write_seq: int,
    l2p: np.ndarray,
    program_ptr: np.ndarray,
    erase_counts: np.ndarray,
    pages_per_block: int,
    gtd: Optional[np.ndarray] = None,
) -> bytes:
    """Serialize a checkpoint record (header | arrays | CRC32).

    Without ``gtd`` the record is byte-identical to the historical CKP1
    format; with it, a CKP2 record appends the GTD entry count and
    vector between the header and the L2P table.
    """
    if len(program_ptr) != len(erase_counts):
        raise ValueError("program_ptr and erase_counts must cover the same blocks")
    parts = [
        _CKPT_HEADER.pack(
            MAGIC_CHECKPOINT if gtd is None else MAGIC_CHECKPOINT2,
            generation,
            write_seq,
            len(l2p),
            len(program_ptr),
            pages_per_block,
        )
    ]
    if gtd is not None:
        parts += [_CKPT2_GTD.pack(len(gtd)), np.ascontiguousarray(gtd, dtype=np.int64)]
    parts += [
        np.ascontiguousarray(l2p, dtype=np.int64),
        np.ascontiguousarray(program_ptr, dtype=np.int32),
        np.ascontiguousarray(erase_counts, dtype=np.int64),
    ]
    # The arrays' own buffers go through the CRC and into one join: each
    # byte is read once by the CRC and copied once into the record.
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def parse_checkpoint(payload: bytes) -> Optional[CheckpointImage]:
    """Parse a checkpoint payload; ``None`` for torn/corrupt records.

    The image's arrays are read-only views of ``payload``.
    """
    image = _unpack_checkpoint(payload)
    if image is None:
        return None
    (crc,) = _CRC.unpack_from(payload, len(payload) - _CRC.size)
    if crc != zlib.crc32(memoryview(payload)[: -_CRC.size]):
        return None
    return image


def _unpack_checkpoint(payload: bytes) -> Optional[CheckpointImage]:
    """The layout half of :func:`parse_checkpoint`: header, lengths and
    array views, with no CRC check."""
    if len(payload) < _CKPT_HEADER.size + _CRC.size:
        return None
    magic, generation, write_seq, user_pages, blocks, ppb = _CKPT_HEADER.unpack_from(
        payload
    )
    if magic not in (MAGIC_CHECKPOINT, MAGIC_CHECKPOINT2):
        return None
    offset = _CKPT_HEADER.size
    gtd_entries = 0
    if magic == MAGIC_CHECKPOINT2:
        if len(payload) < offset + _CKPT2_GTD.size:
            return None
        (gtd_entries,) = _CKPT2_GTD.unpack_from(payload, offset)
        offset += _CKPT2_GTD.size
    expected = (
        offset + 8 * gtd_entries + 8 * user_pages + 4 * blocks + 8 * blocks + _CRC.size
    )
    if len(payload) != expected:
        return None
    gtd = None
    if magic == MAGIC_CHECKPOINT2:
        gtd = np.frombuffer(payload, dtype=np.int64, count=gtd_entries, offset=offset)
        offset += 8 * gtd_entries
    l2p = np.frombuffer(payload, dtype=np.int64, count=user_pages, offset=offset)
    offset += 8 * user_pages
    ptr = np.frombuffer(payload, dtype=np.int32, count=blocks, offset=offset)
    offset += 4 * blocks
    erases = np.frombuffer(payload, dtype=np.int64, count=blocks, offset=offset)
    return CheckpointImage(
        generation=int(generation),
        write_seq=int(write_seq),
        pages_per_block=int(ppb),
        l2p=l2p,
        program_ptr=ptr,
        erase_counts=erases,
        gtd=gtd,
    )


def build_tombstones(lpns: Sequence[int], seqs: Sequence[int]) -> bytes:
    """Serialize an unmap-journal record: parallel (lpn, seq) vectors."""
    if len(lpns) != len(seqs):
        raise ValueError("lpns and seqs must be the same length")
    body = _TOMB_HEADER.pack(MAGIC_TOMBSTONE, len(lpns))
    body += np.ascontiguousarray(lpns, dtype=np.int64).tobytes()
    body += np.ascontiguousarray(seqs, dtype=np.int64).tobytes()
    return body + _CRC.pack(zlib.crc32(body))


def parse_tombstones(payload: bytes) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Parse a tombstone payload into read-only ``(lpns, seqs)`` views of
    it; ``None`` if torn."""
    if len(payload) < _TOMB_HEADER.size + _CRC.size:
        return None
    magic, count = _TOMB_HEADER.unpack_from(payload)
    if magic != MAGIC_TOMBSTONE:
        return None
    if len(payload) != _TOMB_HEADER.size + 16 * count + _CRC.size:
        return None
    (crc,) = _CRC.unpack_from(payload, len(payload) - _CRC.size)
    if crc != zlib.crc32(payload[: -_CRC.size]):
        return None
    offset = _TOMB_HEADER.size
    lpns = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
    seqs = np.frombuffer(
        payload, dtype=np.int64, count=count, offset=offset + 8 * count
    )
    return lpns, seqs


@dataclass(frozen=True)
class MetaImage:
    """The log as it survives a power cut: its records and the ring's
    wear, captured and loaded as one immutable value."""

    records: Tuple[MetaRecord, ...]
    ring: RingWear

    @cached_property
    def pages(self) -> int:
        """Metadata pages the records occupy.  :meth:`MetaLog.capture`
        seeds it with the log's running count; an image built any other
        way (``dataclasses.replace``) sums its records on first ask."""
        return sum(record.pages for record in self.records)


class MetaLog:
    """The NAND-resident metadata log and the reserved blocks it lives in.

    An ordered append-only sequence of :class:`MetaRecord`.  Each
    :meth:`append` programs the record's pages through ``ring`` and
    prices the NAND work -- payload programs, status-failed retries and
    ring-wrap erases -- at ``timing``; recovery charges reads at
    ``pages * read_ns``, so metadata traffic shows up in simulated time
    exactly like user traffic.  The log compacts itself at checkpoint
    time: the two newest complete checkpoint generations are retained
    (the newest may tear, so its predecessor must survive) plus every
    tombstone record still unresolved at the *oldest* kept horizon --
    and until two complete generations exist, everything is.
    """

    def __init__(self, page_size: int, ring: MetaRegion, timing: NandTiming) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        #: The reserved blocks every record is programmed into.
        self.ring = ring
        self._program_ns = timing.program_ns
        self._erase_ns = timing.erase_ns
        self._records: List[MetaRecord] = []
        self._next_seq = 0
        #: Running total of the records' pages (:meth:`pages_held`).
        self._pages = 0

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def append(
        self, kind: str, payload: bytes, generation: int = 0
    ) -> MetaProgramOutcome:
        """Append one record and program it; returns the ring's accounting.

        The outcome carries the NAND time spent, the fault and
        retirement counts and the record as it stands on NAND -- torn,
        keeping only the pages that landed, when the ring ran out.
        """
        return self._program(self._add(kind, payload, generation))

    def append_checkpoint(self, payload: bytes, generation: int) -> MetaProgramOutcome:
        """:meth:`append` a checkpoint :func:`build_checkpoint` just built.

        The log compacts between the append and the program, so only
        generations older than this record's predecessor are gone when
        its pages are spent (and may tear).  The record's :attr:`~MetaRecord.parsed` is read
        straight off the layout: the CRC was computed over these very
        bytes at build, and checking it again would re-read the whole
        table.  A payload of any other origin goes through :meth:`append`,
        whose parse checks it.
        """
        record = self._add(KIND_CHECKPOINT, payload, generation)
        # Seeds the cached_property, exactly as a first read would.
        record.__dict__["parsed"] = _unpack_checkpoint(payload)
        self.compact()
        return self._program(record)

    def _add(self, kind: str, payload: bytes, generation: int) -> MetaRecord:
        if kind not in (KIND_CHECKPOINT, KIND_UNMAP):
            raise ValueError(f"unknown metadata record kind {kind!r}")
        record = MetaRecord(
            kind=kind,
            seq=self._next_seq,
            generation=generation,
            payload=payload,
            pages=max(1, -(-len(payload) // self.page_size)),
        )
        self._next_seq += 1
        self._records.append(record)
        self._pages += record.pages
        return record

    def _program(self, record: MetaRecord) -> MetaProgramOutcome:
        """Program the newest record's pages through the ring and price
        them; tear it when the ring could not land every page."""
        outcome = self.ring.program(record.pages)
        outcome.latency_ns = (
            (outcome.pages_programmed + outcome.program_faults) * self._program_ns
            + (outcome.erases + outcome.erase_faults) * self._erase_ns
        )
        if outcome.pages_programmed < record.pages:
            # The tail never reached NAND: recovery must not trust it.
            record = self.tear_last(keep_pages=outcome.pages_programmed)
        outcome.record = record
        return outcome

    def tear_last(self, keep_pages: Optional[int] = None) -> Optional[MetaRecord]:
        """Emulate power loss mid-way through the newest record's program.

        Keeps only ``keep_pages`` of the record's pages (default: half,
        clamped so at least one page is lost) and marks it torn; its
        truncated payload no longer passes the CRC, so recovery discards
        it.  Returns the torn record, or ``None`` on an empty log.
        """
        if not self._records:
            return None
        record = self._records[-1]
        if keep_pages is None:
            keep_pages = record.pages // 2
        keep_pages = max(0, min(keep_pages, record.pages - 1))
        torn = replace(
            record,
            payload=record.payload[: keep_pages * self.page_size],
            pages=max(1, keep_pages),
            torn=True,
        )
        self._records[-1] = torn
        self._pages += torn.pages - record.pages
        return torn

    def compact(self) -> int:
        """Drop records made obsolete by newer complete checkpoints.

        Retains the two newest *complete* checkpoints, and every
        tombstone record whose newest entry is at or past the older one's
        horizon (older tombstones are already folded into both L2Ps).
        Torn records and older checkpoints are dropped.  The newest
        checkpoint may still tear -- :meth:`append_checkpoint` compacts
        before it programs -- so a tombstone may only go
        once a complete checkpoint *older* than the newest covers it:
        with fewer than two complete checkpoints, nothing is dropped.
        Returns the number of records removed.
        """
        kept_horizons = []
        keep_ckpts = set()
        for record in reversed(self._records):
            if record.kind != KIND_CHECKPOINT or len(kept_horizons) >= 2:
                continue
            image = record.parsed
            if image is None:
                continue  # torn checkpoint: never worth keeping
            keep_ckpts.add(record.seq)
            kept_horizons.append(image.write_seq)
        if len(kept_horizons) < 2:
            return 0
        oldest_horizon = min(kept_horizons)
        survivors = []
        for record in self._records:
            if record.kind == KIND_CHECKPOINT:
                if record.seq in keep_ckpts:
                    survivors.append(record)
            elif (
                record.newest_stamp is not None
                and record.newest_stamp >= oldest_horizon
            ):
                survivors.append(record)
        dropped = len(self._records) - len(survivors)
        self._records = survivors
        self._pages = sum(record.pages for record in survivors)
        return dropped

    # ------------------------------------------------------------------
    # Queries / durability capture
    # ------------------------------------------------------------------
    @property
    def records(self) -> Tuple[MetaRecord, ...]:
        return tuple(self._records)

    def pages_held(self) -> int:
        """Metadata pages a recovery scan must read (post-compaction)."""
        return self._pages

    @property
    def exhausted(self) -> bool:
        """The ring has no block left: no further record can land."""
        return self.ring.exhausted

    def capture(self) -> MetaImage:
        """The durable image: records plus ring wear, deep-copied."""
        image = MetaImage(tuple(self._records), self.ring.capture())
        # Seeds the cached_property, exactly as a first read would.
        image.__dict__["pages"] = self._pages
        return image

    def load(self, image: MetaImage) -> None:
        """Power on over a captured image: its records and ring wear
        replace this (fresh) log's.  Records keep append order through
        compaction and tears, so the newest one holds the highest
        sequence number."""
        self._records = list(image.records)
        self._next_seq = image.records[-1].seq + 1 if image.records else 0
        self._pages = image.pages
        self.ring.load(image.ring)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ckpts = sum(1 for r in self._records if r.kind == KIND_CHECKPOINT)
        return (
            f"<MetaLog records={len(self._records)} checkpoints={ckpts} "
            f"pages={self.pages_held()}>"
        )


