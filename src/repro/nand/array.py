"""The NAND array physical state machine.

:class:`NandArray` enforces the physical rules that drive the whole paper:

* **erase-before-write** -- a programmed page cannot be reprogrammed until
  its block is erased (out-place updates are therefore mandatory);
* **sequential in-block programming** -- pages of a block must be
  programmed in ascending order (MLC constraint);
* erases operate on whole blocks and wear them out.

It owns only *physical* state (program pointers, erase counts, bad-block
marks).  Logical state -- which pages are valid, the LPN↔PPN mapping -- is
the FTL's job (:mod:`repro.ftl`), mirroring the real hardware/firmware
split.

Hot-path layout (PERFORMANCE.md): per-block state lives in flat int32
vectors (``block_states``, ``program_ptr``, and the endurance model's
``erase_counts``) plus a ``bytearray`` bad-block mirror, so the per-op
address/state validation is a couple of int comparisons and one byte
probe instead of a geometry-property chain.  The geometry-backed check
it must agree with, exception for exception, lives in
``tests/nand/test_array.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.nand.endurance import EnduranceModel, WearStats
from repro.nand.errors import (
    AddressError,
    BadBlockError,
    BatchFaultPending,
    EraseBeforeWriteError,
    EraseFailError,
    ProgramFailError,
    ProgramOrderError,
    UncorrectableReadError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.ftl.metastore import MetaImage
    from repro.nand.reliability import ReadDisturbTracker
from repro.nand.geometry import NandGeometry
from repro.nand.metaregion import MetaRegion
from repro.nand.timing import NAND_20NM_MLC, NandTiming
from repro.obs.tracer import NULL_TRACER


class BlockState(enum.IntEnum):
    """Physical block lifecycle."""

    ERASED = 0    #: fully erased; no page programmed yet
    OPEN = 1      #: partially programmed (write frontier inside the block)
    FULL = 2      #: every page programmed
    BAD = 3       #: retired (manufacture defect or wear-out)


#: Hoisted int values of :class:`BlockState` for the hot operation paths
#: (IntEnum member access goes through the enum metaclass and shows up in
#: per-page profiles).  ``block_states`` stores these raw ints.
STATE_ERASED: int = int(BlockState.ERASED)
STATE_OPEN: int = int(BlockState.OPEN)
STATE_FULL: int = int(BlockState.FULL)
STATE_BAD: int = int(BlockState.BAD)

#: Sentinel for "never stamped" OOB slots (LPN and sequence columns).
OOB_UNSTAMPED: int = -1


@dataclass
class NandDurableState:
    """Everything that survives a sudden power-off, as flat arrays.

    This is the media image the recovery scan works from: per-block
    physical state and program pointers, per-block erase counts (real
    drives keep wear counters in flash metadata), the bad-block table
    (factory marks distinguished from grown marks, as in a real BBT),
    the per-page OOB columns, the per-block retention clock and the
    durable-metadata log.  Volatile controller state -- operation
    counters, the fault injector's RNG position, tracers -- is
    deliberately absent: it dies with the power rail.  Only
    :meth:`NandArray.capture_durable_state` builds one, and a
    ``NandArray(..., durable=image)`` powers on over it.

    Ownership: powering on *adopts* the image's columns -- the device
    runs on them, nothing is copied -- and spends the image.  A second
    power-on over a spent image is refused; a caller that powers on the
    same image twice takes a :meth:`copy` before the first.
    """

    block_states: np.ndarray
    program_ptr: np.ndarray
    erase_counts: np.ndarray
    bad: bytes
    factory_bad: np.ndarray
    oob_lpn: np.ndarray
    oob_seq: np.ndarray
    torn_pages: int
    factory_bad_blocks: int
    grown_bad_blocks: int
    #: The NAND-resident metadata log as one value: its records
    #: (checkpoints + unmap journal) and the wear of the reserved blocks
    #: they live in (:class:`~repro.ftl.metastore.MetaImage`).
    meta: "MetaImage"
    #: Per-block retention clock: sim time (ns) of each block's most
    #: recent program, the age base the reliability model's retention
    #: term works from.  Charge leaks whether the rail is up or not, so
    #: unlike the read-disturb counters (volatile DRAM state, reset at
    #: power-on) this vector *does* ride the durable image.
    last_program_ns: np.ndarray
    #: Set when a device powered on over this image and adopted its
    #: columns: they are that device's state now, no longer the image.
    spent: bool = field(default=False, init=False, repr=False, compare=False)

    def copy(self) -> "NandDurableState":
        """An unspent twin with columns of its own (the immutable bad-block
        bytes and metadata image are shared).  Take it *before* the first
        power-on: a spent image's columns belong to a running device."""
        self._refuse_if_spent()
        return NandDurableState(
            block_states=self.block_states.copy(),
            program_ptr=self.program_ptr.copy(),
            erase_counts=self.erase_counts.copy(),
            bad=self.bad,
            factory_bad=self.factory_bad.copy(),
            oob_lpn=self.oob_lpn.copy(),
            oob_seq=self.oob_seq.copy(),
            torn_pages=self.torn_pages,
            factory_bad_blocks=self.factory_bad_blocks,
            grown_bad_blocks=self.grown_bad_blocks,
            meta=self.meta,
            last_program_ns=self.last_program_ns.copy(),
        )

    def without_records(self) -> "NandDurableState":
        """A :meth:`copy` whose metadata log lost its records (the
        reserved blocks keep their wear): the image of a device whose
        checkpoints and unmap journal are gone."""
        twin = self.copy()
        twin.meta = replace(self.meta, records=())
        return twin

    def _refuse_if_spent(self) -> None:
        if self.spent:
            raise ValueError(
                "media image already powered on: its columns belong to that "
                "device -- power on from a copy() taken before it"
            )

    def _claim(self, geometry: NandGeometry, meta_blocks: int) -> None:
        """Check the image fits a device of ``geometry`` with a
        ``meta_blocks``-block metadata ring, then spend it."""
        self._refuse_if_spent()
        image = (
            len(self.block_states),
            len(self.oob_lpn),
            len(self.meta.ring.erase_counts),
        )
        device = (geometry.total_blocks, geometry.total_pages, meta_blocks)
        if image != device:
            raise ValueError(
                "media image geometry ({} blocks, {} pages, {}-block metadata "
                "ring) does not match the device's ({} blocks, {} pages, "
                "{}-block metadata ring)".format(*image, *device)
            )
        self.spent = True


class NandArray:
    """Flat-addressed NAND array with timing and endurance accounting.

    Each operation returns its latency in integer nanoseconds; the caller
    (the SSD device model) accumulates these into simulated service times.

    Args:
        geometry: array organisation.
        timing: per-operation latencies (defaults to 20 nm MLC).
        endurance: erase-count model; a default one is created if omitted.
        initial_bad_blocks: optional iterable of factory-bad block numbers.
        read_disturb: optional per-block read-disturb tracker; reads are
            counted and erases reset the counter.
        fault_injector: optional deterministic media-fault source; when
            set, operations may raise the recoverable fault exceptions
            (:class:`~repro.nand.errors.RecoverableNandFault`).
        meta_blocks: reserved metadata blocks (outside the user pool)
            whose wear/faults absorb checkpoint and tombstone programs
            (:class:`~repro.nand.metaregion.MetaRegion`).
        durable: a captured media image to power on over instead of a
            factory-fresh medium.  The array adopts the image's columns
            and spends it (:class:`NandDurableState`); volatile operation
            counters start at zero, as in a controller that just powered
            on, and so do the read-disturb counters -- the caller hands
            in a *fresh* tracker, exactly like a real power-on.  An image
            of another geometry or metadata-ring size, or one already
            spent, is refused with :class:`ValueError` before anything is
            built.

    Attributes:
        block_states: int32 vector of per-block :class:`BlockState` raw
            values (authoritative physical state).
        program_ptr: int32 vector of next programmable page per block
            (== ``pages_per_block`` when full).
    """

    def __init__(
        self,
        geometry: NandGeometry,
        timing: NandTiming = NAND_20NM_MLC,
        endurance: Optional[EnduranceModel] = None,
        initial_bad_blocks: Optional[list] = None,
        read_disturb: Optional["ReadDisturbTracker"] = None,
        fault_injector: Optional["FaultInjector"] = None,
        meta_blocks: int = 4,
        *,
        durable: Optional[NandDurableState] = None,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.endurance = endurance or EnduranceModel(geometry.total_blocks)
        if self.endurance.num_blocks != geometry.total_blocks:
            raise ValueError(
                f"endurance model sized for {self.endurance.num_blocks} blocks, "
                f"geometry has {geometry.total_blocks}"
            )
        if durable is not None:
            durable._claim(geometry, meta_blocks)

        n = geometry.total_blocks
        # Cached geometry/timing ints: the per-op paths must not walk
        # property chains (total_blocks alone is a multi-property product).
        self._num_blocks = n
        self._ppb = geometry.pages_per_block
        self._read_ns = timing.read_ns
        self._program_ns = timing.program_ns
        self._erase_ns = timing.erase_ns

        if durable is None:  # first boot: a factory-fresh medium
            total_pages = geometry.total_pages
            program_ptr = np.zeros(n, dtype=np.int32)
            block_states = np.full(n, STATE_ERASED, dtype=np.int32)
            bad = bytearray(n)
            factory_bad = np.zeros(n, dtype=bool)
            oob_lpn = np.full(total_pages, OOB_UNSTAMPED, dtype=np.int64)
            oob_seq = np.full(total_pages, OOB_UNSTAMPED, dtype=np.int64)
            last_program_ns = np.zeros(n, dtype=np.int64)
            torn_pages = grown_bad_blocks = factory_bad_blocks = 0
        else:  # power-on: the image's columns become the array's
            program_ptr, block_states = durable.program_ptr, durable.block_states
            bad = bytearray(durable.bad)
            factory_bad = durable.factory_bad
            oob_lpn, oob_seq = durable.oob_lpn, durable.oob_seq
            last_program_ns = durable.last_program_ns
            torn_pages = durable.torn_pages
            grown_bad_blocks = durable.grown_bad_blocks
            factory_bad_blocks = durable.factory_bad_blocks
            self.endurance.erase_counts = durable.erase_counts
            self.endurance.total_erases = int(durable.erase_counts.sum())

        #: Next programmable page index per block (== pages_per_block when full).
        self.program_ptr = program_ptr
        self.block_states = block_states
        # Bad-block mirror: the one-byte probe the fast address check
        # reads.  Mutated only where block_states transitions to/from BAD
        # (factory marks below, wear-out in erase_block, mark_bad).
        self._bad = bad
        #: Factory bad-block table (survives power loss; grown marks are
        #: the set difference against :attr:`_bad`).
        self._factory_bad = factory_bad

        #: Per-page OOB metadata persisted atomically with each
        #: *successful* program: the logical page stored there and the
        #: FTL's monotonic write-sequence stamp.  ``OOB_UNSTAMPED`` (-1)
        #: marks never-stamped slots -- a consumed page whose OOB is
        #: unstamped is *torn* (program interrupted by power loss or a
        #: status-fail) and is discarded at recovery.
        self.oob_lpn = oob_lpn
        self.oob_seq = oob_seq
        #: Pages consumed by a power-cut mid-program (never OOB-stamped).
        self.torn_pages = torn_pages

        # Local import: repro.ftl.metastore is NAND-layout code that the
        # ftl package owns; importing it at module scope would close an
        # import cycle (ftl.ftl imports this module).
        from repro.ftl.metastore import MetaLog

        #: NAND-resident metadata log (mapping checkpoints + unmap
        #: journal) and the ring of reserved blocks *outside* the
        #: user-addressable pool it programs into, so user capacity, the
        #: free pool and GC accounting are unaffected.  The ring ages
        #: (and can fail) under checkpoint and tombstone traffic; it
        #: shares the endurance rating and fault injector with the user
        #: blocks, and the log prices its work at this array's timings.
        self.meta = MetaLog(
            geometry.page_size,
            MetaRegion(
                meta_blocks,
                geometry.pages_per_block,
                pe_cycle_limit=self.endurance.pe_cycle_limit,
                fault_injector=fault_injector,
            ),
            timing,
        )
        if durable is not None:
            self.meta.load(durable.meta)

        self.read_disturb = read_disturb
        self.fault_injector = fault_injector
        #: Sim-time tracer; replaced by Observability.install when tracing.
        self.tracer = NULL_TRACER

        #: Per-block retention clock: sim time (ns) of the most recent
        #: program.  Always allocated (it rides the durable image), but
        #: only *stamped* when a reliability clock is installed via
        #: :meth:`set_reliability_clock` -- with reliability off the
        #: vector stays untouched and the program/erase paths pay one
        #: ``is None`` check, keeping the off path bit-identical.
        self.last_program_ns = last_program_ns
        self._reliability_clock = None

        # Operation counters (for WAF and profiling).
        self.page_reads = 0
        self.page_programs = 0
        self.block_erases = 0
        #: Batched program calls that landed on the bulk path (tests use
        #: this to assert fault runs still batch clean extents).
        self.batch_programs = 0
        #: Blocks retired at runtime via :meth:`mark_bad` (grown bad blocks).
        self.grown_bad_blocks = grown_bad_blocks
        self.factory_bad_blocks = factory_bad_blocks

        for block in initial_bad_blocks or []:
            geometry.check_block(block)
            if self.block_states[block] != STATE_BAD:
                self.block_states[block] = STATE_BAD
                self._bad[block] = 1
                self._factory_bad[block] = True
                self.factory_bad_blocks += 1

    def set_reliability_clock(self, clock) -> None:
        """Install the zero-arg ns clock that stamps the retention vector.

        Called by the FTL when a reliability profile is armed; without it
        the retention clock never ticks (the off path stays bit-identical
        to a build without the feature).
        """
        self._reliability_clock = clock

    @property
    def erase_counts(self) -> np.ndarray:
        """Per-block erase-count vector (view of the endurance model's)."""
        return self.endurance.erase_counts

    @property
    def factory_bad(self) -> np.ndarray:
        """Factory bad-block table (read-only view).

        The recovery scan diffs this against the live bad marks to
        re-discover *grown* bad blocks -- the set a real FTL keeps in its
        flash-resident BBT.
        """
        return self._factory_bad

    # ------------------------------------------------------------------
    # Physical operations
    # ------------------------------------------------------------------
    def read_page(self, block: int, page: int) -> int:
        """Read one page; returns tR latency (no transfer).

        Raises:
            UncorrectableReadError: injected ECC failure; the tR latency
                of the failed sensing is attached to the exception.
        """
        self._check_addr(block, page, "read")
        self.page_reads += 1
        if self.read_disturb is not None:
            self.read_disturb.counts[block] += 1
        if self.fault_injector is not None and self.fault_injector.read_uncorrectable(
            block, page, self.endurance.erase_count(block)
        ):
            raise UncorrectableReadError(block, page, self._read_ns)
        return self._read_ns

    def reread_page(self, block: int, page: int) -> int:
        """One read-retry attempt (voltage-shifted re-sense) on ``block``.

        Used by FTL recovery after an :class:`UncorrectableReadError`;
        success is decided by the fault injector's retry stream.  Returns
        tR latency on success.

        Raises:
            UncorrectableReadError: the retry also failed to correct.
        """
        self._check_addr(block, page, "read")
        self.page_reads += 1
        if self.fault_injector is not None and not self.fault_injector.read_retry_succeeds():
            raise UncorrectableReadError(block, page, self._read_ns)
        return self._read_ns

    def program_page(
        self, block: int, page: int, lpn: int = OOB_UNSTAMPED, seq: int = OOB_UNSTAMPED
    ) -> int:
        """Program one page; returns tPROG latency (no transfer).

        Enforces sequential programming and erase-before-write.  When
        ``seq`` is given, the page's OOB slot is stamped with
        ``(lpn, seq)`` -- but only on *success*: a status-failed program
        leaves the consumed page unstamped, so recovery sees it exactly
        like a power-cut torn page and discards it.
        """
        self._check_addr(block, page, "program")
        next_page = int(self.program_ptr[block])
        if page < next_page:
            raise EraseBeforeWriteError(block, page)
        if page > next_page:
            raise ProgramOrderError(block, page, next_page)
        # The page is consumed whether or not the program succeeds: a
        # status-failed page holds an undefined charge state and can
        # never be reprogrammed without an erase.
        next_page += 1
        self.program_ptr[block] = next_page
        self.block_states[block] = (
            STATE_FULL if next_page >= self._ppb else STATE_OPEN
        )
        if self.fault_injector is not None and self.fault_injector.program_fails(
            block, page, self.endurance.erase_count(block)
        ):
            raise ProgramFailError(block, page, self._program_ns)
        if seq != OOB_UNSTAMPED:
            ppn = block * self._ppb + page
            self.oob_lpn[ppn] = lpn
            self.oob_seq[ppn] = seq
        if self._reliability_clock is not None:
            self.last_program_ns[block] = self._reliability_clock()
        self.page_programs += 1
        return self._program_ns

    def erase_block(self, block: int) -> int:
        """Erase a block; returns tBERS latency.

        The block may wear out (becomes BAD) if the endurance limit is
        reached; callers should check :meth:`is_bad` before reusing it.
        """
        self._check_block(block, "erase")
        if self.fault_injector is not None and self.fault_injector.erase_fails(
            block, self.endurance.erase_count(block)
        ):
            # A failed erase still stresses the cells; the block keeps
            # its (stale) contents and frontier until retried or retired.
            self.endurance.record_erase(block)
            raise EraseFailError(block, self._erase_ns)
        self.block_erases += 1
        self.program_ptr[block] = 0
        start = block * self._ppb
        self.oob_lpn[start:start + self._ppb] = OOB_UNSTAMPED
        self.oob_seq[start:start + self._ppb] = OOB_UNSTAMPED
        if self.read_disturb is not None:
            self.read_disturb.reset(block)
        if self._reliability_clock is not None:
            # Erase re-bases the retention clock: whatever lands in the
            # block next starts its charge-leak life from now.
            self.last_program_ns[block] = self._reliability_clock()
        if self.endurance.record_erase(block):
            self.block_states[block] = STATE_BAD
            self._bad[block] = 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "nand",
                    "nand.wearout",
                    block=block,
                    erase_count=self.endurance.erase_count(block),
                )
        else:
            self.block_states[block] = STATE_ERASED
        return self._erase_ns

    def mark_bad(self, block: int) -> None:
        """Retire ``block`` as a grown bad block (program/erase failure).

        Idempotent; the FTL calls this after relocating any live data.
        """
        self.geometry.check_block(block)
        if self.block_states[block] != STATE_BAD:
            self.block_states[block] = STATE_BAD
            self._bad[block] = 1
            self.grown_bad_blocks += 1
            if self.tracer.enabled:
                self.tracer.emit("nand", "nand.mark_bad", block=block)

    def tear_frontier_page(self, block: int) -> Optional[int]:
        """Consume ``block``'s next frontier page without stamping its OOB.

        Models a program interrupted by sudden power loss: the cells were
        partially charged (the page can never be reprogrammed without an
        erase) but the atomic OOB stamp never landed, so the recovery
        scan detects the page as torn and discards it.  Returns the torn
        page index, or ``None`` when the block is bad or already full
        (nothing was in flight there).
        """
        if not 0 <= block < self._num_blocks or self._bad[block]:
            return None
        page = int(self.program_ptr[block])
        if page >= self._ppb:
            return None
        next_page = page + 1
        self.program_ptr[block] = next_page
        self.block_states[block] = (
            STATE_FULL if next_page >= self._ppb else STATE_OPEN
        )
        self.torn_pages += 1
        if self.tracer.enabled:
            self.tracer.emit("nand", "nand.torn_page", block=block, page=page)
        return page

    # ------------------------------------------------------------------
    # Durable-state capture / restore (power-loss emulation)
    # ------------------------------------------------------------------
    def capture_durable_state(self) -> NandDurableState:
        """Snapshot the media image that survives a power cut.

        Returns deep copies, so the snapshot stays valid while the live
        array keeps running (the crash-point sweep recovers a copy at
        each candidate point without disturbing the reference run).
        These copies are the only ones a power-cut cycle makes: powering
        on adopts them (:class:`NandDurableState`).
        """
        return NandDurableState(
            block_states=self.block_states.copy(),
            program_ptr=self.program_ptr.copy(),
            erase_counts=self.endurance.erase_counts.copy(),
            bad=bytes(self._bad),
            factory_bad=self._factory_bad.copy(),
            oob_lpn=self.oob_lpn.copy(),
            oob_seq=self.oob_seq.copy(),
            torn_pages=self.torn_pages,
            factory_bad_blocks=self.factory_bad_blocks,
            grown_bad_blocks=self.grown_bad_blocks,
            meta=self.meta.capture(),
            last_program_ns=self.last_program_ns.copy(),
        )

    # ------------------------------------------------------------------
    # Batched operations (GC migration fast path)
    # ------------------------------------------------------------------
    def read_pages_batch(self, block: int, count: int) -> int:
        """Read ``count`` pages of one block in bulk; returns total tR.

        Semantically identical to ``count`` successful :meth:`read_page`
        calls on in-range pages of ``block``: one address/state probe,
        counters and the read-disturb tracker bumped in bulk.  Only legal
        without a fault injector -- per-read fault-stream draws cannot be
        batched without reordering the RNG stream, so callers (the media's
        read-ahead of a relocated block) must read page by page when
        faults are enabled.
        """
        if count <= 0:
            return 0
        if self.fault_injector is not None:
            raise RuntimeError("read_pages_batch requires fault_injector=None")
        self._check_addr(block, 0, "read")
        self.page_reads += count
        if self.read_disturb is not None:
            self.read_disturb.record_reads(block, count)
        return self._read_ns * count

    def read_pages_scattered(self, blocks: List[int]) -> int:
        """Read one page in each of ``blocks`` (repeats allowed) in bulk;
        returns total tR.  Identical to one successful :meth:`read_page`
        per entry -- the block-bounds and bad-block probe stay per page --
        and, like :meth:`read_pages_batch`, only legal without a fault
        injector."""
        if self.fault_injector is not None:
            raise RuntimeError("read_pages_scattered requires fault_injector=None")
        counts = self.read_disturb.counts if self.read_disturb is not None else None
        num_blocks, bad = self._num_blocks, self._bad
        for block in blocks:
            if not 0 <= block < num_blocks or bad[block]:
                self._check_block(block, "read")  # raises the matching error
            if counts is not None:
                counts[block] += 1
        self.page_reads += len(blocks)
        return self._read_ns * len(blocks)

    def program_pages_batch(
        self,
        block: int,
        start_page: int,
        count: int,
        lpns: Optional[np.ndarray] = None,
        first_lpn: int = OOB_UNSTAMPED,
        first_seq: int = OOB_UNSTAMPED,
    ) -> int:
        """Program ``count`` pages starting at the block's write frontier.

        Semantically identical to sequential :meth:`program_page` calls
        for pages ``start_page .. start_page+count-1``; enforces the same
        ordering/erase-before-write/geometry rules with the same
        exception types.  Returns the total tPROG latency.

        OOB stamping mirrors the per-page path: with ``first_seq`` set,
        page ``i`` of the batch is stamped ``(lpn_i, first_seq + i)``
        where ``lpn_i`` comes from the ``lpns`` array (GC migration) or
        the contiguous ``first_lpn + i`` run (host extents).

        With a fault injector attached, the injector's program stream is
        pre-drawn for the whole batch
        (:meth:`~repro.faults.injector.FaultInjector.program_batch_clear`):
        a clean batch consumes exactly the draws the per-page loop would
        and proceeds; a dirty one raises :class:`BatchFaultPending` with
        the stream restored and **no state modified**, so the caller
        replays the chunk per-page and hits the identical fault.
        """
        if count <= 0:
            return 0
        self._check_addr(block, start_page, "program")
        next_page = self.program_ptr.item(block)
        if start_page < next_page:
            raise EraseBeforeWriteError(block, start_page)
        if start_page > next_page:
            raise ProgramOrderError(block, start_page, next_page)
        last_page = start_page + count - 1
        if last_page >= self._ppb:
            # The per-page loop would fault on the first out-of-range page.
            raise AddressError("page", self._ppb, self._ppb)
        if self.fault_injector is not None and not self.fault_injector.program_batch_clear(
            block, count, self.endurance.erase_count(block)
        ):
            raise BatchFaultPending(block, start_page, count)
        next_page += count
        self.program_ptr[block] = next_page
        self.block_states[block] = (
            STATE_FULL if next_page >= self._ppb else STATE_OPEN
        )
        if first_seq != OOB_UNSTAMPED:
            base = block * self._ppb + start_page
            self.oob_seq[base:base + count] = np.arange(
                first_seq, first_seq + count, dtype=np.int64
            )
            if lpns is not None:
                self.oob_lpn[base:base + count] = lpns
            else:
                self.oob_lpn[base:base + count] = np.arange(
                    first_lpn, first_lpn + count, dtype=np.int64
                )
        if self._reliability_clock is not None:
            self.last_program_ns[block] = self._reliability_clock()
        self.page_programs += count
        self.batch_programs += 1
        return self._program_ns * count

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def block_state(self, block: int) -> BlockState:
        self.geometry.check_block(block)
        return BlockState(int(self.block_states[block]))

    def is_bad(self, block: int) -> bool:
        if not 0 <= block < self._num_blocks:
            raise AddressError("block", block, self._num_blocks)
        return bool(self._bad[block])

    def next_programmable_page(self, block: int) -> int:
        """Write frontier of ``block`` (== pages_per_block when full)."""
        self.geometry.check_block(block)
        return int(self.program_ptr[block])

    def good_blocks(self) -> int:
        """Number of non-bad blocks in the array."""
        return int(np.count_nonzero(self.block_states != STATE_BAD))

    def wear_stats(self) -> WearStats:
        return self.endurance.stats()

    # ------------------------------------------------------------------
    # Address validation
    # ------------------------------------------------------------------
    def _check_addr(self, block: int, page: int, operation: str) -> None:
        """Bounds + bad-block validation via cached ints and one byte probe.

        Explicit ``< 0`` checks matter: Python/bytearray indexing would
        silently wrap negative addresses to the tail of the array.
        """
        if 0 <= block < self._num_blocks:
            if not 0 <= page < self._ppb:
                raise AddressError("page", page, self._ppb)
            if self._bad[block]:
                raise BadBlockError(block, operation)
            return
        raise AddressError("block", block, self._num_blocks)

    def _check_block(self, block: int, operation: str) -> None:
        """Block-only validation for whole-block ops (erase)."""
        if not 0 <= block < self._num_blocks:
            raise AddressError("block", block, self._num_blocks)
        if self._bad[block]:
            raise BadBlockError(block, operation)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NandArray blocks={self._num_blocks} "
            f"programs={self.page_programs} erases={self.block_erases}>"
        )
