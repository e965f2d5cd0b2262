"""Page-mapped FTL with foreground and background garbage collection.

:class:`PageMappedFtl` is the firmware model: it owns the logical→physical
mapping, the free-block pool, the write frontiers and the GC engine.  It
is deliberately synchronous -- every operation returns its NAND latency in
nanoseconds -- and the SSD *device* model (:mod:`repro.ssd.device`) turns
those latencies into simulated time, queueing and idleness.

Write datapath (out-place update)::

    host write LPN
      -> frontier page in the active user block (allocate a new free
         block when the frontier fills)
      -> remap LPN, invalidating the previous physical page
    if the free pool is at the watermark  ->  FOREGROUND GC (stall)

GC datapath::

    pick victim (pluggable selector; the paper's SIP filter plugs here),
    or take the forced one (wear levelling, refresh scrub)
      -> migrate valid pages to the GC frontier
      -> erase victim, return it to the wear-ordered free pool

The separation of user and GC write frontiers gives the natural hot/cold
separation real FTLs rely on: migrated (cold-ish) data does not share
blocks with fresh (hot) data.

Every write stream -- user, GC and any translation one -- is one
:class:`WriteFrontier`, and all of them go through the same four
routines: :meth:`PageMappedFtl._frontier_slot` (next page, rolling to a
fresh block), :meth:`PageMappedFtl._program` (bounded retry),
:meth:`PageMappedFtl._retire_failed_frontier` and
:meth:`PageMappedFtl._relocate_valid_pages` (the one move GC migration
and frontier retirement share: it evacuates the source and lands its
pages in frontier-sized runs on the data or the translation frontier).
Reads and erases go through :class:`~repro.ftl.media.Media`, the one
seam to the flash.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.ftl.checkpoint_policy import CheckpointPolicy, make_checkpoint_policy
from repro.ftl.mapping import UNMAPPED, PageMap, build_page_map
from repro.ftl.media import Media
from repro.ftl.metastore import KIND_UNMAP, build_checkpoint, build_tombstones
from repro.ftl.space import SipOverlapIndex, ValidCountIndex
from repro.ftl.stats import FtlStats
from repro.ftl.victim import GreedySelector, VictimSelector
from repro.ftl.wear import StaticWearLeveler, WearAwareAllocator
from repro.nand.array import NandArray
from repro.nand.errors import BatchFaultPending, ProgramFailError
from repro.nand.metaregion import MetaProgramOutcome
from repro.obs.audit import CheckpointRecord, DISABLED_AUDIT, VictimRecord
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ftl.recovery import RecoveredFtlState
    from repro.ssd.config import SsdConfig


class FtlError(RuntimeError):
    """Base class for FTL failures."""


class OutOfSpaceError(FtlError):
    """The FTL cannot find a victim with reclaimable garbage.

    Happens only when live data approaches the physical capacity; with
    standard OP ratios it indicates a misconfigured scenario.
    """


class DeviceReadOnlyError(FtlError):
    """The device has entered its terminal read-only state.

    Raised for writes once grown bad blocks have eaten the entire
    over-provisioning capacity (or the spare pool), the graceful end of
    life of a real SSD: reads still work, writes are refused.
    """


class WriteFrontier:
    """One write stream's open block -- where its next page is programmed.

    The FTL runs one per stream: ``user`` (host writes), ``gc`` (migrated
    data) and, over a flash-resident map, ``trans`` (translation pages).
    The streams differ only in what they carry; slotting, rolling,
    retrying and retiring are the FTL's, written once and handed the
    frontier.
    ``block`` is a plain attribute because the host write path reads it
    once per page.
    """

    __slots__ = ("name", "block")

    def __init__(self, name: str, block: int) -> None:
        self.name = name
        self.block = block


class PageMappedFtl:
    """Page-level FTL over a :class:`~repro.nand.array.NandArray`.

    Every device knob -- watermark, foreground-GC penalty, retry budgets,
    checkpoint interval/policy, unmap journaling, reliability profile,
    wear levelling -- is read from the validated
    :class:`~repro.ssd.config.SsdConfig`, which documents and
    range-checks each of them; the page map (and with it the translation
    tier) is the one :func:`~repro.ftl.mapping.build_page_map` builds
    from it.  The keyword arguments are collaborators only.

    Args:
        nand: the physical array (built over ``config.geometry``).
        config: the device configuration.
        clock: zero-arg callable returning the current simulated time in
            nanoseconds (block ages, retention, audit stamps); defaults
            to an operation counter when the FTL is used standalone.
        registry: shared metrics registry; a standalone FTL owns a
            private one.
        recovered: post-power-cut state to adopt instead of formatting a
            fresh device (:func:`repro.ftl.recovery.recover_ftl`, the
            analytic warm start).
    """

    def __init__(
        self,
        nand: NandArray,
        config: "SsdConfig",
        *,
        clock: Optional[Callable[[], int]] = None,
        registry: Optional[MetricsRegistry] = None,
        recovered: Optional["RecoveredFtlState"] = None,
    ) -> None:
        if config.geometry is not nand.geometry:
            raise ValueError("device config and NAND array use different geometries")
        self.nand = nand
        self.config = config
        self.space = space = config.space_model()
        self.geometry = nand.geometry
        #: GC victim policy: greedy until a policy installs its own
        #: (:class:`~repro.host.HostSystem` is the one install point;
        #: JIT-GC installs a :class:`~repro.ftl.victim.SipFilteredSelector`).
        self.victim_selector: VictimSelector = GreedySelector()
        self.fgc_watermark = config.fgc_watermark
        self.fgc_penalty = config.fgc_penalty
        self.wear_leveler = (
            StaticWearLeveler(nand.endurance, config.wear_level_threshold)
            if config.enable_wear_leveling
            else None
        )
        self.max_program_retries = config.max_program_retries
        self.stats = FtlStats()

        #: Runtime-retired blocks (grown bad + worn out); excluded from
        #: every allocation and victim-selection path.
        self.retired_blocks: Set[int] = set()
        #: Metrics registry -- the single source of truth for event-driven
        #: series like the degraded-OP timeline.  A host system shares one
        #: registry across components; a standalone FTL owns a private one.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._op_series = self.registry.series("ftl.effective_op_pages.events")
        #: Sim-time tracer and decision-audit log; no-op defaults are
        #: replaced by :meth:`repro.obs.Observability.install`.
        self.tracer = NULL_TRACER
        self.audit = DISABLED_AUDIT
        #: Terminal state: spare capacity exhausted, writes refused.
        self.read_only = False

        self._op_counter = 0
        # The media seam and the page map reach back into the FTL (the
        # op-counter clock, translation programs) through a weak reference:
        # a strong one would make a cycle, and a dropped FTL (every
        # crash-sweep recovery) would hold its device-sized arrays until
        # the next cyclic GC pass.
        owner = weakref.ref(self)
        if clock is None:

            def clock() -> int:
                return owner()._op_counter

        def program_translation(lpn: int) -> Tuple[int, int, int]:
            ftl = owner()
            return ftl._program(ftl.frontiers[2], lpn)

        #: The flash seam: reads, erases, their retries, the ECC ladder
        #: and fault notes.  Its clock is the FTL's too.
        self.media = Media(nand, config, self.stats, clock)
        #: The page map and translation tier.  A recovered one adopts the
        #: rebuilt L2P (and GTD): no blank table is filled first.
        l2p, gtd = (None, None) if recovered is None else (recovered.l2p, recovered.gtd)
        self.page_map: PageMap = build_page_map(
            config, space.user_pages, self.media, self.stats, program_translation, l2p, gtd
        )
        #: Monotonic write-sequence stamp in each programmed page's OOB
        #: (recovery's "newest copy wins" arbiter).  Only *successful*
        #: programs consume one, so every surviving stamp is unique and
        #: ``max + 1`` after a crash keeps it monotonic.  Tombstones burn
        #: stamps from it too: programs and unmaps share one total order.
        self._write_seq = 0

        #: Durable metadata (repro.ftl.metastore): a mapping checkpoint
        #: when the policy says so (no interval: never -- recovery
        #: rebuilds from an empty base).  The policy is stateful: one
        #: fresh instance per FTL.
        self.checkpoint_policy: Optional[CheckpointPolicy] = (
            make_checkpoint_policy(
                config.checkpoint_policy, config.checkpoint_interval_pages
            )
            if config.checkpoint_interval_pages is not None
            else None
        )
        #: Generation stamp of the last checkpoint written (monotonic
        #: across power cycles: recovery restores the max generation seen
        #: in the metadata log, torn records included).
        self._ckpt_generation = 0

        #: LPNs the host reported as soon-to-be-invalidated (paper's SIP list).
        self.sip_lpns: Set[int] = set()

        #: Hot-path indexes (PERFORMANCE.md): candidate blocks ordered by
        #: valid count, and per-block SIP-overlap counters.
        self.victim_index = ValidCountIndex()
        self.sip_index = SipOverlapIndex(self.geometry.total_blocks)
        self.page_map.set_valid_observer(
            self.victim_index.make_fused_observer(self.sip_index)
        )

        # Cached int for the per-write frontier/address math below.
        self._ppb = self.geometry.pages_per_block
        #: True for blocks that are in use and completely programmed.
        self._closed = np.zeros(self.geometry.total_blocks, dtype=bool)
        #: Erases since the last wear-levelling check.
        self._erases_since_wl_check = 0

        if recovered is not None:
            self._install_recovered(recovered)
            return

        good = [
            block
            for block in range(self.geometry.total_blocks)
            if not nand.is_bad(block)
        ]
        if len(good) < self.fgc_watermark + self.page_map.streams:
            raise FtlError("not enough good blocks to operate")
        self.allocator = WearAwareAllocator(nand.endurance, initial_free=good)
        self._open_frontiers()

    def _open_frontiers(self, resumed: Iterable[Optional[int]] = (None, None, None)) -> None:
        """Open the write streams in (user, GC, translation) order, each
        on its ``resumed`` block when recovery found one, else on a fresh
        block from the pool."""
        names = ("user", "gc", "trans")[: self.page_map.streams]
        #: Every open write stream.  A power cut tears the in-flight page
        #: of each (live SPO and the crash sweep both iterate this).
        self.frontiers: Tuple[WriteFrontier, ...] = tuple(
            WriteFrontier(name, block if block is not None else self._allocate_block())
            for name, block in zip(names, resumed)
        )
        self._user, self._gc = self.frontiers[:2]

    def _install_recovered(self, recovered: "RecoveredFtlState") -> None:
        """Adopt the post-power-cut state reconstructed by the recovery
        scan (:func:`repro.ftl.recovery.recover_ftl`) instead of
        formatting a fresh device.

        The page map already holds the recovered L2P and GTD (the
        constructor built it around them).  Volatile host-side state (SIP
        list, block close times, stats, the op-counter clock, the CMT) is
        deliberately *not* restored -- it lived in controller DRAM and
        died with the power rail.
        """
        self._write_seq = recovered.write_seq
        self._ckpt_generation = recovered.checkpoint_generation
        self.retired_blocks = set(recovered.retired_blocks)
        self.allocator = WearAwareAllocator(
            self.nand.endurance, initial_free=recovered.free_blocks
        )
        closed = np.asarray(recovered.closed_blocks, dtype=np.int64)
        self._closed[closed] = True
        self.victim_index.track_many(closed, self.page_map.valid_counts()[closed])
        self._open_frontiers(
            (
                recovered.active_user_block,
                recovered.active_gc_block,
                recovered.active_trans_block,
            )
        )
        if self.retired_blocks:
            # Re-seed the degraded-OP timeline so post-recovery metrics
            # start from the surviving capacity, not the nominal one.
            self.stats.blocks_retired = len(self.retired_blocks)
            self._op_series.append(self.media.clock(), self.effective_op_pages())
        if self._spare_exhausted() or self.nand.meta.exhausted:  # ring worn out
            self._enter_read_only()

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _allocate_block(self) -> int:
        block = self.allocator.allocate()
        if block is None:
            if self.retired_blocks:
                self._enter_read_only()
                raise DeviceReadOnlyError(
                    "free-block pool exhausted after "
                    f"{len(self.retired_blocks)} block retirements; device is read-only"
                )
            raise FtlError("free-block pool exhausted (GC failed to keep up)")
        return block

    @property
    def active_user_block(self) -> int:
        return self._user.block

    @property
    def active_gc_block(self) -> int:
        return self._gc.block

    @property
    def active_trans_block(self) -> Optional[int]:
        """Translation-block write frontier (None over an all-DRAM map)."""
        return self.frontiers[2].block if len(self.frontiers) > 2 else None

    # ------------------------------------------------------------------
    # Capacity queries (the paper's Cfree / Cused)
    # ------------------------------------------------------------------
    def free_pool_blocks(self) -> int:
        return len(self.allocator)

    def free_pages(self) -> int:
        """Pages writable without any GC: pool blocks + open frontiers.

        Reads ``program_ptr`` directly, as :meth:`_frontier_slot` does:
        the churn asks once per chunk."""
        ppb, ptr = self._ppb, self.nand.program_ptr
        free = len(self.allocator) * ppb
        for frontier in self.frontiers:
            free += ppb - ptr.item(frontier.block)
        return free

    def free_bytes(self) -> int:
        """The paper's ``Cfree`` in bytes."""
        return self.free_pages() * self.geometry.page_size

    def used_pages(self) -> int:
        """Live logical pages (the paper's ``Cused`` in pages)."""
        return self.page_map.mapped_count

    # ------------------------------------------------------------------
    # Degraded capacity (fault recovery)
    # ------------------------------------------------------------------
    def retired_pages(self) -> int:
        """Physical pages lost to runtime block retirement."""
        return len(self.retired_blocks) * self.geometry.pages_per_block

    def effective_op_pages(self) -> int:
        """``C_OP`` net of retired capacity -- shrinks as blocks die."""
        return self.space.effective_op_pages(self.retired_pages())

    @property
    def op_timeline(self) -> List[Tuple[int, int]]:
        """``(clock_ns, effective_op_pages)`` after each retirement.

        Derived from the ``ftl.effective_op_pages.events`` registry
        series -- the registry is the single source of truth; this
        property keeps the historical RunMetrics shape.
        """
        return [(int(t), int(v)) for t, v in self._op_series.points]

    def _enter_read_only(self) -> None:
        self.read_only = True
        if self.tracer.enabled:
            self.tracer.emit(
                "ftl",
                "ftl.read_only",
                retired_blocks=len(self.retired_blocks),
            )

    def _record_retirement(self, block: int) -> None:
        """Account one grown-bad/worn-out block and degrade capacity.

        Every retired block comes out of the effective over-provisioning
        (the host-visible capacity cannot shrink); once the OP is gone,
        or the spare pool can no longer sustain GC, the device goes
        read-only -- the graceful terminal state.
        """
        if block in self.retired_blocks:
            return
        self.retired_blocks.add(block)
        self._closed[block] = False
        self.victim_index.untrack(block)
        self.stats.blocks_retired += 1
        effective_op = self.effective_op_pages()
        self._op_series.append(self.media.clock(), effective_op)
        if self.tracer.enabled:
            self.tracer.emit(
                "ftl",
                "ftl.block_retired",
                block=block,
                effective_op_pages=effective_op,
            )
        if self._spare_exhausted():
            self._enter_read_only()

    def _spare_exhausted(self) -> bool:
        """No OP left, or too few good blocks for the streams + watermark."""
        min_good = self.fgc_watermark + len(self.frontiers)
        return self.effective_op_pages() <= 0 or self.nand.good_blocks() < min_good

    # ------------------------------------------------------------------
    # Write frontiers
    # ------------------------------------------------------------------
    def _frontier_slot(self, frontier: WriteFrontier) -> Tuple[int, int]:
        """``(block, page)`` of the stream's next page, rolling to a fresh
        free block when the current frontier is full.

        Reads the NAND's ``program_ptr`` vector directly: the active
        block is FTL-owned, so re-validating its address through
        :meth:`NandArray.next_programmable_page` per write is pure
        overhead."""
        block = frontier.block
        page = self.nand.program_ptr.item(block)
        if page >= self._ppb:
            self._close_block(block)
            block = frontier.block = self._allocate_block()
            page = 0
        return block, page

    def _close_block(self, block: int) -> None:
        self._closed[block] = True
        self.victim_index.track(block, self.page_map.valid_count(block))

    def _program(
        self, frontier: WriteFrontier, lpn: int, retire_on_fail: bool = True
    ) -> Tuple[int, int, int]:
        """Program ``lpn`` (either OOB namespace) on the stream's next
        page, recovering from injected program failures.

        On a status-fail the spoiled block is retired (its live pages
        relocated first) and the program is retried on a fresh frontier.
        While a retirement is itself relocating (``retire_on_fail``
        False) a nested failure only spoils its slot -- the page becomes
        garbage and the next slot is tried, without recursive
        retirement, so recovery terminates.  The successful program
        stamps ``(lpn, seq)`` into the page's OOB; failed attempts leave
        their consumed page unstamped (torn-like) and do not burn a
        sequence number.  Returns ``(block, page, latency_ns)`` of the
        successful program.
        """
        latency = 0
        for _ in range(self.max_program_retries + 1):
            block, page = self._frontier_slot(frontier)
            try:
                latency += self.nand.program_page(block, page, lpn, self._write_seq)
                self._write_seq += 1
                return block, page, latency
            except ProgramFailError as fault:
                latency += fault.latency_ns
                self.stats.program_faults += 1
                if retire_on_fail:
                    latency += self._retire_failed_frontier(frontier, block)
        raise FtlError(
            f"program retry budget ({self.max_program_retries}) exhausted "
            f"on the {frontier.name} frontier"
        )

    def _retire_failed_frontier(self, frontier: WriteFrontier, failed_block: int) -> int:
        """Retire the stream's active block after it failed a program.

        A fresh frontier replaces it first, then the failed block's live
        pages are rewritten onto that frontier (reads recover via
        read-retry; data pages lost anyway are unmapped and counted).
        Returns the NAND latency spent on the relocation.
        """
        frontier.block = self._allocate_block()
        latency, moved = self._relocate_valid_pages(
            failed_block, frontier, retire_on_fail=False
        )
        self.nand.mark_bad(failed_block)
        self._record_retirement(failed_block)
        self.media.note_fault("program", failed_block, -1, "block-retired")
        return latency + self.page_map.touch_lpns(moved)

    def _relocate_valid_pages(
        self, source: int, data_frontier: WriteFrontier, retire_on_fail: bool
    ) -> Tuple[int, np.ndarray]:
        """Move every valid page of ``source`` onto an open frontier: the
        one routine behind GC migration and frontier retirement.

        The source is evacuated once (:meth:`PageMap.evacuate_block`,
        leaving it as an erase needs it) and read ahead by
        :meth:`Media.read_block <repro.ftl.media.Media.read_block>`.  The
        pages land in frontier-sized runs (one
        :meth:`~repro.nand.array.NandArray.program_pages_batch` and one
        :meth:`PageMap.migrate_pages` each), rolling the frontier where a
        per-page loop would.  A page the read-ahead reports lost, and
        every page when the media cannot read ahead, takes a one-page
        step: its own read, then :meth:`_program` with its retry and
        retirement, or a lost page's unmap and tombstone.

        A block holds one page class; the page map says which.
        *Translation* pages go to the translation frontier, and a lost
        read still reprograms (the content is the authoritative map's).
        *Data* pages go to ``data_frontier``; a lost one is unmapped (a
        later host read errors rather than returning stale data) and
        tombstoned at its per-page place in the sequence order.

        Landing bypasses the validity observer: SIP overlap moves per
        run, and the source's index entry is left alone (the caller
        erases or retires it) unless an exception cuts the loop, which
        puts the pages that did not land back first.

        Returns the NAND latency and the data LPNs moved (or lost).  The
        caller touches those in the tier (:meth:`PageMap.touch_lpns`)
        after the loop: a writeback must not rewrite the directory while
        pages are in flight.
        """
        pm = self.page_map
        offsets, lpns = pm.evacuate_block(source)
        n = len(lpns)
        if n == 0:
            return 0, lpns
        trans = pm.translation_run(lpns)
        frontier = self.frontiers[2] if trans else data_frontier
        stats, sip, ppb = self.stats, self.sip_index, self._ppb
        read = self.media.read_block(source, offsets)
        if read is None:  # every page is a one-page step, read at its turn
            latency, lost = 0, range(n)
        else:
            latency, lost = read
            stats.gc_pages_read += n
            if trans:
                lost = []
        steps = iter(lost)
        step = next(steps, n)  # where the next one-page step is taken
        pos = 0
        try:
            while pos < n:
                if pos == step:
                    step = next(steps, n)
                    lpn = lpns.item(pos)
                    ok = False
                    if read is None:
                        read_ns, ok = self.media.read(source, offsets.item(pos))
                        latency += read_ns
                        stats.gc_pages_read += 1
                    if not (ok or trans):
                        pm.drop_evacuated(lpn)
                        sip.on_valid_delta(source, lpn, -1)
                        pos += 1
                        latency += self._journal_tombstones([lpn])
                        continue
                    block, start, program_ns = self._program(frontier, lpn, retire_on_fail)
                    k = 1
                    landed = lpns[pos:pos + 1]
                else:
                    block, start = self._frontier_slot(frontier)
                    k = min(step - pos, ppb - start)
                    landed = lpns if k == n else lpns[pos:pos + k]
                    program_ns = self.nand.program_pages_batch(
                        block, start, k, lpns=landed, first_seq=self._write_seq
                    )
                    self._write_seq += k
                latency += program_ns
                pm.migrate_pages(landed, block, start)
                pos += k
                if trans:
                    stats.trans_pages_migrated += k
                else:
                    stats.gc_pages_migrated += k
                    if sip.lpns:
                        sip.migrate(
                            source, block, len(sip.lpns.intersection(landed.tolist()))
                        )
        except BaseException:
            pm.reinstate_pages(lpns[pos:])
            self.victim_index.adjust_if_tracked(source, -pos)
            raise
        return latency, lpns[:0] if trans else lpns

    # ------------------------------------------------------------------
    # Host datapath
    # ------------------------------------------------------------------
    def host_write_page(self, lpn: int) -> int:
        """Write one logical page; returns total NAND latency (ns).

        Runs foreground GC first when the free pool is at the watermark;
        the returned latency then includes the full stall.

        Raises:
            IndexError: ``lpn`` is outside the logical space (nothing is
                touched).
            DeviceReadOnlyError: the device has exhausted its spare
                capacity (terminal fault-degradation state).
        """
        self.page_map.check_lpn(lpn)
        if self.read_only:
            raise DeviceReadOnlyError(
                "write rejected: device is read-only "
                f"({len(self.retired_blocks)} blocks retired)"
            )
        latency = 0
        if self.needs_foreground_gc():
            latency += self._run_foreground_gc()
        latency += self._program_user_page(lpn)
        if self.checkpoint_policy is not None:
            latency += self._maybe_checkpoint()
        latency += self.nand.timing.transfer_ns_per_page
        return latency

    def host_write_extent(self, lpn: int, count: int) -> int:
        """Batched :meth:`host_write_page` over a contiguous LPN extent.

        Bit-identical to ``sum(host_write_page(lpn + i) for i in
        range(count))``: foreground-GC watermark checks, frontier rolls,
        and the op-counter clock happen at exactly the per-page loop's
        logical points.  The extent is consumed in frontier-sized chunks;
        a chunk that rolls the frontier is one page long so the watermark
        is re-checked before the next page, just as the per-page loop
        re-checks it.  Index deltas are applied in aggregate (the
        per-page observer is bypassed): intermediate heap entries the
        per-page path would push are dead on arrival — only the final
        ``(count, generation)`` pair is live — so victim selection is
        unchanged.  Under fault injection the NAND pre-draws the
        injector's program stream per chunk and raises
        :class:`~repro.nand.errors.BatchFaultPending` (stream restored)
        when a fault lies inside, so only the chunks that actually fault
        take the per-page helper.

        The translation tier is touched once per chunk, after its
        programs, where the loop touches it after each page.  The two
        agree unless a touch reads or writes back a translation page (a
        flash-resident map outside a block-aligned sequential fill): that
        NAND operation then moves from inside the chunk to after it.

        An extent outside the logical space, or a negative count, is
        rejected before anything is touched.
        """
        nand = self.nand
        page_map = self.page_map
        page_map.check_extent(lpn, count)
        vindex = self.victim_index
        sip = self.sip_index
        ppb = self._ppb
        latency = 0
        pos = 0
        while pos < count:
            # Checked per iteration, not just at entry: a mid-extent
            # block retirement can flip the flag, and the per-page loop
            # would reject the very next page.
            if self.read_only:
                raise DeviceReadOnlyError(
                    "write rejected: device is read-only "
                    f"({len(self.retired_blocks)} blocks retired)"
                )
            if self.needs_foreground_gc():
                latency += self._run_foreground_gc()
            block = self._user.block
            start = nand.program_ptr.item(block)
            if start >= ppb:
                # Frontier roll: take the per-page helper for exactly one
                # page -- it replicates the per-page order (clock tick,
                # close, allocate, program) and the GC watermark is
                # re-checked before the page after it.
                latency += self._program_user_page(lpn + pos)
                pos += 1
                continue
            chunk = min(count - pos, ppb - start)
            first = lpn + pos
            # Ticked first: the program stamps the clock as the loop's
            # last page does.
            self._op_counter += chunk
            try:
                program_ns = nand.program_pages_batch(
                    block, start, chunk, first_lpn=first, first_seq=self._write_seq
                )
            except BatchFaultPending:
                self._op_counter -= chunk
                # An injected program fault lies somewhere in this chunk
                # (no NAND state was touched; the injector's stream is
                # restored).  Fall back exactly one page through the
                # per-page helper: it replays the same draw, and when it
                # is the failing one, runs the full retirement/retry
                # recovery -- so a faulted run stays bit-identical to the
                # per-page loop while clean chunks keep batching.
                latency += self._program_user_page(lpn + pos)
                pos += 1
                continue
            self._write_seq += chunk
            latency += program_ns
            old_ppns, old_runs = page_map.remap_extent(
                first, chunk, block * ppb + start
            )
            # One adjustment per run of old pages in one block: the
            # intermediate heap entries the per-page observer would push
            # are dead on arrival, so aggregation is selection-equivalent.
            vindex.invalidate_runs(old_runs)
            if sip.lpns:
                sip_set = sip.lpns
                hits = [i for i in range(chunk) if (first + i) in sip_set]
                if hits:
                    hit_old = [
                        old_ppns[i] // ppb
                        for i in hits
                        if old_ppns[i] != UNMAPPED
                    ]
                    sip.remap_batch(block, len(hits), hit_old)
            self.stats.host_pages_written += chunk
            latency += page_map.touch_span(first, chunk, True)
            pos += chunk
        if self.checkpoint_policy is not None:
            # Once per extent, not per chunk: the checkpoint horizon may
            # land a few pages later than the per-page plane's would, but
            # the request's total latency is identical and recovery only
            # needs *a* recent horizon, not a page-exact one.
            latency += self._maybe_checkpoint()
        return latency + count * self.nand.timing.transfer_ns_per_page

    # Shorter churn chunks go page by page.  A batch's fixed cost (the
    # fault pre-draw, two np.unique calls in the remap, the index call)
    # is about six per-page writes, so it pays from about 8 pages
    # (PERFORMANCE.md "Batching the preconditioning churn"); the dftl
    # churn's chunks, ended by CMT misses, are mostly 2-3 pages.
    _CHURN_BATCH_MIN = 8

    def host_write_pages(self, lpns: np.ndarray, keep_free: int) -> int:
        """Batched :meth:`host_write_page` over scattered ``lpns`` until
        :meth:`free_pages` is down to ``keep_free``; returns how many of
        ``lpns`` it wrote.  The preconditioning churn's one routine.

        Leaves the device exactly as the loop ``for lpn in lpns: if
        free_pages() <= keep_free: break; host_write_page(lpn)`` does.
        Each chunk lands on the user frontier as one program batch and one
        :meth:`PageMap.remap_pages`, and the victim index takes the old
        copies' runs in one call (the dead-entry argument of
        :meth:`host_write_extent`).  A chunk ends wherever the loop could
        decide something differently (DESIGN.md section 7): at the
        frontier's end, at the ``keep_free`` floor, where the checkpoint
        policy may next fire, and after the first LPN whose translation
        tier may touch NAND.  A chunk shorter than ``_CHURN_BATCH_MIN``
        -- a frontier roll, a faulted batch, a non-empty SIP list, the
        adaptive policy, most dftl chunks -- goes one page at a time
        through the per-page helper.

        An LPN outside the logical space is rejected before anything is
        touched.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        pm, nand, ppb = self.page_map, self.nand, self._ppb
        if len(lpns):
            pm.check_lpn(int(lpns.min()))
            pm.check_lpn(int(lpns.max()))
        policy, least = self.checkpoint_policy, self._CHURN_BATCH_MIN
        pos = 0
        while pos < len(lpns):
            free = self.free_pages()
            if free <= keep_free:
                break
            if self.read_only:
                raise DeviceReadOnlyError(
                    "write rejected: device is read-only "
                    f"({len(self.retired_blocks)} blocks retired)"
                )
            if self.needs_foreground_gc():
                self._run_foreground_gc()
                free = self.free_pages()
            block = self._user.block
            start = nand.program_ptr.item(block)
            # Until the floor, each page of a chunk takes one free page.
            count = min(len(lpns) - pos, ppb - start, free - keep_free)
            if self.sip_index.lpns:
                count = 1
            if count >= least:
                count = pm.cached_prefix(lpns[pos:pos + count])
            if count >= least and policy is not None:
                count = min(count, policy.pages_until_due(self))
            if count >= least:
                run = lpns[pos:pos + count]
                # Ticked first: the program stamps the clock as the
                # loop's last page does.
                self._op_counter += count
                try:
                    nand.program_pages_batch(
                        block, start, count, lpns=run, first_seq=self._write_seq
                    )
                except BatchFaultPending:
                    self._op_counter -= count
                    count = 1  # the per-page helper replays the same draws
                else:
                    self._write_seq += count
                    self.victim_index.invalidate_runs(
                        pm.remap_pages(run, block * ppb + start)
                    )
                    self.stats.host_pages_written += count
                    pm.touch_each(run)
            if count < least:
                count = 1
                self._program_user_page(lpns.item(pos))
            if policy is not None:
                self._maybe_checkpoint()
            pos += count
        return pos

    def host_read_page(self, lpn: int) -> int:
        """Read one logical page: :meth:`host_read_extent` of length one."""
        return self.host_read_extent(lpn, 1)

    def host_read_extent(self, lpn: int, count: int) -> int:
        """Read ``count`` logical pages from ``lpn``; returns NAND latency (ns).

        Reads of never-written pages return zeroes at transfer cost only
        (no flash access), like a real drive.  The extent goes in the
        translation tier's read groups, each touched in the tier
        (:meth:`PageMap.touch_group`), then read through one
        :meth:`Media.read_extent <repro.ftl.media.Media.read_extent>` call.
        """
        pm, end = self.page_map, lpn + count
        pm.check_extent(lpn, count)  # before anything is touched
        l2p = pm._l2p  # checked above: each group slices it directly
        latency = 0
        while lpn < end:
            stop, touch_ns = pm.touch_group(lpn, end)
            latency += touch_ns + self.media.read_extent(l2p[lpn:stop].tolist())
            lpn = stop
        self.stats.host_pages_read += count
        return latency + count * self.nand.timing.transfer_ns_per_page

    def trim(self, lpns: Iterable[int]) -> int:
        """TRIM logical pages; returns the journaling latency (ns).

        TRIM creates garbage without writes -- file deletion in the
        Postmark/Filebench workloads reaches the FTL through here.  Each
        freed LPN is tombstoned in the durable unmap journal so the
        discard survives power loss; the returned latency is the
        tombstone record's metadata-page program time (zero when nothing
        was mapped).  A command naming an LPN outside the logical space
        changes nothing.  The mapping changes only once the tombstone
        record has landed in full, so the live map never drops an entry
        that recovery would bring back.

        Raises:
            DeviceReadOnlyError: the metadata blocks are worn out, so the
                unmap could not be journaled -- before the append (nothing
                is touched) or during it (the record tore; the mapping is
                untouched).
        """
        if self.nand.meta.exhausted:
            raise DeviceReadOnlyError(
                "TRIM rejected: the metadata blocks are worn out, "
                "so the unmap cannot be journaled"
            )
        pm = self.page_map
        freed = pm.mapped_lpns(lpns)
        latency = self._journal_tombstones(freed)
        # The ring runs out only inside an append whose pages it could
        # not all land: exhausted now means this record tore.
        if self.nand.meta.exhausted:
            raise DeviceReadOnlyError(
                "TRIM rejected: the metadata blocks wore out under its "
                "unmap record, which tore"
            )
        for lpn in freed:
            pm.unmap(lpn)
        self.stats.pages_trimmed += len(freed)
        latency += pm.touch_lpns(freed)
        if self.tracer.enabled and freed:
            self.tracer.emit(
                "ftl", "ftl.trim", pages=len(freed), journal_ns=latency
            )
        return latency

    # ------------------------------------------------------------------
    # Durable metadata (checkpoints + unmap journal)
    # ------------------------------------------------------------------
    def _note_meta(self, outcome: MetaProgramOutcome) -> int:
        """Account one metadata append; returns its NAND latency (ns).

        The log has already programmed the record through its reserved
        blocks (:meth:`MetaLog.append <repro.ftl.metastore.MetaLog.append>`)
        and torn it if they ran out; this adds the counts to the stats
        and -- when every reserved block is retired -- drives the device
        read-only: a controller that cannot persist its mapping must stop
        accepting writes.
        """
        stats = self.stats
        stats.meta_pages_written += outcome.pages_programmed
        stats.meta_block_erases += outcome.erases
        stats.meta_program_faults += outcome.program_faults
        stats.meta_erase_faults += outcome.erase_faults
        stats.meta_blocks_retired += outcome.blocks_retired
        if self.tracer.enabled and (
            outcome.program_faults or outcome.erase_faults or outcome.blocks_retired
        ):
            self.tracer.emit(
                "ftl",
                "ftl.meta_fault",
                program_faults=outcome.program_faults,
                erase_faults=outcome.erase_faults,
                blocks_retired=outcome.blocks_retired,
                live_blocks=self.nand.meta.ring.live_blocks(),
            )
        if outcome.exhausted and not self.read_only:
            self._enter_read_only()
        return outcome.latency_ns

    def _journal_tombstones(self, lpns: List[int]) -> int:
        """Durably journal unmap tombstones for ``lpns``; returns the
        metadata program latency (ns).

        Each tombstone burns one stamp from the shared write-sequence
        counter, so it outranks every surviving pre-trim copy of its LPN
        and is itself outranked by any later re-write -- exactly the
        newest-stamp-wins order the recovery merge replays.
        """
        if not lpns:
            return 0
        first = self._write_seq
        self._write_seq += len(lpns)
        payload = build_tombstones(lpns, range(first, first + len(lpns)))
        self.stats.tombstones_journaled += len(lpns)
        return self._note_meta(self.nand.meta.append(KIND_UNMAP, payload))

    def _maybe_checkpoint(self) -> int:
        """Write a mapping checkpoint when the policy says so."""
        policy = self.checkpoint_policy
        if policy is None or not policy.should_checkpoint(self):
            return 0
        return self.write_checkpoint(trigger=policy.trigger)

    def write_checkpoint(self, trigger: str = "manual") -> int:
        """Snapshot the mapping to the NAND metadata region.

        The record carries the full L2P table and the translation tier's
        directory (the GTD of a flash-resident map), the write-sequence
        *horizon* (every stamp and tombstone at or past it postdates this
        snapshot) and the per-block program pointers / erase counts that
        bound the recovery tail scan.  Older checkpoint generations and
        folded-in tombstones are compacted away, keeping the metadata
        region small.  Returns the metadata program latency (ns).
        """
        self._ckpt_generation += 1
        generation = self._ckpt_generation
        payload = build_checkpoint(
            generation,
            self._write_seq,
            self.page_map.l2p_view(),
            self.nand.program_ptr,
            self.nand.endurance.erase_counts,
            self._ppb,
            gtd=self.page_map.directory(),
        )
        outcome = self.nand.meta.append_checkpoint(payload, generation)
        if self.checkpoint_policy is not None:
            self.checkpoint_policy.note_checkpoint(self)
        self.page_map.checkpointed()
        self.stats.checkpoints_written += 1
        latency = self._note_meta(outcome)
        if self.audit.enabled:
            self.audit.record(
                CheckpointRecord(
                    t_ns=self.media.clock(),
                    generation=generation,
                    meta_pages=outcome.record.pages,
                    horizon_seq=self._write_seq,
                    trigger=trigger,
                )
            )
        return latency

    def _program_user_page(self, lpn: int) -> int:
        self._op_counter += 1
        block, page, latency = self._program(self._user, lpn)
        pm = self.page_map
        pm.remap(lpn, block * self._ppb + page)
        self.stats.host_pages_written += 1
        return latency + pm.touch_span(lpn, 1, True)

    # ------------------------------------------------------------------
    # Translation tier
    # ------------------------------------------------------------------
    def translation_write_overhead(self) -> float:
        """Translation pages programmed per host page written.

        The JIT-GC demand predictor scales its Dbuf estimate by
        ``1 + overhead`` so collections provision for the mapping
        writeback traffic the buffered writes will induce.  Always 0.0
        over an all-DRAM map, whose tier programs nothing.
        """
        if self.stats.host_pages_written == 0:
            return 0.0
        trans = self.stats.trans_pages_written + self.stats.trans_pages_migrated
        return trans / self.stats.host_pages_written

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def needs_foreground_gc(self) -> bool:
        """True when a host write must stall for GC first."""
        return len(self.allocator) <= self.fgc_watermark

    def gc_candidates(self) -> np.ndarray:
        """Closed in-use blocks eligible as GC victims."""
        return np.flatnonzero(self._closed)

    def has_victim(self) -> bool:
        """True if some candidate holds reclaimable garbage.

        O(1) amortized: the global minimum decides -- some block has
        garbage iff the fewest-valid block has garbage.
        """
        top = self.victim_index.peek_min()
        return top is not None and top[0] < self.geometry.pages_per_block

    def collect_one_block(
        self, background: bool, forced_victim: Optional[int] = None
    ) -> int:
        """Collect a single victim block; returns the NAND latency (ns).

        The one collection routine: foreground GC, background GC, wear
        levelling and refresh scrub are its four callers.

        Args:
            background: attribute the work to BGC (idle-time) rather than
                FGC (write-stall) counters.
            forced_victim: bypass the selector (wear levelling, refresh
                scrub).  A forced victim is relocated whatever its valid
                count -- the point is moving its data (wear spread, a
                re-based retention clock), not freeing space.

        Raises:
            OutOfSpaceError: the selected victim holds no garbage, or no
                candidate exists -- the device is full of live data.
        """
        victim = forced_victim
        if victim is None:
            decision = self.victim_selector.select(
                self.page_map,
                self.victim_index,
                self.sip_index,
                sip_lpns=self.sip_lpns,
                excluded_blocks=self.retired_blocks,
            )
            victim = decision.block
            if victim is None:
                raise OutOfSpaceError("no GC victim available")
            self.stats.victim_selections += 1
            if decision.filtered_by_sip > 0:
                self.stats.victims_filtered_by_sip += 1
            if self.audit.enabled:
                self.audit.record(
                    VictimRecord(
                        t_ns=self.media.clock(),
                        block=victim,
                        valid_pages=decision.valid_pages,
                        score=decision.score,
                        candidates_considered=decision.candidates_considered,
                        filtered_by_sip=decision.filtered_by_sip,
                        background=background,
                    )
                )
            if decision.valid_pages >= self._ppb:
                raise OutOfSpaceError(
                    f"best victim {victim} has no invalid pages; device is full of live data"
                )

        latency = self._migrate_and_erase(victim)
        if background:
            self.stats.bgc_blocks_collected += 1
            self.stats.bgc_time_ns += latency
        else:
            self.stats.fgc_blocks_collected += 1
            self.stats.fgc_time_ns += latency
        self._erases_since_wl_check += 1
        return latency

    def _migrate_and_erase(self, victim: int) -> int:
        latency, moved = self._relocate_valid_pages(victim, self._gc, retire_on_fail=True)
        latency += self.page_map.touch_lpns(moved)
        erase_ns, erased = self.media.erase(victim)
        latency += erase_ns
        self._closed[victim] = False
        self.victim_index.untrack(victim)
        if not erased:
            # Grown bad block: every erase attempt failed.
            self.nand.mark_bad(victim)
            self._record_retirement(victim)
            return latency
        self.stats.blocks_erased += 1
        if self.nand.is_bad(victim):
            # The erase itself pushed the block past its P/E rating.
            self._record_retirement(victim)
        else:
            self.allocator.release(victim)
        return latency

    def _run_foreground_gc(self) -> int:
        """Collect until the pool is safely above the watermark."""
        self.stats.fgc_invocations += 1
        latency = 0
        while len(self.allocator) <= self.fgc_watermark:
            if (
                not self.retired_blocks
                and len(self.allocator) > 0
                and not self.has_victim()
            ):
                # Every closed block is momentarily all-valid (tiny
                # devices near 100% utilization can pack live data this
                # tightly), but frontier space remains and the write
                # being stalled will invalidate its own stale copy.
                # Proceed instead of declaring the device full -- only
                # an empty pool (or spare capacity lost to retirements,
                # handled below) is genuinely out of space.
                break
            try:
                latency += self.collect_one_block(background=False)
            except OutOfSpaceError:
                if self.retired_blocks:
                    # Not a misconfigured scenario: retirements consumed
                    # the spare capacity.  Degrade gracefully.
                    self._enter_read_only()
                    raise DeviceReadOnlyError(
                        "foreground GC found no reclaimable victim after "
                        f"{len(self.retired_blocks)} block retirements"
                    ) from None
                raise
        penalised = int(latency * self.fgc_penalty)
        self.stats.fgc_time_ns += penalised - latency
        return penalised

    # ------------------------------------------------------------------
    # Wear levelling
    # ------------------------------------------------------------------
    def maybe_wear_level(self, check_interval_erases: int = 256) -> int:
        """Run one static wear-levelling migration if the spread warrants.

        Called opportunistically by the device during idle periods.
        Returns the NAND latency spent (0 if nothing was done).
        """
        if self.wear_leveler is None:
            return 0
        if self._erases_since_wl_check < check_interval_erases:
            return 0
        self._erases_since_wl_check = 0
        in_use = self.gc_candidates()
        if not self.wear_leveler.needs_levelling(in_use):
            return 0
        cold = self.wear_leveler.pick_cold_block(in_use)
        if cold is None:
            return 0
        latency = self.collect_one_block(background=True, forced_victim=cold)
        self.stats.wl_blocks_collected += 1
        return latency

    def maybe_scrub(self) -> int:
        """Refresh one at-risk block if the scrubber nominates a victim.

        Called opportunistically by the device during idle windows (same
        seam as BGC/wear-levelling).  The relocation goes through
        :meth:`collect_one_block`, so its migrations and erase are
        charged into WAF, wear, and the GC counters like any background
        collection.  Returns the NAND latency spent (0 if nothing was
        done).
        """
        scrubber = self.media.scrubber
        if scrubber is None or self.read_only:
            return 0
        if self.free_pool_blocks() <= self.fgc_watermark:
            # No headroom: a fully-valid refresh victim frees nothing
            # until its erase completes, so never scrub into the
            # foreground-GC watermark.
            return 0
        victim = scrubber.next_victim(self, self.media.clock())
        if victim is None:
            return 0
        pages_before = self.stats.gc_pages_migrated
        latency = self.collect_one_block(background=True, forced_victim=victim)
        self.stats.scrub_blocks_refreshed += 1
        self.stats.scrub_pages_migrated += (
            self.stats.gc_pages_migrated - pages_before
        )
        return latency

    def scrub_write_overhead(self) -> float:
        """Scrub-migrated pages per host page written.

        The JIT-GC demand predictor scales its Dbuf estimate by
        ``1 + overhead`` (alongside the translation-writeback term) so
        collections provision for refresh traffic too.  Always 0.0 with
        the scrubber off.
        """
        if self.media.scrubber is None or self.stats.host_pages_written == 0:
            return 0.0
        return self.stats.scrub_pages_migrated / self.stats.host_pages_written

    # ------------------------------------------------------------------
    # Host-interface extensions (paper Sec 3.1)
    # ------------------------------------------------------------------
    def set_sip_list(self, lpns: Iterable[int]) -> None:
        """Install the soon-to-be-invalidated page list from the host.

        The per-block overlap counters are updated from the *delta*
        against the previous list (plus per-page validity events), so the
        SIP-filtered selector never recounts a candidate block's pages.
        """
        self.sip_lpns = self.sip_index.replace(lpns, self.page_map)

    def invariant_check(self) -> None:
        """Cross-structure consistency check used by tests."""
        self.page_map.invariant_check()
        valid_counts = self.page_map.valid_counts()
        closed = np.flatnonzero(self._closed)
        if not self.victim_index.tracks_exactly(closed, valid_counts[closed]):
            raise AssertionError(
                "valid-count index disagrees with the closed-block scan"
            )
        recounted = np.zeros(self.geometry.total_blocks, dtype=np.int32)
        if self.sip_lpns:
            # Batched recount: one fancy-indexed lookup over the SIP set
            # instead of a per-LPN Python loop.
            np.add.at(recounted, self.page_map.mapped_blocks(self.sip_lpns), 1)
        if not np.array_equal(self.sip_index.snapshot(), recounted):
            raise AssertionError("SIP-overlap counters disagree with a full recount")
        in_pool = np.zeros(self.geometry.total_blocks, dtype=bool)
        in_pool[list(self.allocator)] = True
        in_use = self._closed.copy()
        in_use[[frontier.block for frontier in self.frontiers]] = True
        in_use &= in_pool
        offending = in_use | (in_pool & (valid_counts != 0))
        if offending.any():
            block = int(np.argmax(offending))  # the lowest, as a scan finds it
            if in_use[block]:
                raise AssertionError(f"block {block} both free and in use")
            raise AssertionError(f"free block {block} holds valid pages")
        for block in self.retired_blocks:
            if not self.nand.is_bad(block):
                raise AssertionError(f"retired block {block} not marked bad")
            if block in self.allocator or self._closed[block]:
                raise AssertionError(f"retired block {block} still in service")
            if self.page_map.valid_count(block) != 0:
                raise AssertionError(f"retired block {block} holds valid pages")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PageMappedFtl free={self.free_pool_blocks()}blk "
            f"used={self.used_pages()}p waf={self.stats.waf():.3f}>"
        )
