"""The timed SSD device: queueing, service and idle-time background GC.

:class:`SsdDevice` serializes host requests through a FIFO queue, charges
each one the NAND latency the FTL reports (scaled by the configured
channel parallelism) and -- whenever the queue drains -- consults a
pluggable :class:`ReclaimController` to decide whether to spend the idle
time collecting blocks in the background.  All GC-policy differences in
this reproduction live in the controller (see :mod:`repro.core.policies`);
the device mechanics are identical across policies, exactly as on the real
SM843T where the firmware is fixed and the host drives BGC through the
extended interface.

Background GC runs one victim block at a time, so an arriving host request
waits at most one block-collection before being served -- the standard
preemption granularity of real drives.  Refresh scrub and wear levelling
take the idle windows reclaim declines, one block at a time through the
same launcher and completion; when any idle-work block ends, the device
serves its queue if a request arrived, and otherwise chains the next
block at once (the idle period is already confirmed).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, NamedTuple, Optional

from repro.obs.audit import DISABLED_AUDIT, FGC_STALL, SCRUB_BLOCK, GcSpanRecord
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_DEVICE, PRIORITY_LOW
from repro.sim.simtime import MICROSECOND
from repro.ssd.bandwidth import BandwidthEstimator
from repro.ssd.config import SsdConfig
from repro.ssd.request import DIRECT_WRITE, READ, TRIM, WRITEBACK, IoRequest


class IdleWork(NamedTuple):
    """What differs between the kinds of idle-time work the device runs."""

    #: Completion event name.
    event: str
    #: :attr:`GcSpanRecord.event` of the block's occupancy span.
    span: str


BGC_WORK = IdleWork("ssd.bgc_done", "bgc.block")
SCRUB_WORK = IdleWork("ssd.scrub_done", SCRUB_BLOCK)
WEAR_LEVEL_WORK = IdleWork("ssd.wl_done", "wear_level.block")


class ReclaimController:
    """Decides how much space BGC should reclaim right now.

    The device calls :meth:`reclaim_demand_pages` whenever it goes idle
    (and again after each collected block).  Returning 0 means "stay
    idle".  Subclasses implement the paper's policies.
    """

    def reclaim_demand_pages(self, device: "SsdDevice") -> int:
        """Pages of free space the controller still wants reclaimed."""
        return 0

    def on_block_collected(self, device: "SsdDevice", freed_pages: int) -> None:
        """Notification after each BGC block (freed_pages = net gain)."""


class SsdDevice:
    """A simulated SSD with the paper's BGC hooks.

    Args:
        sim: shared simulator.
        config: device configuration.
        controller: background-reclaim controller (may be set later via
            :attr:`controller`).
        seed: scenario seed forwarded to the FTL build (drives the fault
            injector when the config carries a fault profile).
        registry: shared metrics registry handed down to the FTL (the
            host system passes its Observability registry here so the
            whole stack reports into one instrument namespace).
        ftl: pre-built FTL to adopt instead of building a fresh one --
            the power-loss path hands a *recovered* FTL here so the new
            device serves the surviving state.  The caller must have
            built it against the same config (and with a sim-now clock).
    """

    #: Fixed service latency of a TRIM command.
    TRIM_LATENCY_NS = 20 * MICROSECOND

    def __init__(
        self,
        sim: Simulator,
        config: SsdConfig,
        controller: Optional[ReclaimController] = None,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        ftl=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.ftl = ftl if ftl is not None else config.build_ftl(
            clock=lambda: sim.now,
            seed=seed,
            registry=registry,
        )
        self.controller = controller
        self.parallelism = max(1, config.channel_parallelism)
        #: Decision audit; replaced by Observability.install when auditing.
        #: The device records GC occupancy spans (FGC stalls, BGC blocks,
        #: wear-level moves) for tail-latency attribution.
        self.audit = DISABLED_AUDIT

        #: FIFO of submitted requests not yet in service.  Never rebound:
        #: workloads keep the deque and sample ``len()`` per operation
        #: (:attr:`queue_depth` is the same number).
        self.queue: Deque[IoRequest] = deque()
        self._busy = False
        #: Invalidates pending idle checks whenever host activity occurs.
        self._idle_token = 0

        timing = config.timing
        page = config.geometry.page_size
        write_prior = page * self.parallelism * 1e9 / timing.host_program_ns()
        gc_prior = page * self.parallelism * 1e9 / timing.migrate_page_ns()
        #: Online estimate of host-write bandwidth (the manager's ``Bw``).
        self.write_bandwidth = BandwidthEstimator(write_prior)
        #: Online estimate of GC reclaim bandwidth (the manager's ``Bgc``).
        self.gc_bandwidth = BandwidthEstimator(gc_prior)

        #: Completion listeners (metrics collectors subscribe here).
        self.completion_listeners: List[Callable[[IoRequest], None]] = []

        # Busy-time accounting.
        self.busy_ns = 0
        self.write_busy_ns = 0
        self.read_busy_ns = 0
        self.bgc_busy_ns = 0
        self.requests_completed = 0

    # ------------------------------------------------------------------
    # Host-facing API
    # ------------------------------------------------------------------
    def submit(self, request: IoRequest) -> None:
        """Queue a request; service starts immediately if the device is idle.

        A request arriving during a BGC block waits for that block to
        finish (BGC is preemptible at block granularity only).
        """
        request.submit_time = self.sim.now
        self._idle_token += 1
        self.queue.append(request)
        if not self._busy:
            self._start_next()

    @property
    def idle(self) -> bool:
        """True when neither host service nor BGC occupies the device."""
        return not self._busy and not self.queue

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def free_bytes(self) -> int:
        """The paper's ``Cfree``."""
        return self.ftl.free_bytes()

    def free_pages(self) -> int:
        return self.ftl.free_pages()

    def kick_bgc(self) -> None:
        """Prod the device to (re)consult its reclaim controller.

        Policies call this from their periodic tick after raising demand.
        """
        if not self._busy:
            self._maybe_bgc()

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if self._busy:
            return
        if not self.queue:
            self._schedule_idle_check()
            return
        request = self.queue.popleft()
        request.start_time = self.sim.now
        raw_latency, fgc_ns = self._execute(request)
        # Channel striping: the FTL reports serial per-page latencies; up
        # to ``parallelism`` pages of a request (and all of the GC work
        # inside it) overlap across channels.
        factor = self.parallelism
        if fgc_ns == 0 and request.page_count < factor:
            factor = request.page_count
        latency = max(1, raw_latency // factor)
        self._busy = True
        self.sim.schedule(
            latency,
            lambda: self._complete(request, latency, fgc_ns),
            priority=PRIORITY_DEVICE,
            name="ssd.complete",
        )

    def _execute(self, request: IoRequest) -> tuple:
        """Run the FTL state changes; returns (raw latency, FGC portion)."""
        ftl = self.ftl
        fgc_before = ftl.stats.fgc_time_ns
        kind = request.kind
        lpn = request.lpn
        pages = request.page_count
        if kind is READ:
            latency = ftl.host_read_extent(lpn, pages)
        elif kind is DIRECT_WRITE or kind is WRITEBACK:
            if pages > 1:
                latency = ftl.host_write_extent(lpn, pages)
            else:
                latency = 0
                for page in range(lpn, lpn + pages):
                    latency += ftl.host_write_page(page)
        elif kind is TRIM:
            # The FTL returns the unmap journal's metadata program time:
            # a durable TRIM is acknowledged only once its tombstones are
            # on NAND, so the journaling cost is part of the service.
            latency = self.TRIM_LATENCY_NS + ftl.trim(range(lpn, lpn + pages))
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown request kind {kind}")
        return latency, ftl.stats.fgc_time_ns - fgc_before

    def _complete(self, request: IoRequest, latency: int, fgc_ns: int) -> None:
        self._busy = False
        request.complete_time = self.sim.now
        self.busy_ns += latency
        self.requests_completed += 1
        if fgc_ns > 0 and self.audit.enabled:
            # The request stalled on foreground GC: one span over the
            # whole (stalled) service.
            self.audit.record(
                GcSpanRecord(
                    t_ns=request.start_time,
                    dur_ns=latency,
                    event=FGC_STALL,
                    pages=request.page_count,
                )
            )

        kind = request.kind
        if kind is READ:
            self.read_busy_ns += latency
        elif kind is DIRECT_WRITE or kind is WRITEBACK:
            self.write_busy_ns += latency
            # Exclude the FGC stall from the bandwidth sample: Bw is the
            # device's clean write rate, which Tw = Creq/Bw relies on.
            clean_ns = max(1, latency - fgc_ns // self.parallelism)
            self.write_bandwidth.observe(
                request.page_count * self.config.geometry.page_size, clean_ns
            )

        if request.on_complete is not None:
            request.on_complete(request)
        for listener in self.completion_listeners:
            listener(request)

        self._start_next()

    # ------------------------------------------------------------------
    # Background GC
    # ------------------------------------------------------------------
    def _schedule_idle_check(self) -> None:
        """Arm BGC after the idle-detection grace period.

        A real drive does not launch a multi-millisecond GC block the
        microsecond its queue happens to be empty -- it waits until the
        host has been quiet for a while (cf. adaptive idle-time GC,
        Park et al.).  Any submit before the grace expires cancels the
        check, so BGC never wedges itself between a burst's requests.
        """
        if self.controller is None:
            return
        grace = self.config.bgc_idle_grace_ns
        if grace <= 0:
            self._maybe_bgc()
            return
        self._idle_token += 1
        token = self._idle_token
        self.sim.schedule(
            grace,
            lambda: self._idle_check(token),
            priority=PRIORITY_LOW,
            name="ssd.idle_check",
        )

    def _idle_check(self, token: int) -> None:
        if token == self._idle_token and self.idle:
            self._maybe_bgc()

    def _maybe_bgc(self) -> None:
        """Spend the idle window: one BGC block if the controller wants
        space reclaimed, else one refresh-scrub or wear-level block."""
        if self._busy or self.queue:
            return
        if self.ftl.read_only:
            # Terminal degraded state: no spare capacity left to reclaim
            # into; background work would only burn the remaining blocks.
            return
        controller = self.controller
        if controller is None:
            return
        demand = controller.reclaim_demand_pages(self)
        if demand > 0 and self.ftl.has_victim():
            free_before = self.ftl.free_pages()
            raw = self.ftl.collect_one_block(background=True)
            self._run_idle_work(BGC_WORK, raw, free_before)
            return
        # Reclaim declined the window: refresh scrub gets first call on
        # the spare idle time (data at risk beats wear spread), then wear
        # levelling.  Both are no-ops unless armed.
        raw = self.ftl.maybe_scrub()
        if raw > 0:
            self._run_idle_work(SCRUB_WORK, raw)
            return
        raw = self.ftl.maybe_wear_level()
        if raw > 0:
            self._run_idle_work(WEAR_LEVEL_WORK, raw)

    def _run_idle_work(
        self, work: IdleWork, raw_latency: int, free_before: int = 0
    ) -> None:
        """Occupy the device for one idle-work block the FTL just ran."""
        latency = max(1, raw_latency // self.parallelism)
        self._busy = True
        self.sim.schedule(
            latency,
            lambda: self._idle_work_done(work, latency, free_before),
            priority=PRIORITY_DEVICE,
            name=work.event,
        )

    def _idle_work_done(self, work: IdleWork, latency: int, free_before: int) -> None:
        self._busy = False
        self.busy_ns += latency
        self.bgc_busy_ns += latency
        start_ns = self.sim.now - latency
        # Only BGC is reclaim: its freed pages feed the bandwidth
        # estimate, the occupancy span and the controller.  Scrub and
        # wear levelling move data; what they free is incidental.
        bgc = work is BGC_WORK
        freed_pages = 0
        if bgc:
            freed_pages = self.ftl.free_pages() - free_before
            freed_bytes = freed_pages * self.config.geometry.page_size
            self.gc_bandwidth.observe(max(0, freed_bytes), latency)
        if self.audit.enabled:
            # Every idle-work block occupies the device like a BGC block;
            # the span's name keeps scrub relocations apart, so tail
            # attribution reports ``scrub-interference`` on its own.
            self.audit.record(
                GcSpanRecord(
                    t_ns=start_ns, dur_ns=latency, event=work.span, pages=freed_pages
                )
            )
        if bgc and self.controller is not None:
            self.controller.on_block_collected(self, freed_pages)
        if self.queue:
            self._start_next()
        else:
            # Chain the next idle-work block without re-waiting the
            # grace: the device is already in a confirmed idle period.
            self._maybe_bgc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SsdDevice t={self.sim.now} queue={len(self.queue)} "
            f"busy={self._busy} free={self.ftl.free_pool_blocks()}blk>"
        )
