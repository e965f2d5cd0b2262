"""Host-system assembly: one call builds the whole paper testbed.

:class:`HostSystem` wires together the simulator, the SSD device (with
the policy's victim selector installed), the page cache, the flusher
thread and the I/O dispatcher, then attaches the GC policy -- the
software stack of the paper's Fig. 3(b) in one object.

The capacity ratios default to the paper's testbed scaled down: a 240 GB
SSD driven by a PC with 8 GB of RAM gives a page-cache-to-SSD ratio of
1/30, which is preserved at any device scale.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies import GcPolicy
from repro.obs import Observability
from repro.oskernel.cache import PageCache
from repro.oskernel.flusher import FlusherThread
from repro.oskernel.iopath import IoDispatcher
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.device import SsdDevice

#: Dirty share of the page cache that triggers volume flushing, kept
#: high so age flushing dominates.
TAU_FLUSH_FRACTION = 0.6


class HostSystem:
    """A complete simulated host + SSD running one GC policy.

    Args:
        config: device configuration (shared across compared policies).
        policy: the GC policy under test.
        seed: root seed for all randomness (workloads fork from it).
        cache_bytes: page-cache capacity; defaults to 1/4 of the user
            capacity -- the paper's "ample RAM" regime where dirty data
            ages out (tau_expire flushing) rather than being forced out
            by volume pressure, which is the regime its buffered-write
            predictor (and its 90-99 % accuracies) presumes.
        flusher_period_ns: the write-back period ``p`` (paper: 5 s; the
            scaled default scenarios use 1 s, keeping ``Nwb = 6``).
        tau_expire_ns: dirty-age threshold (paper: 30 s; scaled: 6 s).
        dirty_throttle_fraction: dirty share of the cache beyond which
            buffered writers block.
        obs: observability for the run -- an
            :class:`~repro.obs.Observability`, an
            :class:`~repro.obs.ObservabilityConfig`, or None for the
            disabled default (real metrics registry, no-op tracer).
        ftl: pre-built FTL to serve instead of formatting a fresh device
            -- the power-loss path passes the *recovered* FTL here.  Its
            clock is rebound to this host's simulator.
        start_time_ns: initial simulated time (power-loss recovery
            resumes the pre-cut timeline: cut time + recovery scan).
    """

    def __init__(
        self,
        config: SsdConfig,
        policy: GcPolicy,
        seed: int = 42,
        cache_bytes: Optional[int] = None,
        flusher_period_ns: int = SECOND,
        tau_expire_ns: int = 6 * SECOND,
        dirty_throttle_fraction: float = 0.8,
        obs=None,
        ftl=None,
        start_time_ns: int = 0,
    ) -> None:
        self.config = config
        self.policy = policy
        self.sim = Simulator()
        if start_time_ns:
            self.sim.resume_at(start_time_ns)
        self.streams = RandomStreams(seed)
        self.obs = Observability.resolve(obs)

        self.device = SsdDevice(
            self.sim,
            config,
            controller=policy,
            seed=seed,
            registry=self.obs.registry,
            ftl=ftl,
        )
        if ftl is not None:
            # The recovered FTL was built before this simulator existed;
            # rebind its clock so retention stamps, block ages and audit
            # records continue on the resumed timeline.
            sim = self.sim
            ftl.media.set_clock(lambda: sim.now)
        selector = policy.make_victim_selector()
        if selector is not None:
            # The one place a policy's victim selector is installed.
            # Fresh, recovered and warm-started FTLs all start greedy
            # and have collected nothing yet, so victim ranking (and its
            # SIP statistics) track the *attached* policy throughout.
            self.device.ftl.victim_selector = selector

        page_size = config.geometry.page_size
        if cache_bytes is None:
            cache_bytes = max(page_size * 64, config.user_bytes // 4)
        self.cache = PageCache(
            page_size,
            cache_bytes,
            self.user_pages,
            dirty_throttle_fraction=dirty_throttle_fraction,
        )
        self.flusher = FlusherThread(
            self.sim,
            self.cache,
            self.device,
            period_ns=flusher_period_ns,
            tau_expire_ns=tau_expire_ns,
            tau_flush_pages=max(1, int(self.cache.capacity_pages * TAU_FLUSH_FRACTION)),
        )
        self.dispatcher = IoDispatcher(self.sim, self.cache, self.device)

        policy.attach(self.sim, self.device, self.cache, self.flusher)
        self.flusher.start()
        self.obs.install(self)

    # ------------------------------------------------------------------
    @property
    def ftl(self):
        return self.device.ftl

    @property
    def user_pages(self) -> int:
        return self.ftl.space.user_pages

    def prefill(self, pages: int, age: bool = True) -> None:
        """Pre-condition the device: write ``pages`` logical pages
        directly through the FTL in zero simulated time.

        Gives every compared policy an identical aged starting state
        without burning simulated hours on the fill:

        1. the working set (LPNs ``0 .. pages - 1``) is written once, so
           ``Cused`` matches the benchmark setup.  It goes down as
           :meth:`~repro.ftl.ftl.PageMappedFtl.host_write_extent` calls,
           each ending where the checkpoint policy may next fire
           (:meth:`~repro.ftl.checkpoint_policy.CheckpointPolicy.pages_until_due`;
           no policy: one extent), so the device ends exactly as a
           per-page :meth:`~repro.ftl.ftl.PageMappedFtl.host_write_page`
           loop leaves it, checkpoints at the same host-page counts.  In
           dftl mode this also rests on each translation page's first LPN
           landing at a block start, which a fill from LPN 0 keeps when
           ``pages_per_block`` divides the entries per translation page;
           then
        2. with ``age=True``, random one-page overwrites churn the working
           set until the free capacity is down to roughly the OP capacity
           (``op_pages`` + two blocks) -- the "logically full" steady
           state a deployed SSD lives in, where every spare block holds
           garbage and GC policy actually matters.  They go down in
           batches of 1024 draws as
           :meth:`~repro.ftl.ftl.PageMappedFtl.host_write_pages` calls,
           which leave the device as a per-page loop does.

        Call before starting any workload.

        Raises:
            ValueError: ``pages`` is negative or exceeds the user
                capacity; or, with ``age=True``, the churn's floor lies
                below the free space foreground GC keeps (after every
                write at least ``(fgc_watermark + 1)`` blocks less one
                page are free), so the churn could never end.
        """
        if not 0 <= pages <= self.user_pages:
            raise ValueError(
                f"prefill of {pages} pages is outside [0, {self.user_pages}] "
                "(the user capacity)"
            )
        ftl = self.ftl
        ppb = self.config.geometry.pages_per_block
        floor = ftl.space.op_pages + 2 * ppb
        # Foreground GC keeps more than fgc_watermark blocks pooled, and a
        # write that rolls the user frontier takes one and leaves ppb - 1
        # pages in it: short of block retirements, every write leaves at
        # least gc_floor pages free.
        gc_floor = (ftl.fgc_watermark + 1) * ppb - 1
        if age and pages and floor < gc_floor:
            raise ValueError(
                f"prefill churn cannot reach {floor} free pages (op_pages + 2 "
                f"blocks): foreground GC keeps at least {gc_floor} free at "
                f"fgc_watermark={ftl.fgc_watermark}; raise op_ratio "
                f"(now {self.config.op_ratio}) or lower fgc_watermark"
            )
        policy = ftl.checkpoint_policy
        lpn = 0
        while lpn < pages:
            run = pages - lpn
            if policy is not None:
                run = min(run, policy.pages_until_due(ftl))
            ftl.host_write_extent(lpn, run)
            lpn += run
        if not age or pages == 0:
            return
        rng = self.streams.numpy("prefill-churn")
        while ftl.free_pages() > floor:
            ftl.host_write_pages(rng.integers(0, pages, size=1024), floor)

    def run_for(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns``."""
        self.sim.run_until(self.sim.now + duration_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HostSystem policy={self.policy.name} t={self.sim.now}>"
