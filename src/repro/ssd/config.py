"""Device-level configuration bundle.

:class:`SsdConfig` collects everything needed to instantiate a device --
geometry, timing, OP ratio, GC watermark, wear-levelling options -- and a
:meth:`~SsdConfig.build_ftl` factory.  Experiments construct one config
and reuse it across all policies under comparison, so every run sees an
identical device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.injector import FaultInjector, FaultProfile, resolve_fault_profile
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.recovery import recover_ftl
from repro.ftl.space import SpaceModel
from repro.nand.array import NandArray, NandDurableState
from repro.nand.endurance import EnduranceModel
from repro.nand.geometry import NandGeometry
from repro.nand.reliability import ReadDisturbTracker, resolve_reliability_profile
from repro.nand.timing import NAND_20NM_MLC, NandTiming


@dataclass
class SsdConfig:
    """Everything needed to build one simulated SSD.

    Attributes:
        geometry: NAND organisation; defaults to the 1/256-scaled SM843T.
        timing: NAND latencies; defaults to 20 nm MLC.
        op_ratio: over-provisioning as a fraction of user capacity
            (SM843T: 7 %).
        fgc_watermark: free-pool size at or below which a host write must
            run foreground GC first.  Must be >= 2 so GC migrations always
            have a block to allocate.
        fgc_penalty: latency multiplier applied to foreground GC.  A
            foreground collection on a real drive costs more than the raw
            NAND operations: the request pipeline drains, mapping-table
            updates flush, and the host-interface queue stalls.  The
            multiplier models that overhead (4.0 by default; 1.0 gives
            the pure NAND-cost model).
        pe_cycle_limit: endurance rating; None disables wear-out.
        enable_wear_leveling: install a static wear leveller.
        wear_level_threshold: allowed erase-count spread.
        channel_parallelism: number of NAND operations the device overlaps
            (channel striping); multi-page requests and GC complete up to
            this factor faster than serial NAND timing.
        fault_profile: media-fault injection configuration -- a
            :class:`~repro.faults.injector.FaultProfile`, a preset name
            from :data:`~repro.faults.injector.FAULT_PROFILES`, or None
            for a fault-free device.
        max_read_retries: voltage-shift re-reads attempted after an
            uncorrectable read before declaring the data lost.
        max_program_retries: frontier slots tried per logical page before
            a program failure is considered fatal.
        max_erase_retries: erase re-attempts before a block is retired as
            grown-bad.
    """

    geometry: NandGeometry = field(default_factory=NandGeometry.scaled_sm843t)
    timing: NandTiming = NAND_20NM_MLC
    op_ratio: float = 0.07
    fgc_watermark: int = 2
    pe_cycle_limit: Optional[int] = None
    enable_wear_leveling: bool = False
    wear_level_threshold: int = 64
    channel_parallelism: int = 8
    fgc_penalty: float = 4.0
    #: Idle-detection grace before background GC may start (ns).  The
    #: device only launches a BGC block after the host has been quiet
    #: this long, so BGC never wedges into intra-burst think gaps.
    bgc_idle_grace_ns: int = 1_000_000
    fault_profile: Optional[object] = None
    max_read_retries: int = 4
    max_program_retries: int = 4
    max_erase_retries: int = 2
    #: Write a durable mapping checkpoint every N host pages (None
    #: disables checkpointing; recovery then pays the full OOB scan).
    checkpoint_interval_pages: Optional[int] = None
    #: Reserved metadata blocks backing the durable-metadata log; their
    #: wear and faults are modelled (:mod:`repro.nand.metaregion`).
    meta_blocks: int = 4
    #: Mapping architecture: ``dram`` (full map in controller DRAM, the
    #: historical model) or ``dftl`` (translation pages on NAND behind a
    #: cached mapping table -- the full-capacity mode).
    mapping_mode: str = "dram"
    #: DRAM budget for the cached mapping table in dftl mode; None picks
    #: 1/64 of the full map (user_pages * 8 bytes / 64).  Ignored in
    #: dram mode.
    cmt_budget_bytes: Optional[int] = None
    #: Checkpoint scheduling: ``interval`` (fixed host-page interval) or
    #: ``adaptive`` (accrual-bounded with GC-quiescence early fire; the
    #: interval becomes the recovery-tail bound).  Only meaningful when
    #: checkpoint_interval_pages is set.
    checkpoint_policy: str = "interval"
    #: Live data-integrity subsystem: a
    #: :class:`~repro.nand.reliability.ReliabilityProfile`, a preset name
    #: from :data:`~repro.nand.reliability.RELIABILITY_PROFILES`
    #: ("mlc-20nm", ...), or None/"off" for the historical
    #: reliability-free device (bit-identical behaviour: no retention
    #: stamping, no disturb tracking, no ECC ladder, no scrubber).
    reliability: Optional[object] = None

    def __post_init__(self) -> None:
        # Catch misconfiguration here, with a clear message, instead of
        # as downstream arithmetic surprises (negative capacities, empty
        # free pools, division by zero in the space model).
        if self.geometry.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.geometry.page_size}")
        if self.geometry.total_blocks <= 0:
            raise ValueError(
                f"device capacity must be positive, got {self.geometry.total_blocks} blocks"
            )
        if not 0.0 < self.op_ratio < 1.0:
            raise ValueError(
                f"op_ratio must be in (0, 1) -- an OP of 100 % or more leaves "
                f"no user capacity; got {self.op_ratio}"
            )
        if self.fgc_watermark < 2:
            raise ValueError(f"fgc_watermark must be >= 2, got {self.fgc_watermark}")
        if self.channel_parallelism < 1:
            raise ValueError(
                f"channel_parallelism must be >= 1, got {self.channel_parallelism}"
            )
        if self.fgc_penalty < 1.0:
            raise ValueError(f"fgc_penalty must be >= 1.0, got {self.fgc_penalty}")
        for name in ("max_read_retries", "max_program_retries", "max_erase_retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.pe_cycle_limit is not None and self.pe_cycle_limit <= 0:
            raise ValueError(
                f"pe_cycle_limit must be positive or None, got {self.pe_cycle_limit}"
            )
        if self.bgc_idle_grace_ns < 0:
            raise ValueError(
                f"bgc_idle_grace_ns must be >= 0, got {self.bgc_idle_grace_ns}"
            )
        if (
            self.checkpoint_interval_pages is not None
            and self.checkpoint_interval_pages < 1
        ):
            raise ValueError(
                "checkpoint_interval_pages must be >= 1 or None, got "
                f"{self.checkpoint_interval_pages}"
            )
        if self.meta_blocks < 1:
            raise ValueError(f"meta_blocks must be >= 1, got {self.meta_blocks}")
        if self.mapping_mode not in ("dram", "dftl"):
            raise ValueError(
                f"mapping_mode must be 'dram' or 'dftl', got {self.mapping_mode!r}"
            )
        if self.cmt_budget_bytes is not None and self.cmt_budget_bytes < self.geometry.page_size:
            raise ValueError(
                "cmt_budget_bytes must hold at least one translation page "
                f"({self.geometry.page_size} B), got {self.cmt_budget_bytes}"
            )
        if self.checkpoint_policy not in ("interval", "adaptive"):
            raise ValueError(
                "checkpoint_policy must be 'interval' or 'adaptive', got "
                f"{self.checkpoint_policy!r}"
            )
        # Resolve preset names eagerly so typos fail at config time.
        self.fault_profile = (
            resolve_fault_profile(self.fault_profile)
            if self.fault_profile is not None
            else None
        )
        # Same eager resolution for the reliability profile; a profile
        # instance re-validates its own knobs (thresholds non-negative,
        # retry-level latencies monotonic) at construction, so a bad
        # hand-built profile fails here too, at config time.
        self.reliability = resolve_reliability_profile(self.reliability)

    def space_model(self) -> SpaceModel:
        return SpaceModel.from_op_ratio(self.geometry, self.op_ratio)

    def resolved_fault_profile(self) -> FaultProfile:
        return resolve_fault_profile(self.fault_profile)

    def build_read_disturb(self) -> Optional[ReadDisturbTracker]:
        """A fresh read-disturb tracker when reliability is armed.

        Fresh on every call by design: the counters are volatile
        controller DRAM, so both first boot and every power-on start
        them at zero (DESIGN.md, power-on disturb-reset semantics).
        """
        if self.reliability is None:
            return None
        return ReadDisturbTracker(
            self.geometry.total_blocks, scrub_threshold=self.reliability.disturb_threshold
        )

    def build_injector(self, seed: int = 0) -> Optional[FaultInjector]:
        """A fresh fault injector over this config's profile (None when
        the profile injects nothing); ``seed`` keeps its fault sequence
        reproducible per scenario seed."""
        profile = self.resolved_fault_profile()
        return FaultInjector(profile, seed=seed) if profile.enabled else None

    def build_nand(self, seed: int = 0) -> NandArray:
        """A first-boot array; ``seed`` seeds its fault injector."""
        return self._nand(self.build_injector(seed))

    def _nand(
        self,
        fault_injector: Optional[FaultInjector],
        durable: Optional[NandDurableState] = None,
    ) -> NandArray:
        endurance = EnduranceModel(self.geometry.total_blocks, self.pe_cycle_limit)
        return NandArray(
            self.geometry,
            self.timing,
            endurance,
            read_disturb=self.build_read_disturb(),
            fault_injector=fault_injector,
            meta_blocks=self.meta_blocks,
            durable=durable,
        )

    def restore_nand(
        self,
        durable: NandDurableState,
        fault_injector: Optional[FaultInjector] = None,
    ) -> NandArray:
        """Power this device's array back on from a captured media image.

        The one place a post-power-cut array is built (live SPO recovery
        and both crash-sweep recoveries use it): the array first boot
        builds, with the caller's ``fault_injector``, running on
        ``durable``'s columns.  The array *adopts* them and the image is
        spent: a second power-on over it raises :class:`ValueError`, so a
        caller that needs the image twice powers on from
        :meth:`~repro.nand.array.NandDurableState.copy`.  An image whose
        block count, page count or metadata-ring size differs from this
        config's is refused the same way, naming both, before anything
        is built.  Power-on disturb-reset semantics: the read-disturb
        tracker is rebuilt zeroed (volatile DRAM died with the rail)
        while the retention clock rides the durable image itself --
        charge leaks with the rail down too.
        """
        return self._nand(fault_injector, durable)

    def build_ftl(
        self,
        clock=None,
        seed: int = 0,
        registry=None,
        nand: Optional[NandArray] = None,
        recovered=None,
    ) -> PageMappedFtl:
        """Instantiate a fresh FTL (and NAND) per this configuration.

        ``seed`` feeds the fault injector (when a fault profile is set),
        keeping fault sequences reproducible per scenario seed.
        ``registry`` is an optional shared metrics registry; the FTL
        creates a private one when omitted.  ``nand`` substitutes a
        pre-built array (the analytic warm-start synthesizes one) and
        ``recovered`` hands the FTL pre-installed state through the same
        path power-on recovery uses.
        """
        if nand is None:
            nand = self.build_nand(seed=seed)
        return PageMappedFtl(
            nand,
            self,
            clock=clock,
            registry=registry,
            recovered=recovered,
        )

    def recover_from(
        self,
        durable: NandDurableState,
        seed: int = 0,
        registry=None,
        post_checkpoint: bool = False,
    ):
        """Power the device back on from a captured media image.

        Counterpart of :meth:`build_ftl` for the post-power-cut path:
        rebuilds the NAND from ``durable`` (:meth:`restore_nand`), arms a
        fresh fault injector over the same profile (``seed`` keeps the
        post-recovery fault sequence reproducible but independent of the
        pre-cut stream) and runs the recovery scan -- checkpoint-bounded
        when the image holds a complete checkpoint, the full OOB sweep
        otherwise.  With ``post_checkpoint=True`` the recovered FTL
        immediately writes a fresh checkpoint so the next power-on skips
        the scan it just did.

        Returns ``(ftl, report)`` -- see
        :func:`~repro.ftl.recovery.recover_ftl`.
        """
        return recover_ftl(
            self.restore_nand(durable, self.build_injector(seed)),
            self,
            post_checkpoint,
            registry=registry,
        )

    @property
    def user_bytes(self) -> int:
        return self.space_model().user_bytes

    @property
    def op_bytes(self) -> int:
        return self.space_model().op_bytes

    @classmethod
    def small(cls, blocks: int = 512, pages_per_block: int = 64, **kwargs) -> "SsdConfig":
        """A tiny device for unit tests and fast benchmark harness runs."""
        geometry = NandGeometry(
            page_size=4096, pages_per_block=pages_per_block, blocks_per_plane=blocks
        )
        return cls(geometry=geometry, **kwargs)
