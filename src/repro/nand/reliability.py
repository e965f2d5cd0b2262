"""NAND reliability modelling: raw bit errors, ECC, read disturb.

The paper's lifetime argument is mediated by P/E cycling: every
amplified write consumes endurance, and endurance matters because the
raw bit error rate (RBER) of worn cells eventually exceeds what the ECC
can correct.  This module provides the standard analytic models that
connect the simulator's wear counters to reliability quantities:

* :class:`BitErrorModel` -- RBER as a function of P/E cycles, retention
  age and read-disturb count (power-law in wear, exponential-ish in
  retention, linear in disturbs -- the shapes reported for 2x-nm MLC).
* :class:`EccConfig` -- BCH-style correction strength per codeword, with
  the binomial-tail codeword/page failure probabilities.
* :class:`ReadDisturbTracker` -- per-block read counting with a scrub
  threshold, the counter real FTLs use to schedule refresh migrations.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class BitErrorModel:
    """Analytic RBER model for MLC NAND.

    ``rber = base * (1 + (pe/pe_knee)^wear_exponent)
            * (1 + retention_s / retention_scale)
            * (1 + disturbs * disturb_factor)``

    Defaults are calibrated to public 20 nm-class MLC characterisation
    data: fresh cells around 1e-7..1e-6 RBER, approaching 1e-3 near the
    rated 3K cycles with a year of retention.

    Attributes:
        base_rber: RBER of a fresh, just-written page.
        pe_knee: P/E cycle count where wear roughly doubles the RBER.
        wear_exponent: super-linearity of wear degradation.
        retention_scale_s: retention age that roughly doubles the RBER.
        disturb_factor: per-read-disturb multiplier increment.
    """

    base_rber: float = 5e-7
    pe_knee: float = 800.0
    wear_exponent: float = 2.2
    retention_scale_s: float = 2_500_000.0  # ~29 days
    disturb_factor: float = 2e-5

    def __post_init__(self) -> None:
        if self.base_rber <= 0 or self.pe_knee <= 0:
            raise ValueError("base_rber and pe_knee must be positive")

    def rber(
        self,
        pe_cycles: int,
        retention_s: float = 0.0,
        read_disturbs: int = 0,
    ) -> float:
        """Raw bit error rate for the given stress state (capped at 0.5)."""
        if pe_cycles < 0 or retention_s < 0 or read_disturbs < 0:
            raise ValueError("stress parameters must be non-negative")
        wear = 1.0 + (pe_cycles / self.pe_knee) ** self.wear_exponent
        retention = 1.0 + retention_s / self.retention_scale_s
        disturb = 1.0 + read_disturbs * self.disturb_factor
        return min(0.5, self.base_rber * wear * retention * disturb)


@dataclass(frozen=True)
class EccConfig:
    """BCH-style ECC: ``correctable_bits`` per ``codeword_bytes``."""

    codeword_bytes: int = 1024
    correctable_bits: int = 40

    def __post_init__(self) -> None:
        if self.codeword_bytes <= 0 or self.correctable_bits < 0:
            raise ValueError("invalid ECC configuration")

    @property
    def codeword_bits(self) -> int:
        return self.codeword_bytes * 8

    def codeword_failure_probability(self, rber: float) -> float:
        """P[more than ``correctable_bits`` errors in one codeword].

        Binomial tail, evaluated with a numerically stable log-sum of
        the complementary head.
        """
        if not 0.0 <= rber <= 1.0:
            raise ValueError(f"rber must be in [0, 1], got {rber}")
        if rber == 0.0:
            return 0.0
        n, t = self.codeword_bits, self.correctable_bits
        # Head: P[X <= t]; tail = 1 - head.
        log_p = math.log(rber)
        log_q = math.log1p(-rber) if rber < 1.0 else float("-inf")
        head = 0.0
        for k in range(t + 1):
            log_term = (
                math.lgamma(n + 1)
                - math.lgamma(k + 1)
                - math.lgamma(n - k + 1)
                + k * log_p
                + (n - k) * log_q
            )
            head += math.exp(log_term)
        return max(0.0, 1.0 - min(1.0, head))

    def page_failure_probability(self, rber: float, page_bytes: int = 4096) -> float:
        """P[any codeword of a page is uncorrectable]."""
        codewords = max(1, -(-page_bytes // self.codeword_bytes))
        per_codeword = self.codeword_failure_probability(rber)
        return 1.0 - (1.0 - per_codeword) ** codewords


class ReadDisturbTracker:
    """Per-block read counting with a scrub threshold.

    Reading a page weakly programs its neighbours; after enough reads a
    block's data must be refreshed (migrated) before errors accumulate.
    Real FTLs keep exactly this counter; the GC experiments keep it
    observational so read-heavy workloads' refresh pressure can be
    reported without perturbing the GC comparison.
    """

    def __init__(self, num_blocks: int, scrub_threshold: int = 100_000) -> None:
        if num_blocks <= 0 or scrub_threshold <= 0:
            raise ValueError("num_blocks and scrub_threshold must be positive")
        self.scrub_threshold = scrub_threshold
        #: Per-block read counters.  The read path bumps and probes this
        #: table one block at a time (an ``array`` item is a plain int,
        #: about half the cost of a NumPy scalar).
        self.counts = array("q", [0]) * num_blocks
        #: The same table for the scrubber's vectorised scans (the table
        #: is never resized, so the shared buffer is stable).
        self.read_counts = np.frombuffer(self.counts, dtype=np.int64)

    def record_read(self, block: int) -> bool:
        """Count one page read in ``block``; True when scrub is due."""
        self.counts[block] += 1
        return self.counts[block] >= self.scrub_threshold

    def record_reads(self, block: int, count: int) -> bool:
        """Count ``count`` page reads in ``block`` at once; True when scrub
        is due.  Equivalent to ``count`` :meth:`record_read` calls (the
        tracker is observational, so only the final counter matters)."""
        self.counts[block] += count
        return self.counts[block] >= self.scrub_threshold

    def reset(self, block: int) -> None:
        """Clear the counter after the block is refreshed/erased."""
        self.counts[block] = 0

    def blocks_needing_scrub(self) -> List[int]:
        return [int(b) for b in np.flatnonzero(self.read_counts >= self.scrub_threshold)]

    def max_reads(self) -> int:
        return int(self.read_counts.max(initial=0))


# ----------------------------------------------------------------------
# Live reliability: profiles and the deterministic ECC escalation ladder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReliabilityProfile:
    """Everything the live data-integrity subsystem needs, in one knob.

    A profile bundles the analytic models above with the *pricing* of the
    read-path escalation ladder and the refresh scrubber's thresholds.
    Selected by name (``--reliability mlc-20nm``); ``None``/"off" keeps
    every hook un-installed and the simulator bit-identical to the
    reliability-free build.

    Ladder semantics (deterministic -- see :class:`ReliabilityModel`):
    a read whose *expected* codeword errors fit inside
    ``fast_margin * correctable_bits`` succeeds at the normal tR cost.
    Otherwise the controller steps through ``retry_latency_ns`` levels;
    level ``i`` re-senses at a shifted voltage, modelled as scaling the
    effective RBER by ``retry_rber_factors[i]``.  If no hard re-read
    fits, a soft-decode pass (LDPC-style, ``soft_decode_latency_ns``)
    may still recover the data at ``soft_decode_rber_factor`` and the
    ECC's *full* strength; beyond that the read is a UECC.

    Attributes:
        name: registry key (also the CLI spelling).
        bit_error_model / ecc: the analytic halves being driven.
        page_bytes: logical page size assumed for page-level failure math.
        fast_margin: fraction of the correction strength the controller
            is willing to consume on the fast path (real controllers
            escalate with head-room: a codeword running at its exact
            limit has no margin against RBER variance).
        retry_latency_ns: per-level re-read cost, monotonically
            non-decreasing (deeper levels shift more read voltages).
        retry_rber_factors: per-level effective-RBER multiplier, in
            (0, 1), non-increasing.
        soft_decode_latency_ns: cost of the soft-decode pass.
        soft_decode_rber_factor: effective-RBER multiplier of soft decode.
        scrub: arm the background refresh scrubber.
        retention_threshold_s: modelled retention age at which a block is
            scheduled for refresh.
        disturb_threshold: per-block read count at which a block is
            scheduled for refresh (also sizes the
            :class:`ReadDisturbTracker` built for the device).
        scrub_scan_blocks: blocks examined per idle scrub tick by the
            scan cursor.
        retention_accel: simulated-seconds -> modelled-seconds multiplier
            (accelerated-retention testing; 1.0 = real time).
    """

    name: str = "mlc-20nm"
    bit_error_model: BitErrorModel = field(default_factory=BitErrorModel)
    ecc: EccConfig = field(default_factory=EccConfig)
    page_bytes: int = 4096
    fast_margin: float = 0.30
    retry_latency_ns: Tuple[int, ...] = (60_000, 90_000, 140_000)
    retry_rber_factors: Tuple[float, ...] = (0.72, 0.55, 0.42)
    soft_decode_latency_ns: int = 400_000
    soft_decode_rber_factor: float = 0.25
    scrub: bool = True
    retention_threshold_s: float = 2_600_000.0  # ~30 days
    disturb_threshold: int = 200_000
    scrub_scan_blocks: int = 8
    retention_accel: float = 1.0

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise ValueError(f"page_bytes must be positive, got {self.page_bytes}")
        if not 0.0 < self.fast_margin <= 1.0:
            raise ValueError(
                f"fast_margin must be in (0, 1], got {self.fast_margin}"
            )
        if len(self.retry_latency_ns) != len(self.retry_rber_factors):
            raise ValueError(
                "retry ladder mismatch: "
                f"{len(self.retry_latency_ns)} latencies vs "
                f"{len(self.retry_rber_factors)} RBER factors"
            )
        prev = 0
        for i, lat in enumerate(self.retry_latency_ns):
            if lat <= 0:
                raise ValueError(
                    f"retry_latency_ns[{i}] must be positive, got {lat}"
                )
            if lat < prev:
                raise ValueError(
                    "retry_latency_ns must be monotonically non-decreasing "
                    f"(deeper retry levels cost at least as much); "
                    f"level {i} ({lat} ns) undercuts level {i - 1} ({prev} ns)"
                )
            prev = lat
        prev_f = 1.0
        for i, factor in enumerate(self.retry_rber_factors):
            if not 0.0 < factor < 1.0:
                raise ValueError(
                    f"retry_rber_factors[{i}] must be in (0, 1), got {factor}"
                )
            if factor > prev_f:
                raise ValueError(
                    "retry_rber_factors must be non-increasing (each level "
                    f"corrects at least as well); level {i} ({factor}) "
                    f"exceeds level {i - 1} ({prev_f})"
                )
            prev_f = factor
        if self.soft_decode_latency_ns <= 0:
            raise ValueError(
                "soft_decode_latency_ns must be positive, got "
                f"{self.soft_decode_latency_ns}"
            )
        if not 0.0 < self.soft_decode_rber_factor < 1.0:
            raise ValueError(
                "soft_decode_rber_factor must be in (0, 1), got "
                f"{self.soft_decode_rber_factor}"
            )
        if self.retention_threshold_s < 0:
            raise ValueError(
                "retention_threshold_s must be non-negative, got "
                f"{self.retention_threshold_s}"
            )
        if self.disturb_threshold <= 0:
            raise ValueError(
                f"disturb_threshold must be positive, got {self.disturb_threshold}"
            )
        if self.scrub_scan_blocks <= 0:
            raise ValueError(
                f"scrub_scan_blocks must be positive, got {self.scrub_scan_blocks}"
            )
        if self.retention_accel <= 0:
            raise ValueError(
                f"retention_accel must be positive, got {self.retention_accel}"
            )


#: Named profiles, selectable via ``--reliability``.  ``mlc-20nm`` is the
#: realistic 20 nm-class MLC operating point: at sane wear and retention
#: every read stays on the fast path, the scrubber idles (nothing crosses
#: a threshold inside a short simulation), and the profile's cost is the
#: per-read bookkeeping alone.  ``mlc-20nm-accel`` compresses months of
#: retention into simulated seconds (used by the scrub acceptance tests
#: and demos): un-refreshed data visibly decays to UECC within a run.
RELIABILITY_PROFILES: Dict[str, ReliabilityProfile] = {
    "mlc-20nm": ReliabilityProfile(),
    "mlc-20nm-accel": ReliabilityProfile(
        name="mlc-20nm-accel",
        bit_error_model=BitErrorModel(base_rber=1e-4, retention_scale_s=5_000.0),
        retention_threshold_s=200_000.0,
        disturb_threshold=50_000,
        retention_accel=50_000.0,
        scrub_scan_blocks=32,
    ),
}


def resolve_reliability_profile(
    profile: Union[None, str, ReliabilityProfile],
) -> Optional[ReliabilityProfile]:
    """Name/instance/None -> validated profile (None and "off" disable)."""
    if profile is None or isinstance(profile, ReliabilityProfile):
        return profile
    if profile == "off":
        return None
    try:
        return RELIABILITY_PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(RELIABILITY_PROFILES))
        raise ValueError(
            f"unknown reliability profile {profile!r}; expected one of: "
            f"off, {known}"
        ) from None


class ReadOutcome(NamedTuple):
    """One read's journey through the ECC escalation ladder.

    ``level`` is 0 for a fast-path success, ``i > 0`` when hard re-read
    level ``i`` recovered the data; ``soft`` marks a soft-decode rescue.
    ``extra_ns`` is the ladder's latency on top of the base tR (every
    attempted level is paid for, success or not); ``ok=False`` is a UECC
    -- the whole ladder was paid and the data is still gone.
    """

    ok: bool
    level: int
    soft: bool
    extra_ns: int


class ReliabilityModel:
    """Deterministic ECC escalation ladder over a stress state.

    The ladder compares *expected* codeword errors (``rber *
    codeword_bits``) against the correction strength rather than drawing
    per-read Bernoulli outcomes: reads of a block in a given (wear,
    retention, disturb) state all behave identically, the off/on
    equivalence argument stays trivial (no RNG stream is consumed), and
    the fault injector's seeded streams compose unchanged on top.

    Outcomes are cached per stress *bucket* (wear quantised to 64 P/E
    cycles -- matching the injector's page-failure cache -- retention to
    4096 modelled seconds, disturbs to 4096 reads), so the steady-state
    read path costs one tuple hash, not a ladder walk.
    """

    #: Bucket shifts: P/E cycles, modelled retention seconds, read count.
    _PE_SHIFT = 6
    _RET_SHIFT = 12
    _DIST_SHIFT = 12

    def __init__(self, profile: ReliabilityProfile) -> None:
        self.profile = profile
        bits = profile.ecc.codeword_bits
        strength = float(profile.ecc.correctable_bits)
        #: RBER ceilings per rung, precomputed so the ladder walk is a
        #: couple of float compares: fast path, each hard retry level,
        #: then soft decode (full strength, no fast margin).
        self._fast_rber = profile.fast_margin * strength / bits
        self._retry_rber = tuple(
            self._fast_rber / factor for factor in profile.retry_rber_factors
        )
        self._soft_rber = (strength / bits) / profile.soft_decode_rber_factor
        #: Cumulative latency of attempting levels 0..i.
        cumulative, total = [], 0
        for lat in profile.retry_latency_ns:
            total += lat
            cumulative.append(total)
        self._retry_cost = tuple(cumulative)
        self._ladder_cost = total  # every hard level attempted
        self._cache: Dict[Tuple[int, int, int], ReadOutcome] = {}
        #: Modelled retention seconds per simulated nanosecond.
        self._accel_per_ns = profile.retention_accel / 1e9

    def expected_rber(
        self, pe_cycles: int, retention_s: float, read_disturbs: int
    ) -> float:
        """Bucket-floored RBER for the given stress state."""
        return self.profile.bit_error_model.rber(
            (pe_cycles >> self._PE_SHIFT) << self._PE_SHIFT,
            retention_s=float(
                (int(retention_s) >> self._RET_SHIFT) << self._RET_SHIFT
            ),
            read_disturbs=(read_disturbs >> self._DIST_SHIFT) << self._DIST_SHIFT,
        )

    def read_outcome(
        self, pe_cycles: int, retention_s: float, read_disturbs: int
    ) -> ReadOutcome:
        """Walk (or recall) the ladder for one stress state."""
        key = (
            pe_cycles >> self._PE_SHIFT,
            int(retention_s) >> self._RET_SHIFT,
            read_disturbs >> self._DIST_SHIFT,
        )
        outcome = self._cache.get(key)
        if outcome is None:
            outcome = self._walk(
                self.profile.bit_error_model.rber(
                    key[0] << self._PE_SHIFT,
                    retention_s=float(key[1] << self._RET_SHIFT),
                    read_disturbs=key[2] << self._DIST_SHIFT,
                )
            )
            self._cache[key] = outcome
        return outcome

    def verdict(
        self, pe_cycles: int, age_ns: int, read_disturbs: int
    ) -> Tuple[ReadOutcome, int, int]:
        """:meth:`read_outcome` for a block programmed ``age_ns`` simulated
        nanoseconds ago (the profile's ``retention_accel`` converts it to
        modelled seconds), and how long that outcome holds.

        Returns ``(outcome, hold_ns, reads)``: the outcome is the block's
        until its retention bucket rolls over, ``hold_ns`` after the
        program stamp, or its disturb bucket advances, after ``reads``
        more reads including the one in hand.
        """
        retention_s = age_ns * self._accel_per_ns
        outcome = self.read_outcome(pe_cycles, retention_s, read_disturbs)
        next_boundary_s = ((int(retention_s) >> self._RET_SHIFT) + 1) << self._RET_SHIFT
        reads = (1 << self._DIST_SHIFT) - (read_disturbs & ((1 << self._DIST_SHIFT) - 1))
        return outcome, int(next_boundary_s / self._accel_per_ns), reads

    def _walk(self, rber: float) -> ReadOutcome:
        if rber <= self._fast_rber:
            return ReadOutcome(ok=True, level=0, soft=False, extra_ns=0)
        for i, ceiling in enumerate(self._retry_rber):
            if rber <= ceiling:
                return ReadOutcome(
                    ok=True, level=i + 1, soft=False, extra_ns=self._retry_cost[i]
                )
        soft_cost = self._ladder_cost + self.profile.soft_decode_latency_ns
        if rber <= self._soft_rber:
            return ReadOutcome(
                ok=True,
                level=len(self._retry_rber),
                soft=True,
                extra_ns=soft_cost,
            )
        return ReadOutcome(
            ok=False, level=len(self._retry_rber), soft=True, extra_ns=soft_cost
        )
