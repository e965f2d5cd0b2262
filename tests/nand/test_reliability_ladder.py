"""Tests for the live reliability subsystem's NAND-level half.

Covers :class:`ReliabilityProfile` validation (the config-time error
messages), profile resolution, the deterministic ECC escalation ladder
(:class:`ReliabilityModel`), and the retention-clock / disturb-counter
durability semantics on :class:`NandArray` (the clock rides the durable
image; disturb counters are volatile and reset at power-on).
"""

import numpy as np
import pytest

from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.reliability import (
    RELIABILITY_PROFILES,
    ReadDisturbTracker,
    ReadOutcome,
    ReliabilityModel,
    ReliabilityProfile,
    resolve_reliability_profile,
)
from repro.nand.timing import NandTiming

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=8)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


# ----------------------------------------------------------------------
# Profile validation
# ----------------------------------------------------------------------
def test_profile_rejects_non_monotonic_retry_latencies():
    with pytest.raises(ValueError, match="monotonically non-decreasing"):
        ReliabilityProfile(
            retry_latency_ns=(90_000, 60_000, 140_000),
            retry_rber_factors=(0.72, 0.55, 0.42),
        )


def test_profile_rejects_ladder_length_mismatch():
    with pytest.raises(ValueError, match="retry ladder mismatch"):
        ReliabilityProfile(
            retry_latency_ns=(60_000, 90_000),
            retry_rber_factors=(0.72, 0.55, 0.42),
        )


def test_profile_rejects_nonpositive_retry_latency():
    with pytest.raises(ValueError, match=r"retry_latency_ns\[0\] must be positive"):
        ReliabilityProfile(
            retry_latency_ns=(0, 90_000, 140_000),
            retry_rber_factors=(0.72, 0.55, 0.42),
        )


def test_profile_rejects_increasing_rber_factors():
    with pytest.raises(ValueError, match="non-increasing"):
        ReliabilityProfile(
            retry_latency_ns=(60_000, 90_000, 140_000),
            retry_rber_factors=(0.55, 0.72, 0.42),
        )


def test_profile_rejects_out_of_range_rber_factor():
    with pytest.raises(ValueError, match=r"retry_rber_factors\[0\] must be in"):
        ReliabilityProfile(
            retry_latency_ns=(60_000,),
            retry_rber_factors=(1.5,),
        )


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"fast_margin": 0.0}, "fast_margin"),
        ({"fast_margin": 1.5}, "fast_margin"),
        ({"page_bytes": 0}, "page_bytes"),
        ({"soft_decode_latency_ns": 0}, "soft_decode_latency_ns"),
        ({"soft_decode_rber_factor": 1.0}, "soft_decode_rber_factor"),
        ({"retention_threshold_s": -1.0}, "retention_threshold_s"),
        ({"disturb_threshold": 0}, "disturb_threshold"),
        ({"scrub_scan_blocks": 0}, "scrub_scan_blocks"),
        ({"retention_accel": 0.0}, "retention_accel"),
    ],
)
def test_profile_rejects_bad_knobs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ReliabilityProfile(**kwargs)


def test_resolve_none_and_off_disable():
    assert resolve_reliability_profile(None) is None
    assert resolve_reliability_profile("off") is None


def test_resolve_passes_instances_through():
    profile = ReliabilityProfile(name="custom")
    assert resolve_reliability_profile(profile) is profile


def test_resolve_known_names():
    for name, profile in RELIABILITY_PROFILES.items():
        assert resolve_reliability_profile(name) is profile


def test_resolve_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="unknown reliability profile 'slc'") as exc:
        resolve_reliability_profile("slc")
    message = str(exc.value)
    assert "off" in message
    assert "mlc-20nm" in message


# ----------------------------------------------------------------------
# ECC escalation ladder (deterministic, bucketed)
# ----------------------------------------------------------------------
# The accel profile's ladder thresholds with BitErrorModel(base_rber=1e-4,
# retention_scale_s=5000) at pe=0 reduce to rber = 1e-4 * (1 + R/5000):
#   fast ceiling  = 0.30 * 40/8192           = 1.465e-3  (R <= ~68k s)
#   L3 ceiling    = fast / 0.42              = 3.487e-3  (R <= ~169k s)
#   soft ceiling  = (40/8192) / 0.25         = 1.953e-2  (R <= ~972k s)
ACCEL = RELIABILITY_PROFILES["mlc-20nm-accel"]


def test_fresh_read_takes_fast_path():
    model = ReliabilityModel(ACCEL)
    outcome = model.read_outcome(0, 0.0, 0)
    assert outcome == ReadOutcome(ok=True, level=0, soft=False, extra_ns=0)


def test_moderate_retention_hits_hard_retry_level():
    model = ReliabilityModel(ACCEL)
    # R = 81_920 s -> rber = 1.738e-3, just past the fast ceiling.
    outcome = model.read_outcome(0, 81_920.0, 0)
    assert outcome.ok
    assert outcome.level == 1
    assert not outcome.soft
    assert outcome.extra_ns == ACCEL.retry_latency_ns[0]


def test_deep_retention_needs_soft_decode():
    model = ReliabilityModel(ACCEL)
    # R = 409_600 s -> rber = 8.29e-3: past every hard level, soft saves.
    outcome = model.read_outcome(0, 409_600.0, 0)
    assert outcome.ok
    assert outcome.soft
    assert outcome.level == len(ACCEL.retry_latency_ns)
    assert outcome.extra_ns == sum(ACCEL.retry_latency_ns) + ACCEL.soft_decode_latency_ns


def test_extreme_retention_is_uecc_with_full_ladder_paid():
    model = ReliabilityModel(ACCEL)
    # R = 2_000_000 s -> rber = 4.01e-2: beyond even soft decode.
    outcome = model.read_outcome(0, 2_000_000.0, 0)
    assert not outcome.ok
    # The whole ladder was attempted and paid for before declaring UECC.
    assert outcome.extra_ns == sum(ACCEL.retry_latency_ns) + ACCEL.soft_decode_latency_ns


def test_ladder_extra_ns_monotone_in_retention():
    model = ReliabilityModel(ACCEL)
    ages = [0.0, 4096.0, 81_920.0, 163_840.0, 409_600.0, 2_000_000.0]
    costs = [model.read_outcome(0, age, 0).extra_ns for age in ages]
    assert costs == sorted(costs)


def test_outcomes_cached_per_stress_bucket():
    model = ReliabilityModel(ACCEL)
    first = model.read_outcome(63, 1000.0, 100)
    # Same (pe>>6, retention>>12, disturb>>12) bucket -> same cached object.
    assert model.read_outcome(0, 4095.0, 4095) is first


def test_expected_rber_uses_bucket_floor():
    model = ReliabilityModel(ACCEL)
    floored = ACCEL.bit_error_model.rber(64, retention_s=4096.0, read_disturbs=0)
    assert model.expected_rber(100, 5000.0, 10) == floored


def test_disturbs_escalate_outcome():
    model = ReliabilityModel(ACCEL)
    calm = model.read_outcome(0, 0.0, 0)
    # disturb_factor=2e-5: 2**21 reads multiply rber well past the ceiling.
    disturbed = model.read_outcome(0, 0.0, 1 << 21)
    assert calm.level == 0
    assert disturbed.extra_ns > calm.extra_ns


# ----------------------------------------------------------------------
# Retention clock and disturb counters on the NAND array
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_program_stamps_retention_clock_only_when_installed():
    nand = NandArray(GEOMETRY, TIMING)
    nand.program_page(0, 0)
    # No clock installed: the vector stays at its zero default.
    assert int(nand.last_program_ns[0]) == 0

    clock = _Clock()
    clock.now = 123
    nand.set_reliability_clock(clock)
    nand.program_page(0, 1)
    assert int(nand.last_program_ns[0]) == 123


def test_erase_rebases_retention_clock():
    nand = NandArray(GEOMETRY, TIMING)
    clock = _Clock()
    nand.set_reliability_clock(clock)
    clock.now = 100
    nand.program_page(0, 0)
    clock.now = 500
    nand.erase_block(0)
    assert int(nand.last_program_ns[0]) == 500


def test_retention_clock_rides_durable_image():
    nand = NandArray(GEOMETRY, TIMING)
    clock = _Clock()
    nand.set_reliability_clock(clock)
    clock.now = 777
    nand.program_page(2, 0)
    state = nand.capture_durable_state()

    recovered = NandArray(GEOMETRY, TIMING, durable=state)
    assert int(recovered.last_program_ns[2]) == 777
    np.testing.assert_array_equal(recovered.last_program_ns, nand.last_program_ns)


def test_disturb_counters_reset_at_power_on():
    """Regression: the disturb tracker is volatile controller DRAM.

    The retention clock must survive the power cut (it rides the durable
    image) while the read-disturb counters must NOT: every power-on
    starts them at zero, by design (DESIGN.md, power-on disturb-reset).
    """
    tracker = ReadDisturbTracker(GEOMETRY.total_blocks, scrub_threshold=1000)
    nand = NandArray(GEOMETRY, TIMING, read_disturb=tracker)
    clock = _Clock()
    nand.set_reliability_clock(clock)
    clock.now = 42
    nand.program_page(1, 0)
    for _ in range(17):
        nand.read_page(1, 0)
    assert int(tracker.read_counts[1]) == 17

    state = nand.capture_durable_state()
    fresh_tracker = ReadDisturbTracker(GEOMETRY.total_blocks, scrub_threshold=1000)
    recovered = NandArray(GEOMETRY, TIMING, read_disturb=fresh_tracker, durable=state)
    # Clock survived; counters did not.
    assert int(recovered.last_program_ns[1]) == 42
    assert recovered.read_disturb is fresh_tracker
    assert int(fresh_tracker.read_counts.max(initial=0)) == 0
