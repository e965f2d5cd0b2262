"""SsdConfig validation and plumbing for the reliability knobs."""

import pytest

from repro.nand.reliability import (
    RELIABILITY_PROFILES,
    ReadDisturbTracker,
    ReliabilityProfile,
)
from repro.ssd.config import SsdConfig


def test_unknown_profile_name_fails_at_config_time():
    with pytest.raises(ValueError, match="unknown reliability profile 'tlc'"):
        SsdConfig.small(blocks=16, pages_per_block=4, reliability="tlc")


def test_off_and_none_resolve_to_disabled():
    for spelling in (None, "off"):
        config = SsdConfig.small(blocks=16, pages_per_block=4, reliability=spelling)
        assert config.reliability is None
        assert config.build_read_disturb() is None


def test_named_profile_resolves_eagerly():
    config = SsdConfig.small(blocks=16, pages_per_block=4, reliability="mlc-20nm")
    assert config.reliability is RELIABILITY_PROFILES["mlc-20nm"]


def test_profile_instance_passes_through():
    profile = ReliabilityProfile(name="custom", disturb_threshold=77)
    config = SsdConfig.small(blocks=16, pages_per_block=4, reliability=profile)
    assert config.reliability is profile


def test_bad_hand_built_profile_fails_before_config():
    # A hand-built profile validates its own knobs at construction, so
    # the bad ladder never even reaches SsdConfig.
    with pytest.raises(ValueError, match="monotonically non-decreasing"):
        SsdConfig.small(
            blocks=16,
            pages_per_block=4,
            reliability=ReliabilityProfile(
                retry_latency_ns=(90_000, 60_000, 140_000),
                retry_rber_factors=(0.72, 0.55, 0.42),
            ),
        )


def test_build_read_disturb_is_fresh_per_call():
    """Power-on disturb-reset: counters are volatile, built zeroed."""
    config = SsdConfig.small(blocks=16, pages_per_block=4, reliability="mlc-20nm")
    first = config.build_read_disturb()
    second = config.build_read_disturb()
    assert isinstance(first, ReadDisturbTracker)
    assert first is not second
    assert first.scrub_threshold == RELIABILITY_PROFILES["mlc-20nm"].disturb_threshold
    assert int(second.read_counts.max(initial=0)) == 0


def test_build_ftl_arms_the_subsystem():
    config = SsdConfig.small(blocks=16, pages_per_block=4, reliability="mlc-20nm")
    ftl = config.build_ftl()
    assert ftl.media.model.profile is RELIABILITY_PROFILES["mlc-20nm"]
    assert ftl.media.scrubber is not None
    assert ftl.nand.read_disturb is not None


def test_build_ftl_without_reliability_leaves_hooks_uninstalled():
    config = SsdConfig.small(blocks=16, pages_per_block=4)
    ftl = config.build_ftl()
    assert ftl.media.model is None
    assert ftl.media.scrubber is None
    assert ftl.nand.read_disturb is None
    assert ftl.maybe_scrub() == 0
