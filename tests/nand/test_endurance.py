"""Tests for erase counting and wear statistics."""

import pytest

from repro.nand.endurance import EnduranceModel


def test_record_and_query():
    model = EnduranceModel(4, pe_cycle_limit=10)
    assert model.erase_count(0) == 0
    assert model.record_erase(0) is False
    assert model.erase_count(0) == 1
    assert model.total_erases == 1


def test_wear_out_at_limit():
    model = EnduranceModel(2, pe_cycle_limit=3)
    assert model.record_erase(1) is False
    assert model.record_erase(1) is False
    assert model.record_erase(1) is True  # reaches the limit
    assert model.remaining_cycles(1) == 0


def test_record_erase_is_true_from_the_limit_on():
    model = EnduranceModel(2, pe_cycle_limit=3)
    verdicts = [model.record_erase(1) for _ in range(6)]
    assert verdicts == [False, False, True, True, True, True]
    assert model.erase_count(1) == 6 and model.erase_count(0) == 0
    assert model.total_erases == 6
    unlimited = EnduranceModel(2, pe_cycle_limit=None)
    assert [unlimited.record_erase(0) for _ in range(6)] == [False] * 6


def test_erase_count_is_a_plain_int():
    model = EnduranceModel(2, pe_cycle_limit=3)
    model.record_erase(0)
    assert type(model.erase_count(0)) is int
    assert type(model.record_erase(0)) is bool


def test_remaining_cycles():
    model = EnduranceModel(2, pe_cycle_limit=5)
    model.record_erase(0)
    assert model.remaining_cycles(0) == 4
    assert model.remaining_cycles(1) == 5


def test_unlimited_endurance():
    model = EnduranceModel(2, pe_cycle_limit=None)
    for _ in range(1000):
        assert model.record_erase(0) is False
    assert model.remaining_cycles(0) is None


def test_stats():
    model = EnduranceModel(4, pe_cycle_limit=2)
    model.record_erase(0)
    model.record_erase(0)
    model.record_erase(1)
    stats = model.stats()
    assert stats.total_erases == 3
    assert stats.max_erase_count == 2
    assert stats.min_erase_count == 0
    assert stats.worn_out_blocks == 1
    assert stats.mean_erase_count == pytest.approx(0.75)


def test_imbalance_metric():
    model = EnduranceModel(2, pe_cycle_limit=None)
    assert model.stats().imbalance() == 1.0  # no erases yet
    model.record_erase(0)
    model.record_erase(0)
    assert model.stats().imbalance() == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [0, -3])
def test_invalid_construction(bad):
    with pytest.raises(ValueError):
        EnduranceModel(bad)
    with pytest.raises(ValueError):
        EnduranceModel(4, pe_cycle_limit=bad)
