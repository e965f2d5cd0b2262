"""Tests for event ordering semantics: time, then priority, then
scheduling order."""

from repro.sim.engine import Simulator
from repro.sim.events import EventPriority


def fire_order(*events):
    """Schedule ``(label, time, priority)`` events in the order given and
    return the labels in the order they fire."""
    sim = Simulator()
    fired = []
    for label, time, priority in events:
        sim.schedule_at(time, lambda label=label: fired.append(label), priority=priority)
    sim.run()
    return fired


def test_time_dominates():
    assert fire_order(
        ("late", 2, EventPriority.DEVICE), ("early", 1, EventPriority.LOW)
    ) == ["early", "late"]


def test_priority_breaks_time_ties():
    assert fire_order(
        ("control", 5, EventPriority.CONTROL), ("device", 5, EventPriority.DEVICE)
    ) == ["device", "control"]


def test_seq_breaks_full_ties():
    assert fire_order(
        ("first", 5, EventPriority.NORMAL), ("second", 5, EventPriority.NORMAL)
    ) == ["first", "second"]


def test_priority_ordering_constants():
    assert (
        EventPriority.DEVICE
        < EventPriority.NORMAL
        < EventPriority.CONTROL
        < EventPriority.LOW
    )
