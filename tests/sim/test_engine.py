"""Tests for the simulator event loop: ordering, run_until, power cuts."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventPriority


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending() == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_fifo_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, lambda l=label: fired.append(l))
    sim.run()
    assert fired == list("abcde")


def test_priority_breaks_ties():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append("control"), priority=EventPriority.CONTROL)
    sim.schedule(5, lambda: fired.append("device"), priority=EventPriority.DEVICE)
    sim.run()
    assert fired == ["device", "control"]


def test_callback_sees_its_own_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(8, lambda: fired.append(("second", sim.now)))

    sim.schedule(2, first)
    sim.run()
    assert fired == [("first", 2), ("second", 10)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    sim.run_until(15)
    assert fired == [10]
    assert sim.now == 15
    sim.run_until(25)
    assert fired == [10, 20]
    assert sim.now == 25


def test_run_until_inclusive_of_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(15, lambda: fired.append(15))
    sim.run_until(15)
    assert fired == [15]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(50)


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    sim.schedule(2, sim.stop)
    sim.schedule(3, lambda: fired.append(3))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 1


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    dispatched = sim.run(max_events=3)
    assert dispatched == 3
    assert fired == [0, 1, 2]


def test_dispatched_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.dispatched == 4


def test_engine_holds_no_reference_to_a_fired_callback():
    # A component's callback (and what its closure holds) must be
    # collectable once its event has fired: the engine keeps no record.
    sim = Simulator()

    class Callback:
        def __call__(self):
            pass

    callback = Callback()
    ref = weakref.ref(callback)
    sim.schedule(1, callback, name="once")
    sim.schedule(2, lambda: None)
    del callback
    sim.run(max_events=1)
    gc.collect()
    assert ref() is None
    assert sim.pending() == 1


# ----------------------------------------------------------------------
# Property: any program of schedules, slices, stops and a power cut
# ----------------------------------------------------------------------
PRIORITY_VALUES = list(EventPriority)
#: ``schedule`` / ``schedule_at`` with a delay (0 included), a priority,
#: a name or none; a ``stop()``.
ACTIONS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(0, 6),
        st.sampled_from(PRIORITY_VALUES),
        st.booleans(),
        st.booleans(),
    ),
    st.tuples(st.just("stop")),
)
MAX_EVENTS = st.one_of(st.none(), st.integers(0, 5))
SLICES = st.one_of(
    st.tuples(st.just("until"), st.integers(0, 9), MAX_EVENTS),
    st.tuples(st.just("run"), MAX_EVENTS),
    st.tuples(st.just("step")),
)


class EngineModel:
    """Drives a Simulator and keeps the ``(time, priority, seq)`` keys of
    its pending ("live") events beside it."""

    EVENT_CAP = 120  # callbacks schedule callbacks: bound the program

    def __init__(self, behaviours):
        self.sim = Simulator()
        self.behaviours = behaviours
        self.keys = []
        self.labels = []
        self.live = {}
        self.fired = []
        self.profile = []
        self.stopped = False
        self.sim.set_profiler(self)

    def record(self, label, wall_ns):  # the set_profiler seam
        assert wall_ns >= 0
        self.profile.append(label)

    def check_counts(self):
        assert self.sim.pending() == len(self.live)
        assert self.sim.dispatched == len(self.fired)

    def callback(self, ident):
        def fire():
            key = self.keys[ident]
            assert ident in self.live  # not fired before
            assert self.sim.now == key[0]
            assert key == min(self.live.values())
            del self.live[ident]
            self.fired.append(ident)
            self.check_counts()
            for action in self.behaviours[ident % len(self.behaviours)]:
                self.do(action)

        return fire

    def do(self, action):
        sim = self.sim
        if action[0] == "schedule":
            _, delay, priority, named, absolute = action
            ident = len(self.keys)
            if ident >= self.EVENT_CAP:
                return
            callback = self.callback(ident)
            name = f"event-{ident}" if named else None
            if absolute:
                sim.schedule_at(sim.now + delay, callback, priority=priority, name=name)
            else:
                sim.schedule(delay, callback, priority=priority, name=name)
            # The engine numbers events in scheduling order, as this does.
            key = (sim.now + delay, int(priority), ident)
            self.keys.append(key)
            self.labels.append(name or callback.__qualname__)
            self.live[ident] = key
        else:
            sim.stop()
            self.stopped = True
        self.check_counts()

    def advance(self, piece):
        sim = self.sim
        self.stopped = False
        fired_before, now_before = len(self.fired), sim.now
        if piece[0] == "step":
            target, limit = None, 1
            returned = int(sim.step())
        elif piece[0] == "run":
            target, limit = None, piece[1]
            returned = sim.run(limit)
        else:
            target, limit = sim.now + piece[1], piece[2]
            returned = sim.run_until(target, limit)
        count = len(self.fired) - fired_before
        assert returned == count
        last = self.keys[self.fired[-1]][0] if count else now_before
        if limit is not None:
            assert count <= limit
        cut_short = limit is not None and count >= limit and bool(sim._heap)
        if target is None or self.stopped or cut_short:
            assert sim.now == last  # the clock rests on the last fired event
        else:
            assert sim.now == target
        if not self.stopped and not cut_short:
            horizon = sim.now if target is not None else float("inf")
            assert not [key for key in self.live.values() if key[0] <= horizon]
        self.check_counts()


@settings(max_examples=300, deadline=None)
@given(
    behaviours=st.lists(st.lists(ACTIONS, max_size=4), min_size=1, max_size=8),
    program=st.lists(st.one_of(ACTIONS, SLICES), max_size=40),
    power_cut=st.booleans(),
)
def test_any_program_dispatches_live_events_in_key_order(behaviours, program, power_cut):
    """Whatever is scheduled from wherever, the event that fires is the
    smallest ``(time, priority, seq)`` among the live ones, at its own
    time; ``pending()`` and ``dispatched`` are exact after every step;
    slices end where ``max_events`` / ``stop()`` / the horizon say; the
    profiler hears each fired event once, under its label; and a power
    cut drops exactly the live events and leaves the simulator dead."""
    model = EngineModel(behaviours)
    for piece in program:
        if piece[0] in ("until", "run", "step"):
            model.advance(piece)
        else:
            model.do(piece)
    if power_cut:
        sim = model.sim
        assert sim.power_cut() == len(model.live)
        assert sim.pending() == 0
        with pytest.raises(SimulationError):
            sim.schedule(0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(sim.now)
        assert sim.dispatched == len(model.fired)
        return
    model.advance(("run", None))
    while model.stopped:  # a stop() ends a run early; finish the program
        model.advance(("run", None))
    assert not model.live and model.sim.pending() == 0
    assert sorted(model.fired) == sorted(set(model.fired))
    times = [model.keys[ident][0] for ident in model.fired]
    assert times == sorted(times)
    assert model.profile == [model.labels[ident] for ident in model.fired]
