"""Tests for generator-based processes (Timeout / WaitFor semantics)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Process, ProcessExit, Timeout, WaitFor


def test_timeout_sequencing():
    sim = Simulator()
    trace = []

    def actor():
        trace.append(("start", sim.now))
        yield Timeout(10)
        trace.append(("mid", sim.now))
        yield Timeout(5)
        trace.append(("end", sim.now))

    Process(sim, actor()).start()
    sim.run()
    assert trace == [("start", 0), ("mid", 10), ("end", 15)]


def test_start_delay():
    sim = Simulator()
    trace = []

    def actor():
        trace.append(sim.now)
        yield Timeout(1)

    Process(sim, actor()).start(delay=7)
    sim.run()
    assert trace == [7]


def test_waitfor_blocks_until_woken():
    sim = Simulator()
    trace = []
    waiter = WaitFor()

    def actor():
        result = yield waiter
        trace.append((sim.now, result))

    Process(sim, actor()).start()
    sim.schedule(25, lambda: waiter.wake("payload"))
    sim.run()
    assert trace == [(25, "payload")]


def test_waitfor_woken_before_yield():
    """Completion may land before the process parks; value must not be lost."""
    sim = Simulator()
    trace = []
    waiter = WaitFor()
    waiter.wake(99)

    def actor():
        result = yield waiter
        trace.append(result)

    Process(sim, actor()).start()
    sim.run()
    assert trace == [99]


def test_waitfor_double_wake_raises():
    waiter = WaitFor()
    waiter.wake()
    with pytest.raises(RuntimeError):
        waiter.wake()


def test_process_finishes_and_callback():
    sim = Simulator()
    exited = []

    def actor():
        yield Timeout(1)

    proc = Process(sim, actor(), on_exit=exited.append)
    proc.start()
    sim.run()
    assert proc.finished
    assert exited == [proc]


def test_kill_stops_process():
    sim = Simulator()
    trace = []

    def actor():
        try:
            while True:
                yield Timeout(10)
                trace.append(sim.now)
        except ProcessExit:
            trace.append("killed")
            raise

    proc = Process(sim, actor()).start()
    sim.run_until(35)
    proc.kill()
    sim.run()
    assert trace == [10, 20, 30, "killed"]
    assert proc.finished


def test_double_start_rejected():
    sim = Simulator()

    def actor():
        yield Timeout(1)

    proc = Process(sim, actor())
    proc.start()
    with pytest.raises(RuntimeError):
        proc.start()


def test_bad_yield_type_raises():
    sim = Simulator()

    def actor():
        yield "nonsense"

    Process(sim, actor()).start()
    with pytest.raises(TypeError):
        sim.run()


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def actor(name, period):
        for _ in range(3):
            yield Timeout(period)
            trace.append((name, sim.now))

    Process(sim, actor("a", 10)).start()
    Process(sim, actor("b", 15)).start()
    sim.run()
    # At t=30 both fire; b's timeout was scheduled earlier (t=15 vs t=20)
    # so FIFO tie-breaking runs b first.
    assert trace == [
        ("a", 10),
        ("b", 15),
        ("a", 20),
        ("b", 30),
        ("a", 30),
        ("b", 45),
    ]


class EventNames:
    """A ``set_profiler`` recorder: the label of every event, in order."""

    def __init__(self):
        self.labels = []

    def record(self, label, wall_ns):
        self.labels.append(label)


def test_event_names_are_start_resume_timeout():
    sim = Simulator()
    names = EventNames()
    sim.set_profiler(names)
    parked, early = WaitFor(), WaitFor()
    early.wake()

    def actor():
        yield Timeout(3)
        yield parked  # woken later: resumes through an event
        yield early  # woken before it parks: also resumes through an event
        yield Timeout(0)

    def worker():
        yield Timeout(1)

    Process(sim, actor(), name="YCSB[0]").start()
    Process(sim, worker()).start(delay=50)  # named after its generator
    sim.schedule(10, parked.wake, name="device")
    sim.run()
    assert names.labels == [
        "YCSB[0].start",
        "YCSB[0].timeout",
        "device",
        "YCSB[0].resume",
        "YCSB[0].resume",
        "YCSB[0].timeout",
        "worker.start",
        "worker.timeout",
    ]


@pytest.mark.parametrize("value", [None, 0, False, "", "payload", (1, 2)])
def test_wake_value_reaches_the_yield_parked_or_not(value):
    sim = Simulator()
    received = []
    before, after = WaitFor(), WaitFor()
    before.wake(value)

    def actor():
        received.append((yield before))
        received.append((yield after))
        received.append((yield Timeout(1)))  # a sleep resumes with None

    Process(sim, actor()).start()
    sim.schedule(5, lambda: after.wake(value))
    sim.run()
    assert len(received) == 3
    assert received[0] is value and received[1] is value
    assert received[2] is None


def test_kill_with_resume_pending_fires_nothing():
    sim = Simulator()
    trace = []
    waiter = WaitFor()

    def actor():
        yield waiter
        trace.append("resumed")
        yield Timeout(1)
        trace.append("slept")

    proc = Process(sim, actor()).start()
    sim.run()
    waiter.wake("late")  # the resume event is now queued...
    assert sim.pending() == 1
    proc.kill()  # ...and the process dies before it fires
    sim.run()
    assert trace == []
    assert proc.finished
    assert sim.pending() == 0


def test_waitfor_yielded_twice_raises():
    sim = Simulator()
    waiter = WaitFor()
    waiter.wake()

    def actor():
        yield waiter
        yield waiter

    Process(sim, actor()).start()
    with pytest.raises(RuntimeError):
        sim.run()


def test_command_subclasses_are_honoured_and_a_bare_int_is_not():
    class Nap(Timeout):
        pass

    class Signal(WaitFor):
        pass

    sim = Simulator()
    trace = []
    signal = Signal()

    def actor():
        yield Nap(7)
        trace.append(sim.now)
        trace.append((yield signal))
        yield 5

    Process(sim, actor()).start()
    sim.schedule(20, lambda: signal.wake("go"))
    with pytest.raises(TypeError, match="expected Timeout or WaitFor"):
        sim.run()
    assert trace == [7, "go"]
    assert sim.now == 20
