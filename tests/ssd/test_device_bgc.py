"""Device BGC mechanics: idle-detection grace, chaining, wear-level path."""

from repro.sim.engine import Simulator
from repro.sim.simtime import MILLISECOND, SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.device import ReclaimController, SsdDevice
from repro.ssd.request import IoKind, IoRequest


class CountingController(ReclaimController):
    def __init__(self, demand):
        self.demand = demand
        self.blocks = 0

    def reclaim_demand_pages(self, device):
        return self.demand

    def on_block_collected(self, device, freed_pages):
        self.blocks += 1


def make_device(grace_ns, demand=10**9):
    sim = Simulator()
    config = SsdConfig.small(blocks=64, pages_per_block=8)
    config.bgc_idle_grace_ns = grace_ns
    controller = CountingController(demand)
    device = SsdDevice(sim, config, controller=controller)
    return sim, device, controller


def seed_garbage(sim, device):
    user = device.ftl.space.user_pages
    for i in range(user * 2):
        device.submit(IoRequest(IoKind.DIRECT_WRITE, i % (user // 2), 1))
    # Drain the queue without giving idle time (grace may defer BGC).
    sim.run_until(sim.now + 60 * SECOND)


def test_grace_defers_bgc_until_quiet():
    sim, device, controller = make_device(grace_ns=MILLISECOND, demand=0)
    seed_garbage(sim, device)
    controller.demand = 10**9
    # Keep the device busy with requests spaced closer than the grace:
    # BGC must not start between them.
    blocks_before = device.ftl.stats.bgc_blocks_collected
    for index in range(50):
        sim.schedule_at(
            sim.now + index * (MILLISECOND // 2),
            lambda: device.submit(IoRequest(IoKind.READ, 0, 1)),
        )
    sim.run_until(sim.now + 25 * MILLISECOND)
    assert device.ftl.stats.bgc_blocks_collected == blocks_before
    # After a real quiet period, BGC chains freely.
    sim.run_until(sim.now + SECOND)
    assert device.ftl.stats.bgc_blocks_collected > blocks_before


def test_zero_grace_starts_immediately():
    sim, device, controller = make_device(grace_ns=0, demand=0)
    seed_garbage(sim, device)
    controller.demand = 10**9
    device.kick_bgc()
    assert not device.idle  # collecting right now


def test_bgc_chain_does_not_rewait_grace():
    sim, device, controller = make_device(grace_ns=100 * MILLISECOND, demand=0)
    seed_garbage(sim, device)
    controller.demand = 10**9
    start = sim.now
    device.kick_bgc()  # explicit kick bypasses the grace
    sim.run_until(start + 80 * MILLISECOND)
    # Far less than one grace period elapsed, yet multiple blocks done:
    # consecutive blocks chain without re-waiting.
    assert controller.blocks >= 2


def test_bgc_stops_when_demand_satisfied():
    sim, device, controller = make_device(grace_ns=0, demand=0)
    seed_garbage(sim, device)
    controller.demand = 1  # one page wanted

    class OneShot(CountingController):
        def reclaim_demand_pages(self, dev):
            return self.demand

        def on_block_collected(self, dev, freed):
            super().on_block_collected(dev, freed)
            self.demand = 0

    one_shot = OneShot(1)
    device.controller = one_shot
    device.kick_bgc()
    sim.run_until(sim.now + SECOND)
    assert one_shot.blocks == 1
