"""Tests for the timed SSD device: queueing, completion, BGC control."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.ssd.config import SsdConfig
from repro.ssd.device import ReclaimController, SsdDevice
from repro.ssd.request import IoKind, IoRequest


def make_device(sim=None, controller=None, **cfg_kwargs):
    sim = sim or Simulator()
    cfg_kwargs.setdefault("blocks", 64)
    cfg_kwargs.setdefault("pages_per_block", 8)
    parallelism = cfg_kwargs.pop("channel_parallelism", 1)
    config = SsdConfig.small(**cfg_kwargs)
    config.channel_parallelism = parallelism
    return sim, SsdDevice(sim, config, controller=controller)


class FixedDemand(ReclaimController):
    """Test controller: constant reclaim demand in pages."""

    def __init__(self, demand):
        self.demand = demand
        self.collected = []

    def reclaim_demand_pages(self, device):
        return self.demand

    def on_block_collected(self, device, freed_pages):
        self.collected.append(freed_pages)


def test_write_request_completes_with_latency():
    sim, dev = make_device()
    done = []
    dev.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 1, on_complete=done.append))
    sim.run()
    assert len(done) == 1
    req = done[0]
    assert req.complete_time > req.submit_time
    assert req.latency() > 0
    assert dev.requests_completed == 1


def test_requests_serialize_fifo():
    sim, dev = make_device()
    order = []
    for i in range(3):
        dev.submit(
            IoRequest(IoKind.DIRECT_WRITE, i, 1, on_complete=lambda r: order.append(r.lpn))
        )
    sim.run()
    assert order == [0, 1, 2]


def test_read_faster_than_write():
    sim, dev = make_device()
    latencies = {}
    dev.submit(
        IoRequest(IoKind.DIRECT_WRITE, 0, 1, on_complete=lambda r: latencies.__setitem__("w", r.latency()))
    )
    sim.run()
    dev.submit(
        IoRequest(IoKind.READ, 0, 1, on_complete=lambda r: latencies.__setitem__("r", r.latency()))
    )
    sim.run()
    assert latencies["r"] < latencies["w"]


def test_trim_request():
    sim, dev = make_device()
    dev.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 4))
    dev.submit(IoRequest(IoKind.TRIM, 0, 4))
    sim.run()
    assert dev.ftl.used_pages() == 0


def test_multi_page_write_parallelism_speedup():
    sim1, serial = make_device(channel_parallelism=1)
    sim2, striped = make_device(channel_parallelism=4)
    lat = {}
    serial.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 8, on_complete=lambda r: lat.__setitem__("s", r.latency())))
    striped.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 8, on_complete=lambda r: lat.__setitem__("p", r.latency())))
    sim1.run()
    sim2.run()
    assert lat["p"] * 3 < lat["s"]


def test_idle_flag():
    sim, dev = make_device()
    assert dev.idle
    dev.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 1))
    assert not dev.idle
    sim.run()
    assert dev.idle


def test_bgc_runs_when_idle_with_demand():
    controller = FixedDemand(demand=10_000)
    sim, dev = make_device(controller=controller)
    user = dev.ftl.space.user_pages
    # Create garbage.
    for i in range(user * 2):
        dev.submit(IoRequest(IoKind.DIRECT_WRITE, i % (user // 2), 1))
    sim.run()
    assert dev.ftl.stats.bgc_blocks_collected > 0
    assert controller.collected, "controller must be notified per collected block"
    assert dev.bgc_busy_ns > 0


def test_no_bgc_without_demand():
    controller = FixedDemand(demand=0)
    sim, dev = make_device(controller=controller)
    user = dev.ftl.space.user_pages
    for i in range(user):
        dev.submit(IoRequest(IoKind.DIRECT_WRITE, i % (user // 2), 1))
    sim.run()
    assert dev.ftl.stats.bgc_blocks_collected == 0


def test_host_request_waits_at_most_one_bgc_block():
    """A request arriving mid-BGC is served right after the current block."""
    controller = FixedDemand(demand=0)
    sim, dev = make_device(controller=controller)
    user = dev.ftl.space.user_pages
    # Create garbage with BGC disabled so victims remain afterwards.
    for i in range(user * 2):
        dev.submit(IoRequest(IoKind.DIRECT_WRITE, i % (user // 2), 1))
    sim.run()
    assert dev.ftl.has_victim()

    # Enable demand, start one BGC block, inject a request mid-collection.
    controller.demand = 10**9
    done = []
    dev.kick_bgc()
    assert not dev.idle  # BGC block in flight
    dev.submit(IoRequest(IoKind.READ, 0, 1, on_complete=done.append))
    sim.run(max_events=4)
    assert done, "request must complete right after the in-flight BGC block"


def test_completion_listeners_called():
    sim, dev = make_device()
    seen = []
    dev.completion_listeners.append(lambda r: seen.append(r.request_id))
    dev.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 1))
    sim.run()
    assert len(seen) == 1


def test_bandwidth_estimators_update():
    sim, dev = make_device()
    before = dev.write_bandwidth.samples
    for i in range(50):
        dev.submit(IoRequest(IoKind.WRITEBACK, i % 8, 4))
    sim.run()
    assert dev.write_bandwidth.samples > before
    assert dev.write_bandwidth.bytes_per_second > 0


def test_free_bytes_matches_ftl():
    _, dev = make_device()
    assert dev.free_bytes() == dev.ftl.free_bytes()
    assert dev.free_pages() == dev.ftl.free_pages()


@settings(max_examples=100, deadline=None)
@given(
    raw_ns=st.integers(0, 10**7),
    pages=st.integers(1, 64),
    fgc_ns=st.sampled_from([0, 0, 1, 40_000]),
    parallelism=st.integers(1, 16),
    kind=st.sampled_from(list(IoKind)),
)
def test_service_time_follows_the_striping_rule(raw_ns, pages, fgc_ns, parallelism, kind):
    """Up to ``parallelism`` pages of a request overlap; a request that
    ran foreground GC overlaps across all channels; never below 1 ns.
    Busy time is booked by request kind."""
    sim, dev = make_device(channel_parallelism=parallelism)
    dev._execute = lambda request: (raw_ns, fgc_ns)
    req = IoRequest(kind, 0, pages)
    dev.submit(req)
    sim.run()
    factor = min(parallelism, max(1, pages)) if fgc_ns == 0 else parallelism
    latency = max(1, raw_ns // factor)
    assert req.complete_time - req.start_time == latency
    assert dev.busy_ns == latency
    assert dev.write_busy_ns == (latency if req.is_write else 0)
    assert dev.read_busy_ns == (latency if kind is IoKind.READ else 0)
