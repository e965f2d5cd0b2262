"""The device's idle work: BGC, refresh scrub and wear levelling.

The characterization run pins what the device does with its idle time
-- every GC occupancy span, the device trace spans by name, the busy
and bandwidth books and the FTL counters -- on a small JIT-GC device
under accelerated retention, where background collection and refresh
scrub both fire.  The wear-levelling test pins the chain rule that all
three kinds of idle work share.
"""

import collections
import dataclasses
import hashlib

import numpy as np

from repro.experiments.runner import POLICY_FACTORIES
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.obs import Observability
from repro.obs.audit import DecisionAuditLog
from repro.obs.tracer import InMemorySink, Tracer
from repro.sim.engine import Simulator
from repro.sim.simtime import MILLISECOND, SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.device import ReclaimController, SsdDevice
from repro.workloads import BENCHMARKS, Region


def run_idle_work_scenario():
    """128x16 JIT-GC device, 90 % working set, 20 sim-s of YCSB under
    ``mlc-20nm-accel``; audit and tracer on."""
    sink = InMemorySink()
    obs = Observability(tracer=Tracer(sink), audit=DecisionAuditLog())
    config = SsdConfig.small(
        blocks=128, pages_per_block=16, reliability="mlc-20nm-accel"
    )
    host = HostSystem(config, POLICY_FACTORIES["JIT-GC"](), seed=3, obs=obs)
    working_set = int(host.user_pages * 0.9)
    host.prefill(working_set)
    metrics = MetricsCollector(host, "YCSB")
    workload = BENCHMARKS["YCSB"](host, metrics, Region(0, working_set))
    workload.start()
    host.run_for(20 * SECOND)
    workload.stop()
    return host, obs, sink


def span_digest(spans):
    rows = [(s.t_ns, s.dur_ns, s.background, s.scrub, s.pages) for s in spans]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


#: ``(t_ns, dur_ns, background, scrub, pages)`` of every GcSpanRecord,
#: in record order: their count and the sha256 of their ``repr``.
SPAN_DIGEST = (612, "050c682a0c400d5b6a9a602bcf3e2e8a7a5605803d9afc8f4d0a454bbf3cb75e")
DEVICE_SPANS = {"fgc.stall": 286, "bgc.block": 322, "scrub.block": 4}
#: ``busy_ns``, ``bgc_busy_ns`` and the GC-bandwidth estimate (``repr``).
BUSY = (11473576250, 1011657500, "4765102.505077678")
FTL_STATS = {
    "host_pages_written": 7332,
    "gc_pages_migrated": 9238,
    "gc_pages_read": 9238,
    "blocks_erased": 928,
    "host_pages_read": 8922,
    "pages_trimmed": 0,
    "checkpoints_written": 0,
    "meta_pages_written": 0,
    "tombstones_journaled": 0,
    "meta_block_erases": 0,
    "meta_program_faults": 0,
    "meta_erase_faults": 0,
    "meta_blocks_retired": 0,
    "cmt_hits": 0,
    "cmt_misses": 0,
    "cmt_evictions": 0,
    "trans_pages_written": 0,
    "trans_pages_read": 0,
    "trans_pages_migrated": 0,
    "fgc_invocations": 286,
    "fgc_blocks_collected": 602,
    "fgc_time_ns": 41497760000,
    "bgc_blocks_collected": 326,
    "bgc_time_ns": 8093260000,
    "wl_blocks_collected": 0,
    "victim_selections": 924,
    "victims_filtered_by_sip": 788,
    "read_retries": 0,
    "uncorrectable_reads": 0,
    "program_faults": 0,
    "erase_faults": 0,
    "blocks_retired": 0,
    "ecc_fast_reads": 7673,
    "ecc_retry_reads": 10487,
    "ecc_soft_decodes": 3732,
    "uecc_count": 0,
    "scrub_blocks_refreshed": 4,
    "scrub_pages_migrated": 64,
}


def test_idle_work_characterization():
    host, obs, sink = run_idle_work_scenario()
    device = host.device
    spans = obs.audit.gc_spans
    assert any(s.scrub for s in spans)
    assert any(s.background and not s.scrub for s in spans)
    assert span_digest(spans) == SPAN_DIGEST
    counts = collections.Counter(
        record["name"] for record in sink.records if record.get("cat") == "device"
    )
    assert dict(counts) == DEVICE_SPANS
    assert (
        device.busy_ns,
        device.bgc_busy_ns,
        repr(device.gc_bandwidth.bytes_per_second),
    ) == BUSY
    assert dataclasses.asdict(host.ftl.stats) == FTL_STATS
    host.ftl.invariant_check()


class RecordingController(ReclaimController):
    """Declines every idle window, recording when it was consulted."""

    def __init__(self):
        self.consulted = []

    def reclaim_demand_pages(self, device):
        self.consulted.append(device.sim.now)
        return 0


def test_wear_level_block_reconsults_bgc_at_its_completion():
    """Like a BGC or scrub block, a wear-level block that ends on an
    empty queue reconsults the controller at once: the device is in a
    confirmed idle period, so the idle grace is not waited again."""
    sim = Simulator()
    config = SsdConfig.small(
        blocks=64, pages_per_block=8, enable_wear_leveling=True, wear_level_threshold=1
    )
    config.bgc_idle_grace_ns = 100 * MILLISECOND
    controller = RecordingController()
    device = SsdDevice(sim, config, controller=controller)
    device.audit = DecisionAuditLog()
    ftl = device.ftl
    for lpn in range(8):
        ftl.host_write_page(lpn)
    ftl.host_write_page(0)  # block 0 stays cold, with one invalid page
    user = ftl.space.user_pages
    for lpn in np.random.default_rng(0).integers(8, user // 2, size=20_000):
        ftl.host_write_page(int(lpn))

    device.kick_bgc()
    assert controller.consulted == [0]
    assert ftl.stats.wl_blocks_collected == 1
    sim.run_until(SECOND)
    (span,) = device.audit.gc_spans
    assert span.background and not span.scrub
    assert controller.consulted == [0, span.t_ns + span.dur_ns]
    ftl.invariant_check()
