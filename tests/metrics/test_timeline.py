"""Timeline sampling: a host observed through :class:`~repro.obs.Observability`
records its standard gauges into same-named registry series every period."""

from repro.core.policies import NoBgcPolicy
from repro.host import HostSystem
from repro.obs import Observability
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig


def make_host():
    obs = Observability(metrics_interval_ns=SECOND)
    return HostSystem(
        SsdConfig.small(blocks=64, pages_per_block=8), NoBgcPolicy(), obs=obs
    )


def test_samples_at_period():
    host = make_host()
    host.run_for(5 * SECOND)
    # Samples at t=0,1,2,3,4,5 seconds.
    times = host.obs.registry.series("ftl.free_pages").times_ns
    assert len(times) == 6
    assert times[0] == 0
    assert times[-1] == 5 * SECOND


def test_default_probes_track_state():
    host = make_host()
    registry = host.obs.registry
    free_initial = host.ftl.free_pages()
    host.prefill(host.user_pages // 4, age=False)
    host.run_for(3 * SECOND)
    series = registry.series("ftl.free_pages").values
    assert series[0] <= free_initial
    assert min(series) < free_initial
    assert max(registry.series("ftl.waf").values) >= 1.0
    for name in ("cache.dirty_pages", "ftl.fgc_invocations", "ftl.bgc_blocks"):
        assert len(registry.series(name)) == len(series)


def test_stop_halts_sampling():
    host = make_host()
    host.run_for(2 * SECOND)
    host.obs.finish()
    host.run_for(3 * SECOND)
    assert len(host.obs.registry.series("ftl.free_pages")) == 3


def test_custom_probe():
    host = make_host()
    counter = {"n": 0}

    def probe():
        counter["n"] += 1
        return counter["n"]

    host.obs.registry.gauge("tick", probe)
    host.run_for(2 * SECOND)
    assert host.obs.registry.series("tick").values == [1, 2, 3]
