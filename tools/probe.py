"""Diagnostic probe: run one scenario and print free-space/flood dynamics."""
import sys
from repro.experiments.runner import ScenarioSpec, POLICY_FACTORIES
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector
from repro.sim.simtime import SECOND
from repro.workloads import BENCHMARKS, Region

def probe(workload="YCSB", policy="L-BGC", blocks=1024, ppb=64, warm=20, meas=60,
          cache_frac=4, wl_kwargs=None):
    spec = ScenarioSpec(workload=workload, policy=policy, blocks=blocks, pages_per_block=ppb)
    config = spec.make_config()
    pol = spec.make_policy()
    host = HostSystem(config, pol, seed=42,
                      flusher_period_ns=1*SECOND, tau_expire_ns=6*SECOND,
                      cache_bytes=config.user_bytes // cache_frac,
                      tau_flush_fraction=0.6, dirty_throttle_fraction=0.8)
    W = host.user_pages // 2
    host.prefill(W)
    metrics = MetricsCollector(host, workload)
    wl = BENCHMARKS[workload](host, metrics, Region(0, W), **(wl_kwargs or {}))
    wl.start()
    # sample free pages every 200ms
    samples = []
    def sampler():
        samples.append(host.ftl.free_pages())
        host.sim.schedule(SECOND//5, sampler)
    host.sim.schedule(0, sampler)
    host.run_for(warm*SECOND)
    metrics.begin()
    samples.clear()
    # peak dirty population of the measured window (one call per cache op)
    max_dirty = host.cache.dirty_pages
    def on_dirty(_added, _removed):
        nonlocal max_dirty
        max_dirty = max(max_dirty, host.cache.dirty_pages)
    host.cache.dirty_listeners.append(on_dirty)
    host.run_for(meas*SECOND)
    metrics.end()
    m = metrics.results()
    op = host.ftl.space.op_pages
    acc = f" acc={m.prediction_accuracy_pct:.1f}" if m.prediction_accuracy_pct else ""
    print(f"{policy:8s} {workload:10s} iops={m.iops:8.1f} waf={m.waf:.3f} fgc={m.fgc_invocations:4d} "
          f"fgc_s={m.fgc_time_ns/1e9:6.2f} bgc={m.bgc_blocks:5d} hostw={m.host_pages_written:7d} "
          f"free[min/med/max]={min(samples)}/{sorted(samples)[len(samples)//2]}/{max(samples)} OP={op}"
          f" dirty_max={max_dirty} buf={m.buffered_fraction:.3f}{acc}")
    return m

if __name__ == "__main__":
    import json
    kwargs = json.loads(sys.argv[3]) if len(sys.argv) > 3 else {}
    for pol in (sys.argv[2].split(",") if len(sys.argv) > 2 else ["L-BGC","A-BGC"]):
        probe(workload=sys.argv[1] if len(sys.argv) > 1 else "YCSB", policy=pol, wl_kwargs=kwargs)
