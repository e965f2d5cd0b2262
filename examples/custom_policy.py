#!/usr/bin/env python3
"""Writing your own GC policy.

The policy interface is two methods: ``reclaim_demand_pages`` (how many
pages of free space do you want right now?) and optionally
``make_victim_selector`` / ``attach``.  This example builds a *hybrid*
policy -- a fixed floor like L-BGC plus a page-cache-informed top-up
like JIT-GC -- and races it against the built-ins.

Run:  python examples/custom_policy.py
"""

from repro.core.policies import GcPolicy, lazy_bgc_policy
from repro.core.buffered_predictor import BufferedWritePredictor
from repro.experiments import ScenarioSpec, format_table, run_scenario
from repro.ftl.victim import SipFilteredSelector


class HybridPolicy(GcPolicy):
    """A floor reserve plus the predicted buffered write-back on top.

    Demonstrates the extension points:

    * ``make_victim_selector`` -- install a victim-selection rule (a
      ``VictimSelector`` ranking the FTL's valid-count index);
    * ``attach`` -- subscribe to flusher ticks / device completions;
    * ``reclaim_demand_pages`` -- the device consults this when idle.
    """

    name = "HYBRID"

    def __init__(self, floor_over_op: float = 0.5) -> None:
        self.floor_over_op = floor_over_op
        self._predicted_pages = 0

    def make_victim_selector(self):
        # Reuse the paper's SIP-aware selector.
        return SipFilteredSelector()

    def attach(self, sim, device, cache, flusher) -> None:
        super().attach(sim, device, cache, flusher)
        self.predictor = BufferedWritePredictor(
            cache, flusher.period_ns, flusher.tau_expire_ns
        )
        flusher.tick_hooks.append(self._tick)

    def _tick(self, now: int) -> None:
        prediction = self.predictor.predict(now)
        page = self.device.config.geometry.page_size
        self._predicted_pages = prediction.total_bytes() // page
        self.interface.set_sip_list(prediction.sip.as_set())
        self.interface.invoke_bgc()

    def reclaim_demand_pages(self, device) -> int:
        space = device.ftl.space
        floor = space.reserved_pages(self.floor_over_op)
        target = space.clamp_reserved_pages(
            floor + self._predicted_pages, device.ftl.used_pages()
        )
        return max(0, target - device.ftl.free_pages())


def main() -> None:
    spec = ScenarioSpec(
        workload="YCSB", blocks=512, pages_per_block=32, warmup_s=10, measure_s=45
    )
    rows = []
    for name, factory in (
        ("L-BGC", lazy_bgc_policy),
        ("HYBRID", HybridPolicy),
        ("JIT-GC", None),  # via the registry
    ):
        run_spec = spec.with_policy(name, factory) if factory else spec.with_policy("JIT-GC")
        metrics = run_scenario(run_spec)
        rows.append([metrics.policy, metrics.iops, metrics.waf,
                     metrics.fgc_invocations, metrics.bgc_blocks])
        print(f"  {metrics.policy} done")
    print()
    print(format_table(
        ["Policy", "IOPS", "WAF", "FGC", "BGC blocks"],
        rows,
        title="Custom policy vs built-ins (YCSB)",
    ))


if __name__ == "__main__":
    main()
