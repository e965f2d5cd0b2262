"""Per-layer metrics of one traced window.

Times come from the tracer's spans (self time per layer), counts from
the deltas of the stack's own monotonic counters over the same window.
``BUDGET`` names the metrics that are wall-time shares of the window:
together with ``obs.unattributed_share`` they sum to the traced wall
time, which ``test_bench_e2e.py`` asserts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: tracer layer -> the per-layer metric holding its self time.
BUDGET = {
    "sim": "sim.self_s",
    "workloads": "workloads.self_s",
    "oskernel.iopath": "oskernel.iopath.self_s",
    "oskernel.cache": "oskernel.cache.self_s",
    "oskernel.flusher": "oskernel.flusher.self_s",
    "core": "core.self_s",
    "ssd": "ssd.self_s",
    "ftl.host_write": "ftl.host_write.self_s",
    "ftl.host_read": "ftl.host_read.self_s",
    "ftl.trim": "ftl.trim.self_s",
    "ftl.gc": "ftl.gc.self_s",
    "ftl.scrub": "ftl.scrub.self_s",
    "ftl.victim": "ftl.victim.self_s",
    "ftl.mapping": "ftl.mapping.self_s",
    "ftl.metastore": "ftl.metastore.self_s",
    "ftl.recovery": "ftl.recovery.self_s",
    "nand": "nand.self_s",
    "nand.reliability": "nand.reliability.self_s",
    "faults": "faults.self_s",
    "faults.capture": "faults.capture_s",
    "metrics": "metrics.self_s",
    "experiments.verify": "experiments.verify_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(window, ran: dict, host) -> Tuple[Dict[str, float], List[str]]:
    """``(metrics, budget)``: every per-layer metric of BENCHMARK.json,
    and the names among them that add up to the traced wall time."""
    tracer, d, m = window.tracer, window.delta, window.metrics
    self_s = tracer.layer_self_s()
    out = {metric: self_s.get(layer, 0.0) for layer, metric in BUDGET.items()}
    attributed = sum(out.values())
    # Set-up spans (prefill, synthesis) and unknown event labels are not
    # layers of the window; whatever they cost in it stays unattributed.
    out["obs.unattributed_share"] = _ratio(
        window.wall_raw_s - attributed, window.wall_raw_s
    )

    ops = window.app_completed
    host_pages = d["ftl.host_pages_written"] + d["ftl.host_pages_read"]
    gc_blocks = d["ftl.fgc_blocks_collected"] + d["ftl.bgc_blocks_collected"]
    ppb = host.config.geometry.pages_per_block
    write_bytes = d["io.buffered_bytes"] + d["io.direct_bytes"]
    cache_reads = d["cache.read_hits"] + d["cache.read_misses"]
    ecc_reads = (
        d["ftl.ecc_fast_reads"] + d["ftl.ecc_retry_reads"] + d["ftl.uecc_count"]
    )
    recoveries = tracer.window["kept"]["recover_ftl"]
    pages_scanned = sum(r[1] for r in recoveries)
    predicted_waf = window.setup_spans["predicted_waf"]

    out.update(
        {
            "sim.events": d["sim.events"],
            "sim.us_per_event": _ratio(out["sim.self_s"] * 1e6, d["sim.events"]),
            "sim.events_per_op": _ratio(d["sim.events"], ops),
            "workloads.ops_attempted": window.app_issued,
            "workloads.ops_completed": ops,
            "oskernel.iopath.calls": tracer.calls(
                "IoDispatcher.write",
                "IoDispatcher.read",
                "IoDispatcher.fsync",
                "IoDispatcher.trim",
            ),
            "oskernel.iopath.throttle_waits": d["io.throttle_events"],
            "oskernel.iopath.buffered_fraction": _ratio(
                d["io.buffered_bytes"], write_bytes
            ),
            "oskernel.cache.write_pages": tracer.calls("PageCache.write_page"),
            "oskernel.cache.read_hit_rate": _ratio(d["cache.read_hits"], cache_reads),
            "oskernel.cache.dirty_pages_peak": tracer.dirty_pages_peak,
            "oskernel.flusher.ticks": d["flusher.wakeups"],
            "oskernel.flusher.pages_flushed": d["flusher.pages_flushed"],
            "core.manager_ticks": d["core.decisions"],
            "core.bgc_blocks": m.bgc_blocks,
            "core.prediction_accuracy_pct": m.prediction_accuracy_pct or 0.0,
            "core.sip_filtered_pct": m.sip_filtered_pct(),
            "ssd.requests": d["ssd.requests"],
            "ssd.busy_share": _ratio(d["ssd.busy_ns"], m.duration_ns),
            "ftl.host_write.pages": d["ftl.host_pages_written"],
            "ftl.host_read.pages": d["ftl.host_pages_read"],
            "ftl.trim.pages": d["ftl.pages_trimmed"],
            "ftl.us_per_host_page": _ratio(
                (out["ftl.host_write.self_s"] + out["ftl.host_read.self_s"]) * 1e6,
                host_pages,
            ),
            "ftl.gc.blocks_fgc": d["ftl.fgc_blocks_collected"],
            "ftl.gc.blocks_bgc": d["ftl.bgc_blocks_collected"],
            "ftl.gc.pages_migrated": d["ftl.gc_pages_migrated"],
            "ftl.gc.valid_share_at_collect": _ratio(
                d["ftl.gc_pages_migrated"], gc_blocks * ppb
            ),
            # FGC time is serial NAND time; the device charges it to the
            # stalled write divided by its channel parallelism.
            "ftl.gc.fgc_stall_share": _ratio(
                d["ftl.fgc_time_ns"] / host.device.parallelism, m.duration_ns
            ),
            "ftl.victim.selections": d["ftl.victim_selections"],
            "ftl.victim.us_per_select": _ratio(
                out["ftl.victim.self_s"] * 1e6, d["ftl.victim_selections"]
            ),
            "ftl.victim.sip_filtered": d["ftl.victims_filtered_by_sip"],
            "ftl.mapping.cmt_hit_rate": _ratio(
                d["ftl.cmt_hits"], d["ftl.cmt_hits"] + d["ftl.cmt_misses"]
            ),
            "ftl.mapping.cmt_misses": d["ftl.cmt_misses"],
            "ftl.mapping.cmt_evictions": d["ftl.cmt_evictions"],
            "ftl.mapping.trans_pages_read": d["ftl.trans_pages_read"],
            "ftl.mapping.trans_pages_written": d["ftl.trans_pages_written"],
            "ftl.mapping.translation_waf_share": m.translation_waf_share,
            "ftl.metastore.checkpoints": d["ftl.checkpoints_written"],
            "ftl.metastore.meta_pages": d["ftl.meta_pages_written"],
            "ftl.metastore.tombstones": d["ftl.tombstones_journaled"],
            "ftl.recovery.pages_scanned": pages_scanned,
            "ftl.recovery.us_per_page_scanned": _ratio(
                out["ftl.recovery.self_s"] * 1e6, pages_scanned
            ),
            "ftl.recovery.full_scans": sum(1 for r in recoveries if r[0]),
            "ftl.recovery.torn_pages": sum(r[2] for r in recoveries),
            "ftl.scrub.blocks_refreshed": d["ftl.scrub_blocks_refreshed"],
            "nand.programs": d["nand.programs"],
            "nand.reads": d["nand.reads"],
            "nand.erases": d["nand.erases"],
            "nand.us_per_page_op": _ratio(
                out["nand.self_s"] * 1e6, d["nand.programs"] + d["nand.reads"]
            ),
            "nand.reliability.fast_reads": d["ftl.ecc_fast_reads"],
            "nand.reliability.retry_reads": d["ftl.ecc_retry_reads"],
            "nand.reliability.uecc": d["ftl.uecc_count"],
            "nand.reliability.fast_share": _ratio(d["ftl.ecc_fast_reads"], ecc_reads),
            "faults.injected": d["faults.injected"],
            "faults.read_retries": d["ftl.read_retries"],
            "faults.blocks_retired": d["ftl.blocks_retired"],
            "metrics.ops_recorded": tracer.calls("MetricsCollector.record_op"),
            "metrics.lat_p999_ms": m.p999_latency_ns / 1e6,
            "metrics.lat_p9999_ms": m.p9999_latency_ns / 1e6,
            "analytic.synth_s": window.setup_spans["synthesize_steady_state"],
            "analytic.waf_model_error_pct": (
                100.0 * _ratio(predicted_waf - m.waf, m.waf) if predicted_waf else 0.0
            ),
            "experiments.prefill_s": window.setup_spans["HostSystem.prefill"],
            "experiments.warmup_s": window.setup_spans["Simulator.run_until"],
            "experiments.points": len(ran["points"]),
        }
    )
    return out, sorted(BUDGET.values())
