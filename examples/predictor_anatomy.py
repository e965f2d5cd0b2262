#!/usr/bin/env python3
"""Predictor anatomy: watch JIT-GC's two predictors and manager work.

Recreates the paper's worked examples live:

* Fig. 4 -- the buffered-write predictor scanning the page cache,
  including the age-resetting B -> B' update;
* Fig. 5 -- the direct-write CDH and its 80th-percentile read-out;
* Fig. 6 -- the manager's Creq / Tidle / Tgc decision.

Run:  python examples/predictor_anatomy.py
"""

from repro.core.buffered_predictor import BufferedWritePredictor
from repro.core.direct_predictor import DirectWritePredictor
from repro.core.manager import JitGcManager
from repro.oskernel.cache import PageCache
from repro.sim.simtime import SECOND

MB = 1_000_000
P = 5 * SECOND
TAU = 30 * SECOND


def fig4_buffered() -> None:
    print("=" * 64)
    print("Fig. 4: buffered-write demand from the page cache")
    print("=" * 64)
    cache = PageCache(page_size=MB, capacity_bytes=4096 * MB, logical_pages=4096)
    predictor = BufferedWritePredictor(cache, P, TAU)

    def write(label, start, mb, at_s):
        for page in range(start, start + mb):
            cache.write_page(page, now=at_s * SECOND)
        print(f"  t={at_s:>2}s  {label}: {mb} MB written")

    write("A", 0, 20, 2)
    write("B", 100, 20, 3)
    for t in (5,):
        demands = predictor.predict(t * SECOND).demands_bytes
        print(f"  Dbuf({t}) = {[d // MB for d in demands]}  (paper: [0,0,0,0,0,40])")
    write("C", 200, 20, 7)
    write("B' (update of B -- resets its age)", 100, 20, 8)
    demands = predictor.predict(10 * SECOND).demands_bytes
    print(f"  Dbuf(10) = {[d // MB for d in demands]}  (paper: [0,0,0,0,20,40])")
    write("D", 300, 200, 17)
    prediction = predictor.predict(20 * SECOND)
    print(f"  Dbuf(20) = {[d // MB for d in prediction.demands_bytes]}"
          f"  (paper: [0,0,20,40,0,200])")
    print(f"  SIP list holds {len(prediction.sip)} soon-to-be-invalidated pages")


def fig5_direct() -> DirectWritePredictor:
    print()
    print("=" * 64)
    print("Fig. 5: direct-write CDH")
    print("=" * 64)
    predictor = DirectWritePredictor(P, TAU, percentile=0.8, bin_bytes=10 * MB)
    for index, amount in enumerate((10, 20, 20, 20, 80)):
        predictor.record_direct_bytes(amount * MB - 1, now=index * TAU)
    now = 5 * TAU
    print(f"  observations: 10, 20, 20, 20, 80 MB per tau_expire window")
    delta = predictor.delta_dir(now)  # also closes the final window
    print(f"  CDF per 10 MB bin: {[round(x, 2) for x in predictor.cdh.cdf()]}")
    print(f"  delta_dir at p80 = {delta // MB} MB  (paper: 20 MB)")
    print(f"  Ddir = {[d // MB for d in predictor.predict(now)]} MB per interval")
    return predictor


def fig6_manager() -> None:
    print()
    print("=" * 64)
    print("Fig. 6: the JIT-GC manager's decision rule")
    print("=" * 64)
    manager = JitGcManager(TAU)
    for label, dbuf, expected in (
        ("t=10 (Fig 6a)", [0, 0, 0, 0, 20 * MB, 40 * MB], "no BGC"),
        ("t=20 (Fig 6b)", [0, 0, 20 * MB, 40 * MB, 0, 200 * MB], "12.5 MB"),
    ):
        decision = manager.decide(
            dbuf_bytes=dbuf,
            ddir_bytes=[5 * MB] * 6,
            cfree_bytes=50 * MB,
            write_bw_bytes_per_sec=40 * MB,
            gc_bw_bytes_per_sec=10 * MB,
        )
        print(f"  {label}: Creq={decision.creq_bytes // MB} MB, "
              f"Tidle={decision.tidle_ns / SECOND:.2f}s, "
              f"Tgc={decision.tgc_ns / SECOND:.2f}s "
              f"-> Dreclaim={decision.reclaim_bytes / MB:.1f} MB (paper: {expected})")


def main() -> None:
    fig4_buffered()
    fig5_direct()
    fig6_manager()


if __name__ == "__main__":
    main()
