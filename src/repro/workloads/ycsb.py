"""YCSB-like workload (Yahoo! Cloud Serving Benchmark on Cassandra).

The paper runs YCSB as its update-intensive workload: a key-value store
where records are updated with a strong Zipfian skew.  Cassandra-style
persistence produces the write mix:

* record updates accumulate in the memtable and reach the SSD as
  *buffered* sstable-style writes (the dominant share -- the paper's
  Table 1 measures 88.2 % buffered), and
* every few updates a small commit-log record is forced out with
  ``O_SYNC`` semantics -- the *direct* minority (11.8 %).

Model: records are 2 pages; each actor updates Zipf-hot records and
reads others; every ``log_every`` updates appends one direct page to a
circular commit-log region carved from the top of the working set.
"""

from __future__ import annotations

from typing import Generator, List

from repro.workloads.base import Region, Workload, ZipfGenerator


class YcsbWorkload(Workload):
    """Update-heavy Zipfian key-value workload."""

    name = "YCSB"
    paper_buffered_fraction = 0.882

    #: Pages per KV record.
    RECORD_PAGES = 2
    #: Commit-log pages carved from the region top.
    LOG_PAGES = 128

    def __init__(
        self,
        host,
        metrics,
        region: Region,
        actors: int = 4,
        update_fraction: float = 0.5,
        zipf_theta: float = 0.99,
        log_every: int = 4,
        **kwargs,
    ) -> None:
        # Key-value stores are latency-bound (short client think time)
        # and serve diurnal/phased demand: I/O-intensive ON phases
        # alternating with quiet stretches.
        kwargs.setdefault("think_ns", 20_000)
        kwargs.setdefault("phase_on_ns", 2_000_000_000)
        kwargs.setdefault("phase_off_ns", 2_000_000_000)
        super().__init__(host, metrics, region, **kwargs)
        if region.pages <= self.LOG_PAGES + self.RECORD_PAGES:
            raise ValueError("region too small for YCSB records plus commit log")
        self.actors = actors
        self.update_fraction = update_fraction
        self.log_every = max(1, log_every)
        self.records_region = region.sub(0, region.pages - self.LOG_PAGES)
        self.log_region = region.sub(region.pages - self.LOG_PAGES, self.LOG_PAGES)
        self.num_records = self.records_region.pages // self.RECORD_PAGES
        self.zipf = ZipfGenerator(self.num_records, zipf_theta, self.streams.numpy("zipf"))
        self._log_head = 0
        self._updates_since_log = 0

    def _record_lpn(self, record: int) -> int:
        return self.records_region.start + record * self.RECORD_PAGES

    def _next_log_lpn(self) -> int:
        lpn = self.log_region.start + self._log_head
        self._log_head = (self._log_head + 1) % self.log_region.pages
        return lpn

    def build_actors(self) -> List[Generator]:
        return [self._actor(index) for index in range(self.actors)]

    def _actor(self, index: int) -> Generator:
        rng = self.actor_rng(index)
        zipf = self.zipf.with_rng(rng)
        while True:
            if not self._gate_open:
                yield from self.op_gate()
            record = zipf.sample()
            lpn = self._record_lpn(record)
            if rng.random() < self.update_fraction:
                yield from self.op_write(lpn, self.RECORD_PAGES, direct=False)
                self._updates_since_log += 1
                if self._updates_since_log >= self.log_every:
                    self._updates_since_log = 0
                    yield from self.op_write(self._next_log_lpn(), 1, direct=True)
            else:
                # Reads scan the whole table near-uniformly (YCSB's
                # read side is much colder than its update side), so
                # a large fraction miss the page cache and feel the
                # device queue -- including any GC stall in it.
                cold = int(rng.integers(0, self.num_records))
                yield from self.op_read(self._record_lpn(cold), self.RECORD_PAGES)
            yield from self.think(rng)
