"""Workload generators for the paper's six benchmarks plus utilities.

The registry :data:`BENCHMARKS` maps the paper's benchmark names to their
generator classes in the order the paper's tables list them; the wider
:data:`WORKLOADS` registry adds the non-paper generators (the knob-driven
synthetic workload) for scenario runners that are not reproducing a paper
table -- the Fig. 2, Fig. 7 and Table 1-3 artifact experiments iterate
:data:`BENCHMARKS` and stay unchanged by additions here.
"""

from repro.workloads.base import Region, Workload, ZipfGenerator
from repro.workloads.ycsb import YcsbWorkload
from repro.workloads.postmark import PostmarkWorkload
from repro.workloads.filebench import FilebenchWorkload
from repro.workloads.bonnie import BonnieWorkload
from repro.workloads.tiobench import TiobenchWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import (
    TraceRecord,
    TraceRecorder,
    TraceWorkload,
    load_trace,
    save_trace,
)

#: The paper's benchmark suite, in Table 1 order.
BENCHMARKS = {
    "YCSB": YcsbWorkload,
    "Postmark": PostmarkWorkload,
    "Filebench": FilebenchWorkload,
    "Bonnie++": BonnieWorkload,
    "Tiobench": TiobenchWorkload,
    "TPC-C": TpccWorkload,
}

#: Every runnable workload: the paper suite plus synthetic generators.
WORKLOADS = {
    **BENCHMARKS,
    "Synthetic": SyntheticWorkload,
}

__all__ = [
    "Region",
    "Workload",
    "ZipfGenerator",
    "YcsbWorkload",
    "PostmarkWorkload",
    "FilebenchWorkload",
    "BonnieWorkload",
    "TiobenchWorkload",
    "TpccWorkload",
    "SyntheticWorkload",
    "TraceRecord",
    "TraceRecorder",
    "TraceWorkload",
    "load_trace",
    "save_trace",
    "BENCHMARKS",
    "WORKLOADS",
]
