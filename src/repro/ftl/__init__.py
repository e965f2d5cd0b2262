"""Flash translation layer.

Implements the firmware half of the paper's storage system:

* :mod:`repro.ftl.space` -- the Fig. 1 space model: user capacity,
  over-provisioning (OP) capacity and the *reserved capacity* ``Cresv``
  that defines lazy vs aggressive background GC.
* :mod:`repro.ftl.mapping` -- page-level LPN↔PPN mapping with validity
  tracking, and the translation tier that prices each lookup.
* :mod:`repro.ftl.victim` -- GC victim selection off the FTL's
  valid-count index: greedy, and the paper's SIP-filtered greedy.
* :mod:`repro.ftl.wear` -- free-block allocation ordered by wear plus a
  static wear-levelling sweep.
* :mod:`repro.ftl.stats` -- WAF, migration and GC-invocation counters.
* :mod:`repro.ftl.ftl` -- :class:`PageMappedFtl`, the write/read/trim
  datapath with foreground and background garbage collection.
* :mod:`repro.ftl.recovery` -- post-power-loss reconstruction: the
  full-device OOB scan, torn-page discard, newest-copy-wins mapping and
  layout re-discovery.
"""

from repro.ftl.space import SpaceModel
from repro.ftl.mapping import PageMap
from repro.ftl.victim import (
    VictimSelector,
    GreedySelector,
    SipFilteredSelector,
    VictimDecision,
)
from repro.ftl.wear import WearAwareAllocator, StaticWearLeveler
from repro.ftl.stats import FtlStats
from repro.ftl.ftl import PageMappedFtl, FtlError, OutOfSpaceError
from repro.ftl.recovery import (
    RecoveredFtlState,
    RecoveryError,
    RecoveryReport,
    recover_ftl,
    rediscover_layout,
)

__all__ = [
    "SpaceModel",
    "PageMap",
    "VictimSelector",
    "GreedySelector",
    "SipFilteredSelector",
    "VictimDecision",
    "WearAwareAllocator",
    "StaticWearLeveler",
    "FtlStats",
    "PageMappedFtl",
    "FtlError",
    "OutOfSpaceError",
    "RecoveredFtlState",
    "RecoveryError",
    "RecoveryReport",
    "recover_ftl",
    "rediscover_layout",
]
