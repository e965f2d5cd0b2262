"""NAND operation timing model.

The paper motivates JIT-GC with the growth of program time and block size
across NAND generations (Sec 1: 0.2 ms program / 64 pages-per-block at
130 nm versus 2.3 ms / 384 pages at 25 nm).  :class:`NandTiming` captures
per-operation latencies plus the channel transfer cost, and the module
exports presets for the generations the paper references.  The default for
all experiments is :data:`NAND_20NM_MLC`, matching the SM843T's flash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.simtime import MICROSECOND, MILLISECOND


@dataclass(frozen=True)
class NandTiming:
    """Latencies of the three NAND primitives plus bus transfer.

    Attributes:
        read_ns: cell-to-register page read time (tR).
        program_ns: register-to-cell page program time (tPROG).
        erase_ns: block erase time (tBERS).
        transfer_ns_per_page: channel transfer time for one page of data
            (applies to both reads reaching the host and programs sourced
            from the host; internal GC copy-back pays it once per hop).
    """

    read_ns: int = 60 * MICROSECOND
    program_ns: int = 1300 * MICROSECOND
    erase_ns: int = 3800 * MICROSECOND
    transfer_ns_per_page: int = 25 * MICROSECOND

    def __post_init__(self) -> None:
        for field_name in ("read_ns", "program_ns", "erase_ns", "transfer_ns_per_page"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{field_name} must be a non-negative integer, got {value!r}")

    # ------------------------------------------------------------------
    # Composite costs used by the FTL / device model
    # ------------------------------------------------------------------
    def host_program_ns(self) -> int:
        """One page program sourced from the host (transfer + tPROG)."""
        return self.program_ns + self.transfer_ns_per_page

    def migrate_page_ns(self) -> int:
        """One GC valid-page migration (read + program, internal copy)."""
        return self.read_ns + self.program_ns


#: 130 nm SLC-era NAND (paper Sec 1 citation [1]): fast programs, small blocks.
NAND_130NM_SLC = NandTiming(
    read_ns=25 * MICROSECOND,
    program_ns=200 * MICROSECOND,
    erase_ns=2 * MILLISECOND,
    transfer_ns_per_page=50 * MICROSECOND,
)

#: 25 nm MLC NAND (paper Sec 1 citation [2]): 2.3 ms programs.
NAND_25NM_MLC = NandTiming(
    read_ns=75 * MICROSECOND,
    program_ns=2300 * MICROSECOND,
    erase_ns=5 * MILLISECOND,
    transfer_ns_per_page=20 * MICROSECOND,
)

#: 20 nm MLC NAND as used by the Samsung SM843T (the paper's testbed).
NAND_20NM_MLC = NandTiming(
    read_ns=60 * MICROSECOND,
    program_ns=1300 * MICROSECOND,
    erase_ns=3800 * MICROSECOND,
    transfer_ns_per_page=25 * MICROSECOND,
)
