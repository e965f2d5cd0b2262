"""FTL statistics: write amplification, GC activity, stall accounting.

WAF (write amplification factor) is the paper's lifetime proxy:

    WAF = (host page programs + GC migration programs) / host page programs

Every counter here is monotonically increasing; snapshots and deltas let
experiments measure steady-state windows (after the device is pre-filled)
rather than the cold ramp-up.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class FtlStats:
    """Monotonic counters maintained by :class:`~repro.ftl.ftl.PageMappedFtl`."""

    #: Pages programmed on behalf of host writes.
    host_pages_written: int = 0
    #: Pages programmed by GC valid-page migration.
    gc_pages_migrated: int = 0
    #: Pages read by GC before migration.
    gc_pages_read: int = 0
    #: Blocks erased (all causes).
    blocks_erased: int = 0
    #: Host pages served by read requests.
    host_pages_read: int = 0
    #: TRIMmed logical pages.
    pages_trimmed: int = 0

    #: Durable-metadata traffic (repro.ftl.metastore).
    #: Mapping checkpoints written to the NAND metadata region.
    checkpoints_written: int = 0
    #: Metadata pages programmed (checkpoint + tombstone records).
    meta_pages_written: int = 0
    #: Unmap tombstones journaled (TRIMs plus GC data-loss unmaps).
    tombstones_journaled: int = 0
    #: Reserved-block erases triggered by metadata-ring wrap-around.
    meta_block_erases: int = 0
    #: Metadata program status-fails (page wasted, payload rewritten).
    meta_program_faults: int = 0
    #: Metadata-region erase failures (reserved block retired).
    meta_erase_faults: int = 0
    #: Reserved metadata blocks retired (wear-out or erase failure).
    meta_blocks_retired: int = 0

    #: DFTL translation tier (repro.ftl.mapping.CachedPageMap); all zero
    #: in ``dram`` mapping mode.
    #: CMT lookups answered from the cached mapping table.
    cmt_hits: int = 0
    #: CMT lookups that faulted the translation page in from NAND.
    cmt_misses: int = 0
    #: Dirty CMT entries written back on LRU eviction.
    cmt_evictions: int = 0
    #: Translation pages programmed (evictions + checkpoint flushes).
    trans_pages_written: int = 0
    #: Translation pages read on CMT misses.
    trans_pages_read: int = 0
    #: Translation pages migrated by GC out of victim blocks.
    trans_pages_migrated: int = 0

    #: Foreground GC: invocations and total stall time charged to writes.
    fgc_invocations: int = 0
    fgc_blocks_collected: int = 0
    fgc_time_ns: int = 0

    #: Background GC: invocations (block collections) and busy time.
    bgc_blocks_collected: int = 0
    bgc_time_ns: int = 0

    #: Wear-levelling migrations folded into GC counters, tracked apart too.
    wl_blocks_collected: int = 0

    #: Victim-selection bookkeeping (Table 3).
    victim_selections: int = 0
    victims_filtered_by_sip: int = 0

    #: Fault-recovery bookkeeping (repro.faults).
    #: Read-retry attempts issued after an uncorrectable read.
    read_retries: int = 0
    #: Reads still uncorrectable after the retry budget (host sees EIO).
    uncorrectable_reads: int = 0
    #: Program status-fails recovered by rewriting elsewhere.
    program_faults: int = 0
    #: Erase failures (each failed attempt, incl. retries).
    erase_faults: int = 0
    #: Blocks retired at runtime: grown bad (program/erase fail) + worn out.
    blocks_retired: int = 0

    #: ECC escalation ladder (repro.nand.reliability); all zero when the
    #: reliability profile is off.
    #: Reads whose expected codeword errors fit the default-threshold
    #: hard decode (no extra latency).
    ecc_fast_reads: int = 0
    #: Reads that needed at least one read-retry voltage level (the
    #: per-level breakdown lives in ``Media.ecc_retry_histogram``).
    ecc_retry_reads: int = 0
    #: Reads rescued by the soft-decision decoder after the whole hard
    #: retry ladder failed.
    ecc_soft_decodes: int = 0
    #: Reads beyond even soft decode: uncorrectable, data lost.  Unlike
    #: ``uncorrectable_reads`` (any unrecovered read, injector faults
    #: included) this counts only ladder-modelled ECC cliff events.
    uecc_count: int = 0

    #: Refresh scrubber (repro.ftl.scrub): at-risk blocks relocated and
    #: the pages those relocations migrated (subset of
    #: ``gc_pages_migrated``, charged into WAF like any GC work).
    scrub_blocks_refreshed: int = 0
    scrub_pages_migrated: int = 0

    def waf(self) -> float:
        """Write amplification factor; 1.0 before any GC migration.

        Includes induced translation-page traffic (writebacks and GC
        migrations of translation pages); both terms are zero in ``dram``
        mapping mode, so the classic definition is unchanged there.
        """
        if self.host_pages_written == 0:
            return 1.0
        amplified = (
            self.host_pages_written
            + self.gc_pages_migrated
            + self.trans_pages_written
            + self.trans_pages_migrated
        )
        return amplified / self.host_pages_written

    def translation_waf_share(self) -> float:
        """Fraction of all page programs that were translation pages."""
        trans = self.trans_pages_written + self.trans_pages_migrated
        total = self.host_pages_written + self.gc_pages_migrated + trans
        if total == 0:
            return 0.0
        return trans / total

    def cmt_hit_rate(self) -> float:
        """CMT hit fraction; 1.0 when no lookups have happened."""
        lookups = self.cmt_hits + self.cmt_misses
        if lookups == 0:
            return 1.0
        return self.cmt_hits / lookups

    def total_pages_programmed(self) -> int:
        return (
            self.host_pages_written
            + self.gc_pages_migrated
            + self.trans_pages_written
            + self.trans_pages_migrated
        )

    def gc_blocks_collected(self) -> int:
        return self.fgc_blocks_collected + self.bgc_blocks_collected

    def sip_filtered_fraction(self) -> float:
        """Fraction of victim selections that skipped at least one
        SIP-heavy candidate -- the paper's Table 3 row."""
        if self.victim_selections == 0:
            return 0.0
        return self.victims_filtered_by_sip / self.victim_selections

    def snapshot(self) -> "FtlStats":
        """A copy, for window-delta measurements."""
        return FtlStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta_since(self, earlier: "FtlStats") -> "FtlStats":
        """Counter-wise difference ``self - earlier``."""
        return FtlStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def __str__(self) -> str:
        return (
            f"FtlStats(host_w={self.host_pages_written} gc_migr={self.gc_pages_migrated} "
            f"WAF={self.waf():.3f} erases={self.blocks_erased} "
            f"fgc={self.fgc_invocations} bgc_blocks={self.bgc_blocks_collected})"
        )
