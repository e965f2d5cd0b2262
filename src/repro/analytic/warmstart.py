"""Warm-start synthesizer: materialise the predicted steady state.

:func:`synthesize_steady_state` turns a
:class:`~repro.analytic.model.SteadyStatePrediction` into a *live
device*: it writes the int32 NAND state vectors (``block_states``,
``program_ptr``, erase counts), stamps every synthesized page's OOB
``(lpn, seq)`` slot, builds the L2P table, and hands the lot to
:class:`~repro.ftl.ftl.PageMappedFtl` through the same ``recovered=``
installation path power-on recovery uses -- so the valid-count min-heap,
SIP counters, wear-aware free pool and write frontiers are rebuilt by
the exact code that rebuilds them after a real power cycle, and the
result must pass the same ``invariant_check()``.

The synthesized image is *recoverable by construction*: OOB stamps are
laid out so a full-device scan (or a checkpoint-bounded tail scan)
reproduces the installed L2P exactly.  Per closed block the live pages
sit at the tail offsets ``[ppb - v, ppb)`` and the overwritten (stale)
pages at ``[0, ppb - v)``, keeping within-block sequence numbers
monotonic as real programs would have left them; stale stamps reuse
currently-mapped LPNs with strictly older sequence numbers, so
newest-stamp-wins replay never resurrects an unmapped LPN.

Everything is a pure function of ``(config, seed, scenario knobs)``:
the only randomness is a generator derived from the scenario seed via
the :class:`~repro.sim.randomness.RandomStreams` convention, so two
synthesized devices from equal inputs are bit-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analytic.model import SteadyStatePrediction, predict_steady_state
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import TRANS_LPN_BASE, UNMAPPED, translation_layout
from repro.ftl.recovery import RecoveredFtlState
from repro.nand.array import STATE_BAD, STATE_FULL, STATE_OPEN
from repro.sim.randomness import RandomStreams
from repro.ssd.config import SsdConfig

#: Device-fills of host data the synthesized wear level corresponds to
#: (prefill writes the working set once, then churns it down to the OP
#: floor -- about one more working-set pass through the GC loop).
_SYNTH_FILL_PASSES = 2.0


def workload_mix_hints(workload: str, workload_kwargs: dict) -> dict:
    """Extract the predictor's workload-mix knobs from a scenario.

    The synthetic generator carries its mix explicitly; the paper
    benchmarks issue no discards, so their stationary mapped fraction
    is 1 and only the (second-order) skew hint varies.
    """
    if workload == "Synthetic":
        return {
            "trim_fraction": workload_kwargs.get("trim_fraction", 0.0),
            "write_fraction": workload_kwargs.get("write_fraction", 0.7),
            "zipf_theta": workload_kwargs.get("zipf_theta", 0.9),
        }
    return {"trim_fraction": 0.0, "write_fraction": 1.0, "zipf_theta": 0.99}


def synthesize_steady_state(
    config: SsdConfig,
    *,
    seed: int,
    working_set_pages: int,
    policy=None,
    trim_fraction: float = 0.0,
    write_fraction: float = 1.0,
    zipf_theta: float = 0.0,
    registry=None,
) -> Tuple[PageMappedFtl, SteadyStatePrediction]:
    """Build a device already at its predicted steady state.

    Returns ``(ftl, prediction)``; the FTL has passed
    ``invariant_check()`` and is ready to serve I/O.  The caller (the
    experiment runner) hands it to :class:`~repro.host.HostSystem` via
    ``ftl=`` and seeds CDH-based policies from ``prediction``.

    Raises:
        ValueError: no steady state exists for these parameters (see
            :func:`~repro.analytic.model.predict_steady_state`).
    """
    nand = config.build_nand(seed=seed)
    space = config.space_model()
    geometry = config.geometry
    ppb = geometry.pages_per_block

    good = np.flatnonzero(nand.block_states != STATE_BAD).astype(np.int64)
    prediction = predict_steady_state(
        space,
        working_set_pages=working_set_pages,
        policy=policy,
        trim_fraction=trim_fraction,
        write_fraction=write_fraction,
        zipf_theta=zipf_theta,
        good_blocks=int(good.size),
    )

    rng = RandomStreams(seed).numpy("analytic-warmstart")
    n_closed = prediction.closed_blocks
    closed = good[:n_closed]
    free_list = good[n_closed:]  # prediction.free_blocks + 2 frontier blocks

    # Decorrelate occupancy from block number: the stratified counts are
    # ascending, and leaving them that way would make victim rank a
    # staircase of block indices.
    valid = prediction.valid_counts[rng.permutation(n_closed)].astype(np.int64)
    stale = ppb - valid
    stale_total = int(stale.sum())
    mapped_total = int(valid.sum())

    # Physical layout, in global (block, page) order: stale pages fill
    # each closed block's head, live pages its tail.  Each PPN vector is
    # an arange shifted in place by one repeated per-block offset (the
    # block's first slot, less where its run starts in the vector).
    stale_ppns = np.arange(stale_total, dtype=np.int64)
    stale_ppns += np.repeat(closed * ppb - (np.cumsum(stale) - stale), stale)
    live_ppns = np.arange(mapped_total, dtype=np.int64)
    live_ppns += np.repeat(closed * ppb + stale - (np.cumsum(valid) - valid), valid)

    # Mapped LPNs: a seed-deterministic draw of the stationary mapped
    # subset of the working set, already shuffled across the live slots.
    mapped_lpns = rng.permutation(working_set_pages)[:mapped_total].astype(np.int64)

    nand.block_states[closed] = STATE_FULL
    nand.program_ptr[closed] = ppb
    nand.oob_lpn[stale_ppns] = mapped_lpns[np.arange(stale_total) % mapped_total]
    nand.oob_seq[stale_ppns] = np.arange(stale_total, dtype=np.int64)
    del stale_ppns
    nand.oob_lpn[live_ppns] = mapped_lpns
    nand.oob_seq[live_ppns] = stale_total + np.arange(mapped_total, dtype=np.int64)

    # Uniform synthetic wear: the erase work of filling and churning the
    # device to its logically-full state, spread evenly (the prefill's
    # uniform overwrites produce no wear skew worth modelling).
    fills = _SYNTH_FILL_PASSES * working_set_pages * prediction.waf
    per_block = max(1, int(round(fills / (good.size * ppb))))
    nand.endurance.erase_counts[good] = per_block
    nand.endurance.total_erases = int(nand.endurance.erase_counts.sum())

    l2p = np.full(space.user_pages, UNMAPPED, dtype=np.int64)
    l2p[mapped_lpns] = live_ppns
    # The device-sized temporaries go before the FTL is built over them.
    del live_ppns, mapped_lpns, valid, stale
    write_seq = stale_total + mapped_total

    # DFTL: lay the translation tier out on NAND too.  Every translation
    # page the working set spans gets a fully-valid on-NAND copy, packed
    # sequentially into blocks taken from the free-pool head; the GTD
    # points at them and their OOB stamps (TRANS_LPN_BASE + tvpn, seq)
    # continue the data sequence, so a full-device scan rebuilds this
    # exact GTD -- the image stays recoverable by construction.  A
    # partial last block becomes the open translation frontier.
    gtd = None
    active_trans: Optional[int] = None
    trans_closed: np.ndarray = np.zeros(0, dtype=np.int64)
    if config.mapping_mode == "dftl":
        ept, n_tvpn_total = translation_layout(geometry.page_size, space.user_pages)
        n_tvpn = min(n_tvpn_total, -(-working_set_pages // ept))
        n_tblocks = -(-n_tvpn // ppb)
        if n_tblocks >= free_list.size:
            raise ValueError(
                f"free pool too small to lay out {n_tblocks} translation "
                f"blocks (only {free_list.size} free blocks)"
            )
        tblocks = free_list[:n_tblocks]
        free_list = free_list[n_tblocks:]
        slots = np.arange(n_tvpn, dtype=np.int64)
        t_ppns = tblocks[slots // ppb] * ppb + slots % ppb
        nand.oob_lpn[t_ppns] = TRANS_LPN_BASE + slots
        nand.oob_seq[t_ppns] = write_seq + slots
        write_seq += n_tvpn
        remainder = n_tvpn % ppb
        if remainder:
            full_tblocks = tblocks[:-1]
            active_trans = int(tblocks[-1])
            nand.block_states[active_trans] = STATE_OPEN
            nand.program_ptr[active_trans] = remainder
        else:
            full_tblocks = tblocks
        nand.block_states[full_tblocks] = STATE_FULL
        nand.program_ptr[full_tblocks] = ppb
        trans_closed = full_tblocks
        gtd = np.full(n_tvpn_total, UNMAPPED, dtype=np.int64)
        gtd[:n_tvpn] = t_ppns

    recovered = RecoveredFtlState(
        l2p=l2p,
        free_blocks=[int(b) for b in free_list],
        closed_blocks=[int(b) for b in closed] + [int(b) for b in trans_closed],
        retired_blocks=set(),
        active_user_block=None,
        active_gc_block=None,
        write_seq=write_seq,
        checkpoint_generation=0,
        gtd=gtd,
        active_trans_block=active_trans,
    )
    ftl = config.build_ftl(
        seed=seed, registry=registry, nand=nand, recovered=recovered
    )
    ftl.invariant_check()
    return ftl, prediction
