"""Checkpoint scheduling policies for the durable metadata log.

The FTL asks its policy after every host write whether to write a
mapping checkpoint now.  Two implementations:

* :class:`IntervalCheckpointPolicy` -- the historical behaviour, a fixed
  host-page interval.  Bit-identical to the inline check it replaced.
* :class:`AdaptiveCheckpointPolicy` -- JIT-style scheduling (satellite of
  the paper's Sec 3.3 timing argument): the *recovery-time bound* is the
  total number of pages the power-on tail scan must walk, which grows
  with **all** programs (host + GC migrations + translation writebacks),
  not just host pages.  The adaptive policy triggers on that actual
  accrual, and opportunistically fires *early* during GC quiescence
  (free pool comfortably above the watermark) so checkpoint latency
  lands in quiet periods instead of stacking onto foreground-GC stalls.

  Against an interval policy tuned to guarantee the same worst-case
  tail-scan bound (which must assume worst-case WAF and therefore fire
  on a conservative host-page interval), the adaptive policy writes
  fewer checkpoints -- lower metadata WAF at an equal recovery bound.
  ``tests/ftl/test_checkpoint_policy.py`` measures exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ftl.ftl import PageMappedFtl


class CheckpointPolicy:
    """Decides when the FTL writes a mapping checkpoint."""

    #: Trigger string recorded in the checkpoint audit record.
    trigger = "policy"

    def should_checkpoint(self, ftl: "PageMappedFtl") -> bool:
        raise NotImplementedError

    def pages_until_due(self, ftl: "PageMappedFtl") -> int:
        """Host pages that can be written before :meth:`should_checkpoint`
        can turn true: the n-th page from now is the first after which it
        may.  A bulk writer that ends its extent there (and asks again)
        sees every checkpoint at the per-page loop's host-page count.

        The default, 1, is the safe answer for a policy whose accrual a
        host write cannot predict.
        """
        return 1

    def note_checkpoint(self, ftl: "PageMappedFtl") -> None:
        """Called after every checkpoint write (any trigger)."""


class IntervalCheckpointPolicy(CheckpointPolicy):
    """Fixed host-page interval (the historical inline check)."""

    trigger = "interval"

    def __init__(self, interval_pages: int) -> None:
        if interval_pages < 1:
            raise ValueError(f"interval_pages must be >= 1, got {interval_pages}")
        self.interval_pages = interval_pages
        self._pages_at_last_ckpt = 0

    def should_checkpoint(self, ftl: "PageMappedFtl") -> bool:
        return (
            ftl.stats.host_pages_written - self._pages_at_last_ckpt
            >= self.interval_pages
        )

    def pages_until_due(self, ftl: "PageMappedFtl") -> int:
        since = ftl.stats.host_pages_written - self._pages_at_last_ckpt
        return max(1, self.interval_pages - since)

    def note_checkpoint(self, ftl: "PageMappedFtl") -> None:
        self._pages_at_last_ckpt = ftl.stats.host_pages_written


class AdaptiveCheckpointPolicy(CheckpointPolicy):
    """Checkpoint on actual tail-scan accrual, early at GC quiescence.

    Args:
        tail_bound_pages: hard ceiling on pages programmed (all streams)
            between checkpoints -- the recovery-time bound.
        slack: fraction of the bound past which a checkpoint may fire
            early if GC is quiescent.
        quiescence_margin: free-pool blocks above the FGC watermark that
            count as "quiet" (no collection imminent).

    Keeps the default :meth:`pages_until_due` of 1: the accrual also
    counts GC migrations and translation writebacks, which no host-page
    count can foresee.
    """

    trigger = "adaptive"

    def __init__(
        self,
        tail_bound_pages: int,
        slack: float = 0.75,
        quiescence_margin: int = 2,
    ) -> None:
        if tail_bound_pages < 1:
            raise ValueError(
                f"tail_bound_pages must be >= 1, got {tail_bound_pages}"
            )
        if not 0.0 < slack <= 1.0:
            raise ValueError(f"slack must be in (0, 1], got {slack}")
        self.tail_bound_pages = tail_bound_pages
        self.slack = slack
        self.quiescence_margin = quiescence_margin
        self._total_at_last_ckpt = 0

    def _accrued(self, ftl: "PageMappedFtl") -> int:
        return ftl.stats.total_pages_programmed() - self._total_at_last_ckpt

    def should_checkpoint(self, ftl: "PageMappedFtl") -> bool:
        accrued = self._accrued(ftl)
        if accrued >= self.tail_bound_pages:
            return True
        if accrued < int(self.slack * self.tail_bound_pages):
            return False
        # Early-fire only in quiet periods: pool comfortably above the
        # watermark means no foreground collection is imminent, so the
        # checkpoint's metadata program does not stack onto a GC stall.
        return (
            ftl.free_pool_blocks() > ftl.fgc_watermark + self.quiescence_margin
        )

    def note_checkpoint(self, ftl: "PageMappedFtl") -> None:
        self._total_at_last_ckpt = ftl.stats.total_pages_programmed()


def make_checkpoint_policy(
    name: str, interval_pages: int
) -> CheckpointPolicy:
    """Build a policy from the ``SsdConfig.checkpoint_policy`` knob."""
    if name == "interval":
        return IntervalCheckpointPolicy(interval_pages)
    if name == "adaptive":
        return AdaptiveCheckpointPolicy(interval_pages)
    raise ValueError(f"unknown checkpoint policy {name!r}")
