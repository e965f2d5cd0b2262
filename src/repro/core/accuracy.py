"""Prediction-accuracy tracking (paper Table 2).

The paper reports how accurately each policy's predictor anticipates
*future write demand* (e.g. JIT-GC: 98.9 % on YCSB down to 72.5 % on
TPC-C).  The quantity the manager consumes is ``Creq(t)`` -- the demand
over the whole ``tau_expire`` horizon -- so that is what we score: at
each tick the policy registers its horizon prediction, the tracker
accumulates the bytes that actually reach the SSD per interval, and once
the horizon has fully elapsed the pair is scored as::

    accuracy = 1 - |predicted - actual| / max(predicted, actual)

(pairs where both sides are zero carry no information and are skipped).
The reported figure is the mean over all scored horizons.

Horizon-level scoring is deliberate: a dirty page that is re-dirtied
before its flush slides to a later interval -- unknowable in advance and
irrelevant to the manager, which only needs the total over the horizon
to be right.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple


class PredictionAccuracyTracker:
    """Scores horizon predictions against observed write traffic.

    Drive it with :meth:`record_actual_bytes` from a device completion
    listener, and :meth:`on_tick` + :meth:`predict` from the policy tick
    (in that order: ``on_tick`` closes the interval that just ended).

    Args:
        horizon_intervals: ``Nwb`` -- how many write-back intervals a
            prediction covers.
    """

    def __init__(self, horizon_intervals: int = 6) -> None:
        if horizon_intervals <= 0:
            raise ValueError(
                f"horizon_intervals must be positive, got {horizon_intervals}"
            )
        self.horizon_intervals = horizon_intervals
        self._current_interval_bytes = 0
        #: Closed-interval actuals, oldest first.
        self._actuals: List[int] = []
        #: (tick index at prediction time, predicted bytes).
        self._pending: Deque[Tuple[int, int]] = deque()
        self._scores: List[float] = []
        self._pairs: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def record_actual_bytes(self, nbytes: int) -> None:
        """Tally bytes written to the SSD during the current interval."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._current_interval_bytes += nbytes

    def on_tick(self) -> None:
        """Close the interval that just ended and score ripe predictions."""
        self._actuals.append(self._current_interval_bytes)
        self._current_interval_bytes = 0
        completed = len(self._actuals)
        while self._pending:
            made_at, predicted = self._pending[0]
            if completed < made_at + self.horizon_intervals:
                break
            self._pending.popleft()
            actual = sum(
                self._actuals[made_at : made_at + self.horizon_intervals]
            )
            self._score(predicted, actual)

    def predict(self, predicted_bytes: int) -> None:
        """Register the horizon prediction made at the current tick."""
        if predicted_bytes < 0:
            raise ValueError(f"prediction must be >= 0, got {predicted_bytes}")
        self._pending.append((len(self._actuals), predicted_bytes))

    def _score(self, predicted: int, actual: int) -> None:
        if predicted == 0 and actual == 0:
            return
        score = 1.0 - abs(predicted - actual) / max(predicted, actual)
        self._scores.append(score)
        self._pairs.append((predicted, actual))

    # ------------------------------------------------------------------
    @property
    def intervals_scored(self) -> int:
        return len(self._scores)

    def accuracy(self) -> float:
        """Mean accuracy over scored horizons, in [0, 1]."""
        if not self._scores:
            return 1.0
        return sum(self._scores) / len(self._scores)

    def accuracy_percent(self) -> float:
        """Accuracy as a percentage (the Table 2 unit)."""
        return 100.0 * self.accuracy()

    def pairs(self) -> List[Tuple[int, int]]:
        """(predicted, actual) byte pairs, for diagnostics."""
        return list(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PredictionAccuracyTracker n={self.intervals_scored} "
            f"acc={self.accuracy_percent():.1f}%>"
        )
