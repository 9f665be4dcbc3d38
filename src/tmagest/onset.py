"""Onset detection from the activation-map difference signal.

The difference signal compares the current activation map with the one a
fixed stride earlier, via the Frobenius norm of their element-wise
difference. Gesture onsets show up as prominent peaks; detection is a strict
threshold crossing followed by a refractory pause that blocks re-triggering
while the same transition is still in flight.

The norm is one arithmetic everywhere. Its square is a sum of column terms,
one per time step ``t`` of the window: ``g(t) = |f(t) - f(t - stride)|^2``,
the squared difference of the feature column at ``t`` and the column one
stride earlier, summed down the column (:func:`difference`). The value at
``n`` is the square root of the pairwise sum of the ``map_width`` terms that
end at ``n``. The engine and calibration form it from raw samples with one
front end, :class:`~tmagest.engine.DifferenceSignal`, so the threshold is
fitted on the signal it is compared against.

The threshold is calibrated from labeled recordings: the population standard
deviation of the difference signal is computed per gesture (over all points
of that gesture's recordings, active and rest alike), and the threshold is a
configured multiple of the mean of those per-gesture spreads.

Difference values are always computed on unnormalized maps; the [0, 1]
scaling exists only for the classifier input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import check_field_types
from .errors import CalibrationError, StructuralError


@dataclass(frozen=True)
class OnsetEvent:
    """A detected gesture onset."""

    n: int
    d_value: float


def difference(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Column terms of the difference signal: ``|current - previous|^2`` per
    column.

    Column ``j`` of the result is the sum down column ``j`` of the squared
    element-wise difference. A column's term does not depend on the other
    columns passed with it, so the terms of a few new columns equal the
    matching slice of a whole recording's terms, bit for bit. The Frobenius
    norm of two maps is ``sqrt(difference(a, b).sum())``.

    Args:
        current: (rows, k) block of feature columns.
        previous: The (rows, k) block ``map_stride`` samples earlier.

    Returns:
        The k column terms.

    Raises:
        StructuralError: On shape mismatch.
    """
    if current.shape != previous.shape:
        raise StructuralError(
            f"map shapes differ: {current.shape} vs {previous.shape}"
        )
    delta = current - previous
    k = delta.shape[1]
    if k == 1:
        # einsum sums a lone column in another order than a column of a
        # wider block; sum a doubled one so that every column sums alike
        delta = np.repeat(delta, 2, axis=1)
    return np.einsum("ij,ij->j", delta, delta)[:k]


@dataclass
class ThresholdCalibration:
    """Calibrated onset threshold and its per-gesture provenance."""

    per_gesture_sigma: dict[str, float]
    threshold: float
    multiplier: float
    degenerate: bool = field(default=False)

    def __post_init__(self):
        check_field_types(self)


def calibrate_threshold(segments: list[tuple[str, np.ndarray]],
                        multiplier: float,
                        expected_gestures: tuple[str, ...] | None = None,
                        ) -> ThresholdCalibration:
    """Fit the onset threshold from per-gesture difference-signal segments.

    Each segment is (gesture id, array of difference values). All segments of
    one gesture are pooled; the population standard deviation of the pool is
    that gesture's spread. The threshold is ``multiplier`` times the mean of
    the per-gesture spreads.

    Raises:
        CalibrationError: On empty input, a segment with fewer than 2 points
            or a NaN or infinite value, or (when ``expected_gestures`` is
            given) a gesture with no data or one that it does not list.
    """
    if not segments:
        raise CalibrationError("no calibration segments supplied")
    pools: dict[str, list[np.ndarray]] = {}
    for gesture, series in segments:
        series = np.asarray(series, dtype=np.float64)
        if series.size < 2:
            raise CalibrationError(
                f"gesture '{gesture}': series has {series.size} points, need >= 2"
            )
        if not np.isfinite(series).all():
            raise CalibrationError(
                f"gesture '{gesture}': series value "
                f"{int(np.argmin(np.isfinite(series)))} is not finite")
        pools.setdefault(gesture, []).append(series)
    if expected_gestures is not None:
        unknown = [g for g in pools if g not in expected_gestures]
        if unknown:
            raise CalibrationError(
                f"calibration data for gestures not in the configuration: "
                f"{unknown} (configured: {', '.join(expected_gestures)})")
        missing = [g for g in expected_gestures if g not in pools]
        if missing:
            raise CalibrationError(f"no calibration data for gestures: {missing}")
    sigma = {g: float(np.std(np.concatenate(parts)))  # population std
             for g, parts in pools.items()}
    degenerate = any(s == 0.0 for s in sigma.values())
    if degenerate:
        warnings.warn("calibration has a zero-spread gesture; threshold may be 0",
                      stacklevel=2)
    threshold = multiplier * (sum(sigma.values()) / len(sigma))
    return ThresholdCalibration(per_gesture_sigma=sigma, threshold=threshold,
                                multiplier=multiplier, degenerate=degenerate)


class OnsetDetector:
    """Threshold detector with refractory pause over the difference signal.

    Elapsed time is counted in sample indices of the incoming points, so
    replay at any wall-clock speed is deterministic. The detector starts
    armed (elapsed = refractory) so the first genuine onset after warm-up is
    not swallowed, and stays armed throughout the warm-up interval.
    """

    def __init__(self, threshold: float, refractory: int, warmup_end: int = 0):
        self.threshold = threshold
        self.refractory = refractory
        self.warmup_end = warmup_end
        self._elapsed = refractory
        self._last_n: int | None = None

    def step(self, n: int, value: float) -> OnsetEvent | None:
        """Feed the difference value at map index ``n``; returns an event on
        detection.

        Detection requires value strictly above the threshold and at least a
        full refractory interval since the previous event. Emitting resets
        the elapsed counter.

        Raises:
            StructuralError: If points arrive out of order.
        """
        if self._last_n is not None:
            if n <= self._last_n:
                raise StructuralError(
                    f"difference point {n} not after {self._last_n}"
                )
            self._elapsed += n - self._last_n
        self._last_n = n
        if n < self.warmup_end:
            self._elapsed = self.refractory
            return None
        if value > self.threshold and self._elapsed >= self.refractory:
            self._elapsed = 0
            return OnsetEvent(n=n, d_value=value)
        return None
