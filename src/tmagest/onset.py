"""Onset detection from the activation-map difference signal.

The difference signal compares the current activation map with the one a
fixed stride earlier, via the Frobenius norm of their element-wise
difference. Gesture onsets show up as prominent peaks; detection is a strict
threshold crossing followed by a refractory pause that blocks re-triggering
while the same transition is still in flight.

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

from .errors import CalibrationError, StructuralError
from .tma import TmaMap, feature_matrix


@dataclass(frozen=True)
class DifferencePoint:
    """Difference-signal value at one map index."""

    n: int
    value: float


@dataclass(frozen=True)
class OnsetEvent:
    """A detected gesture onset.

    ``suppressed`` marks onsets exempted from classification (the return to
    neutral when alternate-onset suppression is active).
    """

    n: int
    d_value: float
    suppressed: bool = False


def difference(current: TmaMap, previous: TmaMap,
               expected_spacing: int | None = None) -> DifferencePoint:
    """Frobenius norm of ``current - previous``.

    Args:
        current: Map at index n.
        previous: Map at index n minus the map stride.
        expected_spacing: When given, the index gap is validated against it.

    Raises:
        StructuralError: On shape mismatch or wrong index spacing.
    """
    if current.data.shape != previous.data.shape:
        raise StructuralError(
            f"map shapes differ: {current.data.shape} vs {previous.data.shape}"
        )
    gap = current.end_index - previous.end_index
    if expected_spacing is not None and gap != expected_spacing:
        raise StructuralError(
            f"maps are {gap} samples apart, expected {expected_spacing}"
        )
    delta = current.data - previous.data
    return DifferencePoint(n=current.end_index,
                           value=float(np.sqrt(np.sum(delta * delta))))


def difference_series(envelopes: np.ndarray, map_width: int, map_stride: int,
                      min_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Difference signal over a whole envelope recording, vectorized.

    Equivalent to assembling maps at every evaluated index and calling
    :func:`difference`, but computed via per-column squared distances and a
    cumulative sum so calibration over long recordings stays cheap. Points
    fall every ``map_stride`` samples, the real-time loop's cadence, from
    ``map_width + map_stride - 1``, the first index with two full maps.

    Args:
        envelopes: (samples, channels) envelope block.
        map_width: Activation-map window length.
        map_stride: Gap between the two maps being compared.
        min_index: Skip points with n below this (e.g. the filter warm-up).

    Returns:
        ``(ns, values)``: int map indices and the difference at each.
    """
    first = map_width + map_stride - 1
    start = max(first, min_index)
    # align to the evaluation cadence: n = first + m*map_stride
    start = first + -(-(start - first) // map_stride) * map_stride
    ns = np.arange(start, envelopes.shape[0], map_stride)
    if ns.size == 0:
        return ns, np.empty(0)
    feats = feature_matrix(envelopes)
    delta = feats[:, map_stride:] - feats[:, :-map_stride]
    col_sq = np.einsum("ij,ij->j", delta, delta)  # index i <-> sample i + stride
    csum = np.concatenate([[0.0], np.cumsum(col_sq)])
    # col_sq indices [n - map_width - map_stride + 1, n - map_stride]
    d2 = csum[ns - map_stride + 1] - csum[ns - map_width - map_stride + 1]
    return ns, np.sqrt(np.maximum(d2, 0.0))


@dataclass
class ThresholdCalibration:
    """Calibrated onset threshold and its per-gesture provenance."""

    per_gesture_sigma: dict[str, float]
    threshold: float
    multiplier: float
    degenerate: bool = field(default=False)


def calibrate_threshold(segments: list[tuple[str, np.ndarray]],
                        multiplier: float = 4.0,
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
            given) a gesture with no data.
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
    """Threshold detector with refractory pause over a difference-point stream.

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

    @property
    def elapsed(self) -> int:
        return self._elapsed

    def step(self, point: DifferencePoint) -> OnsetEvent | None:
        """Feed one difference point; returns an event on detection.

        Detection requires value strictly above the threshold and at least a
        full refractory interval since the previous event. Emitting resets
        the elapsed counter.

        Raises:
            StructuralError: If points arrive out of order.
        """
        if self._last_n is not None:
            if point.n <= self._last_n:
                raise StructuralError(
                    f"difference point {point.n} not after {self._last_n}"
                )
            self._elapsed += point.n - self._last_n
        self._last_n = point.n
        if point.n < self.warmup_end:
            self._elapsed = self.refractory
            return None
        if point.value > self.threshold and self._elapsed >= self.refractory:
            self._elapsed = 0
            return OnsetEvent(n=point.n, d_value=point.value, suppressed=False)
        return None
