"""Temporal muscle activation (TMA) maps.

A TMA map is a dense matrix summarizing one sliding window of the envelope
stream. Each column is the feature vector of one time step: the raw channel
envelopes first, followed by every pairwise product of channel envelopes
(including squares). The products expose mutual activation of channel groups,
which single-channel features cannot.

For ``L`` channels a column has ``D = L + L*(L+1)/2`` entries; with ``L = 8``
that is 44. Columns run oldest to newest, and a map is indexed by the sample
index of its *newest* column, so the map at index ``n`` covers samples
``n - map_width + 1 .. n`` - exactly the data available at time ``n`` in a
causal loop.

Maps are treated as immutable once assembled and may be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .config import check_field_types
from .errors import ConfigError, NotReadyError, StructuralError


def feature_rows(channels: int) -> int:
    """Rows of a map: channels plus all ordered channel pairs (i <= j)."""
    return channels + channels * (channels + 1) // 2


def channels_for_rows(rows: int) -> int:
    """Invert :func:`feature_rows`; raises if no channel count matches."""
    L = 1
    while feature_rows(L) < rows:
        L += 1
    if feature_rows(L) != rows:
        raise StructuralError(f"no channel count yields {rows} feature rows")
    return L


@lru_cache(maxsize=32)
def pair_indices(channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i <= j, in the row order of :func:`feature_matrix`.

    Computed once per channel count; the arrays are shared by every caller and
    therefore read-only.
    """
    iu, ju = np.triu_indices(channels)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def feature_matrix(frames: np.ndarray) -> np.ndarray:
    """Feature vectors of a (n, channels) block of envelope frames.

    Returns a (feature_rows, n) matrix; column ``t`` is the feature vector of
    row ``t`` of the input. Ordering within a column: ``x_0 .. x_{L-1}``,
    then ``x_i * x_j`` for ``i <= j`` in lexicographic order
    (``x_0^2, x_0 x_1, ..., x_0 x_{L-1}, x_1^2, ...``).
    """
    frames = np.asarray(frames, dtype=np.float64)
    n, channels = frames.shape
    iu, ju = pair_indices(channels)
    out = np.empty((channels + iu.size, n))
    first, second = out[:channels], out[channels:]
    first[...] = frames.T
    # x_i lands in place, then one multiply by x_j: a single (pairs, n)
    # temporary. The indices are in range; mode "clip" lets take write
    # into out without a buffered copy.
    first.take(iu, axis=0, out=second, mode="clip")
    np.multiply(second, first.take(ju, axis=0), out=second)
    return out


@dataclass
class TmaMap:
    """One assembled activation map.

    Attributes:
        end_index: Sample index of the newest column.
        data: (feature_rows, map_width) matrix, columns oldest to newest.
    """

    end_index: int
    data: np.ndarray

    @property
    def rows(self) -> int:
        return self.data.shape[0]


class FrameRing:
    """The most recent row vectors of a stream, kept contiguous in time order.

    A row is any fixed-length vector with one sample index: an envelope
    frame, a feature column, a difference term. Rows arrive in blocks of at
    most ``stride`` with consecutive sample indices. The buffer holds
    ``2 * map_width + stride`` rows; a push that would run past its end first
    moves the newest ``map_width`` rows to the front, which happens about once
    every ``map_width / stride`` pushes, so the window is always one
    contiguous slice. Single-owner, sequential use.
    """

    def __init__(self, map_width: int, channels: int, stride: int = 1):
        if map_width < 1:
            raise ConfigError(f"map_width must be >= 1, got {map_width}")
        if stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        self._width = map_width
        self._stride = stride
        self._buf = np.zeros((2 * map_width + stride, channels))
        self._end = 0           # rows in use; the newest row is row _end - 1
        self._count = 0
        self._last_t: int | None = None

    @property
    def is_full(self) -> bool:
        return self._count == self._width

    def push_values(self, t: int, values: np.ndarray) -> None:
        """Append a (k, channels) block of rows, k <= stride; ``t`` is the
        sample index of its first row."""
        buf = self._buf
        if values.ndim != 2 or values.shape[1] != buf.shape[1]:
            raise StructuralError(
                f"expected (k, {buf.shape[1]}) rows, got {values.shape}"
            )
        k = values.shape[0]
        if k > self._stride:
            raise StructuralError(f"{k} rows exceed the stride of {self._stride}")
        if self._last_t is not None and t != self._last_t + 1:
            raise StructuralError(
                f"row index {t} does not follow {self._last_t}"
            )
        if self._end + k > buf.shape[0]:
            buf[:self._width] = buf[self._end - self._width:self._end]
            self._end = self._width
        buf[self._end:self._end + k] = values
        self._end += k
        self._count = min(self._count + k, self._width)
        self._last_t = t + k - 1

    def window(self) -> np.ndarray:
        """The (map_width, channels) window, oldest row first.

        A view into the ring's buffer: valid until the next push.
        """
        if not self.is_full:
            raise NotReadyError(
                f"ring holds {self._count} of {self._width} rows"
            )
        return self._buf[self._end - self._width:self._end]


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-region [0, 1] scaling bounds fitted on a training set.

    First-order rows (raw envelopes) and second-order rows (products) live on
    different scales, so each region is normalized independently.
    """

    first_order_min: float
    first_order_max: float
    second_order_min: float
    second_order_max: float

    def __post_init__(self):
        check_field_types(self)
        if not (self.first_order_min < self.first_order_max):
            raise ConfigError("first-order bounds must satisfy min < max")
        if not (self.second_order_min < self.second_order_max):
            raise ConfigError("second-order bounds must satisfy min < max")


def fit_normalization(maps: Iterable[TmaMap | np.ndarray]) -> NormalizationBounds:
    """Global per-region min/max over a training set of maps, or of the
    (feature_rows, n) matrices that hold their columns.

    A degenerate region (min == max, e.g. an all-zero training set) is widened
    by one unit so the scaling stays defined.
    """
    fo_min = fo_max = so_min = so_max = None
    channels = None
    for m in maps:
        data = m.data if isinstance(m, TmaMap) else m
        if channels is None:
            channels = channels_for_rows(data.shape[0])
        first = data[:channels]
        second = data[channels:]
        fo_min = first.min() if fo_min is None else min(fo_min, first.min())
        fo_max = first.max() if fo_max is None else max(fo_max, first.max())
        so_min = second.min() if so_min is None else min(so_min, second.min())
        so_max = second.max() if so_max is None else max(so_max, second.max())
    if channels is None:
        raise ConfigError("cannot fit normalization on an empty training set")
    if fo_max == fo_min:
        fo_max = fo_min + 1.0
    if so_max == so_min:
        so_max = so_min + 1.0
    return NormalizationBounds(
        first_order_min=float(fo_min),
        first_order_max=float(fo_max),
        second_order_min=float(so_min),
        second_order_max=float(so_max),
    )


def normalize_array(data: np.ndarray, bounds: NormalizationBounds, channels: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Region-wise (v - min) / (max - min), clamped to [0, 1]."""
    if out is None:
        out = np.empty_like(data, dtype=np.float64)
    fo_span = bounds.first_order_max - bounds.first_order_min
    so_span = bounds.second_order_max - bounds.second_order_min
    np.subtract(data[:channels], bounds.first_order_min, out=out[:channels])
    out[:channels] /= fo_span
    np.subtract(data[channels:], bounds.second_order_min, out=out[channels:])
    out[channels:] /= so_span
    np.clip(out, 0.0, 1.0, out=out)
    return out

