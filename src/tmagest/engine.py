"""The streaming recognition loop and its difference signal.

Per iteration the engine waits for one stride of new raw samples, extends
the envelopes, builds the stride's new feature columns only and pushes them
to a :class:`DifferenceSignal`, the front end that calibration runs whole
recordings through too (:func:`difference_series`). When the difference
crosses the calibrated threshold outside the refractory window, the engine
classifies the map ending at the newest sample, the newest ``map_width``
columns - unless the config's ``suppress_alternate_onsets`` is set and this
onset is the expected return to neutral, which is reported unclassified.

The engine owns all mutable state - the filter memory, a ring of the newest
feature columns, the difference signal's newest terms, the detector and the
suppression flag - and must be stepped by one caller in order. Emitted
events are immutable values.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .cnn import CnnModel, predict
from .config import SessionConfig
from .dsp import EnvelopeFilter, design_butterworth_lowpass
from .errors import ConfigError, StructuralError, UsageError
from .onset import OnsetDetector, difference
from .tma import FrameRing, feature_matrix

logger = logging.getLogger(__name__)

# Samples per feature-matrix slice of difference_series, in whole strides.
SERIES_BLOCK = 4096


@dataclass(frozen=True)
class Prediction:
    """A classified onset."""

    n: int
    gesture: str
    confidence: float
    compute_micros: float


@dataclass(frozen=True)
class SuppressedOnset:
    """An onset exempted from classification (expected return to neutral)."""

    n: int
    d_value: float
    compute_micros: float


class DifferenceSignal:
    """The difference signal of a stream of feature columns: at each stride
    end ``n >= map_width + map_stride - 1``, the square root of the sum of
    the newest ``map_width`` terms (:func:`~tmagest.onset.difference`) of a
    column against the one a stride earlier. It keeps the last stride's
    columns and the newest ``map_width - 1`` terms; a term does not depend on
    the columns pushed with it and a window is one contiguous slice, so any
    split into whole strides gives the same bits. Single-owner, sequential use.
    """

    def __init__(self, map_width: int, map_stride: int):
        self._width, self._stride = map_width, map_stride
        self._prev: np.ndarray | None = None    # the last stride's columns
        self._terms = np.empty(0)
        self._count = 0

    def push(self, cols: np.ndarray) -> list[tuple[int, float]]:
        """Take the (rows, k) feature columns of the next k samples, k a
        positive whole number of strides (else a :class:`StructuralError`);
        returns the ``(n, d)`` point of each stride end that has one."""
        W, S, k = self._width, self._stride, cols.shape[1]
        if k == 0 or k % S:
            raise StructuralError(f"{k} columns are not whole strides of {S}")
        self._count += k
        prev, self._prev = self._prev, cols[:, k - S:]
        if prev is None:
            cols, prev = cols[:, S:], cols[:, :-S]
        elif k > S:
            prev = np.concatenate((prev, cols[:, :-S]), axis=1)
        terms = np.concatenate((self._terms, difference(cols, prev)))
        n0 = self._count - terms.size    # terms[e] is sample n0 + e
        points = [(n0 + e, math.sqrt(terms[e - W + 1:e + 1].sum()))
                  for e in range(W - 1 + (terms.size - W) % S, terms.size, S)]
        self._terms = terms[max(terms.size - W + 1, 0):]
        return points


def difference_series(envelopes: np.ndarray, map_width: int, map_stride: int,
                      min_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The ``(ns, values)`` arrays of the difference signal of a (samples,
    channels) envelope block at ``n >= min_index`` (e.g. past the filter
    warm-up), from a :class:`DifferenceSignal` pushed the feature columns of
    :data:`SERIES_BLOCK` samples at a time, so that it holds one slice's
    feature matrix. A trailing partial stride is dropped."""
    signal = DifferenceSignal(map_width, map_stride)
    step = max(SERIES_BLOCK - SERIES_BLOCK % map_stride, map_stride)
    env = envelopes[:envelopes.shape[0] - envelopes.shape[0] % map_stride]
    points = [p for a in range(0, env.shape[0], step)
              for p in signal.push(feature_matrix(env[a:a + step]))
              if p[0] >= min_index]
    return (np.array([n for n, _ in points], dtype=np.int64),
            np.array([d for _, d in points], dtype=np.float64))


def event_to_dict(event, include_timing: bool = True) -> dict:
    """JSON-ready form of an emitted event (one object per output line)."""
    if isinstance(event, Prediction):
        d = {"n": event.n, "type": "prediction", "gesture": event.gesture,
             "confidence": event.confidence}
    else:
        d = {"n": event.n, "type": "suppressed", "gesture": None,
             "confidence": None}
    if include_timing:
        d["compute_us"] = event.compute_micros
    return d


class Engine:
    """Streaming gesture recognizer over batches of raw samples.

    Raises:
        ConfigError: If the config's map geometry does not fit the model, or
            if the model records the config it was trained under and the
            given one differs from it in sample rate, envelope cutoff or map
            stride: the difference signal, and with it the calibrated
            threshold, depends on all three.
    """

    def __init__(self, model: CnnModel, config: SessionConfig,
                 threshold: float | None = None):
        arch = model.architecture
        if arch.input_rows != config.feature_rows:
            raise ConfigError(
                f"model expects {arch.input_rows} feature rows, config "
                f"yields {config.feature_rows}"
            )
        if arch.input_cols != config.map_width:
            raise ConfigError(
                f"model expects {arch.input_cols} map columns, config "
                f"map_width is {config.map_width}"
            )
        if model.config is not None:
            for name in ("sample_rate", "envelope_cutoff_hz", "map_stride"):
                given, trained = getattr(config, name), getattr(model.config, name)
                if given != trained:
                    raise ConfigError(
                        f"{name} is {given}, but the model was trained "
                        f"with {trained}"
                    )
        if threshold is None:
            if model.calibration is None:
                raise UsageError(
                    "no onset threshold: model carries no calibration and "
                    "none was passed explicitly"
                )
            threshold = model.calibration.threshold
        self.model = model
        self.config = config
        self.threshold = float(threshold)
        coeffs = design_butterworth_lowpass(config.envelope_cutoff_hz,
                                            config.sample_rate)
        self._filter = EnvelopeFilter(coeffs, config.channels, config.map_stride)
        self._cols = FrameRing(config.map_width, config.feature_rows,
                               config.map_stride)
        self._signal = DifferenceSignal(config.map_width, config.map_stride)
        self._detector = OnsetDetector(self.threshold, config.refractory,
                                       warmup_end=config.warmup_samples)
        self._expect_flexion = True
        self._count = 0

    @property
    def samples_consumed(self) -> int:
        return self._count

    def step(self, batch: np.ndarray):
        """Consume exactly one stride of raw samples.

        Returns a :class:`Prediction`, a :class:`SuppressedOnset`, or None.

        Raises:
            StructuralError: If the batch is not (map_stride, channels), or
                holds a NaN or infinite value. A rejected batch leaves the
                engine as it was, so the caller may go on with the next one.
        """
        t0 = time.perf_counter_ns()
        cfg = self.config
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape != (cfg.map_stride, cfg.channels):
            raise StructuralError(
                f"expected a ({cfg.map_stride}, {cfg.channels}) batch, "
                f"got {batch.shape}"
            )
        rectified = np.abs(batch)
        if not rectified.max() < np.inf:    # also false for NaN
            row = int(np.flatnonzero(~np.isfinite(batch).all(axis=1))[0])
            raise StructuralError(
                f"stride starting at sample {self._count} holds a non-finite "
                f"value at sample {self._count + row}"
            )
        frames = self._filter.process(rectified)
        t = self._count
        self._count += cfg.map_stride
        cols = feature_matrix(frames)
        self._cols.push_values(t, cols.T)
        points = self._signal.push(cols)
        if not points:
            return None
        hit = self._detector.step(*points[0])
        if hit is None:
            return None
        if cfg.suppress_alternate_onsets:
            if not self._expect_flexion:
                self._expect_flexion = True
                return SuppressedOnset(
                    n=hit.n, d_value=hit.d_value,
                    compute_micros=(time.perf_counter_ns() - t0) / 1000.0)
            self._expect_flexion = False
        gesture, confidence = predict(self.model, self._cols.window().T)
        return Prediction(
            n=hit.n, gesture=gesture, confidence=confidence,
            compute_micros=(time.perf_counter_ns() - t0) / 1000.0)


def iter_batches(samples: np.ndarray, stride: int) -> Iterator[np.ndarray]:
    """Split a (n, channels) block into full stride-sized batches.

    A trailing remainder shorter than one stride is dropped: the loop only
    ever acts on complete strides.
    """
    full = samples.shape[0] - samples.shape[0] % stride
    for start in range(0, full, stride):
        yield samples[start:start + stride]


def run_replay(strides: Iterable[np.ndarray], model: CnnModel,
               config: SessionConfig, pacing: str = "fast") -> Iterator[object]:
    """Feed strides of raw samples (see :func:`iter_batches`) through the
    engine, yielding events as they fire.

    ``pacing="realtime"`` sleeps between strides to mimic live acquisition;
    ``"fast"`` runs unthrottled. The emitted event sequence is identical
    either way (timing fields aside). A stride whose processing overruns its
    real-time budget is logged, never dropped.

    Raises:
        ConfigError: If the pacing is unknown.
    """
    if pacing not in ("fast", "realtime"):
        raise ConfigError(f"unknown pacing '{pacing}'")
    engine = Engine(model, config)
    budget_s = config.map_stride / config.sample_rate
    next_deadline = time.perf_counter() + budget_s
    for batch in strides:
        start = time.perf_counter()
        event = engine.step(batch)
        if event is not None:
            yield event
        if pacing == "realtime":
            now = time.perf_counter()
            if now - start > budget_s:
                logger.warning(
                    "stride overran its %.1f ms budget (%.1f ms)",
                    budget_s * 1e3, (now - start) * 1e3,
                )
            if next_deadline > now:
                time.sleep(next_deadline - now)
            next_deadline = max(next_deadline + budget_s,
                                time.perf_counter())
