"""The streaming recognition loop and its difference signal.

Per iteration the engine pushes one stride of new raw samples to a
:class:`DifferenceSignal`, the one front end from raw samples to the
difference signal, which calibration runs whole recordings through too
(:func:`difference_series`). When the difference crosses the calibrated
threshold outside the refractory window, the engine classifies the map
ending at the newest sample, the newest ``map_width`` columns - unless the
config's ``suppress_alternate_onsets`` is set and this onset is the expected
return to neutral, which is reported unclassified.

The engine owns all mutable state - the front end's filter memory, columns
and terms, a ring of the newest feature columns, the detector and the
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
from .dsp import EnvelopeFilter, block_slices, design_butterworth_lowpass
from .errors import ConfigError, StructuralError, UsageError
from .onset import OnsetDetector, difference
from .tma import FrameRing, feature_matrix

logger = logging.getLogger(__name__)


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
    """The difference signal of a stream of raw samples: each push is
    rectified, filtered by the config's envelope low-pass in blocks of
    ``map_stride`` and made feature columns. At each stride end ``n >=
    map_width + map_stride - 1`` the value is the square root of the sum of
    the newest ``map_width`` terms (:func:`~tmagest.onset.difference`) of a
    column against the one a stride earlier. It keeps the filter memory, the
    last stride's columns (``newest``) and the newest ``map_width - 1``
    terms; a column or a term depends only on its own samples and a window
    is one contiguous slice, so any split into whole strides gives the same
    bits. Single-owner, sequential use.
    """

    def __init__(self, config: SessionConfig):
        self._width, self._stride = config.map_width, config.map_stride
        coeffs = design_butterworth_lowpass(config.envelope_cutoff_hz,
                                            config.sample_rate)
        self._filter = EnvelopeFilter(coeffs, config.channels, config.map_stride)
        self.newest: np.ndarray | None = None    # the last stride's columns
        self.samples = 0                         # samples pushed
        self._terms = np.empty(0)

    def push(self, samples: np.ndarray) -> list[tuple[int, float]]:
        """Take the (k, channels) raw samples that come next, k a positive
        whole number of strides, else a :class:`StructuralError` that leaves
        the signal as it was, as does a NaN or infinite sample, which it
        names; returns the ``(n, d)`` point of each stride end that has one."""
        W, S, k = self._width, self._stride, samples.shape[0]
        if k == 0 or k % S:
            raise StructuralError(f"{k} samples are not whole strides of {S}")
        rectified = np.abs(samples)
        if not rectified.max() < np.inf:    # also false for NaN
            n = self.samples + int(
                np.flatnonzero(~np.isfinite(samples).all(axis=1))[0])
            raise StructuralError(f"stride starting at sample {n - n % S} "
                                  f"holds a non-finite value at sample {n}")
        cols = feature_matrix(self._filter.process(rectified))
        self.samples += k
        prev, self.newest = self.newest, cols[:, k - S:]
        if prev is None:
            cols, prev = cols[:, S:], cols[:, :-S]
        elif k > S:
            prev = np.concatenate((prev, cols[:, :-S]), axis=1)
        terms = np.concatenate((self._terms, difference(cols, prev)))
        n0 = self.samples - terms.size    # terms[e] is sample n0 + e
        points = [(n0 + e, math.sqrt(terms[e - W + 1:e + 1].sum()))
                  for e in range(W - 1 + (terms.size - W) % S, terms.size, S)]
        self._terms = terms[max(terms.size - W + 1, 0):]
        return points


def difference_series(samples: np.ndarray, config: SessionConfig,
                      min_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The ``(ns, values)`` arrays of the difference signal of a (samples,
    channels) raw recording at ``n >= min_index`` (e.g. past the filter
    warm-up), from a :class:`DifferenceSignal` pushed the recording's
    :func:`~tmagest.dsp.block_slices`, so that it holds one slice's
    envelopes and feature matrix. A trailing partial stride is dropped."""
    signal = DifferenceSignal(config)
    whole = samples[:samples.shape[0] - samples.shape[0] % config.map_stride]
    points = [p for rows in block_slices(whole.shape[0], config.map_stride)
              for p in signal.push(whole[rows]) if p[0] >= min_index]
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
        self._signal = DifferenceSignal(config)
        self._cols = FrameRing(config.map_width, config.feature_rows,
                               config.map_stride)
        self._detector = OnsetDetector(self.threshold, config.refractory,
                                       warmup_end=config.warmup_samples)
        self._expect_flexion = True

    @property
    def samples_consumed(self) -> int:
        return self._signal.samples

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
        signal = self._signal
        points = signal.push(batch)
        self._cols.push_values(signal.samples - cfg.map_stride, signal.newest.T)
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
