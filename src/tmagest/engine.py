"""The streaming recognition loop.

Per iteration the engine waits for one stride of new raw samples and extends
the envelopes. It builds the feature columns of the stride's new samples only
and their column terms of the difference signal against the previous
stride's columns (:func:`~tmagest.onset.difference`). The difference at the
newest sample is the square root of the sum of the newest ``map_width``
terms, which equals :func:`~tmagest.onset.difference_series` at the same
index bit for bit. When the difference crosses the calibrated threshold
outside the refractory window, the engine classifies the newest
``map_width`` feature columns, the map ending at the newest sample - unless
the config's ``suppress_alternate_onsets`` is set and this onset is the
expected return to neutral, in which case the onset is reported without
classification.

The engine owns all mutable state - the filter memory, a ring of the newest
feature columns, a ring of their column terms, the previous stride's columns,
the detector and the suppression flag - and must be stepped by one caller in
order. Emitted events are immutable values.
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
        self._terms = FrameRing(config.map_width, 1, config.map_stride)
        self._detector = OnsetDetector(self.threshold, config.refractory,
                                       warmup_end=config.warmup_samples)
        self._prev_cols: np.ndarray | None = None
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
        prev, self._prev_cols = self._prev_cols, cols
        if prev is None:
            return None
        self._terms.push_values(t, difference(cols, prev)[:, None])
        if not self._terms.is_full:
            return None
        hit = self._detector.step(self._count - 1,
                                  math.sqrt(self._terms.window().sum()))
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
