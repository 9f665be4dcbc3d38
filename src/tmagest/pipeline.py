"""Offline orchestration: training-set extraction and batch evaluation.

Extraction mirrors how the classifier is used online: the envelope stream is
computed causally in filter blocks of ``map_stride`` samples, the engine's
stride, and is therefore bit-identical to the streaming envelopes; one
activation map is taken at every sample time inside a window from each
labeled onset, over the detection delays at which the engine classifies, and
features are computed only for the frames those maps cover. Evaluation
replays a recording through the very same engine code path used live and
scores the emitted events against the ground truth.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .cnn import CnnModel, TrainingExample
from .config import SessionConfig
from .dsp import design_butterworth_lowpass, envelope_stream
from .engine import Prediction, difference_series, iter_batches, run_replay
from .errors import ConfigError, UsageError
from .recording import PHASE_FLEXION, PHASE_REST, PHASE_RETURN, Recording
from .tma import (NormalizationBounds, TmaMap, feature_matrix,
                  fit_normalization, normalize_array)

logger = logging.getLogger(__name__)

MATCH_TOLERANCE_S = 1.0


def _envelopes(recording: Recording, config: SessionConfig) -> np.ndarray:
    coeffs = design_butterworth_lowpass(config.envelope_cutoff_hz,
                                        config.sample_rate)
    return envelope_stream(recording.samples, coeffs, config.map_stride)


def _extract(recording: Recording, config: SessionConfig,
             ) -> tuple[np.ndarray, list[TrainingExample]]:
    """The feature columns that the kept onsets' maps cover, and the examples.

    Each kept onset's span, the ``map_width + extraction_width - 1``
    envelope frames that its maps cover, is gathered in onset order, and one
    :func:`~tmagest.tma.feature_matrix` over them gives a compact
    ``(feature_rows, kept * span)`` matrix; the whole recording's matrix is
    never built. A feature column depends only on its own frame, so every
    map holds the bits it would take from the whole recording's matrix. The
    maps are read-only views into the compact matrix, which itself stays
    writeable."""
    onsets = recording.onsets(PHASE_FLEXION)
    if not onsets:
        raise UsageError("recording has no labeled onsets to extract around")
    marks = [a.n for a in recording.annotations if a.phase != PHASE_REST]
    for a, b in zip(marks, marks[1:]):
        if b - a < config.extraction_width:
            raise UsageError(
                f"onsets at {a} and {b} are closer than the extraction "
                f"width ({config.extraction_width}); labels would overlap"
            )
    n_samples = recording.num_samples
    width = config.extraction_width
    map_w = config.map_width
    span = map_w + width - 1
    kept = []
    for a in onsets:
        if a.n - map_w + 1 < 0 or a.n + width - 1 >= n_samples:
            logger.warning(
                "dropping onset at %d: extraction window leaves the recording",
                a.n,
            )
            continue
        kept.append((a.n, a.gesture))
    firsts = np.array([n0 - map_w + 1 for n0, _ in kept], dtype=np.intp)
    frames = (firsts[:, None] + np.arange(span)).ravel()
    feats = feature_matrix(_envelopes(recording, config)[frames])
    shared = feats.view()
    shared.flags.writeable = False
    examples: list[TrainingExample] = []
    for i, (n0, gesture) in enumerate(kept):
        col = i * span
        for k in range(width):
            examples.append(TrainingExample(
                map=TmaMap(end_index=n0 + k,
                           data=shared[:, col + k:col + k + map_w]),
                label=gesture,
            ))
    return feats, examples


def extract_training_set(recording: Recording,
                         config: SessionConfig) -> list[TrainingExample]:
    """Unnormalized training examples from every labeled onset.

    For an onset at ``n0`` one map is taken at each sample time in
    ``[n0, n0 + w)`` where ``w`` is the extraction width - exactly ``w`` maps
    per onset, all labeled with the onset's gesture. They are the maps the
    engine classifies when it detects the onset 0 to ``w - 1`` samples late;
    a map that ends before the onset holds only rest and is not taken.
    Onsets whose window (including map history) would leave the recording
    are dropped with a warning. The returned maps are read-only views into
    one shared matrix that holds only the feature columns they cover, each
    onset's span of ``map_width + w - 1`` columns after the one before.

    Raises:
        UsageError: If the recording has no labeled onsets, or labeled onsets
            are closer together than the extraction width.
    """
    return _extract(recording, config)[1]


def training_set(recordings: list[Recording], config: SessionConfig,
                 ) -> tuple[list[TrainingExample], NormalizationBounds]:
    """Normalized training examples of every recording, and their bounds.

    The bounds are those that :func:`~tmagest.tma.fit_normalization` gives
    on the raw maps of :func:`extract_training_set`, taken once over each
    recording's shared matrix of the columns its maps cover rather than
    once per map. Then each shared matrix is normalized once, in place, and
    made read-only, so every map holds the values of its normalized copy.

    Raises:
        ConfigError: If no recording yields an example.
        UsageError: As :func:`extract_training_set`.
    """
    extracted = [_extract(rec, config) for rec in recordings]
    examples = [ex for _, exs in extracted for ex in exs]
    bounds = fit_normalization(feats for feats, _ in extracted if feats.size)
    for feats, _ in extracted:
        normalize_array(feats, bounds, config.channels, out=feats)
        feats.flags.writeable = False
    return examples, bounds


def calibration_segments(recording: Recording, config: SessionConfig,
                         ) -> list[tuple[str, np.ndarray]]:
    """Per-gesture difference-signal segments for threshold calibration.

    The difference series of the whole recording (warm-up excluded) is split
    at midpoints between consecutive labeled onsets; each segment - the
    activation plus its surrounding rest - is attributed to its gesture.

    Points from ``2 * map_stride`` samples before to ``map_width + 2 *
    map_stride`` samples after every labeled onset are left out of the
    segments: the calibrated spread has to describe the signal's steady
    behavior (rest and hold), not the very transients the threshold is
    meant to catch. Were the transition peaks themselves pooled into the
    per-gesture spread, the threshold would scale with the peaks and sit
    above most of them regardless of signal quality (each transition adds
    map_width times its squared peak to the summed squares, which at the
    standard multiplier always overshoots). The window keeps the late tail
    of each transition inside the pool, which gives the threshold a safety
    margin above steady-state excursions.

    Raises:
        UsageError: If the recording has no labeled onsets.
    """
    onsets = recording.onsets(PHASE_FLEXION)
    if not onsets:
        raise UsageError("recording has no labeled onsets to calibrate from")
    env = _envelopes(recording, config)
    ns, values = difference_series(env, config.map_width, config.map_stride,
                                   min_index=config.warmup_samples)
    if ns.size == 0:
        return []
    keep = np.ones(ns.shape[0], dtype=bool)
    before = 2 * config.map_stride
    after = config.map_width + before
    for a in recording.annotations:
        if a.phase == PHASE_REST:
            continue
        keep &= ~((ns >= a.n - before) & (ns <= a.n + after))
    starts = [a.n for a in onsets]
    boundaries = [(a + b) // 2 for a, b in zip(starts, starts[1:])]
    which = np.searchsorted(boundaries, ns, side="right")
    return [(onsets[i].gesture, values[keep & (which == i)])
            for i in range(len(onsets))]


@dataclass
class EvaluationReport:
    """Scores of one replayed session against its ground truth.

    The confusion matrix has one row per gesture (true flexion events) and
    one column per gesture plus a trailing "missed" column, so each row sums
    to that gesture's ground-truth event count.
    """

    gestures: tuple[str, ...]
    confusion: np.ndarray
    onset_recall: float
    onset_false_positive_rate: float
    classification_accuracy: float
    per_class_accuracy: dict[str, float]
    n_true_onsets: int
    n_events: int
    n_predictions: int
    n_suppressed: int
    latency_us: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "gestures": list(self.gestures),
                "confusion": self.confusion.tolist(),
                "confusion_columns": list(self.gestures) + ["missed"]}

    def format_table(self) -> str:
        lines = []
        name_w = max(len(g) for g in self.gestures) + 2
        lines.append(f"{'gesture':<{name_w}} {'events':>7} {'accuracy %':>11}")
        for i, g in enumerate(self.gestures):
            total = int(self.confusion[i].sum())
            acc = self.per_class_accuracy[g] * 100.0
            lines.append(f"{g:<{name_w}} {total:>7} {acc:>11.2f}")
        lines.append(f"{'total':<{name_w}} {int(self.confusion.sum()):>7} "
                     f"{self.classification_accuracy * 100.0:>11.2f}")
        lines.append("")
        lines.append(f"onset recall: {self.onset_recall:.4f}   "
                     f"false positives per true event: "
                     f"{self.onset_false_positive_rate:.4f}")
        if self.latency_us:
            lines.append(
                "prediction compute: mean {mean:.0f} us, p50 {p50:.0f} us, "
                "p95 {p95:.0f} us, max {max:.0f} us".format(**self.latency_us))
        return "\n".join(lines)


def _match_events(event_ns: list[int], truth_ns: list[int],
                  tolerance: int) -> dict[int, int]:
    """Greedy nearest matching event->truth within a tolerance, one-to-one.

    Each event in turn takes the nearest unused truth within the tolerance;
    of two as near, the one earlier in ``truth_ns``. The truths within
    reach of an event are found by bisection in the truths sorted by sample,
    so the cost grows with the events times the truths within reach of one.
    """
    order = sorted(range(len(truth_ns)), key=truth_ns.__getitem__)
    sorted_ns = [truth_ns[ti] for ti in order]
    matches: dict[int, int] = {}
    used = set()
    for ei, en in enumerate(event_ns):
        lo = bisect_left(sorted_ns, en - tolerance)
        hi = bisect_right(sorted_ns, en + tolerance)
        near = [(abs(en - truth_ns[ti]), ti) for ti in order[lo:hi]
                if ti not in used]
        if near:
            matches[ei] = min(near)[1]
            used.add(matches[ei])
    return matches


def evaluate(model: CnnModel, recording: Recording,
             config: SessionConfig) -> EvaluationReport:
    """Replay a labeled recording through the engine and score the events.

    Events are matched one-to-one to ground-truth onsets within +/-1 s (the
    refractory period guarantees unambiguous matching at that tolerance).
    Classification is scored over true flexion events; a flexion event whose
    matched emission is missing or unclassified counts in the "missed"
    column. A recording with no annotated gestures is legal: every emitted
    event then counts as a false positive.

    Raises:
        ConfigError: If model and config disagree on map geometry, or the
            recording's sampling rate differs from the config's.
        UsageError: If the model is missing bounds or labels, or a flexion
            annotation names a gesture that the model does not know.
    """
    model.require_ready()
    if recording.sample_rate != config.sample_rate:
        raise ConfigError(f"recording at {recording.sample_rate} Hz, config "
                          f"expects {config.sample_rate} Hz")
    gestures = model.labels
    flexions = recording.onsets(PHASE_FLEXION)
    for a in flexions:
        if a.gesture not in gestures:
            raise UsageError(
                f"annotation at sample {a.n} names gesture {a.gesture!r}, "
                f"which the model does not know ({', '.join(gestures)})")
    events = list(run_replay(iter_batches(recording.samples, config.map_stride),
                             model, config, pacing="fast"))

    returns = recording.onsets(PHASE_RETURN)
    truths = sorted(flexions + returns, key=lambda a: a.n)
    tolerance = int(round(MATCH_TOLERANCE_S * config.sample_rate))
    matches = _match_events([e.n for e in events], [a.n for a in truths],
                            tolerance)

    g_index = {g: i for i, g in enumerate(gestures)}
    confusion = np.zeros((len(gestures), len(gestures) + 1), dtype=np.int64)
    truth_to_event = {ti: ei for ei, ti in matches.items()}
    for ti, truth in enumerate(truths):
        if truth.phase != PHASE_FLEXION:
            continue
        row = g_index[truth.gesture]
        ei = truth_to_event.get(ti)
        if ei is not None and isinstance(events[ei], Prediction):
            confusion[row, g_index[events[ei].gesture]] += 1
        else:
            confusion[row, -1] += 1

    n_truths = len(truths)
    matched_truths = len(matches)
    false_pos = len(events) - matched_truths
    diag = np.array([confusion[i, i] for i in range(len(gestures))])
    row_sums = confusion.sum(axis=1)
    # Vacuous scores (no events of a class / no truths at all) read as 1.0:
    # nothing was there to get wrong.
    per_class = {
        g: (float(diag[i] / row_sums[i]) if row_sums[i] else 1.0)
        for i, g in enumerate(gestures)
    }
    overall = float(diag.sum() / row_sums.sum()) if row_sums.sum() else 1.0

    predictions = [e for e in events if isinstance(e, Prediction)]
    latency: dict[str, float] = {}
    if predictions:
        lat = np.array([p.compute_micros for p in predictions])
        latency = {"mean": float(lat.mean()),
                   "p50": float(np.percentile(lat, 50)),
                   "p95": float(np.percentile(lat, 95)),
                   "max": float(lat.max())}

    return EvaluationReport(
        gestures=tuple(gestures),
        confusion=confusion,
        onset_recall=matched_truths / n_truths if n_truths else 1.0,
        onset_false_positive_rate=false_pos / max(n_truths, 1),
        classification_accuracy=overall,
        per_class_accuracy=per_class,
        n_true_onsets=n_truths,
        n_events=len(events),
        n_predictions=len(predictions),
        n_suppressed=len(events) - len(predictions),
        latency_us=latency,
    )
