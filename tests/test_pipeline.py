import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmagest import cnn, io, pipeline, synth
from tmagest.config import SessionConfig
from tmagest.dsp import design_butterworth_lowpass, envelope_stream
from tmagest.engine import (Prediction, difference_series, iter_batches,
                            run_replay)
from tmagest.errors import ConfigError, UsageError
from tmagest.onset import calibrate_threshold
from tmagest.pipeline import (
    calibration_segments,
    evaluate,
    extract_training_set,
    training_set,
)
from tmagest.recording import (PHASE_FLEXION, PHASE_REST, PHASE_RETURN,
                               Annotation, Recording)
from tmagest.tma import TmaMap, feature_matrix, fit_normalization, normalize_array

from conftest import SMALL_CONFIG_KWARGS, make_templates


class TestExtraction:
    def test_width_maps_per_onset_with_labels(self, trained_setup):
        config = trained_setup.config
        examples = extract_training_set(trained_setup.train_recording, config)
        onsets = trained_setup.train_recording.onsets(PHASE_FLEXION)
        assert len(examples) == len(onsets) * config.extraction_width
        by_label = {}
        for ex in examples:
            by_label[ex.label] = by_label.get(ex.label, 0) + 1
        per_gesture = {a.gesture: 0 for a in onsets}
        for a in onsets:
            per_gesture[a.gesture] += config.extraction_width
        assert by_label == per_gesture

    def test_window_starts_at_the_onset(self, trained_setup):
        # maps end at each onset and at each of the next w - 1 samples
        config = trained_setup.config
        examples = extract_training_set(trained_setup.train_recording, config)
        onsets = trained_setup.train_recording.onsets(PHASE_FLEXION)
        assert [ex.map.end_index for ex in examples] == [
            a.n + k for a in onsets for k in range(config.extraction_width)]

    def test_map_geometry(self, trained_setup):
        config = trained_setup.config
        examples = extract_training_set(trained_setup.train_recording, config)
        m = examples[0].map
        assert m.data.shape == (config.feature_rows, config.map_width)

    @pytest.mark.parametrize("onsets,kept,dropped", [
        ((38, 340), (340, "point"), 38),   # 38's first map starts before 0
        ((39, 341), (39, "grip"), 341),    # 341's last map ends after 399
    ])
    def test_boundary_onset_dropped_with_warning(self, small_config, caplog,
                                                 onsets, kept, dropped):
        # map_width 40 and extraction_width 60 in 400 samples: an onset at
        # n0 is kept exactly when 39 <= n0 <= 340
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(400, small_config.channels))
        rec = Recording(
            sample_rate=200.0, samples=samples,
            annotations=[Annotation(n=n, gesture=g, phase="flexion-onset")
                         for n, g in zip(onsets, ("grip", "point"))])
        with caplog.at_level(logging.WARNING):
            examples = extract_training_set(rec, small_config)
        n0, label = kept
        assert [(ex.label, ex.map.end_index) for ex in examples] == [
            (label, n0 + k) for k in range(small_config.extraction_width)]
        assert [r.message for r in caplog.records] == [
            f"dropping onset at {dropped}: extraction window leaves the "
            "recording"]

    def test_unannotated_recording_rejected(self, small_config):
        rec = Recording(sample_rate=200.0,
                        samples=np.zeros((400, small_config.channels)))
        with pytest.raises(UsageError):
            extract_training_set(rec, small_config)

    def test_onsets_closer_than_width_rejected(self, small_config):
        rec = Recording(
            sample_rate=200.0,
            samples=np.zeros((500, small_config.channels)),
            annotations=[Annotation(n=200, gesture="grip",
                                    phase="flexion-onset"),
                         Annotation(n=210, gesture="point",
                                    phase="flexion-onset")])
        with pytest.raises(UsageError):
            extract_training_set(rec, small_config)


def normalized_copies(recordings, config):
    """The fit -> normalize-a-copy-of-each-map loop that training_set
    replaced, kept as its oracle."""
    examples = []
    for rec in recordings:
        examples.extend(extract_training_set(rec, config))
    bounds = fit_normalization(ex.map for ex in examples)
    for ex in examples:
        ex.map = dataclasses.replace(
            ex.map, data=normalize_array(ex.map.data, bounds, config.channels))
    return examples, bounds


@pytest.fixture(scope="module")
def two_recordings():
    config = SessionConfig(**{**SMALL_CONFIG_KWARGS, "epochs": 2})
    templates = make_templates(config)
    recordings = [
        synth.generate(synth.blocked_script(config.gestures, templates,
                                            repetitions=reps, rest_s=1.5,
                                            lead_s=2.0, seed=seed),
                       templates, config)
        for reps, seed in ((2, 401), (1, 402))]
    return config, recordings


class TestTrainingSet:
    def test_equals_normalized_copies(self, two_recordings, tmp_path):
        config, recordings = two_recordings
        examples, bounds = training_set(recordings, config)
        expected, expected_bounds = normalized_copies(recordings, config)
        assert bounds == expected_bounds
        assert [(ex.label, ex.map.end_index) for ex in examples] == \
            [(ex.label, ex.map.end_index) for ex in expected]
        for ex, want in zip(examples, expected):
            assert ex.map.data.tobytes() == want.map.data.tobytes()
        for name, exs, b in (("views", examples, bounds),
                             ("copies", expected, expected_bounds)):
            io.write_model(cnn.train(exs, config, bounds=b),
                           tmp_path / f"{name}.tma")
        assert (tmp_path / "views.tma").read_bytes() == \
            (tmp_path / "copies.tma").read_bytes()

    @pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
    def test_bounds_bit_equal_to_a_fit_over_every_map(self, small_config,
                                                       rising):
        # on a ramp every feature row is monotonic over the kept columns, so
        # each bound sits on the first or last column that a kept onset's
        # maps cover; the onsets at 10 and 690 are dropped, and the columns
        # they would cover lie outside that range
        ramp = np.linspace(1.0, 3.0, 700)[::1 if rising else -1]
        rec = Recording(
            sample_rate=200.0,
            samples=np.outer(ramp, np.arange(1, small_config.channels + 1)),
            annotations=[Annotation(n=n, gesture=g, phase="flexion-onset")
                         for n, g in ((10, "grip"), (200, "point"),
                                      (400, "spread"), (690, "grip"))])
        every_map = fit_normalization(
            ex.map for ex in extract_training_set(rec, small_config))
        _, bounds = training_set([rec], small_config)
        assert np.array(dataclasses.astuple(bounds)).tobytes() == \
            np.array(dataclasses.astuple(every_map)).tobytes()

    def test_maps_are_read_only_views_of_their_recordings_matrix(self, two_recordings):
        config, recordings = two_recordings
        examples, _ = training_set(recordings, config)
        first, second = examples[0].map.data, examples[1].map.data
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError):
            first[0, -1] = 0.5
        assert not np.shares_memory(first, examples[-1].map.data)

    def test_extracted_maps_are_read_only(self, two_recordings):
        config, recordings = two_recordings
        examples = extract_training_set(recordings[0], config)
        with pytest.raises(ValueError):
            examples[0].map.data[0, 0] = 0.5

    def test_no_recordings_rejected(self, small_config):
        with pytest.raises(ConfigError):
            training_set([], small_config)


def whole_matrix_extract(recording, config):
    """The _extract that built the feature matrix of the whole recording,
    kept as the oracle of the span-only one: the matrix, each kept onset's
    span of the columns its maps cover, and the examples."""
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
    feats = feature_matrix(pipeline._envelopes(recording, config))
    shared = feats.view()
    shared.flags.writeable = False
    n_samples = recording.num_samples
    width = config.extraction_width
    map_w = config.map_width
    spans, examples = [], []
    for a in onsets:
        lo = a.n
        if lo - map_w + 1 < 0 or lo + width - 1 >= n_samples:
            pipeline.logger.warning(
                "dropping onset at %d: extraction window leaves the recording",
                a.n,
            )
            continue
        spans.append(TmaMap(end_index=lo + width - 1,
                            data=shared[:, lo - map_w + 1:lo + width]))
        for t in range(lo, lo + width):
            examples.append(cnn.TrainingExample(
                map=TmaMap(end_index=t, data=shared[:, t - map_w + 1:t + 1]),
                label=a.gesture,
            ))
    return feats, spans, examples


def whole_matrix_training_set(recordings, config):
    """training_set over :func:`whole_matrix_extract`, as it was."""
    extracted = [whole_matrix_extract(rec, config) for rec in recordings]
    examples = [ex for _, _, exs in extracted for ex in exs]
    bounds = fit_normalization(span for _, spans, _ in extracted
                               for span in spans)
    for feats, _, _ in extracted:
        normalize_array(feats, bounds, config.channels, out=feats)
    return examples, bounds


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(call, *args):
    """``call(*args)``, which returns examples and bounds (or None), as
    comparable data: each example's label, end index and map bytes, the
    bounds' bytes and the warnings logged; or the error's type and text and
    the warnings."""
    handler = Warnings()
    pipeline.logger.addHandler(handler)
    try:
        examples, bounds = call(*args)
    except (UsageError, ConfigError) as exc:
        return type(exc), str(exc), handler.messages
    finally:
        pipeline.logger.removeHandler(handler)
    maps = [(ex.label, ex.map.end_index, ex.map.data.shape,
             ex.map.data.tobytes()) for ex in examples]
    if bounds is not None:
        bounds = np.array(dataclasses.astuple(bounds)).tobytes()
    return maps, bounds, handler.messages


@st.composite
def extraction_cases(draw):
    """A small config and one to three labeled recordings: onsets anywhere,
    some at either edge, flexion onsets close enough for their spans to
    overlap, return onsets between some of them."""
    map_width = draw(st.integers(1, 6))
    config = SessionConfig(**{
        **SMALL_CONFIG_KWARGS, "map_width": map_width,
        "map_stride": draw(st.integers(1, map_width)),
        "extraction_width": draw(st.integers(2, 9)),
        "channels": draw(st.integers(1, 3))})
    width = config.extraction_width
    span = map_width + width - 1
    recordings = []
    for _ in range(draw(st.integers(1, 3))):
        n_samples = draw(st.integers(1, 6 * span))
        n = draw(st.integers(0, span))
        annotations = []
        while n < n_samples:
            phase = draw(st.sampled_from([PHASE_FLEXION, PHASE_FLEXION,
                                          PHASE_FLEXION, PHASE_RETURN,
                                          PHASE_REST]))
            annotations.append(Annotation(
                n=n, gesture=draw(st.sampled_from(config.gestures)),
                phase=phase))
            # spans that overlap or not, and now and then labels too close
            too_close = draw(st.integers(0, 29)) == 0
            n += width - 1 if too_close else draw(st.integers(width, span + 2))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        recordings.append(Recording(
            sample_rate=config.sample_rate,
            samples=rng.normal(size=(n_samples, config.channels)),
            annotations=annotations))
    return config, recordings


class TestSpanExtraction:
    """The span-only extraction against the whole-matrix one."""

    @settings(max_examples=300, deadline=None)
    @given(extraction_cases())
    def test_equals_the_whole_matrix_extraction(self, case):
        config, recordings = case
        for rec in recordings:
            assert outcome(
                lambda r, c: (extract_training_set(r, c), None), rec, config
            ) == outcome(
                lambda r, c: (whole_matrix_extract(r, c)[2], None), rec, config)
        assert outcome(training_set, recordings, config) == outcome(
            whole_matrix_training_set, recordings, config)

    def test_two_recordings_of_a_synthetic_session(self, two_recordings):
        config, recordings = two_recordings
        got = outcome(training_set, recordings, config)
        assert got == outcome(whole_matrix_training_set, recordings, config)
        assert len(got[0]) == 3 * len(config.gestures) * config.extraction_width

    def test_maps_share_one_matrix_of_their_spans(self, two_recordings):
        # the memory bound: one recording's maps are views into one array
        # of exactly feature_rows x kept x (map_width + extraction_width - 1)
        # float64, whatever the recording's length
        config, recordings = two_recordings
        examples, _ = training_set(recordings, config)
        span = config.map_width + config.extraction_width - 1
        start = 0
        for rec in recordings:
            kept = len(rec.onsets(PHASE_FLEXION))
            maps = [ex.map.data for ex in
                    examples[start:start + kept * config.extraction_width]]
            start += len(maps)
            base = maps[0].base
            assert all(m.base is base for m in maps)
            assert base.dtype == np.float64 and base.flags.owndata
            assert base.shape == (config.feature_rows, kept * span)
            assert base.nbytes == config.feature_rows * kept * span * 8
            assert base.nbytes < rec.num_samples * config.feature_rows * 8 / 4
        assert start == len(examples)


class TestCalibrationSegments:
    def test_one_segment_per_onset_with_gesture(self, trained_setup):
        config = trained_setup.config
        segments = calibration_segments(trained_setup.train_recording, config)
        onsets = trained_setup.train_recording.onsets(PHASE_FLEXION)
        assert [g for g, _ in segments] == [a.gesture for a in onsets]
        assert all(len(series) > 5 for _, series in segments)

    def test_exclusion_window_removes_transition_points(self, trained_setup):
        config, rec = trained_setup.config, trained_setup.train_recording
        # oracle: the same series split at the same midpoints, nothing excluded
        env = envelope_stream(rec.samples, design_butterworth_lowpass(
            config.envelope_cutoff_hz, config.sample_rate), config.map_stride)
        ns, values = difference_series(env, config.map_width, config.map_stride,
                                       min_index=config.warmup_samples)
        onsets = rec.onsets(PHASE_FLEXION)
        mids = [(a.n + b.n) // 2 for a, b in zip(onsets, onsets[1:])]
        which = np.searchsorted(mids, ns, side="right")
        wide = [(a.gesture, values[which == i]) for i, a in enumerate(onsets)]
        narrow = calibration_segments(rec, config)
        assert [g for g, _ in narrow] == [g for g, _ in wide]
        for (_, kept), (_, pool) in zip(narrow, wide):
            assert np.isin(kept, pool).all()
        n_wide = sum(len(s) for _, s in wide)
        n_narrow = sum(len(s) for _, s in narrow)
        assert n_wide - n_narrow >= len(rec.annotations)  # points actually removed
        # pooling the transitions inflates the per-gesture spread
        assert calibrate_threshold(wide, 4.0).threshold > \
            calibrate_threshold(narrow, 4.0).threshold

    def test_warmup_points_are_skipped(self, trained_setup):
        config = trained_setup.config
        segments = calibration_segments(trained_setup.train_recording, config)
        total = sum(len(s) for _, s in segments)
        assert total > 0
        # series starts after warm-up: reconstruct count upper bound
        n = trained_setup.train_recording.num_samples
        assert total <= (n - config.warmup_samples) // config.map_stride + 1

    def test_unannotated_rejected(self, small_config):
        rec = Recording(sample_rate=200.0,
                        samples=np.zeros((400, small_config.channels)))
        with pytest.raises(UsageError):
            calibration_segments(rec, small_config)


class TestEvaluate:
    def test_flat_recording_zero_events_zero_false_positives(
            self, trained_setup):
        config = trained_setup.config
        rec = Recording(sample_rate=config.sample_rate,
                        samples=np.zeros((3000, config.channels)))
        report = evaluate(trained_setup.model, rec, config)
        assert report.n_events == 0
        assert report.onset_false_positive_rate == 0.0
        assert report.n_true_onsets == 0

    def test_high_snr_sequence_fully_correct(self, trained_setup):
        report = evaluate(trained_setup.model, trained_setup.eval_recording,
                          trained_setup.config)
        assert report.onset_recall == 1.0
        assert report.onset_false_positive_rate == 0.0
        assert report.classification_accuracy == 1.0

    def test_confusion_rows_sum_to_truth_counts(self, trained_setup):
        report = evaluate(trained_setup.model, trained_setup.eval_recording,
                          trained_setup.config)
        truth_counts = {g: 0 for g in trained_setup.config.gestures}
        for a in trained_setup.eval_recording.onsets(PHASE_FLEXION):
            truth_counts[a.gesture] += 1
        for i, g in enumerate(report.gestures):
            assert report.confusion[i].sum() == truth_counts[g]

    def test_balanced_sequence_counts(self, trained_setup):
        report = evaluate(trained_setup.model, trained_setup.eval_recording,
                          trained_setup.config)
        assert report.confusion.sum() == 9
        assert all(report.confusion[i].sum() == 3
                   for i in range(len(report.gestures)))

    def test_classified_flexions_fall_inside_the_training_window(
            self, trained_setup):
        # the model learns the maps that end 0 to w - 1 samples after an
        # onset, so the engine has to classify each flexion at such a delay
        config, rec = trained_setup.config, trained_setup.eval_recording
        events = run_replay(iter_batches(rec.samples, config.map_stride),
                            trained_setup.model, config, pacing="fast")
        predicted = [e.n for e in events if isinstance(e, Prediction)]
        flexions = rec.onsets(PHASE_FLEXION)
        assert len(predicted) == len(flexions) == 9
        delays = [min(predicted, key=lambda n: abs(n - a.n)) - a.n
                  for a in flexions]
        assert all(0 <= d < config.extraction_width for d in delays), delays

    def test_deterministic_modulo_latency(self, trained_setup):
        r1 = evaluate(trained_setup.model, trained_setup.eval_recording,
                      trained_setup.config)
        r2 = evaluate(trained_setup.model, trained_setup.eval_recording,
                      trained_setup.config)
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("latency_us"), d2.pop("latency_us")
        assert d1 == d2

    def test_report_serializes_and_formats(self, trained_setup):
        import json
        report = evaluate(trained_setup.model, trained_setup.eval_recording,
                          trained_setup.config)
        blob = json.dumps(report.to_dict())
        assert "onset_recall" in blob
        table = report.format_table()
        assert "total" in table
        for g in trained_setup.config.gestures:
            assert g in table

    def test_report_keys_are_the_fields_and_confusion_columns(
            self, trained_setup):
        report = evaluate(trained_setup.model, trained_setup.eval_recording,
                          trained_setup.config)
        d = report.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(report)} | {
            "confusion_columns"}
        assert d["gestures"] == list(report.gestures)
        assert d["confusion"] == report.confusion.tolist()
        assert d["confusion_columns"] == [*report.gestures, "missed"]

    def test_unready_model_rejected(self, trained_setup):
        bare = dataclasses.replace(trained_setup.model, bounds=None)
        with pytest.raises(UsageError):
            evaluate(bare, trained_setup.eval_recording,
                     trained_setup.config)

    def test_sample_rate_mismatch(self, trained_setup):
        rec = Recording(sample_rate=100.0,
                        samples=np.zeros((40, trained_setup.config.channels)))
        with pytest.raises(ConfigError, match="recording at 100.0 Hz"):
            evaluate(trained_setup.model, rec, trained_setup.config)


class TestMissedOnsetAccounting:
    def test_unmatched_flexion_truth_lands_in_missed_column(
            self, trained_setup):
        # an annotated flexion with no signal behind it gets no matching
        # event; its row must count it in the trailing "missed" column
        config = trained_setup.config
        rec = trained_setup.eval_recording
        quiet = rec.num_samples - int(1.0 * config.sample_rate)
        ghost = Annotation(n=quiet, gesture=config.gestures[0],
                           phase="flexion-onset")
        haunted = Recording(sample_rate=config.sample_rate,
                            samples=rec.samples,
                            annotations=list(rec.annotations) + [ghost])
        report = evaluate(trained_setup.model, haunted, config)
        g0 = report.gestures.index(config.gestures[0])
        assert report.confusion[g0, -1] == 1
        assert report.confusion[:, -1].sum() == 1
        assert report.classification_accuracy < 1.0
        assert report.onset_recall < 1.0


def quadratic_match_events(event_ns, truth_ns, tolerance):
    """The matching rule, one scan of every truth per event: each event in
    turn takes the nearest unused truth within the tolerance, the earlier
    truth on a tie."""
    matches = {}
    used = set()
    for ei, en in enumerate(event_ns):
        best = None
        best_gap = tolerance + 1
        for ti, tn in enumerate(truth_ns):
            if ti in used:
                continue
            gap = abs(en - tn)
            if gap <= tolerance and gap < best_gap:
                best, best_gap = ti, gap
        if best is not None:
            matches[ei] = best
            used.add(best)
    return matches


class TestMatchEvents:
    @settings(max_examples=500, deadline=None)
    @given(events=st.lists(st.integers(0, 60), max_size=30),
           truths=st.lists(st.integers(0, 60), max_size=30),
           tolerance=st.integers(0, 12), sort_truths=st.booleans())
    def test_equals_the_quadratic_scan(self, events, truths, tolerance,
                                       sort_truths):
        # small ranges give repeated samples, so ties at equal gaps and
        # equal truths are common; events come in any order
        if sort_truths:
            truths = sorted(truths)
        assert pipeline._match_events(events, truths, tolerance) == \
            quadratic_match_events(events, truths, tolerance)

    def test_a_tie_goes_to_the_earlier_truth(self):
        assert pipeline._match_events([10, 10, 10], [7, 13, 7], 3) == \
            {0: 0, 1: 1, 2: 2}
        assert pipeline._match_events([10], [13, 7], 3) == {0: 0}
