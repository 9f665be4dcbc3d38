import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tmagest import engine as engine_mod
from tmagest.cnn import CnnArchitecture, CnnModel, initial_params
from tmagest.config import SessionConfig
from tmagest.dsp import design_butterworth_lowpass, envelope_stream
from tmagest.engine import (
    DifferenceSignal,
    Engine,
    Prediction,
    SuppressedOnset,
    difference_series,
    event_to_dict,
    iter_batches,
    run_replay,
)
from tmagest.errors import ConfigError, StructuralError, UsageError
from tmagest.onset import OnsetDetector
from tmagest.tma import feature_matrix

from test_onset import whole_matrix_series


def drive(engine, samples):
    events = []
    for batch in iter_batches(samples, engine.config.map_stride):
        e = engine.step(batch)
        if e is not None:
            events.append(e)
    return events


def replay_strides(setup):
    return iter_batches(setup.eval_recording.samples, setup.config.map_stride)


class TestStep:
    def test_flat_stream_never_emits(self, trained_setup):
        engine = Engine(trained_setup.model, trained_setup.config)
        flat = np.zeros((4000, trained_setup.config.channels))
        assert drive(engine, flat) == []

    def test_batch_size_enforced(self, trained_setup):
        engine = Engine(trained_setup.model, trained_setup.config)
        with pytest.raises(StructuralError):
            engine.step(np.zeros((3, trained_setup.config.channels)))
        with pytest.raises(StructuralError):
            engine.step(np.zeros((trained_setup.config.map_stride, 2)))

    def test_alternation_on_synthetic_stream(self, trained_setup):
        events = list(run_replay(replay_strides(trained_setup),
                                 trained_setup.model, trained_setup.config))
        assert len(events) >= 4
        for i, event in enumerate(events):
            if i % 2 == 0:
                assert isinstance(event, Prediction)
            else:
                assert isinstance(event, SuppressedOnset)

    def test_no_suppression_classifies_everything(self, trained_setup):
        config = dataclasses.replace(trained_setup.config,
                                     suppress_alternate_onsets=False)
        events = list(run_replay(replay_strides(trained_setup),
                                 trained_setup.model, config))
        assert events
        assert all(isinstance(e, Prediction) for e in events)

    def test_refractory_blocks_second_burst(self, trained_setup):
        # two sharp activations 150 samples apart with refractory 400:
        # only the first may emit
        config = dataclasses.replace(trained_setup.config, refractory=400,
                                     suppress_alternate_onsets=False)
        engine = Engine(trained_setup.model, config)
        n = 3000
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, config.channels)) * 0.05
        for start in (1500, 1650):
            x[start:start + 120] *= 40.0
        events = drive(engine, x)
        assert len(events) == 1
        assert 1500 <= events[0].n < 1650

    def test_prediction_cadence(self, trained_setup):
        events = list(run_replay(replay_strides(trained_setup),
                                 trained_setup.model, trained_setup.config))
        ns = [e.n for e in events if isinstance(e, Prediction)]
        assert len(ns) >= 2
        assert all(b - a >= trained_setup.config.refractory
                   for a, b in zip(ns, ns[1:]))

    def test_compute_micros_positive(self, trained_setup):
        events = list(run_replay(replay_strides(trained_setup),
                                 trained_setup.model, trained_setup.config))
        assert all(e.compute_micros > 0 for e in events)

    def test_warmup_holds_fire(self, trained_setup):
        # strong activity from the very first sample: nothing may fire
        # before the filter warm-up has elapsed
        config = trained_setup.config
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2000, config.channels)) * 50.0
        engine = Engine(trained_setup.model, config)
        events = drive(engine, x)
        assert all(e.n >= config.warmup_samples for e in events)


    def test_non_finite_stride_rejected_and_state_kept(self, trained_setup):
        # a NaN or infinite stride inserted mid-recording raises and leaves
        # the engine as it was: the events equal those of the clean stream
        config = trained_setup.config
        samples = trained_setup.eval_recording.samples
        at = samples.shape[0] // config.map_stride // 2 * config.map_stride
        clean = drive(Engine(trained_setup.model, config), samples)
        engine = Engine(trained_setup.model, config)
        events = drive(engine, samples[:at])
        for value in (np.nan, np.inf):
            bad = samples[at:at + config.map_stride].copy()
            bad[3, 1] = value
            with pytest.raises(StructuralError,
                               match=f"stride starting at sample {at} "):
                engine.step(bad)
        events += drive(engine, samples[at:])
        assert any(e.n >= at for e in clean)
        assert [event_to_dict(e, include_timing=False) for e in events] == \
               [event_to_dict(e, include_timing=False) for e in clean]

    def test_classified_maps_equal_offline_slices(self, trained_setup,
                                                  monkeypatch):
        config = trained_setup.config
        samples = trained_setup.eval_recording.samples
        maps = []
        predict = engine_mod.predict

        def capture(model, current):
            # a view into the engine's column ring, valid until its next push
            maps.append(current.copy())
            return predict(model, current)

        monkeypatch.setattr(engine_mod, "predict", capture)
        engine = Engine(trained_setup.model, dataclasses.replace(
            config, suppress_alternate_onsets=False))
        events = drive(engine, samples)
        assert len(maps) == len(events) >= 4
        coeffs = design_butterworth_lowpass(config.envelope_cutoff_hz,
                                            config.sample_rate)
        feats = feature_matrix(envelope_stream(samples, coeffs,
                                               config.map_stride))
        w = config.map_width
        for event, m in zip(events, maps):
            n = event.n
            np.testing.assert_array_equal(m, feats[:, n - w + 1:n + 1])

    def test_features_built_once_per_stride(self, trained_setup, monkeypatch):
        # every stride - quiet, suppressed or classifying - builds the
        # feature columns of its own samples and nothing more: a classified
        # map is read from the columns already built
        config = trained_setup.config
        built = []
        build = engine_mod.feature_matrix

        def record(frames):
            built.append(frames.shape[0])
            return build(frames)

        monkeypatch.setattr(engine_mod, "feature_matrix", record)
        engine = Engine(trained_setup.model, config)
        events = []
        for batch in iter_batches(trained_setup.eval_recording.samples,
                                  config.map_stride):
            built.clear()
            events.append(engine.step(batch))
            assert built == [config.map_stride]
        assert any(isinstance(e, Prediction) for e in events)
        assert any(isinstance(e, SuppressedOnset) for e in events)
        assert None in events

    @pytest.mark.parametrize("width,stride", [(40, 10), (45, 10), (33, 7),
                                              (80, 20), (20, 20), (20, 1)])
    def test_difference_equals_offline_series_bit_for_bit(
            self, trained_setup, monkeypatch, width, stride):
        # the (n, d) pairs the detector sees are the calibration signal,
        # also when the stride does not divide the map width
        config = dataclasses.replace(trained_setup.config, map_width=width,
                                     map_stride=stride)
        arch = CnnArchitecture(config.feature_rows, width, 2, 2,
                               len(config.gestures))
        model = CnnModel(arch, initial_params(arch, np.random.default_rng(0)))
        seen = []
        step = OnsetDetector.step

        def record(detector, n, value):
            seen.append((n, value))
            return step(detector, n, value)

        monkeypatch.setattr(OnsetDetector, "step", record)
        samples = trained_setup.eval_recording.samples
        drive(Engine(model, config, threshold=float("inf")), samples)
        ns, values = difference_series(samples, config)
        assert len(seen) > 100
        assert seen == list(zip(ns.tolist(), values.tolist()))
        # and both are the whole-recording formula over the offline envelopes
        coeffs = design_butterworth_lowpass(config.envelope_cutoff_hz,
                                            config.sample_rate)
        want_ns, want = whole_matrix_series(
            envelope_stream(samples, coeffs, stride), width, stride)
        assert ns.tolist() == want_ns.tolist()
        assert values.tobytes() == want.tobytes()


class TestDifferenceSignal:
    """Any split of the pushed samples into whole strides gives the bits of
    a push per stride and of difference_series."""

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 12), stride=st.integers(1, 6),
           strides=st.integers(1, 14), channels=st.integers(1, 3),
           cuts=st.lists(st.integers(1, 13), max_size=5),
           seed=st.integers(0, 2**16))
    @example(width=12, stride=2, strides=14, channels=2, cuts=[1],
             seed=0)    # W > 2S, a first push of one stride
    @example(width=7, stride=3, strides=9, channels=1, cuts=[1, 4],
             seed=1)    # S does not divide W
    @example(width=5, stride=1, strides=14, channels=3, cuts=[1, 2, 9],
             seed=2)    # S = 1
    @example(width=1, stride=1, strides=6, channels=2, cuts=[2, 3],
             seed=3)    # W = 1: no terms are kept
    @example(width=5, stride=5, strides=8, channels=2, cuts=[1, 4],
             seed=4)    # W = S
    @example(width=4, stride=2, strides=14, channels=2, cuts=[],
             seed=5)    # one push of many strides spans several windows
    def test_any_split_gives_the_bits_of_one_stride_at_a_time(
            self, width, stride, strides, channels, cuts, seed):
        assume(stride <= width)    # as a config must
        raw = np.random.default_rng(seed).standard_normal((strides * stride,
                                                           channels))
        config = SessionConfig(channels=channels, map_width=width,
                               map_stride=stride)
        signal = DifferenceSignal(config)
        each = [p for k in range(strides)
                for p in signal.push(raw[k * stride:(k + 1) * stride])]
        edges = [0, *sorted({c for c in cuts if c < strides}), strides]
        signal = DifferenceSignal(config)
        split = [p for a, b in zip(edges, edges[1:])
                 for p in signal.push(raw[a * stride:b * stride])]
        assert split == each
        assert [n for n, _ in each] == list(
            range(width + stride - 1 + -(width) % stride,
                  strides * stride, stride))
        ns, values = difference_series(raw, config)
        assert each == list(zip(ns.tolist(), values.tolist()))

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_a_partial_stride_is_refused(self, k):
        signal = DifferenceSignal(SessionConfig(channels=5, map_width=4,
                                                map_stride=2))
        with pytest.raises(StructuralError, match="whole strides of 2"):
            signal.push(np.zeros((k, 5)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_named_and_leaves_no_trace(self, rng,
                                                               value):
        config = SessionConfig(channels=2, map_width=6, map_stride=3)
        raw = rng.standard_normal((30, 2))
        clean = DifferenceSignal(config)
        want = clean.push(raw[:9]) + clean.push(raw[9:])
        signal = DifferenceSignal(config)
        got = signal.push(raw[:9])
        bad = raw[9:21].copy()
        bad[7, 1] = value    # sample 16, in the stride that starts at 15
        with pytest.raises(StructuralError, match=(
                "^stride starting at sample 15 holds a non-finite value at "
                "sample 16$")):
            signal.push(bad)
        assert signal.samples == 9
        got += signal.push(raw[9:])
        assert got == want
        np.testing.assert_array_equal(signal.newest, clean.newest)


class TestReplay:
    def test_streaming_equals_replay(self, trained_setup):
        replay_events = list(run_replay(replay_strides(trained_setup),
                                        trained_setup.model,
                                        trained_setup.config))
        engine = Engine(trained_setup.model, trained_setup.config)
        manual = drive(engine, trained_setup.eval_recording.samples)
        assert [(type(e).__name__, e.n) for e in manual] == \
               [(type(e).__name__, e.n) for e in replay_events]
        for a, b in zip(manual, replay_events):
            if isinstance(a, Prediction):
                assert (a.gesture, a.confidence) == (b.gesture, b.confidence)

    def test_fast_and_realtime_agree(self, trained_setup):
        # realtime pacing sleeps through the recording, so replay only the
        # whole strides up to the first event
        config = trained_setup.config
        samples = trained_setup.eval_recording.samples
        first = next(run_replay(replay_strides(trained_setup),
                                trained_setup.model, config, "fast"))
        end = (first.n // config.map_stride + 1) * config.map_stride
        fast = list(run_replay(iter_batches(samples[:end], config.map_stride),
                               trained_setup.model, config, "fast"))
        real = list(run_replay(iter_batches(samples[:end], config.map_stride),
                               trained_setup.model, config, "realtime"))
        assert fast
        assert [(type(e).__name__, e.n) for e in fast] == \
               [(type(e).__name__, e.n) for e in real]

    @pytest.mark.parametrize("pacing", ["fast", "realtime"])
    def test_overrun_is_logged_when_paced(self, trained_setup, monkeypatch,
                                          caplog, pacing):
        # a step slower than its map_stride / sample_rate budget is logged,
        # never dropped, and only where strides are paced
        config = trained_setup.config
        budget_s = config.map_stride / config.sample_rate
        step = Engine.step

        def slow(engine, batch):
            time.sleep(1.2 * budget_s)
            return step(engine, batch)

        monkeypatch.setattr(Engine, "step", slow)
        strides = iter_batches(np.zeros((3 * config.map_stride,
                                         config.channels)), config.map_stride)
        with caplog.at_level("WARNING", logger=engine_mod.__name__):
            assert list(run_replay(strides, trained_setup.model, config,
                                   pacing)) == []
        overruns = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("stride overran")]
        assert len(overruns) == (3 if pacing == "realtime" else 0)

    def test_empty_recording(self, trained_setup):
        config = trained_setup.config
        empty = iter_batches(np.empty((0, config.channels)), config.map_stride)
        assert list(run_replay(empty, trained_setup.model, config)) == []

    def test_unknown_pacing(self, trained_setup):
        with pytest.raises(ConfigError):
            list(run_replay(replay_strides(trained_setup),
                            trained_setup.model, trained_setup.config,
                            pacing="warp"))

    def test_trailing_partial_batch_dropped(self, trained_setup):
        config = trained_setup.config
        n = config.map_stride * 3 + 4
        batches = list(iter_batches(np.zeros((n, config.channels)),
                                    config.map_stride))
        assert len(batches) == 3


class TestEngineConstruction:
    def test_threshold_required(self, trained_setup):
        import dataclasses
        bare = dataclasses.replace(trained_setup.model, calibration=None)
        with pytest.raises(UsageError):
            Engine(bare, trained_setup.config)
        Engine(bare, trained_setup.config, threshold=5.0)

    def test_geometry_mismatch(self, trained_setup):
        import dataclasses
        bad = dataclasses.replace(trained_setup.config, map_width=36)
        with pytest.raises(ConfigError):
            Engine(trained_setup.model, bad)

    @pytest.mark.parametrize("field,value", [("sample_rate", 250.0),
                                             ("envelope_cutoff_hz", 3.0),
                                             ("map_stride", 20)])
    def test_config_differing_from_the_trained_one_rejected(
            self, trained_setup, field, value):
        bad = dataclasses.replace(trained_setup.config, **{field: value})
        with pytest.raises(ConfigError, match=f"{field} is {value}"):
            Engine(trained_setup.model, bad)
        # settings the difference signal does not depend on may change
        Engine(trained_setup.model,
               dataclasses.replace(trained_setup.config, refractory=400))


class TestEventJson:
    def test_prediction_jsonl_shape(self):
        p = Prediction(n=120, gesture="grip", confidence=0.93,
                       compute_micros=1500.0)
        d = event_to_dict(p)
        assert json.loads(json.dumps(d)) == {
            "n": 120, "type": "prediction", "gesture": "grip",
            "confidence": 0.93, "compute_us": 1500.0}

    def test_suppressed_jsonl_shape(self):
        s = SuppressedOnset(n=320, d_value=14.0, compute_micros=900.0)
        d = event_to_dict(s, include_timing=False)
        assert d == {"n": 320, "type": "suppressed", "gesture": None,
                     "confidence": None}
