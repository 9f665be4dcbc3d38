import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import traced_peak
from tmagest import dsp
from tmagest.config import SessionConfig
from tmagest.dsp import design_butterworth_lowpass, envelope_stream
from tmagest.engine import difference_series
from tmagest.errors import CalibrationError, StructuralError
from tmagest.onset import OnsetDetector, calibrate_threshold, difference
from tmagest.tma import feature_matrix


def brute_force_frobenius(a, b):
    """Independent oracle: explicit double loop over all entries."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            d = a[i, j] - b[i, j]
            total += d * d
    return total ** 0.5


def frobenius(a, b):
    """The Frobenius norm of ``a - b`` from its column terms."""
    return math.sqrt(difference(a, b).sum())


def geometry(width, stride, channels):
    """A default config with this map geometry and channel count."""
    return SessionConfig(channels=channels, map_width=width, map_stride=stride)


def envelopes(raw, config):
    """The envelopes the difference signal of ``raw`` is formed from."""
    return envelope_stream(raw, design_butterworth_lowpass(
        config.envelope_cutoff_hz, config.sample_rate), config.map_stride)


class TestDifference:
    def test_identical_maps_give_zero(self, rng):
        data = rng.random((44, 80))
        assert frobenius(data, data.copy()) == 0.0

    def test_single_entry_delta(self):
        a = np.zeros((5, 4))
        b = a.copy()
        b[2, 3] = -7.25
        assert difference(a, b).tolist() == [0.0, 0.0, 0.0, 7.25 ** 2]
        assert frobenius(a, b) == 7.25

    def test_matches_brute_force_on_random_pairs(self, rng):
        for _ in range(20):
            a, b = rng.random((44, 80)), rng.random((44, 80))
            got = frobenius(a, b)
            want = brute_force_frobenius(a, b)
            assert abs(got - want) <= 1e-12 * max(want, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            difference(np.zeros((5, 4)), np.zeros((5, 3)))

    def test_index_shift_invariance(self, rng):
        # adding the same offset to both maps leaves the difference alone
        da, db = rng.random((5, 4)), rng.random((5, 4))
        v1 = frobenius(da, db)
        v2 = frobenius(da + 3.0, db + 3.0)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_triangle_inequality(self, rng):
        a, b, c = (rng.random((6, 7)) for _ in range(3))
        assert frobenius(a, c) <= frobenius(a, b) + frobenius(b, c) + 1e-12

    def test_scale(self, rng):
        a, b = rng.random((6, 7)), rng.random((6, 7))
        base = frobenius(a, b)
        scaled = frobenius(4 * a, 4 * b)
        assert scaled == pytest.approx(4 * base, rel=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 7, 20])
    def test_column_blocks_equal_the_whole_recordings_terms(self, rng,
                                                            stride):
        # the engine's per-stride terms are slices of the calibration's
        feats = feature_matrix(rng.random((230, 8)))
        whole = difference(feats[:, stride:], feats[:, :-stride])
        for start in range(stride, feats.shape[1] - stride + 1, stride):
            block = difference(feats[:, start:start + stride],
                               feats[:, start - stride:start])
            np.testing.assert_array_equal(
                block, whole[start - stride:start])


class TestDifferenceSeries:
    def test_matches_per_map_computation(self, rng):
        raw = rng.random((400, 4))
        width, stride = 40, 10
        config = geometry(width, stride, 4)
        ns, values = difference_series(raw, config)
        assert ns.size == values.size > 0
        feats = feature_matrix(envelopes(raw, config))
        for n, value in zip(ns.tolist(), values):
            cur = feats[:, n - width + 1:n + 1]
            prev = feats[:, n - stride - width + 1:n - stride + 1]
            want = brute_force_frobenius(cur, prev)
            assert abs(value - want) <= 1e-9 * max(want, 1.0)

    def test_equals_per_point_loop_bit_for_bit(self, rng):
        # one difference() call per point, on the maps the engine compares
        raw = rng.random((407, 3))
        width, stride = 40, 10
        config = geometry(width, stride, 3)
        feats = feature_matrix(envelopes(raw, config))
        first = width + stride - 1
        for min_index in (0, 49, 50, 58, 59, 60, 400, 406, 407):
            ns, values = difference_series(raw, config, min_index=min_index)
            want_ns = [n for n in range(max(first, min_index), len(raw))
                       if n % stride == stride - 1]
            want = [frobenius(feats[:, n - width + 1:n + 1],
                              feats[:, n - stride - width + 1:n - stride + 1])
                    for n in want_ns]
            assert ns.tolist() == want_ns
            assert values.tolist() == want

    def test_cadence_and_first_index(self, rng):
        ns, _ = difference_series(rng.random((300, 2)), geometry(40, 10, 2))
        assert ns[0] == 49
        assert (np.diff(ns) == 10).all()
        assert ns[-1] == 299

    def test_cadence_is_the_engines_when_stride_does_not_divide_width(
            self, rng):
        # the engine compares maps at the last sample of each stride once
        # two full maps exist: 59, 69, ... for width 45 and stride 10
        ns, _ = difference_series(rng.random((300, 2)), geometry(45, 10, 2))
        assert ns[0] == 59
        assert (ns % 10 == 9).all()
        assert ns[-1] == 299

    def test_min_index_skips_warmup(self, rng):
        raw = rng.random((300, 2))
        config = geometry(40, 10, 2)
        ns, values = difference_series(raw, config, min_index=100)
        assert ns[0] >= 100
        # still on the same cadence grid
        assert (ns[0] - 49) % 10 == 0
        full_ns, full_values = difference_series(raw, config)
        skipped = full_ns.size - ns.size
        np.testing.assert_array_equal(full_ns[skipped:], ns)
        np.testing.assert_array_equal(full_values[skipped:], values)

    def test_short_input_yields_empty(self, rng):
        ns, values = difference_series(rng.random((30, 2)),
                                       geometry(40, 10, 2))
        assert ns.size == 0 and values.size == 0

    def test_stationarity_null(self):
        # a constant input: once the filter has settled every map equals
        # every other, and d is 0 to rounding
        ns, values = difference_series(np.full((2000, 3), -2.5),
                                       geometry(40, 10, 3), min_index=1000)
        assert ns.size
        assert (values < 1e-9).all()


def whole_matrix_series(envelopes, map_width, map_stride, min_index=0):
    """The whole-recording formula that difference_series computes a slice
    at a time: one feature matrix and one difference() call."""
    start = max(map_width + map_stride - 1, min_index)
    start += -(start + 1) % map_stride
    ns = np.arange(start, envelopes.shape[0], map_stride)
    if ns.size == 0:
        return ns, np.empty(0)
    feats = feature_matrix(envelopes)
    terms = difference(feats[:, map_stride:], feats[:, :-map_stride])
    first = start - map_stride - map_width + 1
    windows = sliding_window_view(terms, map_width)[first::map_stride]
    return ns, np.sqrt(windows.sum(axis=-1))


class TestDifferenceSeriesBlocks:
    """Slices of any size must give the whole-matrix formula's bits."""

    @settings(max_examples=300, deadline=None)
    @given(block=st.sampled_from([1, 2, 3, 7, dsp._SLICE_ROWS]),
           width=st.integers(1, 12), stride=st.integers(1, 6),
           min_index=st.sampled_from([0, 1, 13, 40, 500]),
           channels=st.integers(1, 4), blocks=st.integers(0, 3),
           extra=st.integers(-3, 3), seed=st.integers(0, 2**16))
    def test_blocks_equal_the_whole_matrix(self, block, width, stride,
                                           min_index, channels, blocks,
                                           extra, seed):
        # Lengths around multiples of `block` past the first term a window
        # reads and, below zero, recordings too short for any point; the
        # slices start at sample 0, so their edges fall anywhere in these.
        assume(stride <= width)    # as a config must
        start = max(width + stride - 1, min_index)
        start += -(start + 1) % stride
        first = start - stride - width + 1
        samples = max(1, first + stride + blocks * block + extra)
        raw = np.random.default_rng(seed).standard_normal((samples, channels))
        config = geometry(width, stride, channels)
        want_ns, want = whole_matrix_series(envelopes(raw, config), width,
                                            stride, min_index)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dsp, "_SLICE_ROWS", block)
            ns, values = difference_series(raw, config, min_index)
        assert ns.tolist() == want_ns.tolist()
        assert values.tobytes() == want.tobytes()

    def test_peak_memory_below_one_feature_matrix(self, rng):
        raw = rng.standard_normal((60_000, 8))
        matrix_bytes = feature_matrix(raw[:1]).shape[0] * raw.shape[0] * 8
        _, peak = traced_peak(lambda: difference_series(
            raw, geometry(80, 20, 8), min_index=177))
        assert peak < matrix_bytes


class TestCalibrate:
    def test_threshold_formula_exact(self):
        segments = [(f"g{i}", np.array([0.0, 2 * s]))
                    for i, s in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
        # population std of [0, 2s] is exactly s
        cal = calibrate_threshold(segments, multiplier=4.0)
        assert cal.threshold == 12.0
        assert cal.per_gesture_sigma["g0"] == 1.0
        assert not cal.degenerate

    def test_degenerate_constant_series(self):
        with pytest.warns(UserWarning):
            cal = calibrate_threshold([("only", np.full(10, 3.3))], 4.0)
        assert cal.threshold == 0.0
        assert cal.degenerate

    def test_pools_segments_per_gesture(self):
        cal = calibrate_threshold(
            [("a", np.array([0.0, 0.0])), ("a", np.array([2.0, 2.0]))],
            multiplier=1.0)
        assert cal.per_gesture_sigma["a"] == 1.0  # pooled [0,0,2,2]

    def test_missing_gesture(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold([("a", np.array([1.0, 2.0]))], 4.0,
                                expected_gestures=("a", "b"))

    def test_gesture_not_expected(self):
        with pytest.raises(CalibrationError,
                           match=r"not in the configuration: \['zzz'\] "
                                 r"\(configured: a, b\)"):
            calibrate_threshold([("a", np.array([1.0, 2.0])),
                                 ("zzz", np.array([1.0, 3.0])),
                                 ("b", np.array([1.0, 2.0]))], 4.0,
                                expected_gestures=("a", "b"))

    def test_short_series_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold([("a", np.array([1.0]))], 4.0)

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold([], 4.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(CalibrationError, match="value 2 is not finite"):
            calibrate_threshold([("a", np.array([1.0, 2.0])),
                                 ("b", np.array([1.0, 2.0, bad, 3.0]))], 4.0)


def feed(detector, values, start=0, spacing=20):
    events = []
    for i, v in enumerate(values):
        e = detector.step(start + i * spacing, v)
        if e is not None:
            events.append(e)
    return events


class TestDetector:
    def test_refractory_blocks_second_crossing(self):
        det = OnsetDetector(threshold=10.0, refractory=400)
        events = feed(det, [5.0, 12.0, 11.0])
        assert len(events) == 1
        assert events[0].n == 20
        assert events[0].d_value == 12.0

    def test_exact_threshold_is_not_a_crossing(self):
        det = OnsetDetector(threshold=10.0, refractory=400)
        assert feed(det, [10.0, 10.0, 10.0]) == []

    def test_rearm_after_exactly_refractory(self):
        # hand-enumerated: events at point 1 and point 21, 400 samples apart
        det = OnsetDetector(threshold=10.0, refractory=400)
        values = [12.0] + [5.0] * 19 + [12.0]
        events = feed(det, values)
        assert [e.n for e in events] == [0, 400]

    def test_warmup_suppresses_and_stays_armed(self):
        det = OnsetDetector(threshold=10.0, refractory=400, warmup_end=200)
        values = [50.0] * 10 + [12.0]
        events = feed(det, values)
        assert [e.n for e in events] == [200]

    def test_out_of_order_input_rejected(self):
        det = OnsetDetector(threshold=10.0, refractory=400)
        det.step(100, 0.0)
        with pytest.raises(StructuralError):
            det.step(100, 0.0)

    def test_refractory_spacing_on_adversarial_stream(self, rng):
        # every point crosses; emitted events must still be >= r apart
        det = OnsetDetector(threshold=1.0, refractory=170)
        events = feed(det, rng.uniform(5, 50, 300), spacing=20)
        gaps = np.diff([e.n for e in events])
        assert (gaps >= 170).all()
        assert len(events) > 1

    def test_monotone_threshold(self, rng):
        values = rng.uniform(0, 30, 400)
        counts = []
        for thr in (5.0, 10.0, 15.0, 20.0, 25.0):
            det = OnsetDetector(threshold=thr, refractory=100)
            counts.append(len(feed(det, values)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
