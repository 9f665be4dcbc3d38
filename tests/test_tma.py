import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmagest.errors import ConfigError, NotReadyError, StructuralError
from tmagest.tma import (
    FrameRing,
    NormalizationBounds,
    TmaMap,
    channels_for_rows,
    feature_matrix,
    feature_rows,
    fit_normalization,
    normalize_array,
    pair_indices,
)


def push(ring, t, values):
    """Push one frame: a one-row block."""
    ring.push_values(t, np.asarray(values, dtype=np.float64)[None])


def feature_vector(values):
    """The feature vector of one frame: a one-column feature matrix."""
    return feature_matrix(np.asarray(values, dtype=np.float64)[None])[:, 0]


class TestFeatureVector:
    def test_two_channel_expansion(self):
        np.testing.assert_array_equal(feature_vector([2.0, 3.0]),
                                      [2, 3, 4, 6, 9])

    def test_eight_channel_length(self, rng):
        assert feature_vector(rng.random(8)).shape == (44,)

    def test_zero_frame(self):
        assert not feature_vector(np.zeros(8)).any()

    def test_row_count_formula_exhaustive(self):
        for L in range(1, 17):
            assert feature_rows(L) == L + L * (L + 1) // 2
            assert channels_for_rows(feature_rows(L)) == L

    def test_channels_for_rows_rejects_bogus(self):
        with pytest.raises(StructuralError):
            channels_for_rows(45)

    def test_ordering_is_lexicographic(self):
        # x0*x1 must precede x1^2: distinguishable via distinct primes
        v = feature_vector([2.0, 3.0, 5.0])
        np.testing.assert_array_equal(v, [2, 3, 5, 4, 6, 10, 9, 15, 25])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    def test_product_consistency(self, channels, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, channels)
        v = feature_vector(x)
        k = channels
        for i in range(channels):
            for j in range(i, channels):
                assert abs(v[k] - x[i] * x[j]) < 1e-12
                k += 1

    def test_pair_indices_cached_and_read_only(self):
        for L in (1, 3, 8):
            iu, ju = pair_indices(L)
            ref_i, ref_j = np.triu_indices(L)
            np.testing.assert_array_equal(iu, ref_i)
            np.testing.assert_array_equal(ju, ref_j)
            assert pair_indices(L)[0] is iu
            with pytest.raises(ValueError):
                iu[0] = 1
            with pytest.raises(ValueError):
                ju[0] = 1

    def test_feature_matrix_matches_per_frame(self, rng):
        block = rng.random((7, 5))
        mat = feature_matrix(block)
        iu, ju = np.triu_indices(5)
        for t in range(7):
            x = block[t]
            np.testing.assert_array_equal(mat[:, t], feature_vector(x))
            np.testing.assert_array_equal(
                mat[:, t], np.concatenate([x, np.outer(x, x)[iu, ju]]))

    @pytest.mark.parametrize("channels", [1, 4, 8])
    def test_blocks_equal_slices_of_the_whole(self, rng, channels):
        # the engine builds a stride's columns alone; they must be the
        # calibration's columns of the same samples, bit for bit
        x = rng.normal(size=(300, channels))
        whole = feature_matrix(x)
        assert whole.flags.c_contiguous
        for _ in range(30):
            a = int(rng.integers(0, 300))
            b = int(rng.integers(a + 1, 301))
            np.testing.assert_array_equal(feature_matrix(x[a:b]),
                                          whole[:, a:b])


class TestFrameRing:
    def test_fifo_keeps_last_window(self):
        ring = FrameRing(map_width=3, channels=1)
        for t in range(5):
            push(ring, t, [float(t)])
        np.testing.assert_array_equal(ring.window().ravel(), [2, 3, 4])
        # the newest index is 4: only 5 may follow
        with pytest.raises(StructuralError):
            push(ring, 6, [6.0])
        push(ring, 5, [5.0])
        np.testing.assert_array_equal(ring.window().ravel(), [3, 4, 5])

    def test_not_ready_until_full(self):
        ring = FrameRing(map_width=4, channels=2)
        push(ring, 0, [1, 2])
        assert not ring.is_full
        with pytest.raises(NotReadyError):
            ring.window()

    def test_identical_frames_fill_columns(self):
        ring = FrameRing(map_width=3, channels=2)
        for t in range(3):
            push(ring, t, [5.0, 6.0])
        m = feature_matrix(ring.window())
        assert (m == m[:, :1]).all()

    def test_rejects_gap_in_indices(self):
        ring = FrameRing(map_width=3, channels=1)
        push(ring, 0, [1.0])
        with pytest.raises(StructuralError):
            push(ring, 2, [1.0])

    def test_stride_pushes_equal_frame_pushes(self, rng):
        # 30 strides cross several front moves of the strided ring, and the
        # strides do not divide the widths
        for width, stride in [(12, 5), (7, 3), (5, 4)]:
            block = rng.random((30 * stride, 3))
            by_frame = FrameRing(map_width=width, channels=3)
            by_stride = FrameRing(map_width=width, channels=3, stride=stride)
            for t in range(0, block.shape[0], stride):
                for i in range(t, t + stride):
                    push(by_frame, i, block[i])
                # raises unless the previous stride's newest index was t - 1
                by_stride.push_values(t, block[t:t + stride])
                if by_frame.is_full:
                    np.testing.assert_array_equal(by_stride.window(),
                                                  by_frame.window())
                    np.testing.assert_array_equal(
                        by_stride.window(),
                        block[t + stride - width:t + stride])
            assert by_stride.is_full
            with pytest.raises(StructuralError):
                by_stride.push_values(block.shape[0] + 1, block[:stride])

    def test_rejects_push_longer_than_stride(self):
        ring = FrameRing(map_width=4, channels=2, stride=3)
        with pytest.raises(StructuralError, match="exceed the stride of 3"):
            ring.push_values(0, np.zeros((4, 2)))
        ring.push_values(0, np.zeros((3, 2)))

    def test_rejects_channel_mismatch(self):
        ring = FrameRing(map_width=3, channels=2)
        with pytest.raises(StructuralError):
            push(ring, 0, [1.0])


class TestAssemble:
    def test_hand_computed_two_by_two(self):
        # frames [1,0] then [0,1]: columns are the feature vectors
        ring = FrameRing(map_width=2, channels=2)
        push(ring, 0, [1.0, 0.0])
        push(ring, 1, [0.0, 1.0])
        m = feature_matrix(ring.window())
        np.testing.assert_array_equal(
            m, [[1, 0], [0, 1], [1, 0], [0, 0], [0, 1]])

    def test_default_geometry(self, rng):
        ring = FrameRing(map_width=80, channels=8)
        for t in range(80):
            push(ring, t, rng.random(8))
        assert feature_matrix(ring.window()).shape == (44, 80)

    def test_shift_property(self, rng):
        block = rng.random((30, 4))
        ring = FrameRing(map_width=10, channels=4)
        maps = {}
        for t in range(30):
            push(ring, t, block[t])
            if ring.is_full:
                maps[t] = feature_matrix(ring.window())
        for t in range(10, 29):
            np.testing.assert_array_equal(maps[t][:, 1:], maps[t + 1][:, :-1])

    def test_scale_property(self, rng):
        block = rng.random((12, 3))
        alpha = 2.0  # power of two: exact in floating point
        a = feature_matrix(block)
        b = feature_matrix(alpha * block)
        L = 3
        np.testing.assert_array_equal(b[:L], alpha * a[:L])
        np.testing.assert_array_equal(b[L:], alpha ** 2 * a[L:])


class TestNormalization:
    def make_map(self, data, end_index=0):
        return TmaMap(end_index=end_index, data=np.asarray(data, dtype=np.float64))

    def normalize(self, m, bounds):
        return normalize_array(m.data, bounds, channels_for_rows(m.rows))

    def test_fit_single_map(self, rng):
        L = 2
        data = np.vstack([rng.uniform(0.1, 0.9, (L, 4)),
                          rng.uniform(1.0, 2.0, (3, 4))])
        data[0, 0], data[1, 1] = 0.1, 0.9
        b = fit_normalization([self.make_map(data)])
        assert b.first_order_min == pytest.approx(0.1)
        assert b.first_order_max == pytest.approx(0.9)

    def test_fit_all_zero_degenerate(self):
        b = fit_normalization([self.make_map(np.zeros((5, 3)))])
        assert (b.first_order_min, b.first_order_max) == (0.0, 1.0)
        assert (b.second_order_min, b.second_order_max) == (0.0, 1.0)

    def test_fit_takes_global_extrema(self):
        m1 = self.make_map(np.full((5, 2), 3.0))
        m2 = self.make_map(np.full((5, 2), 5.0))
        b = fit_normalization([m1, m2])
        assert b.first_order_max == 5.0
        assert b.second_order_max == 5.0

    def test_fit_on_matrices_equals_the_fit_on_their_maps(self, rng):
        # a matrix of side-by-side map columns gives the bounds of its maps
        data = rng.uniform(-1.0, 3.0, (5, 12))
        maps = [self.make_map(data[:, k:k + 4]) for k in range(0, 12, 4)]
        assert fit_normalization([data[:, :8], data[:, 8:]]) == \
            fit_normalization(maps)

    def test_fit_empty_errors(self):
        with pytest.raises(ConfigError):
            fit_normalization([])

    def test_bounds_validate(self):
        with pytest.raises(ConfigError):
            NormalizationBounds(1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_bounds_rejected(self, bad):
        expected = f"is {bad}, expected a finite number"
        with pytest.raises(ConfigError, match=f"'first_order_max' {expected}"):
            NormalizationBounds(0.0, bad, 0.0, 1.0)
        with pytest.raises(ConfigError, match=f"'second_order_min' {expected}"):
            NormalizationBounds(0.0, 1.0, bad, 1.0)

    @pytest.mark.parametrize("row,field", [(0, "first_order_max"),
                                           (3, "second_order_max")],
                             ids=["first-order", "second-order"])
    def test_fit_on_a_map_holding_inf_rejected(self, row, field):
        data = np.ones((5, 3))
        data[row, 1] = np.inf
        with pytest.raises(ConfigError,
                           match=f"'{field}' is inf, expected a finite number"):
            fit_normalization([self.make_map(data)])

    def test_endpoints_map_to_zero_and_one(self):
        data = np.array([[0.1, 0.9], [0.5, 0.5],
                         [2.0, 4.0], [3.0, 3.0], [2.5, 3.5]])
        m = self.make_map(data)
        b = fit_normalization([m])
        out = self.normalize(m, b)
        assert out[:2].min() == 0.0
        assert out[:2].max() == 1.0
        assert out[2:].min() == 0.0
        assert out[2:].max() == 1.0

    def test_out_of_range_clamps(self):
        b = NormalizationBounds(0.0, 1.0, 0.0, 1.0)
        m = self.make_map([[-5.0, 0.5], [2.0, 0.25],
                           [9.0, 0.1], [-1.0, 0.2], [0.5, 0.3]])
        out = self.normalize(m, b)
        assert out.min() == 0.0
        assert out.max() == 1.0

    def test_identity_bounds_idempotent(self, rng):
        b = NormalizationBounds(0.0, 1.0, 0.0, 1.0)
        m = self.make_map(rng.random((5, 4)))
        once = self.normalize(m, b)
        twice = self.normalize(self.make_map(once), b)
        np.testing.assert_array_equal(once, twice)

    def test_original_untouched(self, rng):
        data = rng.random((5, 4)) * 10
        m = self.make_map(data)
        before = data.copy()
        self.normalize(m, fit_normalization([m]))
        np.testing.assert_array_equal(m.data, before)

    def test_normalized_range(self, rng):
        maps = [self.make_map(rng.random((44, 10)) * 7 - 1) for _ in range(4)]
        b = fit_normalization(maps)
        for m in maps:
            out = self.normalize(m, b)
            assert out.min() >= 0.0
            assert out.max() <= 1.0
