import math

import numpy as np
import pytest
from scipy import signal as sp_signal

from conftest import traced_peak
from tmagest import synth
from tmagest.config import SessionConfig
from tmagest.dsp import (
    EnvelopeFilter,
    block_slices,
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    envelope_stream,
)
from tmagest.errors import ConfigError, StructuralError

S = SessionConfig().map_stride    # the engine's filter block
CARRIER_BLOCK = synth._CARRIER_BLOCK


def measured_sine_gain(coeffs, freq_hz, fs, seconds=40.0):
    """Steady-state amplitude ratio oracle: drive a sinusoid, read the tail."""
    n = int(fs * seconds)
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * freq_hz * t)
    filt = EnvelopeFilter(coeffs, 1, S)
    y = filt.process(x[:, None])[:, 0]
    tail = y[n // 2:]
    return (tail.max() - tail.min()) / 2.0


class TestDesign:
    def test_matches_independent_scipy_design(self):
        # independent oracle: scipy's analog-prototype + bilinear design
        c = design_butterworth_lowpass(2.0, 200.0)
        b, a = sp_signal.butter(2, 2.0 / 100.0, btype="low")
        np.testing.assert_allclose([c.b0, c.b1, c.b2], b, rtol=1e-12)
        np.testing.assert_allclose([c.a1, c.a2], a[1:], rtol=0, atol=1e-13)

    def test_dc_gain_is_unity(self):
        for fc, fs in [(2.0, 200.0), (50.0, 200.0), (0.5, 100.0), (10.0, 1000.0)]:
            c = design_butterworth_lowpass(fc, fs)
            assert abs(c.dc_gain() - 1.0) < 1e-9

    def test_measured_gain_at_cutoff_is_half_power(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        gain = measured_sine_gain(c, 2.0, 200.0)
        assert abs(gain - 1 / math.sqrt(2)) / (1 / math.sqrt(2)) < 0.005

    def test_cutoff_magnitude_in_db(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        db = 20 * math.log10(c.magnitude_at(2.0, 200.0))
        assert abs(db - (-3.0103)) < 0.05

    def test_constant_input_passes_unchanged(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        filt = EnvelopeFilter(c, 1, S)
        y = filt.process(np.full((3000, 1), 7.5))
        assert abs(y[-1, 0] - 7.5) < 7.5 * 1e-3

    def test_high_cutoff_nyquist_attenuation(self):
        # evaluate |H| at z = -1 from the designed coefficients
        c = design_butterworth_lowpass(50.0, 200.0)
        assert c.is_stable()
        mag = c.magnitude_at(100.0, 200.0)
        assert 20 * math.log10(mag + 1e-300) < -20.0

    def test_stability_across_the_band(self):
        for fc in (0.1, 1.0, 10.0, 60.0, 99.0):
            assert design_butterworth_lowpass(fc, 200.0).is_stable()

    @pytest.mark.parametrize("fc,fs", [(0.0, 200.0), (-1.0, 200.0),
                                       (100.0, 200.0), (150.0, 200.0),
                                       (2.0, 0.0), (2.0, -5.0)])
    def test_domain_errors(self, fc, fs):
        with pytest.raises(ConfigError):
            design_butterworth_lowpass(fc, fs)


class TestRectify:
    """Full-wave rectification is the first step of :func:`envelope_stream`."""

    def test_example_values(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        raw = np.array([[-1, 2, 0, -0.5, 1, -3, 4, -2]])
        rectified = np.array([[1, 2, 0, 0.5, 1, 3, 4, 2]], dtype=np.float64)
        np.testing.assert_array_equal(envelope_stream(raw, c, S),
                                      EnvelopeFilter(c, 8, S).process(rectified))

    def test_zero_sample(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        assert not envelope_stream(np.zeros((50, 8)), c, S).any()

    def test_idempotent_on_nonnegative(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        vals = rng.random((100, 8))
        np.testing.assert_array_equal(envelope_stream(vals, c, S),
                                      EnvelopeFilter(c, 8, S).process(vals))

    def test_sign_blind_and_equal_to_filtered_abs(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        raw = rng.normal(size=(303, 3))
        for size in (1, 20):
            ref = EnvelopeFilter(c, 3, size).process(np.abs(raw))
            np.testing.assert_array_equal(envelope_stream(raw, c, size), ref)
            np.testing.assert_array_equal(envelope_stream(-raw, c, size), ref)


class TestFilterStep:
    def test_zero_stream_stays_zero(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        filt = EnvelopeFilter(c, 4, S)
        for _ in range(50):
            out = filt.process(np.zeros((1, 4)))
            assert out.shape == (1, 4)
            assert not out.any()

    def test_constant_input_converges_within_two_seconds(self):
        # simulate the recursion directly: after 2 s at fc=2 Hz the output
        # must be within 0.1% of the input level
        c = design_butterworth_lowpass(2.0, 200.0)
        filt = EnvelopeFilter(c, 1, S)
        y = filt.process(np.full((400, 1), 3.0))
        assert abs(y[-1, 0] - 3.0) <= 3.0 * 1e-3

    def test_rectified_sine_settles_to_mean_with_small_ripple(self):
        # The envelope of a rectified sinusoid is its DC component. At 5
        # samples per period the sampled |sin| has mean (1/5) sum |sin(2pi
        # k/5)| ~= 0.6155 - the discretized version of the continuous 2/pi;
        # the ripple harmonics (80 Hz) sit far above a 2 Hz cutoff.
        fs, f0 = 200.0, 40.0
        c = design_butterworth_lowpass(2.0, fs)
        t = np.arange(int(fs * 20)) / fs
        x = np.abs(np.sin(2 * np.pi * f0 * t))
        dc = x.mean()  # oracle: the input's own discrete mean
        assert abs(dc - 2 / np.pi) < 0.05 * (2 / np.pi)
        filt = EnvelopeFilter(c, 1, S)
        y = filt.process(x[:, None])[:, 0]
        tail = y[len(y) // 2:]
        assert abs(tail.mean() - dc) < 0.005 * dc
        assert (tail.max() - tail.min()) / 2 < 0.01 * tail.mean()

    def test_channel_count_mismatch(self):
        c = design_butterworth_lowpass(2.0, 200.0)
        filt = EnvelopeFilter(c, 8, S)
        with pytest.raises(StructuralError):
            filt.process(np.zeros((1, 7)))

    @pytest.mark.parametrize("c", [
        design_butterworth_lowpass(2.0, 200.0),
        # the carrier's band-pass carries 8 states across calls
        design_butterworth_bandpass(20.0, 95.0, 200.0),
    ], ids=["biquad", "bandpass"])
    def test_strides_equal_one_call_and_envelope_stream(self, rng, c):
        # 303 samples: a short final block follows the whole ones
        x = rng.normal(size=(303, 3))
        for size in (1, 7, 20, CARRIER_BLOCK):
            whole = EnvelopeFilter(c, 3, size).process(np.abs(x))
            stepper = EnvelopeFilter(c, 3, size)
            strides = np.concatenate([stepper.process(np.abs(x[i:i + size]))
                                      for i in range(0, len(x), size)])
            np.testing.assert_array_equal(strides, whole)
            np.testing.assert_array_equal(envelope_stream(x, c, size), whole)

    @pytest.mark.parametrize("n,size", [(0, 7), (9003, 7), (9003, 128),
                                        (4096, 4096), (9003, 5000)])
    def test_block_slices_cover_the_rows_in_whole_blocks(self, n, size):
        rows = [np.arange(n)[s] for s in block_slices(n, size)]
        assert sum(map(list, rows), []) == list(range(n))
        assert all(len(r) % size == 0 and len(r) <= max(4096, size)
                   for r in rows[:-1])

    def test_slices_equal_one_call(self, rng):
        # envelope_stream works through 4096-row slices of whole blocks:
        # 9003 rows end in a partial slice and a short final block
        c = design_butterworth_lowpass(2.0, 200.0)
        x = rng.normal(size=(9003, 3))
        for size in (7, S, CARRIER_BLOCK, 4096, 5000):
            whole = EnvelopeFilter(c, 3, size).process(np.abs(x))
            np.testing.assert_array_equal(envelope_stream(x, c, size), whole)

    def test_envelope_stream_peak_memory_bounded_by_the_output(self, rng):
        # rectified a slice at a time: no second recording-sized array
        c = design_butterworth_lowpass(2.0, 200.0)
        raw = rng.normal(size=(60_000, 8))
        env, peak = traced_peak(lambda: envelope_stream(raw, c, S))
        assert peak < 1.2 * env.nbytes + (1 << 20)

    def test_matches_scipy_lfilter(self, rng):
        # independent oracle for the recursion itself
        c = design_butterworth_lowpass(2.0, 200.0)
        b, a = [c.b0, c.b1, c.b2], [1.0, c.a1, c.a2]
        x = np.abs(rng.normal(size=(4000, 2)))
        ref = sp_signal.lfilter(b, a, x, axis=0)
        for size in (1, 20, 64):   # 4000 = 62 * 64 + 32: a short last block
            mine = EnvelopeFilter(c, 2, size).process(x)
            np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-12)


class TestInvariants:
    def test_filter_linearity(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        u, v = rng.normal(size=(500, 2)), rng.normal(size=(500, 2))
        alpha, beta = 2.5, -1.25
        fu = EnvelopeFilter(c, 2, S).process(u)
        fv = EnvelopeFilter(c, 2, S).process(v)
        fmix = EnvelopeFilter(c, 2, S).process(alpha * u + beta * v)
        np.testing.assert_allclose(fmix, alpha * fu + beta * fv,
                                   rtol=1e-9, atol=1e-12)

    def test_envelope_scale_covariance(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        x = rng.normal(size=(400, 3))
        alpha = 3.75
        base = envelope_stream(x, c, S)
        scaled = envelope_stream(alpha * x, c, S)
        np.testing.assert_allclose(scaled, alpha * base, rtol=1e-12, atol=0)

    def test_causality(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        x = rng.normal(size=(300, 2))
        mutated = x.copy()
        mutated[200:] = 99.0
        a = envelope_stream(x, c, S)
        b = envelope_stream(mutated, c, S)
        np.testing.assert_array_equal(a[:200], b[:200])

    def test_bounded_io(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        bound = 5.0
        x = rng.uniform(-bound, bound, size=(5000, 2))
        y = envelope_stream(x, c, S)
        assert np.abs(y).max() <= bound * 1.1

    def test_determinism(self, rng):
        c = design_butterworth_lowpass(2.0, 200.0)
        x = rng.normal(size=(1000, 4))
        np.testing.assert_array_equal(envelope_stream(x, c, S),
                                      envelope_stream(x, c, S))


def envelope_block_matrix(coeffs, size, r):
    """Reference: the (r + 2)-square block matrix of an EnvelopeFilter of
    block size ``size`` for a block of ``r`` samples, built from the biquad's
    own recursion without :func:`tmagest.dsp.block_matrices`."""
    c, S = coeffs, size
    a = np.array([[-c.a1, 1.0], [-c.a2, 0.0]])
    b = np.array([c.b1 - c.a1 * c.b0, c.b2 - c.a2 * c.b0])
    powers = np.empty((S + 1, 2, 2))
    powers[0] = np.eye(2)
    for k in range(1, S + 1):
        powers[k] = a @ powers[k - 1]
    carried = powers[:S] @ b
    impulse = np.concatenate([[c.b0], carried[:S - 1, 0]])
    lag = np.subtract.outer(np.arange(S), np.arange(S))
    full = np.zeros((S + 2, S + 2))
    full[:2, :2] = powers[S]
    full[:2, 2:] = carried[::-1].T
    full[2:, :2] = powers[:S, 0]
    full[2:, 2:] = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    if r == S:
        return full
    m = np.empty((r + 2, r + 2))
    m[:2, :2] = powers[r]
    m[:2, 2:] = full[:2, 2 + S - r:]
    m[2:] = full[2:r + 2, :r + 2]
    return m


class TestSharedBlockMatrices:
    @pytest.mark.parametrize("fc,fs", [(2.0, 200.0), (0.5, 100.0),
                                       (10.0, 1000.0), (40.0, 4000.0),
                                       (95.0, 200.0)])
    def test_envelope_filter_keeps_its_bytes(self, fc, fs):
        # the engine's and the offline envelopes depend on these bits
        c = design_butterworth_lowpass(fc, fs)
        for size in (1, 2, 7, 20, 64):
            filt = EnvelopeFilter(c, 2, size)
            assert filt._full.tobytes() == \
                envelope_block_matrix(c, size, size).tobytes()
            for r in range(1, size):
                assert filt._matrix(r).tobytes() == \
                    envelope_block_matrix(c, size, r).tobytes()


def carrier_band(fs):
    """The synthetic carrier's band at ``fs``, clamped as ``synth`` clamps it."""
    low, high = synth._CARRIER_BAND_HZ
    return low, min(high, 0.95 * fs / 2)


# 150 Hz puts the 95 Hz edge above Nyquist, so the band is clamped
BAND_RATES = [200.0, 1000.0, 4000.0, 150.0]


def frequency_response(system, w):
    """H(e^{jw}) = C (e^{jw} I - A)^-1 B + D of a state-space system."""
    a, b, c, d = system
    eye = np.eye(a.shape[0])
    return np.array([c @ np.linalg.solve(np.exp(1j * x) * eye - a, b) + d
                     for x in w])


class TestBandpassDesign:
    @pytest.mark.parametrize("fs", BAND_RATES)
    def test_matches_scipy_zpk(self, fs):
        low, high = carrier_band(fs)
        a, b, c, d = design_butterworth_bandpass(low, high, fs)
        z, p, k = sp_signal.butter(4, [low, high], btype="bandpass",
                                   output="zpk", fs=fs)
        assert a.shape == (8, 8) and b.shape == c.shape == (8,)
        np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(a)),
                                   np.sort_complex(p), rtol=0, atol=1e-10)
        assert d == pytest.approx(k, rel=1e-12)
        # the zeros, four at +1 and four at -1, are multiple roots, so they
        # are compared as the numerator's coefficients: (z^2 - 1)^4
        np.testing.assert_allclose(np.poly(a - np.outer(b, c) / d),
                                   np.poly(z), rtol=0, atol=1e-10)
        np.testing.assert_allclose(np.poly(z), [1, 0, -4, 0, 6, 0, -4, 0, 1],
                                   atol=1e-12)

    @pytest.mark.parametrize("fs", BAND_RATES)
    def test_matches_scipy_sos_response(self, fs):
        low, high = carrier_band(fs)
        sos = sp_signal.butter(4, [low, high], btype="bandpass", output="sos",
                               fs=fs)
        w, want = sp_signal.sosfreqz(sos, worN=64)
        got = frequency_response(design_butterworth_bandpass(low, high, fs), w)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("low,high,fs", [
        (0.0, 95.0, 200.0), (-1.0, 95.0, 200.0), (95.0, 20.0, 200.0),
        (20.0, 20.0, 200.0), (20.0, 100.0, 200.0), (20.0, 95.0, 0.0),
    ])
    def test_domain_errors(self, low, high, fs):
        with pytest.raises(ConfigError, match="the band must satisfy"):
            design_butterworth_bandpass(low, high, fs)


def bandpass_filter(system, x, block_size):
    """``x`` through the band-pass ``system`` from zero state, in one call."""
    return EnvelopeFilter(system, x.shape[1], block_size).process(x)


class TestBandpassFilter:
    """:class:`EnvelopeFilter` running the carrier's 8-state band-pass."""

    @pytest.mark.parametrize("fs", BAND_RATES)
    @pytest.mark.parametrize("n", [1, 2, CARRIER_BLOCK - 1, CARRIER_BLOCK,
                                   CARRIER_BLOCK + 1, 37 * CARRIER_BLOCK + 5])
    def test_matches_sosfilt(self, rng, fs, n):
        low, high = carrier_band(fs)
        sos = sp_signal.butter(4, [low, high], btype="bandpass", output="sos",
                               fs=fs)
        x = rng.standard_normal((n, 3))
        want = sp_signal.sosfilt(sos, x, axis=0)
        got = bandpass_filter(design_butterworth_bandpass(low, high, fs), x,
                              CARRIER_BLOCK)
        # the two round differently, by some 1e-13 of the output's scale; an
        # output that crosses zero has no relative error of its own there
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_any_block_size_gives_the_same_filter(self, rng, size):
        system = design_butterworth_bandpass(20.0, 95.0, 200.0)
        x = rng.standard_normal((1000, 2))
        want = bandpass_filter(system, x, CARRIER_BLOCK)
        np.testing.assert_allclose(bandpass_filter(system, x, size), want,
                                   rtol=1e-10, atol=1e-12)

    def test_input_is_untouched_and_output_is_causal(self, rng):
        system = design_butterworth_bandpass(20.0, 95.0, 200.0)
        x = rng.standard_normal((700, 2))
        before = x.copy()
        y = bandpass_filter(system, x, CARRIER_BLOCK)
        np.testing.assert_array_equal(x, before)
        x[300:] = 99.0
        np.testing.assert_array_equal(
            bandpass_filter(system, x, CARRIER_BLOCK)[:300], y[:300])
