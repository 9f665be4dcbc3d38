import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python, traced_peak
from tmagest import synth
from tmagest.config import SessionConfig
from tmagest.dsp import (
    EnvelopeFilter,
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    envelope_stream,
)
from tmagest.errors import ConfigError
from tmagest.recording import PHASE_FLEXION, PHASE_RETURN, Annotation, Recording
from tmagest.synth import (
    GestureTemplate,
    ScriptedGesture,
    SessionScript,
    balanced_sequence_script,
    blocked_script,
    default_template_set,
    generate,
)


def pairwise_cosines(templates):
    vecs = [t.gains for t in templates.values()]
    out = []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            out.append(np.dot(vecs[i], vecs[j])
                       / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j])))
    return np.array(out)


class TestTemplates:
    def test_default_set_respects_separation(self):
        g = tuple(f"g{i}" for i in range(5))
        templates = default_template_set(8, g, separation=0.8)
        assert len(templates) == 5
        assert (pairwise_cosines(templates) <= 0.8).all()

    def test_orthogonal_two_gestures(self):
        templates = default_template_set(8, ("a", "b"), separation=0.0)
        assert pairwise_cosines(templates).max() == 0.0

    def test_subset_exhaustion_is_infeasible(self):
        gestures = tuple(f"g{i}" for i in range(8))  # > 2^2 - 1 = 3 subsets
        with pytest.raises(ConfigError):
            default_template_set(2, gestures, separation=0.0)

    def test_orthogonality_needs_enough_channels(self):
        with pytest.raises(ConfigError):
            default_template_set(4, ("a", "b", "c", "d", "e"), separation=0.0)

    def test_templates_are_distinct(self):
        templates = default_template_set(8, tuple(f"g{i}" for i in range(5)))
        seen = [tuple(t.gains) for t in templates.values()]
        assert len(set(seen)) == len(seen)

    def test_template_validation(self):
        with pytest.raises(ConfigError):
            GestureTemplate(gesture="x", gains=np.zeros(4))
        with pytest.raises(ConfigError):
            GestureTemplate(gesture="x", gains=np.array([1.0, -0.1]))
        with pytest.raises(ConfigError):
            GestureTemplate(gesture="x", gains=np.ones(4), burst_gain=0.5)

    @pytest.mark.parametrize("field,value", [
        ("rise_s", np.nan), ("rise_s", -1.0), ("hold_s", np.inf),
        ("hold_s", 0.0), ("fall_s", np.nan), ("burst_gain", np.nan),
        ("burst_gain", np.inf), ("settle_s", np.nan), ("settle_s", np.inf),
    ])
    def test_non_finite_or_out_of_range_timing_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be "):
            GestureTemplate(gesture="x", gains=np.ones(4), **{field: value})
        # the set builds each template with its settings, so it checks them
        with pytest.raises(ConfigError, match=f"{field} must be "):
            default_template_set(4, ("a", "b"), **{field: value})

    def test_set_builds_templates_with_their_timing(self):
        templates = default_template_set(4, ("a", "b"), hold_s=1.5,
                                         burst_gain=1.0)
        for tpl in templates.values():
            assert (tpl.hold_s, tpl.burst_gain) == (1.5, 1.0)
            assert (tpl.rise_s, tpl.fall_s, tpl.settle_s) == (0.05, 0.10, 0.15)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ConfigError, match="separation must be"):
            default_template_set(4, ("a", "b"), separation=separation)


def tiny_setup(snr_db=20.0, seed=3, hold_s=0.8, rest_s=0.8, reps=2,
               channels=4, gestures=("a", "b")):
    config = SessionConfig(channels=channels, gestures=gestures, seed=seed)
    templates = default_template_set(channels, gestures, separation=0.9,
                                     hold_s=hold_s)
    script = blocked_script(gestures, templates, repetitions=reps,
                            rest_s=rest_s, lead_s=1.0, snr_db=snr_db,
                            seed=seed)
    return config, templates, script


class TestGenerate:
    def test_empty_script_is_pure_noise_floor(self):
        config = SessionConfig(channels=4, gestures=("a", "b"))
        templates = default_template_set(4, ("a", "b"))
        rec = generate(SessionScript(events=[], seed=1), templates, config)
        assert rec.annotations == []
        assert rec.num_samples == int(3.0 * config.sample_rate)
        # amplitude stays at the floor level
        assert np.abs(rec.samples).max() < 10 * 0.1

    def test_deterministic_per_seed(self):
        config, templates, script = tiny_setup()
        a = generate(script, templates, config)
        b = generate(script, templates, config)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.annotations == b.annotations

    def test_annotation_indices_mark_rise_and_release(self):
        config, templates, script = tiny_setup()
        rec = generate(script, templates, config)
        fs = config.sample_rate
        flex = rec.onsets(PHASE_FLEXION)
        ret = rec.onsets(PHASE_RETURN)
        assert len(flex) == len(ret) == 4
        for event, a in zip(script.events, flex):
            assert a.n == int(round(event.start_s * fs))
            assert a.gesture == event.gesture
        for event, a in zip(script.events, ret):
            tpl = templates[event.gesture]
            assert a.n == int(round((event.start_s + tpl.release_start_s) * fs))

    def test_single_channel_activation_rises_only_there(self):
        # gain on channel 0 only: its envelope steps up, the others stay
        config = SessionConfig(channels=4, gestures=("solo", "other"))
        templates = {
            "solo": GestureTemplate(gesture="solo",
                                    gains=np.array([1.0, 0, 0, 0]),
                                    hold_s=2.0, burst_gain=1.0,
                                    settle_s=0.0),
            "other": GestureTemplate(gesture="other",
                                     gains=np.array([0, 1.0, 0, 0])),
        }
        script = SessionScript(
            events=[ScriptedGesture(gesture="solo", start_s=2.0, rest_s=5.0)],
            seed=9)
        rec = generate(script, templates, config)
        env = envelope_stream(rec.samples, design_butterworth_lowpass(
            config.envelope_cutoff_hz, config.sample_rate), config.map_stride)
        fs = int(config.sample_rate)
        rest = env[fs:2 * fs]          # pre-activation
        hold = env[int(2.8 * fs):int(3.8 * fs)]
        amp_solo = hold[:, 0].mean() - rest[:, 0].mean()
        assert amp_solo > 5 * rest[:, 0].mean()
        for ch in range(1, 4):
            shift = abs(hold[:, ch].mean() - rest[:, ch].mean())
            assert shift < 0.05 * amp_solo

    def test_snr_contract(self):
        config, templates, script = tiny_setup(snr_db=20.0, hold_s=2.0,
                                               rest_s=2.0)
        rec = generate(script, templates, config)
        fs = config.sample_rate
        hold_pow, rest_pow = [], []
        for event in script.events:
            tpl = templates[event.gesture]
            h0 = int((event.start_s + tpl.rise_s + tpl.settle_s + 0.2) * fs)
            h1 = int((event.start_s + tpl.release_start_s - 0.2) * fs)
            hold_pow.append((rec.samples[h0:h1] ** 2).mean())
            r0 = int((event.start_s + tpl.active_s + 0.3) * fs)
            r1 = int(r0 + 1.2 * fs)
            rest_pow.append((rec.samples[r0:r1] ** 2).mean())
        measured = 10 * np.log10(np.mean(hold_pow) / np.mean(rest_pow))
        assert abs(measured - 20.0) < 1.0

    def test_rest_interval_is_stationary(self):
        # variance of the envelope over two halves of a long rest interval
        config = SessionConfig(channels=4, gestures=("a", "b"))
        templates = default_template_set(4, ("a", "b"))
        rec = generate(SessionScript(events=[], tail_s=40.0, seed=5),
                       templates, config)
        env = envelope_stream(rec.samples, design_butterworth_lowpass(
            config.envelope_cutoff_hz, config.sample_rate), config.map_stride)
        half = env.shape[0] // 2
        v1 = env[400:half].var(axis=0)
        v2 = env[half:].var(axis=0)
        ratio = v1 / v2
        assert (ratio > 0.5).all() and (ratio < 2.0).all()

    def test_unknown_gesture_rejected(self):
        config, templates, _ = tiny_setup()
        script = SessionScript(events=[ScriptedGesture("nope", 1.0, 5.0)])
        with pytest.raises(ConfigError):
            generate(script, templates, config)

    def test_overlapping_events_rejected(self):
        config, templates, _ = tiny_setup()
        script = SessionScript(events=[ScriptedGesture("a", 1.0, 5.0),
                                       ScriptedGesture("b", 1.2, 5.0)])
        with pytest.raises(ConfigError):
            generate(script, templates, config)

    @pytest.mark.parametrize("build", [
        lambda: SessionScript(tail_s=-1.0),
        lambda: SessionScript(tail_s=float("nan")),
        lambda: ScriptedGesture("a", 1.0, rest_s=-50.0),
    ], ids=["negative-tail", "nan-tail", "negative-rest"])
    def test_negative_durations_rejected(self, build):
        with pytest.raises(ConfigError, match="must be >= 0"):
            build()

    def test_script_without_samples_rejected(self):
        config, templates, _ = tiny_setup()
        with pytest.raises(ConfigError, match="renders no samples"):
            generate(SessionScript(events=[], tail_s=0.0), templates, config)

    def test_one_sample_script_rejected(self):
        # one sample has no standard deviation to scale the carrier by
        config, templates, _ = tiny_setup()
        with pytest.raises(ConfigError, match="renders one sample"):
            generate(SessionScript(events=[], tail_s=0.005), templates, config)
        rec = generate(SessionScript(events=[], tail_s=0.01), templates, config)
        assert rec.num_samples == 2 and np.isfinite(rec.samples).all()

    @pytest.mark.parametrize("tail_s,error", [
        (1e307, "the session lasts 1e+307 s, too long to render at 200 Hz"),
        (1e17, "the session lasts 1e+17 s, too long to render at 200 Hz"),
        # 2e15 samples: numpy refuses the allocation at once
        (1e13, "rendering 2000000000000000 samples of 4 channels needs "
               "more memory than is available"),
    ])
    def test_session_too_long_to_render_rejected(self, tail_s, error):
        config, templates, _ = tiny_setup()
        with pytest.raises(ConfigError) as err:
            generate(SessionScript(events=[], tail_s=tail_s), templates,
                     config)
        assert str(err.value) == error

    def test_sample_rate_below_the_carrier_band_rejected(self):
        config = SessionConfig(sample_rate=8.0, channels=4, gestures=("a", "b"))
        templates = default_template_set(4, ("a", "b"))
        with pytest.raises(ConfigError, match="carrier band"):
            generate(SessionScript(tail_s=10.0), templates, config)

    @pytest.mark.parametrize("build,field", [
        (lambda: SessionScript(noise_floor=np.nan), "noise_floor"),
        (lambda: SessionScript(noise_floor=np.inf), "noise_floor"),
        (lambda: SessionScript(noise_floor=0.0), "noise_floor"),
        (lambda: SessionScript(snr_db=np.nan), "snr_db"),
        (lambda: SessionScript(snr_db=np.inf), "snr_db"),
        (lambda: SessionScript(snr_db=-1.0), "snr_db"),
        (lambda: SessionScript(tail_s=np.inf), "tail_s"),
        (lambda: SessionScript(seed=-1), "seed"),
        (lambda: ScriptedGesture("a", 1.0, rest_s=np.inf), "rest_s"),
        (lambda: ScriptedGesture("a", np.nan, rest_s=5.0), "start_s"),
        (lambda: ScriptedGesture("a", np.inf, rest_s=5.0), "start_s"),
        (lambda: ScriptedGesture("a", -1.0, rest_s=5.0), "start_s"),
        (lambda: SessionScript(carrier_compression="0.5"), "carrier_compression"),
        (lambda: SessionScript(carrier_compression=np.nan), "carrier_compression"),
        (lambda: SessionScript(noise_floor=1e-170), "noise_floor"),
        (lambda: SessionScript(
            noise_floor=np.nextafter(synth._MIN_NOISE_FLOOR, 0)), "noise_floor"),
        (lambda: SessionScript(snr_db=4000.0), "snr_db"),
        (lambda: SessionScript(snr_db=3082.5471555991676), "snr_db"),
    ])
    def test_out_of_range_script_valuesrejected(self, build, field):
        with pytest.raises(ConfigError, match=f"{field} must be "):
            build()

    def test_smallest_floor_keeps_the_amplitude_exact(self):
        # the amplitude scales with the floor; at the smallest floor a script
        # accepts, its square is still a normal float
        floor = synth._MIN_NOISE_FLOOR
        SessionScript(noise_floor=floor)
        gains = default_template_set(8, SessionConfig().gestures)[
            "pointer"].gains
        unit = synth._solve_amplitude(gains, 1.0, 20.0)
        assert synth._solve_amplitude(gains, floor, 20.0) / floor == \
            pytest.approx(unit, rel=1e-12)

    def test_largest_snr_gives_a_finite_power_ratio(self):
        snr_db = np.nextafter(3082.5471555991676, 0)
        SessionScript(snr_db=snr_db)
        assert np.isfinite(10.0 ** (snr_db / 10.0))

    @pytest.mark.parametrize("script,timing", [
        # the amplitude, floor * 10^150 * ..., passes the float range
        (dict(noise_floor=1e160, snr_db=3000.0), {}),
        ({}, dict(burst_gain=1e308)),
    ], ids=["floor-and-snr", "burst"])
    def test_overflowing_samples_rejected(self, script, timing):
        config = SessionConfig(channels=4, gestures=("a", "b"))
        templates = default_template_set(4, ("a", "b"), **timing)
        with pytest.raises(ConfigError, match="every sample is finite"):
            generate(blocked_script(("a", "b"), templates, 1, **script),
                     templates, config)

    def test_large_floor_and_snr_render_when_the_samples_fit(self):
        # the rest power times the SNR, 4 * 1e20 * 1e300, overflows, but
        # the samples, near 1e161, do not
        config = SessionConfig(channels=4, gestures=("a", "b"))
        templates = default_template_set(4, ("a", "b"))
        rec = generate(blocked_script(("a", "b"), templates, 1,
                                      noise_floor=1e10, snr_db=3000.0),
                       templates, config)
        assert np.isfinite(rec.samples).all()
        assert 1e159 < np.abs(rec.samples).max() < 1e163

    def test_zero_snr_leaves_the_hold_at_the_floor(self):
        # 0 dB is the edge of the model: the activation amplitude is 0
        assert synth._solve_amplitude(np.array([1.0, 0.5]), 0.1, 0.0) == 0.0

    def test_gaussian_carrier_option(self):
        config, templates, script = tiny_setup()
        script.carrier_compression = 1.0
        rec = generate(script, templates, config)
        assert rec.num_samples > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_carrier_sample_rejected(self, monkeypatch, value):
        # the closing check reads the extremes, which a NaN also spoils
        carrier = synth._carrier

        def spoiled(*args):
            out = carrier(*args)
            out[len(out) // 2, 1] = value
            return out

        monkeypatch.setattr(synth, "_carrier", spoiled)
        config, templates, script = tiny_setup()
        with pytest.raises(ConfigError, match="every sample is finite"):
            generate(script, templates, config)


BLAS_THREAD_SYNTH = """
import hashlib
from tmagest import synth
from tmagest.config import SessionConfig

config = SessionConfig()
templates = synth.default_template_set(config.channels, config.gestures)
script = synth.blocked_script(config.gestures, templates, 2, seed=7)
samples = synth.generate(script, templates, config).samples
print(samples.shape, hashlib.sha256(samples.tobytes()).hexdigest())
"""


def test_recording_does_not_depend_on_blas_threads():
    # the carrier's band-pass runs as one matrix product per block
    outputs = [run_python(BLAS_THREAD_SYNTH, OPENBLAS_NUM_THREADS=threads,
                          OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert outputs[0].startswith("(")
    assert outputs[0] == outputs[1]


def whole_array_carrier(rng, n, channels, fs, compression):
    """Reference carrier: one filter call, compression and ``std(axis=0)``
    over the whole noise, each a new recording-sized array."""
    band = design_butterworth_bandpass(*synth._CARRIER_BAND_HZ, fs)
    shaped = EnvelopeFilter(band, channels, synth._CARRIER_BLOCK).process(
        rng.standard_normal((n, channels)))
    if compression != 1.0:
        shaped = np.sign(shaped) * np.abs(shaped) ** compression
    return shaped / shaped.std(axis=0)


class TestCarrier:
    @pytest.mark.parametrize("n", [2, 127, 128, 4096, 4097, 9000])
    @pytest.mark.parametrize("compression", [1.0, 0.2])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_in_place_equals_the_whole_array(self, n, compression, channels):
        # the slices end mid-slice, on a block edge and inside a short
        # final block
        got = synth._carrier(np.random.default_rng(n), n, channels, 1000.0,
                             compression)
        want = whole_array_carrier(np.random.default_rng(n), n, channels,
                                   1000.0, compression)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 3000), cols=st.integers(1, 9),
           step=st.integers(1, 5000), scale=st.sampled_from([1e-3, 1.0, 1e6]),
           offset=st.sampled_from([0.0, 1.0, -1e3]), seed=st.integers(0, 99))
    @example(rows=1, cols=1, step=1, scale=1.0, offset=0.0, seed=0)
    @example(rows=21, cols=1, step=1, scale=1e-3, offset=0.0, seed=0)
    def test_two_pass_std_equals_numpy(self, rows, cols, step, scale, offset,
                                       seed):
        x = np.random.default_rng(seed).standard_normal((rows, cols))
        x = x * scale + offset
        slices = [slice(s, s + step) for s in range(0, rows, step)]
        assert synth._std(x, slices).tobytes() == x.std(axis=0).tobytes()


class TestScripts:
    def test_blocked_counts_and_order(self):
        config, templates, script = tiny_setup(reps=3)
        names = [e.gesture for e in script.events]
        assert names == ["a"] * 3 + ["b"] * 3

    def test_balanced_sequence_counts(self):
        gestures = ("a", "b", "c")
        templates = default_template_set(6, gestures)
        rng = np.random.default_rng(0)
        script = balanced_sequence_script(gestures, templates, 12, rng)
        names = [e.gesture for e in script.events]
        assert sorted(names) == sorted(gestures * 4)
        assert names != sorted(names)  # actually shuffled

    @pytest.mark.parametrize("lead_s", [-1.0, np.nan, np.inf])
    def test_bad_lead_rejected(self, lead_s):
        gestures = ("a", "b")
        templates = default_template_set(4, gestures)
        with pytest.raises(ConfigError, match="lead_s must be "):
            blocked_script(gestures, templates, 1, lead_s=lead_s)
        with pytest.raises(ConfigError, match="lead_s must be "):
            balanced_sequence_script(gestures, templates, 2,
                                     np.random.default_rng(0), lead_s=lead_s)

    def test_builders_forward_script_settings(self):
        gestures = ("a", "b")
        templates = default_template_set(4, gestures)
        values = dict(noise_floor=0.2, snr_db=12.0, seed=5, tail_s=1.0,
                         carrier_compression=0.5)
        for script in (blocked_script(gestures, templates, 1, **values),
                       balanced_sequence_script(gestures, templates, 2,
                                                np.random.default_rng(0),
                                                **values)):
            assert {k: getattr(script, k) for k in values} == values

    def test_builders_forward_rest_and_lead(self):
        gestures = ("a", "b")
        templates = default_template_set(4, gestures)
        rng = np.random.default_rng(0)
        for timing, (lead, rest) in [({}, (3.0, 5.0)),
                                     (dict(rest_s=1.5, lead_s=2.0), (2.0, 1.5))]:
            for script in (blocked_script(gestures, templates, 1, **timing),
                           balanced_sequence_script(gestures, templates, 2,
                                                    rng, **timing)):
                first, second = script.events
                assert first.start_s == lead
                assert first.rest_s == second.rest_s == rest
                assert second.start_s == lead + \
                    templates[first.gesture].active_s + rest

    @pytest.mark.parametrize("count", [-1, -2, 1.0])
    def test_negative_or_non_integer_counts_rejected(self, count):
        gestures = ("a", "b")
        templates = default_template_set(4, gestures)
        with pytest.raises(ConfigError, match="repetitions must be an integer"):
            blocked_script(gestures, templates, count)
        with pytest.raises(ConfigError, match="count must be an integer"):
            balanced_sequence_script(gestures, templates, 2 * count,
                                     np.random.default_rng(0))

    def test_zero_counts_give_a_rest_only_session(self):
        gestures = ("a", "b")
        templates = default_template_set(4, gestures)
        for script in (blocked_script(gestures, templates, 0),
                       balanced_sequence_script(gestures, templates, 0,
                                                np.random.default_rng(0))):
            assert script.events == []

    def test_balanced_sequence_needs_divisible_count(self):
        gestures = ("a", "b", "c")
        templates = default_template_set(6, gestures)
        with pytest.raises(ConfigError):
            balanced_sequence_script(gestures, templates, 10,
                                     np.random.default_rng(0))


def generate_full_length(script, templates, config):
    """Reference render: every activation interpolated over all n samples.

    The loop ``generate`` ran before it rendered each activation over its
    own span; the differential tests hold the two byte-equal.
    """
    fs, channels = config.sample_rate, config.channels
    end_s = script.tail_s
    for event in script.events:
        active_end = event.start_s + templates[event.gesture].active_s
        end_s = max(end_s, active_end + event.rest_s + script.tail_s)
    n = int(round(end_s * fs))
    rng = np.random.default_rng(script.seed)
    carrier = synth._carrier(rng, n, channels, fs, script.carrier_compression)
    t = np.arange(n) / fs
    modulation = np.full((n, channels), script.noise_floor)
    annotations = []
    for event in script.events:
        tpl = templates[event.gesture]
        amp = synth._solve_amplitude(tpl.gains, script.noise_floor,
                                     script.snr_db)
        start, release = event.start_s, event.start_s + tpl.release_start_s
        knots_t = [start, start + tpl.rise_s,
                   start + tpl.rise_s + tpl.settle_s, release,
                   release + tpl.rise_s, release + tpl.rise_s + tpl.fall_s]
        knots_v = [0.0, tpl.burst_gain, 1.0, 1.0, tpl.burst_gain, 0.0]
        profile = np.interp(t, knots_t, knots_v)
        modulation += amp * profile[:, None] * tpl.gains[None, :]
        annotations.append(Annotation(
            n=int(round(start * fs)), gesture=event.gesture,
            phase=PHASE_FLEXION))
        annotations.append(Annotation(
            n=int(round(release * fs)), gesture=event.gesture,
            phase=PHASE_RETURN))
    return Recording(sample_rate=fs, samples=carrier * modulation,
                     annotations=annotations)


def spans(script, templates, config):
    """``(lo, hi)`` of each activation: the samples strictly between its
    first and last knot times."""
    fs = config.sample_rate
    n = len(generate_full_length(script, templates, config).samples)
    t = np.arange(n) / fs
    out = []
    for event in script.events:
        knots_t, _ = synth._activation_knots(event.start_s,
                                             templates[event.gesture])
        out.append((int(np.searchsorted(t, knots_t[0], side="right")),
                    int(np.searchsorted(t, knots_t[-1], side="left"))))
    return out


def assert_renders_equal(script, templates, config):
    got = generate(script, templates, config)
    want = generate_full_length(script, templates, config)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.annotations == want.annotations


def nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, toward))
    return x


@st.composite
def sessions(draw):
    """Scripts whose activations start off the sample grid (or at 0) and
    whose last knot lands within a few ulps of a sample time."""
    fs = draw(st.sampled_from([200.0, 1000.0]))
    channels = draw(st.sampled_from([1, 8]))
    templates, events, clock = {}, [], 0.0
    for i in range(draw(st.integers(0, 3))):
        rise = draw(st.floats(0.002, 0.08))
        settle = draw(st.sampled_from([0.0, 0.15]) | st.floats(0.0, 0.2))
        fall = draw(st.floats(0.002, 0.12))
        if i == 0 and draw(st.booleans()):
            start = 0.0
        else:
            start = clock + (draw(st.integers(0, 30))
                             + draw(st.floats(0.0, 1.0, exclude_max=True))) / fs
        # solve hold so the last knot falls on sample j, then nudge it
        j = int(np.ceil((start + 2 * rise + settle + fall) * fs)) + \
            draw(st.integers(2, 60))
        hold = j / fs - fall - rise - rise - settle - start
        hold = nudge(hold, draw(st.integers(-3, 3)))
        gains = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=channels,
                                       max_size=channels)))
        gains[draw(st.integers(0, channels - 1))] += 0.5
        name = f"g{i}"
        templates[name] = GestureTemplate(
            gesture=name, gains=gains, rise_s=rise, hold_s=hold,
            fall_s=fall, settle_s=settle,
            burst_gain=draw(st.floats(1.0, 3.0)))
        rest = draw(st.sampled_from([0.0, 0.05]))
        events.append(ScriptedGesture(gesture=name, start_s=start,
                                      rest_s=rest))
        clock = start + templates[name].active_s + rest
    # a session without events needs a tail to have any samples
    tails = [0.0, 0.02, 0.1] if events else [0.02, 0.1]
    script = SessionScript(events=events, seed=draw(st.integers(0, 2 ** 16)),
                           tail_s=draw(st.sampled_from(tails)),
                           snr_db=draw(st.floats(5.0, 30.0)))
    gestures = tuple(templates) if len(templates) >= 2 else ("g0", "g1")
    config = SessionConfig(sample_rate=fs, channels=channels,
                           gestures=gestures)
    return script, templates, config


class TestSpanRendering:
    @settings(max_examples=150, deadline=None)
    @given(session=sessions())
    def test_equals_the_full_length_render(self, session):
        assert_renders_equal(*session)

    def test_end_knot_above_start_plus_active_s(self):
        # 13.35 + 5.35 rounds to 18.7, one ulp below the end knot, and
        # sample 3740 (t = 18.7) still carries a nonzero profile
        config = SessionConfig()
        templates = default_template_set(config.channels, config.gestures)
        tpl = templates[config.gestures[0]]
        knots_t, _ = synth._activation_knots(13.35, tpl)
        assert 13.35 + tpl.active_s == 3740 / config.sample_rate < knots_t[-1]
        script = SessionScript(
            events=[ScriptedGesture(config.gestures[0], 13.35, 5.0)], seed=71)
        assert_renders_equal(script, templates, config)

    def test_balanced_session(self):
        config = SessionConfig()
        templates = default_template_set(config.channels, config.gestures)
        script = balanced_sequence_script(
            config.gestures, templates, 10, np.random.default_rng(71),
            lead_s=0.35, rest_s=1.0, seed=71)
        assert_renders_equal(script, templates, config)

    @pytest.mark.parametrize("start, seconds, past_end", [
        (7.0012, 1e-4, 0),
        # on sample 1400, with knots that all round to 7.0: lo passes hi
        (7.0, 1e-20, 1),
    ])
    def test_span_without_samples_between_two_others(self, start, seconds,
                                                      past_end):
        config = SessionConfig()
        templates = default_template_set(config.channels, config.gestures)
        first, second = config.gestures[:2]
        templates["blip"] = GestureTemplate(
            "blip", templates[second].gains, rise_s=seconds, hold_s=seconds,
            fall_s=seconds, settle_s=0.0)
        script = SessionScript(events=[
            ScriptedGesture(first, 1.0, 0.5),
            ScriptedGesture("blip", start, 0.5),
            ScriptedGesture(second, 8.0, 1.0)], seed=3)
        lo, hi = spans(script, templates, config)[1]
        assert lo - hi == past_end
        assert_renders_equal(script, templates, config)

    def test_span_ends_where_the_next_one_starts(self):
        # the first end knot lies one ulp above 18.7, so its span ends just
        # after sample 3740, where the second span starts
        config = SessionConfig()
        templates = default_template_set(config.channels, config.gestures)
        first, second = config.gestures[:2]
        script = SessionScript(events=[
            ScriptedGesture(first, 13.35, 0.0),
            ScriptedGesture(second, 18.7, 1.0)], seed=71)
        (_, hi), (lo, _) = spans(script, templates, config)
        assert hi == lo == 3741
        assert_renders_equal(script, templates, config)

    def test_spans_sharing_a_sample(self):
        # the end knot lies two ulps above start + active_s, where the next
        # activation may start, with sample 788 (t = 3.94) between them
        config = SessionConfig(channels=4, gestures=("a", "b"))
        templates = {
            "a": GestureTemplate("a", [1.0, 0.5, 0.0, 0.2],
                                 rise_s=0.03127486674449444, settle_s=0.0,
                                 hold_s=0.07700031451243337,
                                 fall_s=0.08766707255051354),
            "b": GestureTemplate("b", [0.0, 0.3, 1.0, 0.7])}
        start = 3.712782879448064
        script = SessionScript(events=[
            ScriptedGesture("a", start, 0.0),
            ScriptedGesture("b", start + templates["a"].active_s, 0.5)],
            seed=5, tail_s=0.5)
        (_, hi), (lo, _) = spans(script, templates, config)
        assert lo == 788 == hi - 1
        assert_renders_equal(script, templates, config)

    def test_span_ends_at_the_last_sample(self):
        config = SessionConfig()
        templates = default_template_set(config.channels, config.gestures)
        script = SessionScript(events=[
            ScriptedGesture(config.gestures[0], 1.0, 1.0),
            ScriptedGesture(config.gestures[1], 7.5, 0.0)],
            seed=9, tail_s=0.0)
        rec = generate(script, templates, config)
        assert spans(script, templates, config)[-1][1] == rec.num_samples
        assert_renders_equal(script, templates, config)

    @staticmethod
    def traced_session():
        config = SessionConfig()
        templates = default_template_set(config.channels, config.gestures)
        script = balanced_sequence_script(
            config.gestures, templates, 30, np.random.default_rng(5), seed=5)
        rec, peak = traced_peak(lambda: generate(script, templates, config))
        assert rec.samples.shape == (63_300, 8)
        return rec.samples, peak

    def test_peak_memory_bounded_by_the_samples(self):
        # the carrier is modulated in place: not three arrays of the
        # samples' size
        samples, peak = self.traced_session()
        assert peak < 2.2 * samples.nbytes + (1 << 20)

    def test_peak_memory_one_recording(self):
        # the carrier is filtered, compressed and scaled in place: beside
        # the samples, their times (an eighth) and slice-sized arrays
        samples, peak = self.traced_session()
        assert peak < 1.3 * samples.nbytes + (1 << 20)
