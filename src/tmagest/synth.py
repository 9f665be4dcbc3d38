"""Synthetic multi-channel sEMG sessions with ground-truth annotations.

Each channel is zero-mean broadband noise (the carrier: band-limited to
20-95 Hz by a fourth-order Butterworth band-pass, amplitude-compressed, and
scaled to unit standard deviation) modulated by a slowly varying gain::

    signal[t, l] = carrier[t, l] * (floor + sum_g amp_g * gain_g[l] * prof_g(t))

where ``prof_g`` is the piecewise-linear activation profile of gesture ``g``:
a burst over the rise, a settle to the hold plateau, and a mirrored braking
burst at release. Distinct gestures use distinct channel gain patterns, so
their envelope steps differ in shape across channels - the structure the
classifier is meant to pick up.

The per-activation amplitude ``amp_g`` is solved from the requested SNR so
that total signal power during a hold, relative to rest, matches the target::

    mean_l (floor + amp * gain_l)^2 = 10^(snr_db / 10) * floor^2

Both sides scale with ``floor^2``, so ``amp / floor`` is solved at floor = 1.

The band-pass is :func:`tmagest.dsp.design_butterworth_bandpass`, run by
:class:`tmagest.dsp.EnvelopeFilter`, the envelope's own block filter, in
blocks of 128 samples: synthesis needs numpy only. Everything is a pure
function of (script, templates, seed): identical inputs give bit-identical
recordings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .config import SessionConfig, is_finite_real
from .errors import ConfigError
from .recording import PHASE_FLEXION, PHASE_RETURN, Annotation, Recording

_CARRIER_BAND_HZ = (20.0, 95.0)
# samples per block of the carrier's band-pass (dsp.EnvelopeFilter): of 32,
# 64, 128 and 256, the fastest on a 311 700 x 8 session
_CARRIER_BLOCK = 128
# the SNR is a ratio to rest power, floor ** 2: below this it is subnormal
_MIN_NOISE_FLOOR = math.sqrt(np.finfo(np.float64).tiny)


def _check_range(name: str, value, low: float, strict: bool = False) -> None:
    """Raise a ConfigError unless ``value`` is a finite number >= ``low``
    (> ``low`` when ``strict``); NaN and infinities fail both forms."""
    if not (is_finite_real(value) and (value > low if strict else value >= low)):
        raise ConfigError(f"{name} must be {'>' if strict else '>='} {low:g} "
                          f"and finite, got {value!r}")


def _check_count(name: str, value) -> None:
    if not (isinstance(value, numbers.Integral) and value >= 0):
        raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")


@dataclass
class GestureTemplate:
    """Channel activation pattern and timing of one gesture.

    The activation profile is piecewise linear: a burst to ``burst_gain``
    over the rise, settling to the hold plateau, then a mirrored braking
    burst at release before falling back to zero. The bursts reproduce the
    triphasic agonist/antagonist pattern of ballistic movements and are what
    makes transitions stand clear of the envelope jitter during holds; with
    ``burst_gain=1`` (and ``settle_s=0``) the profile degenerates to a plain
    trapezoid.
    """

    gesture: str
    gains: np.ndarray
    rise_s: float = 0.05
    hold_s: float = 5.0
    fall_s: float = 0.10
    burst_gain: float = 2.0
    settle_s: float = 0.15

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if self.gains.ndim != 1:
            raise ConfigError("template gains must be a 1-D vector")
        if np.any(self.gains < 0):
            raise ConfigError("template gains must be non-negative")
        if not np.any(self.gains > 0):
            raise ConfigError("template needs at least one positive gain")
        for name in ("rise_s", "hold_s", "fall_s"):
            _check_range(name, getattr(self, name), 0.0, strict=True)
        _check_range("burst_gain", self.burst_gain, 1.0)
        _check_range("settle_s", self.settle_s, 0.0)

    @property
    def release_start_s(self) -> float:
        """Offset of the release (braking burst) from the activation start."""
        return self.rise_s + self.settle_s + self.hold_s

    @property
    def active_s(self) -> float:
        return self.release_start_s + self.rise_s + self.fall_s


@dataclass(frozen=True)
class ScriptedGesture:
    """One activation: which gesture, when it starts, rest that follows."""

    gesture: str
    start_s: float
    rest_s: float

    def __post_init__(self):
        _check_range("start_s", self.start_s, 0.0)
        _check_range("rest_s", self.rest_s, 0.0)


@dataclass
class SessionScript:
    """Ordered activation schedule plus the noise parameters of a session.

    ``carrier_compression`` is the exponent of the amplitude compression
    applied to the noise carrier (``sign(x) * |x|**a``). 1.0 keeps plain
    Gaussian noise; smaller values stabilize the carrier's local amplitude,
    which keeps the envelope jitter - and with it the difference-signal
    baseline - proportionally small. The default mimics the amplitude
    stability real multi-unit sEMG shows once tens of motor units
    superpose.
    """

    events: list[ScriptedGesture] = field(default_factory=list)
    noise_floor: float = 0.1
    snr_db: float = 20.0
    seed: int = 0
    tail_s: float = 3.0
    carrier_compression: float = 0.2

    def __post_init__(self):
        _check_range("noise_floor", self.noise_floor, _MIN_NOISE_FLOOR)
        _check_range("snr_db", self.snr_db, 0.0)
        if not self.snr_db / 10.0 < math.log10(np.finfo(np.float64).max):
            # the power ratio 10 ** (snr_db / 10) would overflow
            raise ConfigError(f"snr_db must be < 3082.55, got {self.snr_db!r}")
        c = self.carrier_compression
        if not (is_finite_real(c) and 0 < c <= 1):
            raise ConfigError(f"carrier_compression must be in (0, 1], got {c!r}")
        _check_range("tail_s", self.tail_s, 0.0)
        _check_count("seed", self.seed)
        starts = [e.start_s for e in self.events]
        if starts != sorted(starts):
            raise ConfigError("script events must be ordered by start time")


def _activation_knots(start: float, tpl: GestureTemplate
                      ) -> tuple[list[float], list[float]]:
    """Knot times and values of the piecewise-linear activation profile:
    burst, settle, hold, braking burst, fall.

    Interpolated with ``np.interp``, the profile is exactly 0.0 at and
    outside the first and last knot times.
    """
    release = start + tpl.release_start_s
    knots_t = [start, start + tpl.rise_s, start + tpl.rise_s + tpl.settle_s,
               release, release + tpl.rise_s, release + tpl.rise_s + tpl.fall_s]
    knots_v = [0.0, tpl.burst_gain, 1.0, 1.0, tpl.burst_gain, 0.0]
    return knots_t, knots_v


def _solve_amplitude(gains: np.ndarray, floor: float, snr_db: float) -> float:
    """Modulation amplitude so hold power over rest power hits the SNR.

    The amplitude scales with the floor, so it is solved at floor = 1 and
    then scaled: no square of the floor can underflow or overflow.
    """
    s = 10.0 ** (snr_db / 10.0)
    L = gains.shape[0]
    a = float(np.sum(gains * gains))
    b = 2.0 * float(np.sum(gains))
    c = L * (1.0 - s)
    return floor * ((-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a))


def _carrier(rng: np.random.Generator, n: int, channels: int,
             sample_rate: float, compression: float) -> np.ndarray:
    """Unit-variance broadband noise carrier.

    Gaussian noise confined to the sEMG band by a fourth-order Butterworth
    band-pass, then amplitude-compressed (``sign(x) * |x|**a``) and rescaled
    to unit standard deviation.

    The noise becomes the carrier in place: one filter runs over the
    :func:`tmagest.dsp.block_slices` slices in turn, and each slice's output
    goes back into its own rows and is compressed there, so beside the
    carrier only slice-sized arrays are held. The values are those of one
    filter call, compression and ``std(axis=0)`` over the whole noise, bit
    for bit.
    """
    low, high = _CARRIER_BAND_HZ
    nyq = sample_rate / 2.0
    if high >= nyq:
        high = 0.95 * nyq
    if low >= high:
        raise ConfigError(f"a sample rate of {sample_rate:g} Hz leaves no room "
                          f"for the carrier band above {low:g} Hz")
    carrier = rng.standard_normal((n, channels))
    band = dsp.design_butterworth_bandpass(low, high, sample_rate)
    filt = dsp.EnvelopeFilter(band, channels, _CARRIER_BLOCK)
    slices = dsp.block_slices(n, _CARRIER_BLOCK)
    for rows in slices:
        shaped = carrier[rows]
        shaped[:] = filt.process(shaped)
        if compression != 1.0:
            magnitude = np.abs(shaped)
            magnitude **= compression
            np.copysign(magnitude, shaped, out=shaped)
    carrier /= _std(carrier, slices)
    return carrier


def _std(x: np.ndarray, slices: list[slice]) -> np.ndarray:
    """``x.std(axis=0)``, bit for bit, in two passes over the row
    ``slices`` of ``x``, which cover it in order.

    numpy adds the rows of a C-contiguous array's axis-0 reduction one
    after another, so each slice's sum starts from the running total;
    per-slice sums added afterwards would round otherwise. A single column
    is summed pairwise instead, so it is reduced whole.
    """
    if x.shape[1] == 1:
        return x.std(axis=0)

    def total(parts):
        acc = None
        for part in parts:
            if acc is not None:
                part = np.concatenate((acc[None], part))
            acc = part.sum(axis=0)
        return acc

    def squares(mean):
        for rows in slices:
            deviation = x[rows] - mean
            yield np.square(deviation, out=deviation)

    mean = total(x[rows] for rows in slices) / x.shape[0]
    return np.sqrt(total(squares(mean)) / x.shape[0])


def _term(t: np.ndarray, lo: int, hi: int, amp: float, gains: np.ndarray,
          knots_t: list[float], knots_v: list[float]) -> np.ndarray:
    """``amp * profile * gains`` of one activation on the samples
    ``lo:hi``, a new (hi - lo, channels) array."""
    return amp * np.interp(t[lo:hi], knots_t, knots_v)[:, None] * gains[None, :]


def generate(script: SessionScript, templates: dict[str, GestureTemplate],
             config: SessionConfig) -> Recording:
    """Render a script into a labeled recording.

    Each activation contributes a flexion-onset annotation at its start and a
    return-onset annotation where the fall begins. An activation is rendered
    only on the samples strictly between its first and last knot times:
    elsewhere its profile is 0.0, and adding ``amp * 0.0 * gain`` would leave
    every value's bits unchanged, so the cost grows with samples + events.

    The carrier is modulated in place: samples outside every span are
    multiplied by the noise floor and each span by its own span-sized
    ``amp * profile * gains + floor`` (a sample that two spans share by
    rounding takes both terms, in event order). Every sample is still
    ``carrier * (floor + terms)`` rounded as before. The carrier, too, is
    made in place (:func:`_carrier`), so beside the samples the render holds
    the sample times, an eighth of their size, and slice- and span-sized
    arrays only.

    Raises:
        ConfigError: On an unknown gesture id, overlapping activations,
            fewer than 2 samples, a session too long to index or to hold in
            memory, or a sample that overflows.
    """
    fs = config.sample_rate
    channels = config.channels
    for event in script.events:
        if event.gesture not in templates:
            raise ConfigError(f"no template for gesture '{event.gesture}'")
        if templates[event.gesture].gains.shape[0] != channels:
            raise ConfigError(
                f"template '{event.gesture}' has "
                f"{templates[event.gesture].gains.shape[0]} gains, "
                f"config expects {channels}"
            )
    end_s = script.tail_s
    prev_end = None
    for event in script.events:
        tpl = templates[event.gesture]
        if prev_end is not None and event.start_s < prev_end:
            raise ConfigError(
                f"activation at {event.start_s:.3f}s overlaps the previous one"
            )
        prev_end = event.start_s + tpl.active_s
        end_s = max(end_s, prev_end + event.rest_s + script.tail_s)

    # numpy refuses an array of more bytes than its index type counts
    if not math.isfinite(end_s * fs) or (
            round(end_s * fs) * channels * 8 > np.iinfo(np.intp).max):
        raise ConfigError(f"the session lasts {end_s:g} s, too long to render "
                          f"at {fs:g} Hz")
    n = int(round(end_s * fs))
    if n < 2:    # the carrier is scaled by its standard deviation
        raise ConfigError(f"the script renders {'one sample' if n else 'no samples'}"
                          "; at least 2 are needed")
    rng = np.random.default_rng(script.seed)
    floor = script.noise_floor
    try:
        # the carrier becomes the samples, multiplied in place
        samples = _carrier(rng, n, channels, fs, script.carrier_compression)
        t = np.arange(n) / fs
        spans, annotations = [], []
        # settings that overflow show as non-finite samples, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            for event in script.events:
                tpl = templates[event.gesture]
                amp = _solve_amplitude(tpl.gains, floor, script.snr_db)
                knots_t, knots_v = _activation_knots(event.start_s, tpl)
                lo = int(np.searchsorted(t, knots_t[0], side="right"))
                hi = int(np.searchsorted(t, knots_t[-1], side="left"))
                spans.append((lo, hi, amp, tpl.gains, knots_t, knots_v))
                annotations.append(Annotation(
                    n=int(round(event.start_s * fs)),
                    gesture=event.gesture, phase=PHASE_FLEXION))
                annotations.append(Annotation(
                    n=int(round((event.start_s + tpl.release_start_s) * fs)),
                    gesture=event.gesture, phase=PHASE_RETURN))
            rendered = 0    # samples[:rendered] are final
            for i, (lo, hi, *activation) in enumerate(spans):
                samples[rendered:lo] *= floor
                lo = rendered = max(lo, rendered)
                if lo >= hi:
                    continue
                modulation = _term(t, lo, hi, *activation)
                modulation += floor
                # a later span may share a sample with this one: the end
                # knot can lie above the start + active_s that the overlap
                # check lets the next activation start at
                for j in range(i + 1, len(spans)):
                    later_lo, later_hi, *later = spans[j]
                    if later_lo >= hi:
                        break
                    a, b = max(later_lo, lo), min(later_hi, hi)
                    if a < b:
                        modulation[a - lo:b - lo] += _term(t, a, b, *later)
                samples[lo:hi] *= modulation
                rendered = hi
            samples[rendered:] *= floor
    except MemoryError as exc:
        raise ConfigError(f"rendering {n} samples of {channels} channels "
                          "needs more memory than is available") from exc
    # a NaN or infinity shows in the extremes: no array of flags is made
    if not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
        raise ConfigError("noise_floor, snr_db and burst_gain must be small "
                          "enough that every sample is finite")
    return Recording(sample_rate=fs, samples=samples, annotations=annotations)


def default_template_set(channels: int, gestures: tuple[str, ...],
                         separation: float = 0.8,
                         **timing) -> dict[str, GestureTemplate]:
    """Construct gain patterns with pairwise cosine similarity <= separation.

    Templates use short channel blocks stepped around the array; when the
    requested separation forces orthogonality the blocks are made disjoint.
    Template magnitudes additionally differ so no two are identical. Each
    template is built with the :class:`GestureTemplate` settings in ``timing``.

    Raises:
        ConfigError: If the construction cannot reach the separation for the
            given channel and gesture counts, or a setting is out of range.
    """
    if not is_finite_real(separation):
        raise ConfigError(f"separation must be a finite number, got {separation!r}")
    G = len(gestures)
    if G < 2:
        raise ConfigError("need at least 2 gestures")
    if G > 2 ** channels - 1:
        raise ConfigError(
            f"{G} distinct non-empty channel subsets do not exist for "
            f"{channels} channels"
        )
    if separation <= 0:
        stride = channels // G
        if stride < 1:
            raise ConfigError(
                f"orthogonal patterns need at least {G} channels, have {channels}"
            )
    else:
        stride = max(1, channels // G)
    width = min(3, stride) if separation <= 0 else min(3, channels)
    weights = np.array([1.0, 0.7, 0.4][:width])

    templates: dict[str, GestureTemplate] = {}
    for i, name in enumerate(gestures):
        gains = np.zeros(channels)
        for m, w in enumerate(weights):
            gains[(i * stride + m) % channels] += w
        templates[name] = GestureTemplate(gesture=name, gains=gains * (1.0 + 0.1 * i),
                                          **timing)

    vecs = [templates[name].gains for name in gestures]
    worst = 0.0
    for i in range(G):
        for j in range(i + 1, G):
            cos = float(np.dot(vecs[i], vecs[j])
                        / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j])))
            worst = max(worst, cos)
    if worst > separation + 1e-9:
        raise ConfigError(
            f"cannot reach pairwise cosine <= {separation} with "
            f"{channels} channels and {G} gestures (achieved {worst:.3f})"
        )
    return templates


def _schedule(names: list[str], templates: dict[str, GestureTemplate],
              rest_s: float = 5.0, lead_s: float = 3.0,
              **script) -> SessionScript:
    """Activations of ``names`` in order after ``lead_s``, each followed by
    ``rest_s``; ``script`` holds the :class:`SessionScript` settings other
    than ``events``."""
    _check_range("lead_s", lead_s, 0.0)
    events = []
    t = lead_s
    for name in names:
        events.append(ScriptedGesture(gesture=name, start_s=t, rest_s=rest_s))
        t += templates[name].active_s + rest_s
    return SessionScript(events=events, **script)


def blocked_script(gestures: tuple[str, ...],
                   templates: dict[str, GestureTemplate],
                   repetitions: int, **script) -> SessionScript:
    """Collection-style schedule: all repetitions of each gesture in a block.
    ``script`` holds ``rest_s``, ``lead_s`` and the :class:`SessionScript`
    settings other than ``events``."""
    _check_count("repetitions", repetitions)
    names = [name for name in gestures for _ in range(repetitions)]
    return _schedule(names, templates, **script)


def balanced_sequence_script(gestures: tuple[str, ...],
                             templates: dict[str, GestureTemplate],
                             count: int, rng: np.random.Generator,
                             **script) -> SessionScript:
    """Evaluation-style schedule: a shuffled sequence with equal class counts.
    ``script`` holds ``rest_s``, ``lead_s`` and the :class:`SessionScript`
    settings other than ``events``."""
    _check_count("count", count)
    G = len(gestures)
    if count % G != 0:
        raise ConfigError(f"count {count} is not a multiple of {G} gestures")
    labels = list(gestures) * (count // G)
    order = rng.permutation(len(labels))
    names = [labels[int(i)] for i in order]
    return _schedule(names, templates, **script)
