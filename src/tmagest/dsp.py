"""Causal envelope extraction for multi-channel sEMG streams.

The envelope of an sEMG channel approximates the amplitude modulation of the
underlying muscle activity. It is obtained here in two causal steps:

1. full-wave rectification, ``|x[n]|``
2. low-pass filtering with a second-order Butterworth biquad

The biquad is the direct-form-II-transposed recursion with state
``z = (z1, z2)`` per channel, run in the exact block state-space form of
Parhi & Messerschmitt (*Pipeline interleaving and parallelism in recursive
digital filters*, IEEE Trans. ASSP, 1989). Over a block ``X`` of ``S``
samples the outputs and the next state are one linear map of the block and
the current state::

    Y  = T X + Gamma z
    z' = Phi z + Psi X

``T`` is the lower-triangular Toeplitz matrix of the impulse response,
``Gamma`` maps the state onto each output, ``Phi`` is the ``S``-step state
transition and ``Psi`` carries each input into the next state. The matrices
are built once per filter, so a block costs one small matrix product instead
of ``S`` interpreted steps. The product sums in another order than the
per-sample recursion, so the two agree to rounding, not bit for bit.

Block boundaries fall every ``S`` samples from the first sample of each
:meth:`EnvelopeFilter.process` call; a short final block of ``r`` samples
uses the ``r``-step matrices. The streaming engine passes one stride of
``S = map_stride`` samples per call and offline code filters whole
recordings with the same ``S``, so both meet every block with the same
matrix and the same arithmetic: offline envelopes equal the streaming ones
bit for bit.

The same class filters the synthetic generator's carrier:
:func:`design_butterworth_bandpass` designs a fourth-order Butterworth
band-pass in numpy as one 8-state system ``(A, B, C, D)``, and
:class:`EnvelopeFilter` takes that system in place of a biquad and runs it
by the same per-block product. :meth:`BiquadCoefficients.state_space` turns
a biquad into ``(A, B, C, D)``, for the envelope and for each band-pass
section, and :func:`block_matrices` builds ``(T, Gamma, Phi, Psi)`` from
``(A, B, C, D)`` for both filters.

Zero-phase (forward-backward) filtering is deliberately not offered: it needs
future samples and therefore cannot run streaming. The price is the filter's
group delay, which downstream onset timing simply inherits.

All arithmetic is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StructuralError

# rows of a block_slices slice, rounded down to whole filter blocks: what
# envelope_stream and the synthetic carrier filter at a time
_SLICE_ROWS = 4096

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BiquadCoefficients:
    """Normalized (a0 = 1) coefficients of one second-order section.

    The difference equation realized by :class:`EnvelopeFilter` is::

        y[n] = b0*x[n] + b1*x[n-1] + b2*x[n-2] - a1*y[n-1] - a2*y[n-2]
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def dc_gain(self) -> float:
        return (self.b0 + self.b1 + self.b2) / (1.0 + self.a1 + self.a2)

    def magnitude_at(self, freq_hz: float, sample_rate: float) -> float:
        """Transfer-function magnitude |H(e^{j*2*pi*f/fs})|."""
        w = 2.0 * math.pi * freq_hz / sample_rate
        z1 = complex(math.cos(-w), math.sin(-w))
        z2 = z1 * z1
        num = self.b0 + self.b1 * z1 + self.b2 * z2
        den = 1.0 + self.a1 * z1 + self.a2 * z2
        return abs(num / den)

    def is_stable(self) -> bool:
        # Jury criterion for a second-order denominator.
        return abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2

    def state_space(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(A, B, C, D)`` of the direct-form-II-transposed recursion:
        ``z' = A z + B x`` and ``y = C z + D x`` with ``C = [1, 0]`` and
        ``D = b0``."""
        return (np.array([[-self.a1, 1.0], [-self.a2, 0.0]]),
                np.array([self.b1 - self.a1 * self.b0,
                          self.b2 - self.a2 * self.b0]),
                np.array([1.0, 0.0]), self.b0)


def design_butterworth_lowpass(cutoff_hz: float, sample_rate: float) -> BiquadCoefficients:
    """Design a second-order Butterworth low-pass biquad.

    The analog prototype ``H(s) = 1 / (s^2 + sqrt(2)s + 1)`` is mapped to the
    z-domain by the bilinear transform with the cutoff prewarped so that the
    -3 dB point lands exactly on ``cutoff_hz`` after warping.

    Args:
        cutoff_hz: -3 dB corner frequency in Hz.
        sample_rate: Sampling frequency in Hz.

    Returns:
        Coefficients with unity DC gain.

    Raises:
        ConfigError: If the cutoff is outside (0, sample_rate / 2).
    """
    if sample_rate <= 0:
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ConfigError(
            f"cutoff must lie in (0, {sample_rate / 2}) Hz, got {cutoff_hz}"
        )
    c = 1.0 / math.tan(math.pi * cutoff_hz / sample_rate)
    norm = 1.0 / (1.0 + _SQRT2 * c + c * c)
    return BiquadCoefficients(
        b0=norm,
        b1=2.0 * norm,
        b2=norm,
        a1=2.0 * (1.0 - c * c) * norm,
        a2=(1.0 - _SQRT2 * c + c * c) * norm,
    )


def design_butterworth_bandpass(
        low_hz: float, high_hz: float, sample_rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Design a fourth-order Butterworth band-pass as one state-space system.

    The band edges are prewarped, ``w = tan(pi * f / sample_rate)``; the
    analog low-pass prototype's four poles are moved to the band by
    ``s -> (s^2 + w_low * w_high) / (s * (w_high - w_low))``, and the bilinear
    transform ``z = (1 + s) / (1 - s)`` maps the eight poles into the unit
    disc, four zeros to ``z = +1`` and four to ``z = -1``. Each conjugate pole
    pair becomes one direct-form-II-transposed biquad with numerator
    ``1 - z^-2``; the gain rides on the first, and the sections run in order
    of pole radius, the pole nearest the unit circle last.

    Args:
        low_hz: Lower -3 dB edge in Hz.
        high_hz: Upper -3 dB edge in Hz.
        sample_rate: Sampling frequency in Hz.

    Returns:
        ``(A, B, C, D)`` of the 8-state cascade ``z' = A z + B x``,
        ``y = C z + D x``: A is 8 x 8, B and C have 8 entries and D is the
        gain, a float.

    Raises:
        ConfigError: Unless 0 < low_hz < high_hz < sample_rate / 2.
    """
    if not 0 < low_hz < high_hz < sample_rate / 2:
        raise ConfigError(f"the band must satisfy 0 < low < high < "
                          f"{sample_rate / 2:g} Hz, got ({low_hz}, {high_hz})")
    w_low = math.tan(math.pi * low_hz / sample_rate)
    w_high = math.tan(math.pi * high_hz / sample_rate)
    bw = w_high - w_low
    prototype = np.exp(1j * math.pi * np.arange(5, 13, 2) / 8)
    half = prototype * bw / 2.0
    root = np.sqrt(half * half - w_low * w_high)
    analog = np.concatenate([half + root, half - root])
    gain = bw ** 4 / np.prod(1.0 - analog).real
    poles = (1.0 + analog) / (1.0 - analog)
    poles = poles[poles.imag > 0]
    a = np.zeros((0, 0))
    b = c = np.zeros(0)
    d = 1.0
    for i, p in enumerate(poles[np.argsort(np.abs(poles))]):
        # one section: b = g * [1, 0, -1], a = [1, -2 Re p, |p|^2]
        g = gain if i == 0 else 1.0
        sa, sb, sc, sd = BiquadCoefficients(
            b0=g, b1=0.0, b2=-g, a1=-2.0 * p.real, a2=abs(p) ** 2).state_space()
        # in series: the section's input is the cascade's output so far
        n = a.shape[0]
        cascade = np.zeros((n + 2, n + 2))
        cascade[:n, :n] = a
        cascade[n:, :n] = np.outer(sb, c)
        cascade[n:, n:] = sa
        a, b, c, d = (cascade, np.concatenate([b, sb * d]),
                      np.concatenate([sd * c, sc]), sd * d)
    return a, b, c, d


def block_matrices(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: float,
                   size: int) -> tuple[np.ndarray, ...]:
    """``(T, Gamma, Phi, Psi)`` of the system ``z' = a z + b x``,
    ``y = c z + d x`` over a block of ``size`` samples.

    ``T`` is the ``size``-square lower-triangular Toeplitz matrix of the
    impulse response ``d, c b, c a b, ...``; row ``i`` of ``Gamma`` is
    ``c a^i``; ``Phi`` is ``a^size``; column ``j`` of ``Psi`` is
    ``a^(size-1-j) b``. The matrices for a shorter block hold the same bits
    as the leading rows and columns (the trailing columns of ``Psi``) of
    these.
    """
    powers = np.empty((size + 1, *a.shape))
    powers[0] = np.eye(a.shape[0])
    for k in range(1, size + 1):
        powers[k] = a @ powers[k - 1]
    carried = powers[:size] @ b              # row k: a^k b
    impulse = np.concatenate([[d], carried[:size - 1] @ c])
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    t = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    return t, c @ powers[:size], powers[size], carried[::-1].T


class EnvelopeFilter:
    """Per-channel streaming filter bank in block state-space form.

    ``coeffs`` is the envelope's :class:`BiquadCoefficients` or any system
    ``(A, B, C, D)`` of ``k`` states, such as the carrier's band-pass from
    :func:`design_butterworth_bandpass`. :meth:`process` walks its input in
    blocks of ``block_size`` samples from the input's first sample; a short
    final block of ``r`` samples uses the ``r``-step matrices (the leading
    ``r`` rows of ``T`` and ``Gamma``, ``Phi = A^r`` and the last ``r``
    columns of ``Psi``). Successive calls whose lengths are multiples of
    ``block_size`` (the last may be shorter) therefore give the same outputs,
    bit for bit, as one call over the concatenated input; this is what keeps
    the engine's stride-by-stride envelopes equal to :func:`envelope_stream`.

    One instance owns the filter memory of one logical stream and must be
    stepped by a single caller in sample order. Coefficients are immutable
    and may be shared between instances.
    """

    def __init__(self, coeffs: BiquadCoefficients | tuple, channels: int,
                 block_size: int):
        if channels < 1:
            raise ConfigError(f"channels must be >= 1, got {channels}")
        if block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {block_size}")
        self.channels = channels
        self.block_size = block_size
        self._system = (coeffs.state_space()
                        if isinstance(coeffs, BiquadCoefficients) else coeffs)
        self._states = self._system[0].shape[0]
        self._full = self._matrix(block_size)
        # The first k rows hold the state between calls; the block is copied
        # below it so one product advances both.
        self._work = np.zeros((self._states + block_size, channels))

    def _matrix(self, r: int) -> np.ndarray:
        """The (k + r)-square block matrix for a block of r <= S samples.

        The first k rows map to the next state, the rest to the outputs; the
        first k columns take the state, the rest the input block.
        """
        t, gamma, phi, psi = block_matrices(*self._system, r)
        return np.block([[phi, psi], [gamma, t]])

    def process(self, block: np.ndarray) -> np.ndarray:
        """Filter a (samples, channels) block in time order.

        Raises:
            StructuralError: If the block is not (n, channels).
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.channels:
            raise StructuralError(
                f"expected a (n, {self.channels}) block, got {block.shape}"
            )
        work, S, k = self._work, self.block_size, self._states
        out = np.empty_like(block)
        for start in range(0, block.shape[0], S):
            r = min(S, block.shape[0] - start)
            work[k:k + r] = block[start:start + r]
            m = self._full if r == S else self._matrix(r)
            res = np.dot(m, work[:k + r])
            work[:k] = res[:k]
            out[start:start + r] = res[k:]
        return out


def envelope_stream(raw: np.ndarray, coeffs: BiquadCoefficients,
                    block_size: int) -> np.ndarray:
    """Rectify and filter a whole (samples, channels) recording from zero state.

    With ``block_size`` equal to the engine's map stride the result equals,
    bit for bit, the envelopes the engine computes stride by stride.

    The recording is rectified and filtered into one output array in the
    slices of whole filter blocks that :func:`block_slices` gives. Beside
    the input and the output only a slice is held, and the result equals
    one call over the whole rectified recording.
    """
    raw = np.asarray(raw, dtype=np.float64)
    filt = EnvelopeFilter(coeffs, raw.shape[1], block_size)
    out = np.empty_like(raw)
    for rows in block_slices(raw.shape[0], block_size):
        out[rows] = filt.process(np.abs(raw[rows]))
    return out


def block_slices(n: int, block_size: int) -> list[slice]:
    """Slices of ``n`` rows in order, each the most whole filter blocks of
    ``block_size`` rows that fit in :data:`_SLICE_ROWS` rows, at least one;
    the last may be shorter. By :class:`EnvelopeFilter`'s block contract,
    one filter run over these slices in turn gives the bits of one call
    over all ``n`` rows."""
    step = block_size * max(1, _SLICE_ROWS // block_size)
    return [slice(start, start + step) for start in range(0, n, step)]
