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


class EnvelopeFilter:
    """Per-channel streaming biquad bank in block state-space form.

    :meth:`process` walks its input in blocks of ``block_size`` samples from
    the input's first sample; a short final block of ``r`` samples uses the
    ``r``-step matrices (the leading ``r`` rows of ``T`` and ``Gamma``,
    ``Phi = A^r`` and the last ``r`` columns of ``Psi``). Successive calls
    whose lengths are multiples of ``block_size`` (the last may be shorter)
    therefore give the same outputs, bit for bit, as one call over the
    concatenated input; this is what keeps the engine's stride-by-stride
    envelopes equal to :func:`envelope_stream`.

    One instance owns the filter memory of one logical stream and must be
    stepped by a single caller in sample order. Coefficients are immutable
    and may be shared between instances.
    """

    def __init__(self, coeffs: BiquadCoefficients, channels: int,
                 block_size: int):
        if channels < 1:
            raise ConfigError(f"channels must be >= 1, got {channels}")
        if block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {block_size}")
        self.coeffs = coeffs
        self.channels = channels
        self.block_size = block_size
        c, S = coeffs, block_size
        # z' = A z + B x, y = C z + D x with C = [1, 0] and D = b0
        a = np.array([[-c.a1, 1.0], [-c.a2, 0.0]])
        b = np.array([c.b1 - c.a1 * c.b0, c.b2 - c.a2 * c.b0])
        powers = np.empty((S + 1, 2, 2))
        powers[0] = np.eye(2)
        for k in range(1, S + 1):
            powers[k] = a @ powers[k - 1]
        carried = powers[:S] @ b                 # row k: A^k B
        impulse = np.concatenate([[c.b0], carried[:S - 1, 0]])
        lag = np.subtract.outer(np.arange(S), np.arange(S))
        # Rows 0-1 map to the next state, rows 2.. to the outputs; columns
        # 0-1 take the state, columns 2.. the input block.
        full = np.zeros((S + 2, S + 2))
        full[:2, :2] = powers[S]                 # Phi
        full[:2, 2:] = carried[::-1].T           # Psi: column j is A^(S-1-j) B
        full[2:, :2] = powers[:S, 0]             # Gamma: row i is C A^i
        full[2:, 2:] = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)  # T
        self._powers = powers
        self._full = full
        # Rows 0-1 hold the state between calls; the block is copied below it
        # so one product advances both.
        self._work = np.zeros((S + 2, channels))

    def _matrix(self, r: int) -> np.ndarray:
        """The (r + 2)-square block matrix for a block of r <= S samples."""
        S = self.block_size
        if r == S:
            return self._full
        m = np.empty((r + 2, r + 2))
        m[:2, :2] = self._powers[r]
        m[:2, 2:] = self._full[:2, 2 + S - r:]
        m[2:] = self._full[2:r + 2, :r + 2]
        return m

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
        work, S = self._work, self.block_size
        out = np.empty_like(block)
        for start in range(0, block.shape[0], S):
            r = min(S, block.shape[0] - start)
            work[2:r + 2] = block[start:start + r]
            res = np.dot(self._matrix(r), work[:r + 2])
            work[:2] = res[:2]
            out[start:start + r] = res[2:]
        return out


def envelope_stream(raw: np.ndarray, coeffs: BiquadCoefficients,
                    block_size: int) -> np.ndarray:
    """Rectify and filter a whole (samples, channels) recording from zero state.

    With ``block_size`` equal to the engine's map stride the result equals,
    bit for bit, the envelopes the engine computes stride by stride.
    """
    raw = np.asarray(raw, dtype=np.float64)
    filt = EnvelopeFilter(coeffs, raw.shape[1], block_size)
    return filt.process(np.abs(raw))
