"""The benchmark's own arithmetic: the percentile rule, scaling to a
reference machine speed, and event scoring.

Kept free of tmagest imports so the self-tests can check it in isolation.
"""

from __future__ import annotations

import math
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

MIN_TAIL = 10
"""A percentile is reported only with at least this many samples beyond it."""

WINDOW = 1000
"""Consecutive engine strides (about 0.2 s) that share one probe reading."""
PROBES = ("cpu", "conv")
PROBE_REFERENCE_US = {"cpu": 150.0, "conv": 600.0}
"""Probe times the scaled timings refer to: about their times on an unloaded
2.1 GHz Xeon vCPU."""
PROBE_REPEATS = 3
"""Runs of each probe whose median is one reading."""
SAMPLE_S = 0.1
"""Seconds between the readings a running ScaledTimer takes by itself."""

_CPU_DATA = np.ones(64)
_rng = np.random.default_rng(0)
_CONV_X = _rng.random((4, 44, 80))          # four 44 x 80 activation maps
_CONV_W = _rng.random((9, 8))               # eight 3 x 3 filters
_CONV_G = _rng.random((4 * 42 * 78, 8))     # a gradient of the conv output


def probe_us() -> float:
    """Time of a fixed piece of interpreter and small-array numpy work, in us.

    Other tenants' load slows it in step with the engine's Python-bound
    work, so it measures how fast the machine runs such work right now.
    """
    start = time.perf_counter_ns()
    x, total = _CPU_DATA, 0.0
    for i in range(200):
        total += float(x[i % 64])
        x = x * 1.0
    return (time.perf_counter_ns() - start) / 1e3


def conv_probe_us() -> float:
    """Time of one fixed 3 x 3 convolution layer on four maps, in us.

    The patch copies, GEMMs, ReLU and 2 x 2 max pool have the shapes of the
    CNN's first layer, so it slows with the memory-bound SGD and classify
    work. It is the benchmark's own code: a change to the program cannot
    move it.
    """
    start = time.perf_counter_ns()
    x = _CONV_X
    col = np.empty((9, 4, 42, 78))
    for di in range(3):
        for dj in range(3):
            col[di * 3 + dj] = x[:, di:di + 42, dj:dj + 78]
    col = col.reshape(9, -1)
    a = col.T @ _CONV_W
    np.maximum(a, 0.0, out=a)
    col @ (_CONV_G * (a > 0))
    a = a.reshape(4, 42, 78, 8)
    np.maximum(np.maximum(a[:, 0::2, 0::2], a[:, 0::2, 1::2]),
               np.maximum(a[:, 1::2, 0::2], a[:, 1::2, 1::2]))
    return (time.perf_counter_ns() - start) / 1e3


_PROBE_FNS = {"cpu": probe_us, "conv": conv_probe_us}


def read_probes(repeats: int = PROBE_REPEATS) -> dict[str, float]:
    """One reading: the median time of each probe over ``repeats`` runs."""
    return {name: float(np.median([fn() for _ in range(repeats)]))
            for name, fn in _PROBE_FNS.items()}


@dataclass(frozen=True)
class Kind:
    """A kind of timed work: the probe it slows with, and how strongly.

    Work slows by a fixed power of its probe's slowdown, the elasticity
    (README.md; ``perfbench/elasticity.py`` measures it).
    """

    probe: str
    elasticity: float


def speed_factor(probe, kind: Kind):
    """What a time taken while ``kind.probe`` read ``probe`` is multiplied by."""
    return (PROBE_REFERENCE_US[kind.probe] / np.asarray(probe)) ** kind.elasticity


def scale_to_reference(times, positions, probes, kind: Kind,
                       window: int = WINDOW) -> np.ndarray:
    """Scale each time by the speed factor of its window's probe median.

    ``positions[j]`` is the index into ``times`` at which ``probes[j]`` was
    taken. A window without a probe uses the median of all probes.
    """
    times = np.asarray(times, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.int64)
    probes = np.asarray(probes, dtype=np.float64)
    n = -(-times.size // window)
    speed = np.full(n, np.median(probes) if probes.size
                    else PROBE_REFERENCE_US[kind.probe])
    which = positions // window
    for w in np.unique(which):
        speed[w] = np.median(probes[which == w])
    return times * speed_factor(np.repeat(speed, window)[:times.size], kind)


def windows(times, keep, window: int = WINDOW):
    """The kept times of each whole window, skipping a window that keeps too
    few for a p99 with MIN_TAIL samples beyond it."""
    times = np.asarray(times, dtype=np.float64)
    keep = np.asarray(keep, dtype=bool)
    for start in range(0, times.size - window + 1, window):
        chosen = times[start:start + window][keep[start:start + window]]
        if samples_beyond(chosen.size, 99) >= MIN_TAIL:
            yield chosen


class ScaledTimer:
    """Wall time of named parts of a block of work, raw and scaled.

    While it runs, the timer reads the probes every ``sample_s`` seconds,
    from a SIGALRM handler, and at every :meth:`mark`. The time spent
    probing is left out. The work between two readings belongs to the part
    named at the first of them; it is scaled by the speed factor of the two
    readings' mean, for that part's kind of work. Frequent readings follow
    the machine's speed through a long call into the program. Use it from
    the main thread only.
    """

    def __init__(self, sample_s: float = SAMPLE_S):
        self.seconds: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, float] = defaultdict(float)
        self.segments: list[tuple[str, float, dict]] = []  # part, seconds, probes
        self._sample_s = sample_s
        self._open = None  # (part, kind, probe reading, start)
        self._busy = False

    def _close(self, now: float, reading: dict) -> tuple[str, Kind]:
        part, kind, before, start = self._open
        speed = {name: (before[name] + reading[name]) / 2 for name in PROBES}
        self.segments.append((part, now - start, speed))
        self.seconds[part] += now - start
        self.scaled[part] += (now - start) * float(speed_factor(speed[kind.probe], kind))
        self._open = None
        return part, kind

    def mark(self, part: str | None = None, kind: Kind | None = None) -> None:
        """Read the probes; the work from here on belongs to ``part`` of
        ``kind`` (by default, the current ones)."""
        self._busy = True
        try:
            now = time.perf_counter()
            reading = read_probes()
            current, current_kind = self._close(now, reading)
            self._open = (part or current, kind or current_kind, reading,
                          time.perf_counter())
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._open is not None and not self._busy:
            self.mark()

    @contextmanager
    def running(self, part: str, kind: Kind):
        """Time the block as ``part`` of ``kind``, until a mark names another."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._open = (part, kind, read_probes(), time.perf_counter())
        signal.setitimer(signal.ITIMER_REAL, self._sample_s, self._sample_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if self._open is not None:
                self._close(time.perf_counter(), read_probes())

    @property
    def total_scaled(self) -> float:
        return sum(self.scaled.values())


def fit_elasticity(times, probes) -> tuple[float, int, int]:
    """Elasticity of a kind of work, from its times and the probe beside each.

    The host runs in a fast and a slow state, so the readings are split at
    the geometric midpoint of the probe's 10th and 90th percentiles, and the
    elasticity is the slope of log time between the two groups' medians.
    Returns it with the size of each group; it is NaN when a group is empty.
    """
    log_t = np.log(np.asarray(times, dtype=np.float64))
    log_p = np.log(np.asarray(probes, dtype=np.float64))
    cut = np.mean(np.percentile(log_p, [10, 90]))
    slow = log_p > cut
    n_fast, n_slow = int((~slow).sum()), int(slow.sum())
    if not n_fast or not n_slow:
        return float("nan"), n_fast, n_slow
    rise = np.median(log_t[slow]) - np.median(log_t[~slow])
    run = np.median(log_p[slow]) - np.median(log_p[~slow])
    return float(rise / run), n_fast, n_slow


def samples_beyond(n: int, percentile: float) -> int:
    """Order statistics strictly above the interpolated ``percentile`` of n samples.

    Matches numpy's default (linear) interpolation: the percentile sits at
    position ``q * (n - 1)`` of the sorted samples.
    """
    if n < 1:
        return 0
    return n - 1 - math.floor(percentile / 100.0 * (n - 1))


def percentile(values, p: float) -> float:
    """The p-th percentile, refusing one that has too few samples beyond it.

    Raises:
        ValueError: If fewer than MIN_TAIL samples lie beyond the percentile.
    """
    n = len(values)
    if samples_beyond(n, p) < MIN_TAIL:
        raise ValueError(f"p{p:g} of {n} samples has fewer than "
                         f"{MIN_TAIL} samples beyond it")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


@dataclass
class Score:
    """Counts from matching emitted events to ground-truth onsets.

    ``truths`` counts flexion and return onsets; ``flexions`` and ``correct``
    count only flexion onsets and those whose matched event is a prediction
    of the right gesture.
    """

    truths: int = 0
    fired: int = 0
    matched: int = 0
    flexions: int = 0
    correct: int = 0

    def __iadd__(self, other: "Score") -> "Score":
        self.truths += other.truths
        self.fired += other.fired
        self.matched += other.matched
        self.flexions += other.flexions
        self.correct += other.correct
        return self

    @property
    def recall(self) -> float:
        return self.matched / self.truths if self.truths else 1.0

    @property
    def false_positives_per_onset(self) -> float:
        return (self.fired - self.matched) / max(self.truths, 1)

    @property
    def accuracy(self) -> float:
        return self.correct / self.flexions if self.flexions else 1.0

    @property
    def matched_ratio(self) -> float:
        return self.matched / self.fired if self.fired else 1.0


def score_events(events, truths, tolerance: int) -> Score:
    """Score events against ground truth with ``pipeline.evaluate``'s rules.

    Each event, in order, takes the nearest still-unmatched truth within
    ``tolerance`` samples (the earlier truth on a tie). A flexion truth counts
    as correct when its event is a prediction of the truth's gesture.

    Args:
        events: ``(n, type, gesture)`` tuples, type ``"prediction"`` or
            ``"suppressed"``.
        truths: ``(n, gesture, is_flexion)`` tuples sorted by n.
        tolerance: Largest |event n - truth n| that still matches.
    """
    used: set[int] = set()
    score = Score(truths=len(truths), fired=len(events),
                  flexions=sum(1 for t in truths if t[2]))
    for n, kind, gesture in events:
        best, best_gap = None, tolerance + 1
        for ti, (tn, _, _) in enumerate(truths):
            gap = abs(n - tn)
            if ti not in used and gap < best_gap:
                best, best_gap = ti, gap
        if best is None:
            continue
        used.add(best)
        score.matched += 1
        _, truth_gesture, is_flexion = truths[best]
        if is_flexion and kind == "prediction" and gesture == truth_gesture:
            score.correct += 1
    return score
