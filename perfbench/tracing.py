"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.patched` replaces
each target callable, at the attribute its caller resolves, with a wrapper
that records a span around the call and restores the original afterwards.
Every span holds its name, start, end, parent span and run id. Spans stay in
compact arrays until :meth:`Tracer.write` saves them when the run ends.

Calls are assumed to come from one thread, so the open spans form a stack.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


@dataclass(frozen=True)
class Spans:
    """All recorded spans as parallel arrays; span i is row i."""

    names: list[str]
    runs: list[str]
    name: np.ndarray
    parent: np.ndarray      # -1 for a root span
    run: np.ndarray
    start: np.ndarray       # perf_counter_ns
    end: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    @property
    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by each span's direct children.

        Children of one span run one after another inside it, so the part of
        its interval they cover is the sum of their durations.
        """
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.duration[has_parent],
                              minlength=self.name.shape[0])
        return self.duration - covered.astype(np.int64)

    def select(self, name: str, parent: str | None = None) -> np.ndarray:
        """Indices of the spans called ``name``, optionally under ``parent``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        mask = self.name == self.names.index(name)
        if parent is not None:
            if parent not in self.names:
                return np.zeros(0, dtype=np.int64)
            has_parent = self.parent >= 0
            parent_name = np.full(self.name.shape, -1)
            parent_name[has_parent] = self.name[self.parent[has_parent]]
            mask &= parent_name == self.names.index(parent)
        return np.flatnonzero(mask)


def aggregate(spans: Spans, name: str, stat: str, unit: str,
              parent: str | None = None) -> tuple[float, int]:
    """One per-layer number from the spans, with its sample count.

    Stats: ``median`` and ``median_self`` per call, ``median_per_parent``
    (calls summed within each parent span, e.g. per engine stride),
    ``total`` and ``total_self`` over the run, and ``count``.
    """
    idx = spans.select(name, parent)
    if stat == "count":
        return float(idx.size), int(idx.size)
    if idx.size == 0:
        return float("nan"), 0
    times = spans.self_time if stat.endswith("_self") else spans.duration
    values = times[idx]
    if stat == "median_per_parent":
        _, group = np.unique(spans.parent[idx], return_inverse=True)
        values = np.bincount(group, weights=values)
    if stat.startswith("median"):
        value = float(np.median(values))
    elif stat.startswith("total"):
        value = float(values.sum())
    else:
        raise ValueError(f"unknown stat {stat!r}")
    return value / _UNIT_NS[unit], int(values.size)


class Tracer:
    """Records spans around patched callables and around benchmark stages."""

    def __init__(self):
        self._names: list[str] = []
        self._runs: list[str] = []
        self._name = array("q")
        self._parent = array("q")
        self._run = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._current_run = -1
        self.active = True
        self.outcomes: Counter = Counter()

    def _intern(self, table: list[str], value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _open(self, name_id: int) -> int:
        sid = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self._current_run)
        self._end.append(0)
        self._stack.append(sid)
        self._start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run: str | None = None):
        """A span around a block of benchmark code; ``run`` starts a new run id."""
        if run is not None:
            self._current_run = self._intern(self._runs, run)
        sid = self._open(self._intern(self._names, name))
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def paused(self):
        """Patched callables run untraced inside this block (for checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn, outcome=None):
        """``fn`` recording a span per call; ``outcome(result)`` names a counter."""
        name_id = self._intern(self._names, name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if outcome is not None:
                label = outcome(result)
                if label is not None:
                    self.outcomes[label] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, span name, outcome)`` target."""
        originals = []
        try:
            for owner, attr, name, outcome in targets:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, outcome))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def spans(self) -> Spans:
        def arr(a):
            return np.frombuffer(a, dtype=np.int64).copy() if len(a) else np.zeros(0, np.int64)
        return Spans(names=list(self._names), runs=list(self._runs),
                     name=arr(self._name), parent=arr(self._parent),
                     run=arr(self._run), start=arr(self._start), end=arr(self._end))

    def write(self, path) -> None:
        """Save every span, with its self time, as a compressed .npz file."""
        s = self.spans()
        np.savez_compressed(path, names=np.array(s.names), runs=np.array(s.runs),
                            name=s.name, parent=s.parent, run=s.run,
                            start_ns=s.start, end_ns=s.end, self_ns=s.self_time)
