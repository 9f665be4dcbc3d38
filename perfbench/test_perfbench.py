"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import protocol  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# --- percentile rule -------------------------------------------------------

@pytest.mark.parametrize("n, p, beyond", [
    (200, 95, 10), (199, 95, 10), (189, 95, 10), (180, 95, 9), (100, 95, 5),
    (1000, 99, 10), (999, 99, 10), (10, 50, 5), (1, 50, 0), (0, 50, 0),
])
def test_samples_beyond(n, p, beyond):
    assert stats.samples_beyond(n, p) == beyond


def test_samples_beyond_counts_order_statistics_above_numpy_percentile():
    for n in (20, 57, 200, 1001):
        values = np.arange(n, dtype=float)
        for p in (50, 90, 95, 99):
            cut = np.percentile(values, p)
            assert stats.samples_beyond(n, p) == int((values > cut).sum())


def test_percentile_refuses_a_thin_tail():
    assert stats.percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        stats.percentile(list(range(100)), 95)


def test_speed_factor_is_a_power_of_the_probes_slowdown():
    ref = stats.PROBE_REFERENCE_US
    assert stats.speed_factor(ref["cpu"], stats.Kind("cpu", 0.7)) == 1.0
    assert stats.speed_factor(2 * ref["conv"], stats.Kind("conv", 1.0)) == 0.5
    assert stats.speed_factor(4 * ref["cpu"], stats.Kind("cpu", 0.5)) == pytest.approx(0.5)
    assert stats.speed_factor(4 * ref["cpu"], stats.Kind("cpu", 0.0)) == 1.0


def test_scale_to_reference_uses_each_windows_probe():
    ref = stats.PROBE_REFERENCE_US["cpu"]
    times = [10.0] * 7
    probes = [ref, 2 * ref, 4 * ref]
    scaled = stats.scale_to_reference(times, positions=[0, 2, 3], probes=probes,
                                      kind=stats.Kind("cpu", 1.0), window=2)
    # window 0 ran at the reference speed, window 1 at a third of it (median
    # of 2x and 4x slower is 3x), window 2 had no probe and uses all three
    assert scaled.tolist() == pytest.approx([10, 10, 10 / 3, 10 / 3, 5, 5, 5])
    half = stats.scale_to_reference(times, [0, 2, 3], probes, stats.Kind("cpu", 0.5),
                                    window=2)
    assert half.tolist() == pytest.approx([10, 10] + [10 / 3 ** 0.5] * 2
                                          + [10 / 2 ** 0.5] * 3)


def test_scaled_timer_splits_parts_at_marks_and_skips_probing(monkeypatch):
    ref = stats.PROBE_REFERENCE_US
    slowdowns = iter([1, 3, 1, 2])  # each reading: both probes this many times slower

    def read_probes():
        k = next(slowdowns)
        return {name: k * ref[name] for name in ref}

    monkeypatch.setattr(stats, "read_probes", read_probes)
    # each reading is followed by one clock read; probing itself takes 1 s
    clock = iter([0.0, 2.0, 3.0, 7.0, 8.0, 9.0])
    monkeypatch.setattr(stats.time, "perf_counter", lambda: next(clock))
    timer = stats.ScaledTimer(sample_s=60.0)
    with timer.running("a", stats.Kind("cpu", 1.0)):   # reading 1x; work from 0.0
        timer.mark()                    # at 2.0: 2 s of a; reading 3x; work from 3.0
        timer.mark("b", stats.Kind("conv", 0.5))   # at 7.0: 4 s more of a; reading 1x
    # closed at 9.0 after work from 8.0: 1 s of b; reading 2x
    assert dict(timer.seconds) == {"a": 6.0, "b": 1.0}
    assert timer.scaled["a"] == pytest.approx(2.0 / 2 + 4.0 / 2)
    assert timer.scaled["b"] == pytest.approx(1.0 / 1.5 ** 0.5)
    assert timer.total_scaled == pytest.approx(3.0 + 1.0 / 1.5 ** 0.5)
    assert [part for part, _, _ in timer.segments] == ["a", "a", "b"]


def test_scaled_timer_reads_the_probes_by_itself_while_running():
    timer = stats.ScaledTimer(sample_s=0.01)
    before = signal.getsignal(signal.SIGALRM)
    with timer.running("busy", stats.Kind("cpu", 1.0)):
        end = stats.time.perf_counter() + 0.2
        while stats.time.perf_counter() < end:
            pass
    assert len(timer.segments) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the probing is left out of the time
    assert 0.0 < timer.seconds["busy"] < 0.2


def test_probes_return_positive_times():
    reading = stats.read_probes(repeats=1)
    assert set(reading) == set(stats.PROBES)
    assert all(v > 0 for v in reading.values())


def test_fit_elasticity_joins_the_two_states_medians():
    probes = [100.0] * 6 + [200.0] * 4
    times = [10.0] * 6 + [10.0 * 2 ** 0.5] * 4
    elasticity, n_fast, n_slow = stats.fit_elasticity(times, probes)
    assert elasticity == pytest.approx(0.5)
    assert (n_fast, n_slow) == (6, 4)
    elasticity, n_fast, n_slow = stats.fit_elasticity([1.0, 2.0], [100.0, 100.0])
    assert np.isnan(elasticity) and n_slow == 0


# --- event scoring ---------------------------------------------------------

TRUTHS = [(1000, "a", True), (2000, "a", False), (3000, "b", True),
          (4000, "b", False)]


def test_perfect_stream():
    events = [(1010, "prediction", "a"), (2020, "suppressed", None),
              (2990, "prediction", "b"), (4005, "suppressed", None)]
    s = stats.score_events(events, TRUTHS, tolerance=200)
    assert (s.truths, s.fired, s.matched, s.flexions, s.correct) == (4, 4, 4, 2, 2)
    assert (s.recall, s.false_positives_per_onset, s.accuracy) == (1.0, 0.0, 1.0)


def test_missed_false_and_wrong_events():
    events = [(1010, "prediction", "b"),        # matched, wrong gesture
              (1500, "prediction", "a"),        # nothing within tolerance
              (3000, "suppressed", None)]       # matched, not classified
    s = stats.score_events(events, TRUTHS, tolerance=200)
    assert (s.matched, s.correct) == (2, 0)
    assert s.recall == 0.5
    assert s.false_positives_per_onset == 0.25
    assert s.accuracy == 0.0
    assert s.matched_ratio == pytest.approx(2 / 3)


def test_matching_is_one_to_one_nearest_and_in_event_order():
    truths = [(1000, "a", True), (1100, "b", True)]
    # the first event takes the nearest truth (1000); the second gets 1100
    events = [(1040, "prediction", "a"), (1060, "prediction", "b")]
    s = stats.score_events(events, truths, tolerance=200)
    assert (s.matched, s.correct) == (2, 2)
    # a tie goes to the earlier truth
    s = stats.score_events([(1050, "prediction", "a")], truths, tolerance=200)
    assert s.correct == 1
    # a gap equal to the tolerance still matches, one more does not
    assert stats.score_events([(1200, "prediction", "a")], truths[:1], 200).matched == 1
    assert stats.score_events([(1201, "prediction", "a")], truths[:1], 200).matched == 0


def test_scores_add_up_and_empty_truth_is_vacuous():
    total = stats.Score()
    total += stats.score_events([(1000, "prediction", "a")], TRUTHS[:1], 10)
    total += stats.score_events([(5, "suppressed", None)], [], 10)
    assert (total.truths, total.fired, total.matched) == (1, 2, 1)
    assert stats.Score().recall == 1.0 and stats.Score().accuracy == 1.0


# --- spans -----------------------------------------------------------------

def _spans(rows):
    """Spans from (name, parent index, start, end) rows."""
    names = sorted({r[0] for r in rows})
    return tracing.Spans(
        names=names, runs=["r"],
        name=np.array([names.index(r[0]) for r in rows]),
        parent=np.array([r[1] for r in rows]),
        run=np.zeros(len(rows), dtype=np.int64),
        start=np.array([r[2] for r in rows]), end=np.array([r[3] for r in rows]))


def test_self_time_subtracts_direct_children_only():
    s = _spans([("step", -1, 0, 100),       # 0
                ("filter", 0, 10, 40),      # 1
                ("push", 0, 40, 50),        # 2
                ("push", 0, 50, 60),        # 3
                ("predict", 0, 60, 95),     # 4
                ("forward", 4, 65, 90)])    # 5
    assert s.self_time.tolist() == [100 - 30 - 10 - 10 - 35, 30, 10, 10, 10, 25]
    assert s.duration.tolist() == [100, 30, 10, 10, 35, 25]


def test_aggregate_statistics():
    s = _spans([("step", -1, 0, 1000), ("push", 0, 0, 100), ("push", 0, 100, 300),
                ("step", -1, 1000, 1500), ("push", 3, 1000, 1100),
                ("push", -1, 2000, 2900)])
    assert tracing.aggregate(s, "push", "median_per_parent", "ns", "step") == (200.0, 2)
    assert tracing.aggregate(s, "push", "total", "ns") == (1300.0, 4)
    assert tracing.aggregate(s, "push", "count", "count") == (4.0, 4)
    assert tracing.aggregate(s, "step", "median_self", "ns") == (550.0, 2)
    assert tracing.aggregate(s, "step", "total_self", "us") == (1.1, 2)
    value, count = tracing.aggregate(s, "absent", "median", "us")
    assert np.isnan(value) and count == 0


def test_tracer_records_nesting_and_restores_targets():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = tracing.Tracer()
    targets = [(Owner, "outer", "outer", lambda r: "outer.two" if r == 2 else None),
               (Owner, "inner", "inner", None)]
    original = Owner.__dict__["outer"]
    with tracer.patched(targets):
        with tracer.span("stage", run="run-1"):
            assert Owner().outer() == 2
        with tracer.paused():
            Owner().inner()
    assert Owner.__dict__["outer"] is original
    s = tracer.spans()
    assert [s.names[i] for i in s.name] == ["stage", "outer", "inner"]
    assert s.parent.tolist() == [-1, 0, 1]
    assert s.runs == ["run-1"] and s.run.tolist() == [0, 0, 0]
    assert (s.self_time >= 0).all()
    assert tracer.outcomes["outer.two"] == 1


# --- contract --------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(protocol.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(protocol.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(protocol.WORKLOADS)
    layer = ([m[0] for m in protocol.LAYER_METRICS] + list(protocol.OUTCOME_COUNTS)
             + ["onset.matched_ratio"] + list(protocol.DEMOTED)
             + [f"trace_overhead.{m}" for m in protocol.OVERHEAD_OF])
    assert [m["name"] for m in spec["per_layer"]] == layer
