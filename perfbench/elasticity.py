"""Measure how strongly each kind of timed work slows when the probe slows.

    python3 perfbench/elasticity.py --seconds 240

Runs the benchmark's own stages on the seed-1 ``replay`` inputs for
``--seconds``, in a loop: set-up, calibrate, train and replay. Each timed
piece is paired with the probe readings beside it: a ScaledTimer part of one
pass with the readings averaged over its time, and a replayed stride with
the readings taken before its group of strides. ``stats.fit_elasticity`` then
gives each kind of work its elasticity against each probe; the kinds in
``protocol`` (``STREAM_WORK``, ``SGD_WORK`` and so on) should hold these
values. The fit needs the host to pass through both its fast and its slow
state during the run; a group count of zero means it did not.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402

run.single_blas_thread()

import numpy as np  # noqa: E402

import protocol  # noqa: E402
import stats  # noqa: E402


def stride_pairs(rp: protocol.ReplayPass, kind: int):
    """(stride times, probe readings before each one's group) for one kind."""
    times = np.asarray(rp.times_ns) / 1e3
    keep = np.asarray(rp.kinds) == kind
    group = np.searchsorted(rp.probe_at, np.arange(times.size), side="right") - 1
    return times[keep], {name: np.asarray(values)[group][keep]
                         for name, values in rp.probes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=240.0)
    args = parser.parse_args(argv)
    workload = protocol.WORKLOADS["replay"]
    times = defaultdict(list)
    probes = defaultdict(lambda: defaultdict(list))

    def add(label, these_times, these_probes):
        times[label].extend(these_times)
        for name in stats.PROBES:
            probes[label][name].extend(these_probes[name])

    def add_parts(timer, labels):
        """Each part's time, with the probes averaged over its segments."""
        for part, label in labels.items():
            pieces = [(seconds, speed) for p, seconds, speed in timer.segments if p == part]
            weights = [seconds for seconds, _ in pieces]
            add(label, [sum(weights)], {
                name: [float(np.average([speed[name] for _, speed in pieces],
                                        weights=weights))]
                for name in stats.PROBES})

    end = time.perf_counter() + args.seconds
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="elasticity-", dir=run.RESULTS) as tmp:
        while time.perf_counter() < end:
            timer = stats.ScaledTimer()
            with timer.running("setup", protocol.SETUP_WORK):
                inputs = protocol.make_inputs(workload, 1)
            add_parts(timer, {"setup": "SETUP (synth.generate)"})
            cal, timer = protocol.calibrate_pass(inputs, Path(tmp) / "calibration.csv")
            add_parts(timer, {part: f"STREAM ({part})"
                              for part in ("write", "read", "calibrate")})
            tp = protocol.train_pass(inputs, cal, Path(tmp) / "model.tma")
            add_parts(tp.timer, {"extract": "STREAM (extract)", "train": "SGD"})
            rp = protocol.replay_pass(tp.loaded, inputs)
            add("STRIDE (quiet)", *stride_pairs(rp, protocol.QUIET))
            add("CLASSIFY", *stride_pairs(rp, protocol.CLASSIFY))
            classify, near = stride_pairs(rp, protocol.CLASSIFY)
            add("CLASSIFY (p95 of a pass)", [np.percentile(classify, 95)],
                {name: [np.median(values)] for name, values in near.items()})

    print(f"{'work':<24} " + "  ".join(f"{name + ' probe':>22}" for name in stats.PROBES)
          + "   pieces in the fast / slow state")
    for label in sorted(times):
        row, counts = [], []
        for name in stats.PROBES:
            elasticity, n_fast, n_slow = stats.fit_elasticity(times[label],
                                                              probes[label][name])
            row.append(f"{elasticity:>22.2f}")
            counts.append(f"{n_fast}/{n_slow}")
        print(f"{label:<24} " + "  ".join(row) + "   " + ", ".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
