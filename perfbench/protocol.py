"""Seeded set-up and the three stages every benchmark workload runs.

Each run calibrates an onset threshold through a CSV round trip, trains a
classifier with it, and replays balanced gesture sessions through the engine,
so that every end-to-end metric is measured in every run. A workload decides
how large each stage's input is and which stage (its focus) repeats until the
run's seconds are spent; that stage dominates the workload's time and memory.

The program receives only arrays generated here from the workload seed, and
is driven through its public functions. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tmagest import cnn, dsp, io, onset, pipeline, synth, tma
from tmagest import engine as engine_mod
from tmagest.config import SessionConfig
from tmagest.engine import Engine, Prediction, iter_batches
from tmagest.errors import TmagestError
from tmagest.recording import PHASE_FLEXION, PHASE_RETURN, Recording

import stats
import tracing

# One epoch at the reference learning rate (0.001) leaves the classifier near
# chance, which would fail the quality floors; at 0.1 one epoch separates the
# gestures. The learning rate does not change the cost of an SGD batch.
LEARNING_RATE = 0.1
EPOCHS = 1
# The synthetic generator's cost grows with samples x events, so long sessions
# are made of short ones; each session is replayed with a fresh engine.
EVENTS_PER_SESSION = 25
SETUP_REPEATS = 3
CHECK_MAPS = 16
# Acceptance criterion 2 of the test suite.
MIN_RECALL = 0.95
MAX_FALSE_POSITIVES_PER_ONSET = 0.05
MIN_ACCURACY = 0.90

# The probe each kind of timed work slows with, and its elasticity
# (stats.speed_factor), as measured on the host of README.md: by
# perfbench/elasticity.py, and for the classify p95 from the benchmark's own
# runs. A timing is scaled for the kind of work it covers.
STREAM_WORK = stats.Kind("cpu", 0.8)       # per-sample loops: filter, CSV, extraction
STRIDE_WORK = stats.Kind("cpu", 0.9)       # an engine stride
CLASSIFY_WORK = stats.Kind("conv", 0.45)   # the p95 of strides that run the CNN
SGD_WORK = stats.Kind("conv", 1.0)         # batched conv forward and backward
SETUP_WORK = stats.Kind("cpu", 0.4)        # synth.generate


@dataclass(frozen=True)
class Workload:
    """Input sizes of one workload and how often each stage runs.

    Attributes:
        calibrate_reps: Blocked repetitions per gesture in the recording that
            is written, read back and calibrated (about 11 k samples each).
        train_reps: Blocked repetitions per gesture in the training
            recording (120 maps each).
        sessions: Balanced sessions of EVENTS_PER_SESSION events replayed in
            one pass (one classifying stride per event).
        focus: The stage that repeats until the run's seconds are spent.
        passes: Least passes of the calibrate, train and replay stages.
    """

    name: str
    calibrate_reps: int
    train_reps: int
    sessions: int
    focus: str
    passes: tuple[int, int, int]


STAGES = ("calibrate", "train", "replay")
WORKLOADS = {w.name: w for w in (
    # 300 events: 31 k strides, 300 of them classify; two passes at the least
    # so that the event stream can be compared across repeats.
    Workload("replay", calibrate_reps=2, train_reps=4, sessions=12,
             focus="replay", passes=(7, 1, 2)),
    # The reference training set: 20 repetitions x 5 gestures = 12 000 maps.
    # 400 events, so that classify_us_p95 has 20 samples beyond it.
    Workload("train", calibrate_reps=2, train_reps=20, sessions=16,
             focus="train", passes=(7, 1, 1)),
    # The 208 k-sample blocked recording of the reference training protocol.
    Workload("calibrate", calibrate_reps=20, train_reps=4, sessions=16,
             focus="calibrate", passes=(2, 1, 1)),
)}


@dataclass
class Inputs:
    config: SessionConfig
    calibration_recording: Recording
    training_recording: Recording
    sessions: list[Recording]


def _child_seed(seed: int, stream: str) -> int:
    return int(cnn.derive_rng(seed, stream).integers(2 ** 31))


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate every recording a run uses from the workload seed."""
    config = SessionConfig(seed=seed, epochs=EPOCHS, learning_rate=LEARNING_RATE)
    templates = synth.default_template_set(config.channels, config.gestures,
                                           separation=0.8)

    def blocked(reps: int, stream: str) -> Recording:
        script = synth.blocked_script(config.gestures, templates, repetitions=reps,
                                      seed=_child_seed(seed, stream))
        return synth.generate(script, templates, config)

    sessions = []
    for i in range(workload.sessions):
        stream = f"session-{i}"
        script = synth.balanced_sequence_script(
            config.gestures, templates, count=EVENTS_PER_SESSION,
            rng=cnn.derive_rng(seed, stream + "-order"),
            seed=_child_seed(seed, stream))
        sessions.append(synth.generate(script, templates, config))
    return Inputs(config=config,
                  calibration_recording=blocked(workload.calibrate_reps, "calibrate"),
                  training_recording=blocked(workload.train_reps, "train"),
                  sessions=sessions)


def fingerprint(inputs: Inputs) -> str:
    h = hashlib.sha256()
    for rec in [inputs.calibration_recording, inputs.training_recording,
                *inputs.sessions]:
        h.update(rec.samples.tobytes())
        h.update(repr(rec.annotations).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def calibrate_pass(inputs: Inputs, path: Path):
    """CSV write, read back, calibration segments and threshold.

    Returns the calibration and a timer holding the raw and scaled seconds.
    """
    config = inputs.config
    timer = stats.ScaledTimer()
    with timer.running("write", STREAM_WORK):
        io.write_recording(inputs.calibration_recording, path)
        timer.mark("read")
        back = io.read_recording(path, config.sample_rate,
                                 expected_channels=config.channels)
        timer.mark("calibrate")
        segments = pipeline.calibration_segments(back, config)
        cal = onset.calibrate_threshold(segments, config.threshold_multiplier,
                                        expected_gestures=config.gestures)
    return cal, timer


@dataclass
class TrainPass:
    model: cnn.CnnModel
    loaded: cnn.CnnModel
    check_maps: list[np.ndarray]
    maps: int
    timer: stats.ScaledTimer


def train_pass(inputs: Inputs, calibration, path: Path) -> TrainPass:
    """Extraction, normalization, SGD and a model container round trip."""
    config = inputs.config
    timer = stats.ScaledTimer()
    with timer.running("extract", STREAM_WORK):
        examples = pipeline.extract_training_set(inputs.training_recording, config)
        step = max(1, len(examples) // CHECK_MAPS)
        check_maps = [ex.map.data.copy() for ex in examples[::step][:CHECK_MAPS]]
        bounds = tma.fit_normalization(ex.map for ex in examples)
        for ex in examples:
            ex.map = dataclasses.replace(
                ex.map, data=tma.normalize_array(ex.map.data, bounds, config.channels))
        timer.mark("train", SGD_WORK)
        model = cnn.train(examples, config, bounds=bounds, calibration=calibration)
        timer.mark("model_io", STREAM_WORK)
        io.write_model(model, path)
        loaded = io.read_model(path)
    return TrainPass(model=model, loaded=loaded, check_maps=check_maps,
                     maps=len(examples), timer=timer)


QUIET, CLASSIFY, SUPPRESS = 0, 1, 2
PROBE_EVERY = 50  # strides between machine-speed probes


@dataclass
class ReplayPass:
    seconds: float
    samples: int
    strides: int
    times_ns: list[int] = field(default_factory=list)   # every timed stride, in order
    kinds: list[int] = field(default_factory=list)      # QUIET, CLASSIFY or SUPPRESS
    probe_at: list[int] = field(default_factory=list)   # index into times_ns
    probes: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in stats.PROBES})
    events: list[list[tuple]] = field(default_factory=list)  # per session
    failed_strides: int = 0
    errors: list[str] = field(default_factory=list)


def replay_pass(model: cnn.CnnModel, inputs: Inputs) -> ReplayPass:
    """Step a fresh engine over each session, timing every call (closed loop)."""
    config = inputs.config
    stride = config.map_stride
    out = ReplayPass(seconds=0.0, samples=0, strides=0)
    t0 = time.perf_counter()
    for rec in inputs.sessions:
        engine = Engine(model, config)
        events = []
        for batch in iter_batches(rec.samples, stride):
            if len(out.times_ns) % PROBE_EVERY == 0:
                out.probe_at.append(len(out.times_ns))
                for name, value in stats.read_probes(repeats=1).items():
                    out.probes[name].append(value)
            start = time.perf_counter_ns()
            try:
                event = engine.step(batch)
            except TmagestError as exc:
                out.failed_strides += 1
                out.errors.append(f"stride at sample {engine.samples_consumed}: {exc}")
                continue
            out.times_ns.append(time.perf_counter_ns() - start)
            if event is None:
                out.kinds.append(QUIET)
            elif isinstance(event, Prediction):
                out.kinds.append(CLASSIFY)
                events.append((event.n, "prediction", event.gesture))
            else:
                out.kinds.append(SUPPRESS)
                events.append((event.n, "suppressed", None))
        out.events.append(events)
        out.strides += rec.num_samples // stride
        out.samples += rec.num_samples - rec.num_samples % stride
    out.seconds = time.perf_counter() - t0
    return out


def score(inputs: Inputs, events_per_session) -> stats.Score:
    tolerance = int(round(pipeline.MATCH_TOLERANCE_S * inputs.config.sample_rate))
    total = stats.Score()
    for rec, events in zip(inputs.sessions, events_per_session):
        truths = [(a.n, a.gesture, a.phase == PHASE_FLEXION)
                  for a in rec.annotations
                  if a.phase in (PHASE_FLEXION, PHASE_RETURN)]
        total += stats.score_events(events, truths, tolerance)
    return total


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """What one run measured and checked.

    ``metrics`` maps a name to (value, unit, sample count).
    """

    metrics: dict[str, tuple[float, str, int]]
    events: list
    score: stats.Score
    shape: dict
    attempted: int
    failed: int
    errors: list[str]
    unscaled: dict


def _repeat(fn, least: int, seconds: float) -> list:
    results = []
    start = time.perf_counter()
    while len(results) < least or time.perf_counter() - start < seconds:
        results.append(fn())
    return results


def run_protocol(workload: Workload, seed: int, seconds: float, workdir: Path,
                 tracer=None) -> Run:
    """Set up, then run the three stages; the focus stage fills ``seconds``.

    With a tracer, set-up and every stage run exactly once inside stage spans
    and the checks' own calls into the program are left untraced.
    """
    traced = tracer is not None
    run_id = f"{workload.name}/seed={seed}"

    def stage(name):
        return tracer.span(f"stage.{name}", run=f"{run_id}/{name}") if traced else nullcontext()

    def passes(fn, name):
        least = 1 if traced else workload.passes[STAGES.index(name)]
        focus = not traced and workload.focus == name
        with stage(name):
            return _repeat(fn, least, seconds if focus else 0.0)

    check = tracer.paused if traced else nullcontext
    errors: list[str] = []
    attempted = failed = 0

    setup_s, inputs, first_print = [], None, None
    for _ in range(1 if traced else SETUP_REPEATS):
        with stage("setup"):
            timer = stats.ScaledTimer()
            with timer.running("setup", SETUP_WORK):
                inputs = make_inputs(workload, seed)
            setup_s.append((timer.total_scaled, timer.seconds["setup"]))
        printed = fingerprint(inputs)
        if first_print is not None and printed != first_print:
            errors.append("set-up from one seed gave different inputs")
        first_print = printed
    config = inputs.config

    # calibrate: the threshold after the CSV round trip must equal, bit for
    # bit, the one computed from the in-memory recording
    cal_passes = passes(lambda: calibrate_pass(inputs, workdir / "calibration.csv"),
                        "calibrate")
    with check():
        reference = onset.calibrate_threshold(
            pipeline.calibration_segments(inputs.calibration_recording, config),
            config.threshold_multiplier, expected_gestures=config.gestures).threshold
    for cal, _ in cal_passes:
        attempted += 1
        if cal.threshold.hex() != reference.hex():
            failed += 1
            errors.append(f"threshold after CSV round trip {cal.threshold!r} "
                          f"!= in-memory {reference!r}")
    calibration = cal_passes[0][0]

    # train: finite loss; the model read back predicts exactly as trained
    train_passes = passes(lambda: train_pass(inputs, calibration,
                                             workdir / "model.tma"), "train")
    for tp in train_passes:
        batches = math.ceil(tp.maps / config.batch_size) * config.epochs
        attempted += batches + 1
        loss = tp.model.metadata.final_loss
        if not math.isfinite(loss):
            failed += batches
            errors.append(f"training loss is {loss}")
        with check():
            same = all(cnn.predict(tp.model, m) == cnn.predict(tp.loaded, m)
                       for m in tp.check_maps)
        if not same:
            failed += 1
            errors.append("the model read back predicts differently")
    model = train_passes[0].loaded

    # replay: the same event stream on every pass, and the quality floors
    replays = passes(lambda: replay_pass(model, inputs), "replay")
    first = replays[0]
    for rp in replays:
        attempted += rp.strides
        failed += rp.failed_strides
        errors.extend(rp.errors[:5])
        if rp.events != first.events:
            a = {(i, e) for i, ev in enumerate(first.events) for e in ev}
            b = {(i, e) for i, ev in enumerate(rp.events) for e in ev}
            failed += len(a ^ b)
            errors.append(f"replay pass emitted {len(a ^ b)} events that differ "
                          f"from the first pass")
    sc = score(inputs, first.events)
    attempted += 1
    floors = [(sc.recall >= MIN_RECALL, f"onset recall {sc.recall:.4f} < {MIN_RECALL}"),
              (sc.false_positives_per_onset <= MAX_FALSE_POSITIVES_PER_ONSET,
               f"false positives per onset {sc.false_positives_per_onset:.4f} "
               f"> {MAX_FALSE_POSITIVES_PER_ONSET}"),
              (sc.accuracy >= MIN_ACCURACY,
               f"classification accuracy {sc.accuracy:.4f} < {MIN_ACCURACY}")]
    missed = [msg for ok, msg in floors if not ok]
    if missed:
        failed += 1
        errors.extend(missed)

    # Other load on a shared host slows the process in bursts. Every timing
    # is scaled to a reference machine speed by the probe readings taken
    # around and through it, at the elasticity of its work (see README.md).
    kinds = [np.asarray(rp.kinds) for rp in replays]
    raw = [np.asarray(rp.times_ns) / 1e3 for rp in replays]

    def scaled_strides(kind):
        return [stats.scale_to_reference(t, rp.probe_at, rp.probes[kind.probe], kind)
                for t, rp in zip(raw, replays)]

    scaled = scaled_strides(STRIDE_WORK)
    quiet = np.concatenate([t[k == QUIET] for t, k in zip(scaled, kinds)])
    quiet_p99 = [stats.percentile(w, 99) for t, k in zip(scaled, kinds)
                 for w in stats.windows(t, k == QUIET)]
    classify = np.concatenate([t[k == CLASSIFY] for t, k in
                               zip(scaled_strides(CLASSIFY_WORK), kinds)])
    strides = sum(t.size for t in scaled)
    step_s = sum(float(t.sum()) for t in scaled) / 1e6
    raw_quiet = np.concatenate([t[k == QUIET] for t, k in zip(raw, kinds)])
    raw_classify = np.concatenate([t[k == CLASSIFY] for t, k in zip(raw, kinds)])
    unscaled = {
        **{f"{name}_probe_us": float(np.median(np.concatenate([rp.probes[name]
                                                               for rp in replays])))
           for name in stats.PROBES},
        "setup_s": statistics.median(raw_s for _, raw_s in setup_s),
        "quiet_stride_us_p50": float(np.median(raw_quiet)),
        "classify_us_p95": float(np.percentile(raw_classify, 95)),
        "replay_samples_per_s": strides * config.map_stride
        / (sum(float(t.sum()) for t in raw) / 1e6),
        "train_maps_per_s": statistics.median(
            tp.maps * config.epochs / tp.timer.seconds["train"] for tp in train_passes),
        "train_wall_s": statistics.median(sum(tp.timer.seconds.values())
                                          for tp in train_passes),
        "calibrate_samples_per_s": statistics.median(
            inputs.calibration_recording.num_samples / sum(t.seconds.values())
            for _, t in cal_passes),
    }

    metrics: dict[str, tuple[float, str, int]] = {}

    def pct(name, values, p):
        try:
            metrics[name] = (stats.percentile(values, p), "us", len(values))
        except ValueError as exc:
            metrics[name] = (float("nan"), "us", len(values))
            errors.append(f"{name}: {exc}")

    metrics["setup_s"] = (statistics.median(scaled_s for scaled_s, _ in setup_s), "s",
                          len(setup_s))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
    metrics["replay_samples_per_s"] = (strides * config.map_stride / step_s, "1/s",
                                       strides)
    pct("quiet_stride_us_p50", quiet, 50)
    metrics["quiet_stride_us_p99"] = (
        statistics.median(quiet_p99) if quiet_p99 else float("nan"), "us", len(quiet_p99))
    pct("classify_us_p50", classify, 50)
    pct("classify_us_p95", classify, 95)
    metrics["onset_recall"] = (sc.recall, "ratio", sc.truths)
    metrics["false_positives_per_onset"] = (sc.false_positives_per_onset, "ratio",
                                            sc.truths)
    metrics["classification_accuracy"] = (sc.accuracy, "ratio", sc.flexions)
    metrics["train_maps_per_s"] = (
        statistics.median(tp.maps * config.epochs / tp.timer.scaled["train"]
                          for tp in train_passes), "1/s", len(train_passes))
    metrics["train_wall_s"] = (statistics.median(tp.timer.total_scaled
                                                 for tp in train_passes),
                               "s", len(train_passes))
    metrics["train_final_loss"] = (train_passes[0].model.metadata.final_loss,
                                   "nats", 1)
    metrics["calibrate_samples_per_s"] = (
        statistics.median(inputs.calibration_recording.num_samples / t.total_scaled
                          for _, t in cal_passes), "1/s", len(cal_passes))
    metrics["failed_ratio"] = (failed / attempted, "ratio", attempted)

    shape = {"strides": first.strides,
             "classifying_strides": first.kinds.count(CLASSIFY),
             "maps": train_passes[0].maps,
             "calibration_samples": inputs.calibration_recording.num_samples,
             "replay_samples": first.samples,
             "passes": dict(zip(STAGES, (len(cal_passes), len(train_passes),
                                         len(replays))))}
    return Run(metrics=metrics, events=first.events, score=sc, shape=shape,
               attempted=attempted, failed=failed, errors=errors, unscaled=unscaled)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def _engine_outcome(event):
    if event is None:
        return None
    return "engine.predictions" if isinstance(event, Prediction) else "engine.suppressed"


def _detector_outcome(hit):
    return None if hit is None else "onset.onsets_fired"


# Each public callable at the attribute its caller resolves.
TRACE_TARGETS = (
    (Engine, "step", "engine.step", _engine_outcome),
    (dsp.EnvelopeFilter, "process", "dsp.filter_process", None),
    (pipeline, "envelope_stream", "dsp.envelope_stream", None),
    (tma.FrameRing, "push_values", "tma.ring_push", None),
    (engine_mod, "feature_matrix", "tma.feature_matrix", None),
    (cnn, "normalize_array", "tma.normalize_array", None),
    (tma, "normalize_array", "tma.normalize_array", None),
    (tma, "fit_normalization", "tma.fit_normalization", None),
    (engine_mod, "difference", "onset.difference", None),
    (onset.OnsetDetector, "step", "onset.detector_step", _detector_outcome),
    (pipeline, "difference_series", "onset.difference_series", None),
    (onset, "calibrate_threshold", "onset.calibrate_threshold", None),
    (engine_mod, "predict", "cnn.predict", None),
    (cnn, "forward", "cnn.forward", None),
    (cnn, "batch_loss_and_gradients", "cnn.sgd_batch", None),
    (cnn, "train", "cnn.train", None),
    (pipeline, "extract_training_set", "pipeline.extract_training_set", None),
    (pipeline, "calibration_segments", "pipeline.calibration_segments", None),
    (io, "write_recording", "io.write_recording", None),
    (io, "read_recording", "io.read_recording", None),
    (io, "write_model", "io.write_model", None),
    (io, "read_model", "io.read_model", None),
    (synth, "generate", "synth.generate", None),
)

# (metric, unit, span, parent span or None, statistic); see tracing.aggregate.
# Totals cover one traced pass of every stage and one set-up.
LAYER_METRICS = (
    ("dsp.filter_process_us", "us", "dsp.filter_process", "engine.step", "median"),
    ("dsp.envelope_stream_s", "s", "dsp.envelope_stream", None, "total"),
    ("tma.ring_push_us", "us", "tma.ring_push", "engine.step", "median_per_parent"),
    ("tma.feature_matrix_us", "us", "tma.feature_matrix", "engine.step", "median"),
    ("tma.normalize_array_us", "us", "tma.normalize_array", "cnn.predict", "median"),
    ("tma.fit_normalization_s", "s", "tma.fit_normalization", None, "total"),
    ("tma.normalize_array_s", "s", "tma.normalize_array", "stage.train", "total"),
    ("onset.difference_us", "us", "onset.difference", None, "median"),
    ("onset.detector_step_us", "us", "onset.detector_step", None, "median"),
    ("onset.difference_series_s", "s", "onset.difference_series", None, "total"),
    ("onset.calibrate_threshold_ms", "ms", "onset.calibrate_threshold", None, "total"),
    ("cnn.predict_us", "us", "cnn.predict", None, "median"),
    ("cnn.forward_us", "us", "cnn.forward", "cnn.predict", "median"),
    ("cnn.sgd_batch_ms", "ms", "cnn.sgd_batch", None, "median"),
    ("cnn.batches", "count", "cnn.sgd_batch", None, "count"),
    ("cnn.train_prep_s", "s", "cnn.train", None, "total_self"),
    ("pipeline.extract_training_set_s", "s", "pipeline.extract_training_set", None,
     "total"),
    ("pipeline.calibration_segments_s", "s", "pipeline.calibration_segments", None,
     "total_self"),
    ("engine.step_self_us", "us", "engine.step", None, "median_self"),
    ("engine.strides", "count", "engine.step", None, "count"),
    ("io.write_recording_s", "s", "io.write_recording", None, "total"),
    ("io.read_recording_s", "s", "io.read_recording", None, "total"),
    ("io.write_model_ms", "ms", "io.write_model", None, "total"),
    ("io.read_model_ms", "ms", "io.read_model", None, "total"),
    ("synth.generate_s", "s", "synth.generate", None, "total"),
)
OUTCOME_COUNTS = ("engine.predictions", "engine.suppressed", "onset.onsets_fired")
END_TO_END = ("setup_s", "peak_rss_mb", "replay_samples_per_s", "quiet_stride_us_p50",
              "classify_us_p95",
              "onset_recall", "classification_accuracy", "train_maps_per_s",
              "train_wall_s", "train_final_loss", "calibrate_samples_per_s")
# End-to-end timings whose traced-minus-untraced difference is reported.
OVERHEAD_OF = ("setup_s", "replay_samples_per_s", "quiet_stride_us_p50",
               "classify_us_p50", "classify_us_p95",
               "train_maps_per_s", "train_wall_s", "calibrate_samples_per_s")
# Reported with the per-layer metrics: the first two are 0 on a healthy run,
# the last two do not repeat within a quarter from run to run (see README.md).
DEMOTED = ("failed_ratio", "false_positives_per_onset", "quiet_stride_us_p99",
           "classify_us_p50")


def layer_metrics(tracer, traced: Run, untraced: Run) -> dict:
    """Per-layer numbers from the spans, plus the tracing overhead."""
    spans = tracer.spans()
    out = {}
    for name, unit, span, parent, stat in LAYER_METRICS:
        value, count = tracing.aggregate(spans, span, stat, unit, parent)
        out[name] = (value, unit, count)
    for name in OUTCOME_COUNTS:
        out[name] = (float(tracer.outcomes[name]), "count", tracer.outcomes[name])
    out["onset.matched_ratio"] = (traced.score.matched_ratio, "ratio",
                                  traced.score.fired)
    for name in DEMOTED:
        out[name] = untraced.metrics[name]
    for name in OVERHEAD_OF:
        t_value, unit, count = traced.metrics[name]
        out[f"trace_overhead.{name}"] = (t_value - untraced.metrics[name][0], unit,
                                         count)
    return out
