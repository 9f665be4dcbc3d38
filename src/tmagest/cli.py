"""Command-line surface tying the pipeline together.

Subcommands:
    synth      generate a labeled synthetic session (recording + annotations)
    calibrate  fit the onset threshold from labeled recordings
    train      extract windows, fit normalization, train, write a model file
    run        replay a recording (or stdin rows) through the engine, JSONL out
    eval       score a model against a labeled recording
    bench      latency of strides that classify and of strides that do not,
               one SGD step and the forward pass alone and batched

Configuration comes from an optional JSON file (--config) with individual
flag overrides on top.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import cnn, io, pipeline, synth
from .config import SessionConfig
from .engine import Engine, event_to_dict, iter_batches, run_replay
from .errors import TmagestError, UsageError
from .onset import ThresholdCalibration, calibrate_threshold
from .recording import Recording

_CONFIG_FLAGS = (
    ("--fs", "sample_rate", "sampling rate in Hz"),
    ("--channels", "channels", "electrode channel count"),
    ("--cutoff", "envelope_cutoff_hz", "envelope low-pass cutoff (Hz)"),
    ("--map-width", "map_width", "activation-map window (samples)"),
    ("--map-stride", "map_stride", "map evaluation stride (samples)"),
    ("--refractory", "refractory", "detection pause (samples)"),
    ("--extract-width", "extraction_width",
     "training maps per onset, from the onset on (samples)"),
    ("--threshold-multiplier", "threshold_multiplier", "calibration multiplier"),
    ("--conv1-filters", "conv1_filters", "first conv layer filters"),
    ("--conv2-filters", "conv2_filters", "second conv layer filters"),
    ("--batch-size", "batch_size", "SGD mini-batch size"),
    ("--learning-rate", "learning_rate", "SGD learning rate"),
    ("--epochs", "epochs", "SGD epochs"),
    ("--seed", "seed", "master seed"),
)

# `synth` flags that set a keyword of synth.default_template_set ("template")
# or of the script builders ("script"). Each is passed on only when given, so
# every default is the one the synth module declares.
_SYNTH_FLAGS = (
    ("--hold", "template", "hold_s", "hold seconds"),
    ("--rest", "script", "rest_s", "rest seconds"),
    ("--rise", "template", "rise_s", "rise seconds"),
    ("--fall", "template", "fall_s", "fall seconds"),
    ("--burst", "template", "burst_gain", "burst relative to the hold level"),
    ("--settle", "template", "settle_s", "burst settle seconds"),
    ("--compression", "script", "carrier_compression",
     "carrier amplitude compression exponent (1 = Gaussian)"),
    ("--lead", "script", "lead_s", "lead-in seconds"),
    ("--snr", "script", "snr_db", "hold SNR in dB"),
    ("--noise-floor", "script", "noise_floor", "rest noise amplitude"),
    ("--separation", "template", "separation", "max cosine of two gain patterns"),
)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file")
    types = get_type_hints(SessionConfig)
    for flag, dest, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=f"cfg_{dest}", type=types[dest],
                            default=None, help=help_text)
    parser.add_argument("--gestures", dest="cfg_gestures", default=None,
                        help="comma-separated gesture labels")


def _load_config(args: argparse.Namespace,
                 fallback: SessionConfig | None = None) -> SessionConfig:
    """File config if given, else the fallback (e.g. the one stored in a
    model file), else defaults; explicit flags override either."""
    if args.config:
        base = SessionConfig.load(args.config)
    elif fallback is not None:
        base = fallback
    else:
        base = SessionConfig()
    overrides = {dest: value for _, dest, _ in _CONFIG_FLAGS
                 if (value := getattr(args, f"cfg_{dest}")) is not None}
    if args.cfg_gestures is not None:
        overrides["gestures"] = tuple(
            g.strip() for g in args.cfg_gestures.split(",") if g.strip())
    return SessionConfig.from_dict({**base.to_dict(), **overrides}) \
        if overrides else base


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = config.seed if args.session_seed is None else args.session_seed
    given = {group: {key: getattr(args, key) for _, g, key, _ in _SYNTH_FLAGS
                     if g == group and key in args}
             for group in ("template", "script")}
    templates = synth.default_template_set(config.channels, config.gestures,
                                           **given["template"])
    common = dict(given["script"], seed=seed)
    if args.mode == "blocked":
        script = synth.blocked_script(config.gestures, templates,
                                      repetitions=args.reps, **common)
    else:
        rng = cnn.derive_rng(seed, "sequence")
        script = synth.balanced_sequence_script(config.gestures, templates,
                                                count=args.events, rng=rng,
                                                **common)
    recording = synth.generate(script, templates, config)
    io.write_recording(recording, args.out)
    print(f"wrote {recording.num_samples} samples "
          f"({recording.num_samples / config.sample_rate:.1f} s), "
          f"{len(recording.annotations)} annotations -> {args.out}")
    return 0


def _read_recordings(paths, config: SessionConfig) -> list[Recording]:
    return [io.read_recording(p, config.sample_rate,
                              expected_channels=config.channels)
            for p in paths]


def _calibration_from_recordings(recordings, config) -> ThresholdCalibration:
    segments = []
    for rec in recordings:
        segments.extend(pipeline.calibration_segments(rec, config))
    return calibrate_threshold(segments, config.threshold_multiplier,
                               expected_gestures=config.gestures)


def _print_calibration(cal: ThresholdCalibration) -> None:
    width = max(len(g) for g in cal.per_gesture_sigma) + 2
    for gesture in sorted(cal.per_gesture_sigma):
        print(f"{gesture:<{width}} sigma = {cal.per_gesture_sigma[gesture]:.6g}")
    print(f"threshold = {cal.multiplier:g} x mean(sigma) = {cal.threshold:.6g}")


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    recordings = _read_recordings(args.recordings, config)
    cal = _calibration_from_recordings(recordings, config)
    _print_calibration(cal)
    if args.out:
        io.write_calibration(cal, args.out)
        print(f"wrote calibration -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    recordings = _read_recordings(args.recordings, config)
    if args.calibration:
        calibration = io.read_calibration(args.calibration)
    else:
        calibration = _calibration_from_recordings(recordings, config)

    examples, bounds = pipeline.training_set(recordings, config)
    print(f"extracted {len(examples)} training maps from "
          f"{len(recordings)} recording(s)")
    epoch_start = time.perf_counter()

    def log_epoch(epoch, loss):
        nonlocal epoch_start
        now = time.perf_counter()
        print(f"epoch {epoch + 1:>3}/{config.epochs}: loss {loss:.6f} "
              f"({now - epoch_start:.1f} s)")
        epoch_start = now

    model = cnn.train(examples, config, bounds=bounds,
                      calibration=calibration, log_epoch=log_epoch)
    io.write_model(model, args.out)
    print(f"wrote model -> {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    model = io.read_model(args.model)
    config = _load_config(args, fallback=model.config)
    if args.no_suppression:
        config = dataclasses.replace(config, suppress_alternate_onsets=False)
    path = None if args.input == "-" else args.input
    with (open(path, "rb") if path else nullcontext(sys.stdin.buffer) as fh,
          io.named(path)):
        strides = io.read_strides(fh, config.channels, config.map_stride)
        # a file starts with its header, as for eval; a pipe, named or
        # stdin, need not
        if path and fh.seekable():
            io.read_header(fh, config.channels)
        for event in run_replay(strides, model, config, args.pacing):
            print(json.dumps(event_to_dict(
                event, include_timing=not args.no_timing)), flush=True)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = io.read_model(args.model)
    config = _load_config(args, fallback=model.config)
    [recording] = _read_recordings([args.input], config)
    report = pipeline.evaluate(model, recording, config)
    print(report.format_table())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report -> {args.report}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        raise UsageError(f"--iterations is {args.iterations}, need at least 1")
    model = io.read_model(args.model)
    config = _load_config(args, fallback=model.config)
    # Force the full classify path on every stride: threshold below any
    # difference value, refractory at its minimum, suppression off.
    bench_config = dataclasses.replace(config, refractory=config.map_stride,
                                       suppress_alternate_onsets=False)
    engine = Engine(model, bench_config, threshold=-1.0)
    # The first stride to classify is the first whose end has a difference
    # point and lies past the filter warm-up; the noise holds the strides
    # before it and --iterations more.
    first = max(config.map_width + config.map_stride - 1,
                config.warmup_samples)
    strides = first // config.map_stride + args.iterations
    rng = np.random.default_rng(config.seed)
    noise = rng.normal(size=(config.map_stride * strides, config.channels))
    timings = []
    for batch in iter_batches(noise, config.map_stride):
        event = engine.step(batch)
        if event is not None:
            timings.append(event.compute_micros)
    timings = np.array(timings)
    budget_us = config.map_stride / config.sample_rate * 1e6
    # Second pass over the same noise with a threshold nothing crosses: every
    # stride is quiet (filter, ring, the stride's own feature columns and
    # difference terms, the window sum and the detector; no full map).
    quiet_engine = Engine(model, config, threshold=float("inf"))
    quiet = []
    for batch in iter_batches(noise, config.map_stride):
        start = time.perf_counter_ns()
        quiet_engine.step(batch)
        quiet.append((time.perf_counter_ns() - start) / 1000.0)
    quiet = np.array(quiet[-args.iterations:])
    # The network alone on seeded random maps: one SGD step of batch_size
    # maps in training's precision, and the forward cost per map alone and
    # in a batch of 256.
    arch = model.architecture
    maps = rng.random((256, arch.input_rows, arch.input_cols))
    labels = rng.integers(0, arch.num_classes, maps.shape[0])
    size = config.batch_size
    sgd_params = {name: p.astype(cnn.SGD_DTYPE)
                  for name, p in model.params.items()}
    sgd_maps = maps[:size].astype(cnn.SGD_DTYPE)
    sgd_us = _median_us(lambda: cnn.batch_loss_and_gradients(
        sgd_params, arch, sgd_maps, labels[:size]), repeats=5)
    single_us = _median_us(lambda: cnn.forward(model, maps[0]), repeats=50)
    batched_us = _median_us(lambda: cnn.forward_batch(model, maps), repeats=3)

    report = {
        "predictions": int(timings.size),
        "mean_us": float(timings.mean()),
        "p50_us": float(np.percentile(timings, 50)),
        "p95_us": float(np.percentile(timings, 95)),
        "max_us": float(timings.max()),
        "stride_budget_us": budget_us,
        "budget_share": float(timings.mean() / budget_us),
        "quiet_strides": int(quiet.size),
        "quiet_p50_us": float(np.percentile(quiet, 50)),
        "quiet_p95_us": float(np.percentile(quiet, 95)),
        "sgd_batch_size": size,
        "sgd_step_ms": sgd_us / 1000,
        "forward_us_per_map": single_us,
        "forward_batch_size": maps.shape[0],
        "forward_batched_us_per_map": batched_us / maps.shape[0],
    }
    if args.json:
        print(json.dumps(report))
        return 0
    r = report
    print(f"predictions: {r['predictions']}")
    print(f"mean  {r['mean_us']:10.1f} us")
    print(f"p50   {r['p50_us']:10.1f} us")
    print(f"p95   {r['p95_us']:10.1f} us")
    print(f"max   {r['max_us']:10.1f} us")
    print(f"stride budget {r['stride_budget_us']:.0f} us; "
          f"mean uses {r['budget_share'] * 100:.1f}% of it")
    print(f"quiet strides: {r['quiet_strides']}")
    print(f"quiet p50 {r['quiet_p50_us']:10.1f} us")
    print(f"quiet p95 {r['quiet_p95_us']:10.1f} us")
    print(f"sgd batch {r['sgd_batch_size']} "
          f"{r['sgd_step_ms']:10.2f} ms fwd+bwd")
    print(f"forward B=1   {r['forward_us_per_map']:10.1f} us/map")
    print(f"forward B={r['forward_batch_size']} "
          f"{r['forward_batched_us_per_map']:10.1f} us/map")
    return 0


def _median_us(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        call()
        times.append((time.perf_counter_ns() - start) / 1000.0)
    return float(np.median(times))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmagest",
        description="Real-time sEMG gesture recognition with activation maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic session")
    _add_config_args(p)
    p.add_argument("--out", required=True, type=Path, help="recording CSV path")
    p.add_argument("--mode", choices=("blocked", "sequence"), default="blocked")
    p.add_argument("--reps", type=int, default=20,
                   help="repetitions per gesture (blocked mode)")
    p.add_argument("--events", type=int, default=150,
                   help="total events (sequence mode)")
    for flag, _, key, help_text in _SYNTH_FLAGS:
        p.add_argument(flag, dest=key, type=float, default=argparse.SUPPRESS,
                       help=help_text)
    p.add_argument("--session-seed", type=int, default=None,
                   help="noise seed (defaults to config seed)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="fit the onset threshold")
    _add_config_args(p)
    p.add_argument("--recording", dest="recordings", action="append",
                   required=True, type=Path,
                   help="labeled recording (repeatable)")
    p.add_argument("--out", type=Path, default=None, help="calibration JSON")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("train", help="extract, normalize, train, save model")
    _add_config_args(p)
    p.add_argument("--recording", dest="recordings", action="append",
                   required=True, type=Path,
                   help="labeled recording (repeatable)")
    p.add_argument("--calibration", type=Path, default=None,
                   help="calibration JSON (default: calibrate from the "
                        "training recordings)")
    p.add_argument("--out", required=True, type=Path, help="model file path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="stream a recording through the engine")
    _add_config_args(p)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--input", required=True,
                   help="recording CSV path, or - for stdin rows")
    p.add_argument("--pacing", choices=("fast", "realtime"), default="fast")
    p.add_argument("--no-suppression", action="store_true",
                   help="classify every onset (no return-onset exemption)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit compute_us from output (byte-reproducible)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="score a model on a labeled recording")
    _add_config_args(p)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--report", type=Path, default=None, help="report JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="latency of one stride, an SGD step "
                       "and the forward pass")
    _add_config_args(p)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--json", action="store_true",
                   help="print the numbers as one JSON object")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TmagestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
