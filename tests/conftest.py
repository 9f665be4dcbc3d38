import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: a second one slows the small GEMMs of the SGD step while
# doubling the CPU the suite takes. Read when numpy loads, so set before it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from tmagest import cnn, synth
from tmagest.config import SessionConfig
from tmagest.onset import calibrate_threshold
from tmagest.pipeline import calibration_segments, training_set

SMALL_CONFIG_KWARGS = dict(
    sample_rate=200.0,
    channels=4,
    envelope_cutoff_hz=2.0,
    map_width=40,
    map_stride=10,
    refractory=150,
    extraction_width=60,
    gestures=("grip", "point", "spread"),
    conv1_filters=3,
    conv2_filters=4,
    batch_size=16,
    learning_rate=0.05,
    epochs=8,
    seed=11,
)


@pytest.fixture
def config():
    return SessionConfig()


@pytest.fixture
def small_config():
    """Scaled-down pipeline for fast end-to-end tests."""
    return SessionConfig(**SMALL_CONFIG_KWARGS)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def run_python(code: str, **env) -> str:
    """Standard output of ``code`` run in a fresh interpreter on the sources
    of this checkout, with ``env`` added to the environment."""
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def traced_peak(call):
    """``(call(), the peak bytes that tracemalloc traced during the call)``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reframe_header(blob, change):
    """The bytes of a model after ``change(header)`` edits its header."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len])
    change(header)
    text = json.dumps(header).encode("utf-8")
    return (blob[:8] + struct.pack("<I", len(text)) + text
            + blob[12 + header_len:])


def rewrite_header(path, change):
    """Re-frame a written model after ``change(header)`` edits its header."""
    path.write_bytes(reframe_header(path.read_bytes(), change))


def make_templates(config, hold_s=1.2):
    """Templates with transitions short enough for the small map window."""
    return synth.default_template_set(config.channels, config.gestures,
                                      separation=0.9, hold_s=hold_s,
                                      rise_s=0.025, settle_s=0.05, fall_s=0.05)


@pytest.fixture(scope="session")
def trained_setup():
    """One small synthetic session trained end to end, shared read-only."""
    config = SessionConfig(**SMALL_CONFIG_KWARGS)
    templates = make_templates(config)
    train_script = synth.blocked_script(config.gestures, templates,
                                        repetitions=4, rest_s=1.5,
                                        lead_s=2.0, seed=211)
    train_rec = synth.generate(train_script, templates, config)
    segments = calibration_segments(train_rec, config)
    calibration = calibrate_threshold(segments, config.threshold_multiplier,
                                      expected_gestures=config.gestures)
    examples, bounds = training_set([train_rec], config)
    model = cnn.train(examples, config, bounds=bounds,
                      calibration=calibration)
    eval_script = synth.balanced_sequence_script(
        config.gestures, templates, count=9,
        rng=cnn.derive_rng(config.seed, "eval-sequence"),
        rest_s=1.5, lead_s=2.0, seed=311)
    eval_rec = synth.generate(eval_script, templates, config)
    return SimpleNamespace(config=config, templates=templates,
                           calibration=calibration, model=model,
                           train_recording=train_rec,
                           eval_recording=eval_rec,
                           eval_script=eval_script)
