import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmagest

# The per-sample object API that the block API replaced, and the wrappers
# that only tests called.
DELETED = ("RawSample", "EnvelopeFrame", "rectify", "assemble_map",
           "build_feature_vector", "normalize", "zero_params",
           "write_difference_csv", "loss_and_gradients", "DifferencePoint")


def test_every_exported_name_resolves():
    for name in tmagest.__all__:
        assert getattr(tmagest, name) is not None, name
    assert len(set(tmagest.__all__)) == len(tmagest.__all__)


def test_per_sample_api_is_gone():
    from tmagest import cnn, dsp, io, onset, tma
    for name in DELETED:
        assert name not in tmagest.__all__
        for module in (tmagest, cnn, dsp, io, onset, tma):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(dsp.EnvelopeFilter, "filter_step")
    assert not hasattr(dsp.EnvelopeFilter, "reset")
    assert not hasattr(tma.FrameRing, "push")
    assert not hasattr(tma.FrameRing, "newest_index")


@pytest.mark.parametrize("module", ["tmagest", "tmagest.cli"])
def test_import_does_not_load_scipy(module):
    # scipy shapes only the synthetic carrier, and loading it is most of
    # the CLI's start-up time, so it loads on first use
    src = str(Path(tmagest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = f"import sys, {module}; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
