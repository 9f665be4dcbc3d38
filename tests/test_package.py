import importlib
from pathlib import Path

import pytest

import tmagest
from conftest import run_python

# The per-sample object API that the block API replaced, the wrappers that
# only tests called, and the carrier's second block filter (EnvelopeFilter
# runs the band-pass).
DELETED = ("RawSample", "EnvelopeFrame", "rectify", "assemble_map",
           "build_feature_vector", "normalize", "zero_params",
           "write_difference_csv", "loss_and_gradients", "DifferencePoint",
           "block_filter")


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


def test_one_difference_signal():
    # the engine's front end forms the signal for calibration too; the
    # block series and its window view are gone from onset
    from tmagest import engine, onset
    for name in ("difference_series", "SERIES_BLOCK", "sliding_window_view",
                 "feature_matrix"):
        assert not hasattr(onset, name), name
    assert tmagest.difference_series is engine.difference_series


@pytest.mark.parametrize("module", ["tmagest", "tmagest.cli"])
def test_import_does_not_load_scipy(module):
    # scipy is a test oracle only; loading it costs about 1.3 s and 70 MiB
    code = f"import sys, {module}; print('scipy' in sys.modules)"
    assert run_python(code) == "False\n"


def test_synth_does_not_load_scipy(tmp_path):
    # the synthetic carrier's band-pass is designed and run in numpy
    out = tmp_path / "s.csv"
    code = ("import sys\nfrom tmagest.cli import main\n"
            f"rc = main(['synth', '--reps', '1', '--out', {str(out)!r}])\n"
            "print(rc, 'scipy' in sys.modules)")
    assert run_python(code).splitlines()[-1] == "0 False"
    assert out.stat().st_size > 0



def test_perfbench_traced_names_resolve(monkeypatch):
    # the benchmark's traced run wraps each (owner, attribute) of its
    # TRACE_TARGETS, looked up as tracing.Tracer.patched does; a function
    # moved or renamed here would fail that run, so it fails this test first
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    protocol = importlib.import_module("protocol")

    def lookup(owner, attr):
        if isinstance(owner, type):
            return owner.__dict__.get(attr)
        return getattr(owner, attr, None)

    missing = [name for owner, attr, name, _ in protocol.TRACE_TARGETS
               if not callable(lookup(owner, attr))]
    assert missing == []
