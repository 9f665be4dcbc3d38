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
