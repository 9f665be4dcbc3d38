import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tmagest
from tmagest.cnn import (
    CHUNK_MAPS,
    CONV1_GRAD_COLUMNS,
    PARAM_ORDER,
    SGD_DTYPE,
    CnnArchitecture,
    CnnModel,
    TrainingExample,
    _conv1_inputs,
    _conv1_kernel,
    _conv2_taps,
    _conv_forward,
    _conv_weights,
    _dense_backward,
    _dense_forward,
    _flatten,
    _pool_relu_argmax,
    _unpool,
    _windows,
    batch_loss_and_gradients,
    derive_rng,
    forward,
    forward_batch,
    initial_params,
    predict,
    train,
)
from tmagest.config import SessionConfig
from tmagest.errors import StructuralError, TrainingError, UsageError
from tmagest.tma import NormalizationBounds, TmaMap

from conftest import run_python, traced_peak

TINY = CnnArchitecture(input_rows=10, input_cols=12, conv1_filters=2,
                       conv2_filters=3, num_classes=3, fc1_units=7,
                       fc2_units=5)
# conv extents 11x15 and 3x5: every pooling drops a last row and column
ODD = CnnArchitecture(input_rows=13, input_cols=17, conv1_filters=2,
                      conv2_filters=3, num_classes=3, fc1_units=7,
                      fc2_units=5)


def zero_params(arch):
    return {name: np.zeros(shape) for name, shape in arch.param_shapes().items()}


def tiny_model(params=None, bounds=True, labels=("a", "b", "c")):
    return CnnModel(
        architecture=TINY,
        params=params if params is not None else zero_params(TINY),
        bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0) if bounds else None,
        labels=labels,
    )


def toy_config(**overrides):
    base = dict(
        channels=4, map_width=12, map_stride=6, refractory=12,
        extraction_width=4, gestures=("left", "right"),
        conv1_filters=2, conv2_filters=3, batch_size=8,
        learning_rate=0.05, epochs=25, seed=5,
    )
    base.update(overrides)
    return SessionConfig(**base)


def default_batch(dtype=np.float64):
    """A seeded 32-map batch at the default 44x80 architecture, whose conv
    GEMMs are large enough for OpenBLAS to split them across threads."""
    config = SessionConfig()
    arch = CnnArchitecture(config.feature_rows, config.map_width,
                           config.conv1_filters, config.conv2_filters,
                           len(config.gestures))
    rng = np.random.default_rng(2024)
    params = initial_params(arch, rng)
    x = rng.random((config.batch_size, arch.input_rows, arch.input_cols))
    y = rng.integers(0, arch.num_classes, config.batch_size)
    return (arch, {k: v.astype(dtype) for k, v in params.items()},
            x.astype(dtype), y)


def toy_dataset(rng, n_per_class=30):
    """Class decided by which half of the map is bright; rows=14 -> 4 channels."""
    examples = []
    for label, bright in (("left", slice(0, 6)), ("right", slice(6, 12))):
        for _ in range(n_per_class):
            data = rng.uniform(0.0, 0.15, (14, 12))
            data[:, bright] += 0.7
            examples.append(TrainingExample(
                map=TmaMap(end_index=0, data=np.clip(data, 0, 1)),
                label=label))
    return examples


class TestForward:
    def test_probabilities_sum_to_one(self, rng):
        model = tiny_model(initial_params(TINY, rng))
        probs = forward(model, rng.random((10, 12)))
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()

    def test_zero_model_is_uniform(self, rng):
        probs = forward(tiny_model(), rng.random((10, 12)))
        np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)

    def test_deterministic(self, rng):
        model = tiny_model(initial_params(TINY, rng))
        x = rng.random((10, 12))
        np.testing.assert_array_equal(forward(model, x), forward(model, x))

    def test_shape_mismatch(self, rng):
        with pytest.raises(StructuralError):
            forward(tiny_model(), rng.random((10, 13)))

    def test_softmax_shift_invariance(self, rng):
        params = initial_params(TINY, rng)
        x = rng.random((10, 12))
        base = forward(tiny_model(params), x)
        shifted = {k: v.copy() for k, v in params.items()}
        shifted["out_b"] = shifted["out_b"] + 17.5
        np.testing.assert_allclose(forward(tiny_model(shifted), x), base,
                                   atol=1e-12)

    def test_conv_translation(self, rng):
        # shifting the input right by two columns shifts the pooled first
        # conv layer by one column in the shared interior
        params = initial_params(TINY, rng)
        x = np.zeros((10, 12))
        x[:, 2:9] = rng.random((10, 7))
        x_shift = np.zeros((10, 12))
        x_shift[:, 2:] = x[:, :-2]
        h, w = TINY.pool1_shape
        weights = _conv_weights(params, TINY)
        a = _conv_forward(weights, TINY, x[None])["p1"].reshape(-1, h, w)
        b = _conv_forward(weights, TINY, x_shift[None])["p1"].reshape(-1, h, w)
        np.testing.assert_allclose(b[:, :, 1:], a[:, :, :-1], atol=1e-12)

    @pytest.mark.parametrize("arch", [TINY, ODD], ids=["even", "odd"])
    def test_single_map_equals_batch_row(self, rng, arch):
        model = CnnModel(architecture=arch, params=initial_params(arch, rng))
        maps = rng.random((2 * CHUNK_MAPS + 1, arch.input_rows, arch.input_cols))
        batch = forward_batch(model, maps)
        for i, m in enumerate(maps):
            np.testing.assert_allclose(forward(model, m), batch[i], rtol=0,
                                       atol=1e-12)


class TestLoss:
    def test_uniform_prediction_loss_is_log_g(self, rng):
        arch5 = CnnArchitecture(10, 12, 2, 3, 5, fc1_units=7, fc2_units=5)
        x = rng.random((4, 10, 12))
        loss, _ = batch_loss_and_gradients(zero_params(arch5), arch5, x,
                                           np.zeros(4, dtype=int))
        assert loss == pytest.approx(math.log(5), abs=1e-12)

    def test_confident_correct_prediction_loss_near_zero(self, rng):
        params = zero_params(TINY)
        params["out_b"] = np.array([30.0, 0.0, 0.0])
        loss, _ = batch_loss_and_gradients(params, TINY,
                                           rng.random((1, 10, 12)),
                                           np.array([0]))
        assert loss < 1e-9


def assert_gradients_match_central_differences(params, arch, x, y):
    _, grads = batch_loss_and_gradients(params, arch, x, y)
    eps = 1e-6
    for name, p in params.items():
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp, _ = batch_loss_and_gradients(params, arch, x, y)
            p[idx] = orig - eps
            lm, _ = batch_loss_and_gradients(params, arch, x, y)
            p[idx] = orig
            num = (lp - lm) / (2 * eps)
            ana = grads[name][idx]
            denom = max(abs(num), abs(ana), 1e-8)
            assert abs(num - ana) / denom < 1e-5, (name, idx)
            it.iternext()


def mask_chain_pool_backward(a, g):
    """Reference pool backward on ReLU'd (C, B, H, W) activations: a chain of
    four masks routes each window's gradient to its first maximum in
    row-major order, then the ReLU mask applies."""
    c, b, ho, wo = g.shape
    pooled = np.maximum(
        np.maximum(a[:, :, 0:2 * ho:2, 0:2 * wo:2], a[:, :, 0:2 * ho:2, 1:2 * wo:2]),
        np.maximum(a[:, :, 1:2 * ho:2, 0:2 * wo:2], a[:, :, 1:2 * ho:2, 1:2 * wo:2]))
    blocks = a[:, :, :ho * 2, :wo * 2].reshape(c, b, ho, 2, wo, 2)
    hit = blocks == pooled[:, :, :, None, :, None]
    hit[:, :, :, 0, :, 1] &= ~hit[:, :, :, 0, :, 0]
    taken = hit[:, :, :, 0, :, 0] | hit[:, :, :, 0, :, 1]
    hit[:, :, :, 1, :, 0] &= ~taken
    hit[:, :, :, 1, :, 1] &= ~(taken | hit[:, :, :, 1, :, 0])
    da = np.zeros_like(a)
    da[:, :, :ho * 2, :wo * 2] = (hit * g[:, :, :, None, :, None]).reshape(
        c, b, ho * 2, wo * 2)
    return da * (a > 0.0)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_analytic_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = initial_params(TINY, rng)
        x = rng.random((3, 10, 12))
        y = rng.integers(0, 3, 3)
        assert_gradients_match_central_differences(params, TINY, x, y)

    @pytest.mark.parametrize("batch", [1, CHUNK_MAPS + 1])
    def test_chunk_boundaries_with_odd_extents(self, batch):
        rng = np.random.default_rng(batch)
        params = initial_params(ODD, rng)
        x = rng.random((batch, ODD.input_rows, ODD.input_cols))
        y = rng.integers(0, 3, batch)
        assert_gradients_match_central_differences(params, ODD, x, y)

    @pytest.mark.parametrize("shape", [(4, 6), (5, 7)])
    def test_pool_ties_route_to_first_maximum(self, rng, shape):
        # few distinct values: most windows tie, some only at or below zero
        pre = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(3, 2, *shape))
        pooled_shape = (shape[0] // 2, shape[1] // 2)
        pooled, arg = _pool_relu_argmax(_windows(pre, pooled_shape))
        relu = np.maximum(pre, 0.0)
        g = rng.normal(size=pooled.shape)
        da = np.zeros_like(pre)
        _unpool(g * (pooled > 0.0), arg, _windows(da, pooled_shape))
        np.testing.assert_array_equal(da, mask_chain_pool_backward(relu, g))
        assert (arg > 0).any()


def chunked_conv_forward(params, arch, x):
    """The conv layers' training forward pass on one chunk of maps, with
    the kernels built for the chunk."""
    inputs = _conv1_inputs(x, arch)
    a1 = (_conv1_kernel(params) @ inputs).reshape(4, -1, inputs.shape[1])
    a1 += params["conv1_b"][:, None]
    p1, arg1 = _pool_relu_argmax(a1)
    taps = _conv2_taps(params, arch)
    a2 = taps[0][1] @ p1
    tmp = np.empty_like(a2)
    for s, k in taps[1:]:
        np.matmul(k, p1, out=tmp)
        a2.reshape(-1)[:-s] += tmp.reshape(-1)[s:]
    a2 += params["conv2_b"][:, None]
    p2, arg2 = _pool_relu_argmax(_windows(
        a2.reshape(a2.shape[0], -1, *arch.pool1_shape), arch.pool2_shape))
    return dict(inputs=inputs, p1=p1, arg1=arg1, p2=p2, arg2=arg2)


def chunked_conv_backward(params, arch, cache, dflat, grads):
    """Add one chunk's conv gradients into ``grads``, every array sized to
    the chunk."""
    p1, p2 = cache["p1"], cache["p2"]
    f1, f2 = p1.shape[0], p2.shape[0]
    dp2 = dflat.reshape(*p2.shape[1:], f2).transpose(3, 0, 1, 2) * (p2 > 0.0)
    grads["conv2_b"] += dp2.reshape(f2, -1).sum(axis=1)
    n = p1.shape[1]
    da2 = np.zeros((f2, n), dtype=dp2.dtype)
    _unpool(dp2, cache["arg2"],
            _windows(da2.reshape(f2, -1, *arch.pool1_shape), arch.pool2_shape))
    dp1 = np.zeros_like(p1)
    tmp = np.empty_like(p1)
    dk2 = np.empty((3, 3, f2, f1), dtype=p1.dtype)
    for (s, k), dk in zip(_conv2_taps(params, arch), dk2.reshape(9, f2, f1)):
        np.matmul(da2[:, :n - s], p1[:, s:].T, out=dk)
        np.matmul(k.T, da2, out=tmp)
        dp1.reshape(-1)[s:] += tmp.reshape(-1)[:tmp.size - s]
    grads["conv2_w"] += dk2.transpose(2, 3, 0, 1)
    dp1 *= p1 > 0.0
    grads["conv1_b"] += dp1.sum(axis=1)
    da1 = np.empty((4, f1, n), dtype=dp1.dtype)
    _unpool(dp1, cache["arg1"], da1)
    da1, inputs = da1.reshape(4 * f1, n), cache["inputs"]
    dk1 = np.zeros((4 * f1, 16), dtype=da1.dtype)
    for s in range(0, n, CONV1_GRAD_COLUMNS):
        cols = slice(s, s + CONV1_GRAD_COLUMNS)
        dk1 += da1[:, cols] @ inputs[:, cols].T
    dk1 = dk1.reshape(2, 2, f1, 4, 4)
    for pi in (0, 1):
        for pj in (0, 1):
            grads["conv1_w"][:, 0] += dk1[pi, pj, :, pi:pi + 3, pj:pj + 3]


def chunked_loss_and_gradients(params, arch, x, y_idx):
    """Reference SGD step: the conv layers run forward and backward on one
    chunk of CHUNK_MAPS maps at a time, and the chunks' gradients are added
    in chunk order."""
    bsz = x.shape[0]
    chunks = [slice(s, s + CHUNK_MAPS) for s in range(0, bsz, CHUNK_MAPS)]
    caches = [chunked_conv_forward(params, arch, x[c]) for c in chunks]
    flat = np.concatenate([_flatten(cache["p2"]) for cache in caches])
    a3, a4, log_probs = _dense_forward(params, flat)
    rows = np.arange(bsz)
    loss = float(-log_probs[rows, y_idx].mean())
    dlogits = np.exp(log_probs)
    dlogits[rows, y_idx] -= 1.0
    dlogits /= bsz
    grads = {}
    dflat = _dense_backward(params, flat, a3, a4, dlogits, grads)
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b"):
        grads[name] = np.zeros_like(params[name])
    for c, cache in zip(chunks, caches):
        chunked_conv_backward(params, arch, cache, dflat[c], grads)
    return loss, grads


class TestTiles:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 40),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    @example(batch=1, dtype=np.float32, seed=0)
    @example(batch=3, dtype=np.float64, seed=1)
    @example(batch=5, dtype=np.float32, seed=2)
    @example(batch=9, dtype=np.float64, seed=3)
    @example(batch=13, dtype=np.float32, seed=4)
    @example(batch=33, dtype=np.float64, seed=5)
    def test_tiled_step_gives_the_bits_of_chunked_steps(self, batch, dtype,
                                                        seed):
        # a tile of TILE_MAPS maps sums over each chunk of CHUNK_MAPS maps
        # apart, so partial tiles and partial chunks keep the chunked bits
        arch, _, _, _ = default_batch()
        rng = np.random.default_rng(seed)
        params = {k: v.astype(dtype)
                  for k, v in initial_params(arch, rng).items()}
        x = rng.random((batch, arch.input_rows, arch.input_cols)).astype(dtype)
        y = rng.integers(0, arch.num_classes, batch)
        loss, grads = batch_loss_and_gradients(params, arch, x, y)
        want_loss, want = chunked_loss_and_gradients(params, arch, x, y)
        assert loss.hex() == want_loss.hex()
        for name in PARAM_ORDER:
            assert grads[name].dtype == want[name].dtype, name
            assert grads[name].tobytes() == want[name].tobytes(), name


MIB = 1 << 20


class TestWorkingSet:
    # One default float32 step traced 5.57 MiB with chunk-sized arrays. A
    # tile's transient arrays are twice a chunk's; the step stays below
    # that by freeing fc1's input before the conv backward, and conv2's
    # output gradient before conv1's.
    STEP_PEAK = 5.6 * MIB
    # cnn.train holds its float32 weights, a batch and the last step's
    # batch and gradients beside a step: 8.0 MiB with chunk-sized arrays.
    TRAIN_PEAK = 8.1 * MIB

    @staticmethod
    def working_set(call):
        call()  # first-call set-up is not the working set
        return traced_peak(call)[1]

    def test_sgd_step(self):
        arch, params, x, y = default_batch(np.float32)
        peak = self.working_set(
            lambda: batch_loss_and_gradients(params, arch, x, y))
        assert peak < self.STEP_PEAK

    def test_train(self):
        config = SessionConfig()
        arch, _, _, _ = default_batch()
        rng = np.random.default_rng(7)
        labels = config.gestures
        examples = [TrainingExample(TmaMap(0, m), labels[i % len(labels)])
                    for i, m in enumerate(rng.random(
                        (2 * config.batch_size, arch.input_rows,
                         arch.input_cols)))]
        config = dataclasses.replace(config, epochs=1)
        peak = self.working_set(lambda: train(examples, config))
        assert peak < self.TRAIN_PEAK


class TestPrecision:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradients_keep_the_input_dtype(self, dtype):
        arch, params, x, y = default_batch(dtype)
        loss, grads = batch_loss_and_gradients(params, arch, x, y)
        assert isinstance(loss, float)
        assert {name: grads[name].dtype for name in PARAM_ORDER} == \
            {name: np.dtype(dtype) for name in PARAM_ORDER}

    def test_float32_gradients_match_float64(self):
        arch, params, x, y = default_batch(np.float64)
        loss64, grads64 = batch_loss_and_gradients(params, arch, x, y)
        arch, params, x, y = default_batch(np.float32)
        loss32, grads32 = batch_loss_and_gradients(params, arch, x, y)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for name in PARAM_ORDER:
            g64 = grads64[name]
            np.testing.assert_allclose(grads32[name], g64, rtol=1e-5,
                                       atol=1e-5 * np.abs(g64).max(),
                                       err_msg=name)

    def test_train_returns_float32_parameters(self, rng):
        model = train(toy_dataset(rng, n_per_class=5), toy_config(epochs=1))
        assert {p.dtype for p in model.params.values()} == {np.dtype(SGD_DTYPE)}

    def test_forward_runs_in_the_parameters_dtype(self, rng):
        params = initial_params(TINY, rng)
        maps = rng.random((2 * CHUNK_MAPS + 1, 10, 12))
        probs64 = forward_batch(tiny_model(params), maps)
        # float64 parameters give the reference result of the layers
        weights = _conv_weights(params, TINY)
        flat = np.stack([_conv_forward(weights, TINY, m[None])["p2"]
                         .transpose(1, 2, 3, 0).reshape(-1) for m in maps])
        a3 = np.maximum(flat @ params["fc1_w"] + params["fc1_b"], 0.0)
        a4 = np.maximum(a3 @ params["fc2_w"] + params["fc2_b"], 0.0)
        logits = a4 @ params["out_w"] + params["out_b"]
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert probs64.dtype == np.float64
        np.testing.assert_allclose(probs64, expected, rtol=1e-12, atol=1e-15)

        params32 = {k: v.astype(np.float32) for k, v in params.items()}
        probs32 = forward_batch(tiny_model(params32), maps)
        assert probs32.dtype == np.float32
        assert forward(tiny_model(params32), maps[0]).dtype == np.float32
        np.testing.assert_allclose(probs32, probs64, rtol=1e-5, atol=1e-6)
        # float32 maps do not change a float64 model's precision
        np.testing.assert_array_equal(
            forward_batch(tiny_model(params), maps.astype(np.float32)),
            forward_batch(tiny_model(params),
                          maps.astype(np.float32).astype(np.float64)))

    @pytest.mark.parametrize("dtypes", [
        {"fc1_w": np.float32},                      # mixed floats
        {name: np.float16 for name in PARAM_ORDER},
        {name: np.int64 for name in PARAM_ORDER},
        {name: np.dtype(">f8") for name in PARAM_ORDER},
    ], ids=["mixed", "float16", "int64", "big-endian"])
    def test_model_refuses_other_parameter_dtypes(self, rng, dtypes):
        params = initial_params(TINY, rng)
        for name, dtype in dtypes.items():
            params[name] = params[name].astype(dtype)
        with pytest.raises(StructuralError, match="one dtype, float32 or "
                           "float64"):
            tiny_model(params)


BLAS_THREAD_RUN = """
import dataclasses, hashlib
import numpy as np
from tmagest.cnn import (PARAM_ORDER, TrainingExample,
                         batch_loss_and_gradients, train)
from tmagest.config import SessionConfig
from tmagest.tma import TmaMap
from test_cnn import default_batch

for dtype in (np.float64, np.float32):
    arch, params, x, y = default_batch(dtype)
    _, grads = batch_loss_and_gradients(params, arch, x, y)
    print(*(hashlib.sha256(grads[name]).hexdigest() for name in PARAM_ORDER))
config = SessionConfig()
_, _, x, y = default_batch()
examples = [TrainingExample(TmaMap(0, m), config.gestures[i])
            for m, i in zip(x, y)]
model = train(examples, dataclasses.replace(config, epochs=2))
print(*(hashlib.sha256(model.params[name]).hexdigest() for name in PARAM_ORDER))
"""


def test_gradients_and_model_do_not_depend_on_blas_threads():
    # conv1's weight gradient sums over every column of a chunk; as one
    # GEMM, OpenBLAS summed it differently on one and two threads
    paths = [str(Path(tmagest.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent),
             *filter(None, [os.environ.get("PYTHONPATH")])]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        outputs.append(subprocess.run(
            [sys.executable, "-c", BLAS_THREAD_RUN], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


BLAS_THREAD_SIZES_RUN = """
import hashlib
import numpy as np
from tmagest.cnn import (PARAM_ORDER, CnnArchitecture,
                         batch_loss_and_gradients, initial_params)
from tmagest.config import SessionConfig

config = SessionConfig()
arch = CnnArchitecture(config.feature_rows, config.map_width,
                       config.conv1_filters, config.conv2_filters,
                       len(config.gestures))
rng = np.random.default_rng(2025)
params = {k: v.astype(np.float32)
          for k, v in initial_params(arch, rng).items()}
x = rng.random((64, arch.input_rows, arch.input_cols)).astype(np.float32)
y = rng.integers(0, arch.num_classes, 64)
for size in range(1, 65):
    loss, grads = batch_loss_and_gradients(params, arch, x[:size], y[:size])
    print(size, loss.hex(),
          *(hashlib.sha256(grads[name]).hexdigest() for name in PARAM_ORDER))
"""


def test_float32_gradients_do_not_depend_on_blas_threads_at_any_batch_size():
    # float64 batches of 33 maps or more took other bits on two threads,
    # from the dense layers on; training runs in float32
    outputs = [run_python(BLAS_THREAD_SIZES_RUN, OPENBLAS_NUM_THREADS=threads,
                          OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert len(outputs[0].splitlines()) == 64
    assert outputs[0] == outputs[1]


class TestTrain:
    def test_toy_separable_dataset_reaches_full_accuracy(self, rng):
        config = toy_config()
        dataset = toy_dataset(rng)
        model = train(dataset, config,
                      bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0))
        correct = sum(predict(model, ex.map.data)[0] == ex.label
                      for ex in dataset)
        assert correct == len(dataset)
        assert model.metadata.final_loss < 0.5

    def test_zero_epochs_gives_chance_accuracy(self, rng):
        config = toy_config(epochs=0)
        dataset = toy_dataset(rng, n_per_class=50)
        model = train(dataset, config,
                      bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0))
        correct = sum(predict(model, ex.map.data)[0] == ex.label
                      for ex in dataset)
        assert 0.2 <= correct / len(dataset) <= 0.8

    def test_same_seed_bitwise_identical(self, rng):
        config = toy_config(epochs=3)
        dataset = toy_dataset(rng, n_per_class=10)
        m1 = train(list(dataset), config)
        m2 = train(list(dataset), config)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_permutation_equivariance(self, rng):
        config = toy_config(epochs=3)
        dataset = toy_dataset(rng, n_per_class=10)
        m1 = train(list(dataset), config)
        shuffled = list(dataset)
        rng.shuffle(shuffled)
        m2 = train(shuffled, config)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_missing_class_rejected(self, rng):
        config = toy_config()
        dataset = [ex for ex in toy_dataset(rng, 5) if ex.label == "left"]
        with pytest.raises(TrainingError):
            train(dataset, config)

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train([], toy_config())

    def test_unknown_label_rejected(self, rng):
        dataset = toy_dataset(rng, 5)
        dataset[0] = TrainingExample(map=dataset[0].map, label="zzz")
        with pytest.raises(TrainingError, match="zzz"):
            train(dataset, toy_config())

    def test_epoch_loss_nonincreasing_on_separable_data(self, rng):
        losses = []
        config = toy_config(epochs=10)
        train(toy_dataset(rng), config,
              log_epoch=lambda e, loss: losses.append(loss))
        # allow tiny numeric wiggle between consecutive epochs
        assert all(b <= a * 1.02 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


class TestPredict:
    def test_tie_breaks_to_lowest_index(self, rng):
        # 14 rows = 4 channels, so the normalization split is well-defined
        arch = CnnArchitecture(14, 12, 2, 3, 3, fc1_units=7, fc2_units=5)
        model = CnnModel(architecture=arch, params=zero_params(arch),
                         bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0),
                         labels=("a", "b", "c"))
        label, conf = predict(model, rng.random((14, 12)))
        assert label == "a"
        assert conf == pytest.approx(1 / 3)

    def test_out_of_range_input_is_clamped(self, rng):
        config = toy_config(epochs=2)
        dataset = toy_dataset(rng, n_per_class=8)
        model = train(dataset, config,
                      bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0))
        wild = dataset[0].map.data * 1e6
        label, conf = predict(model, wild)
        assert label in config.gestures
        assert 0 < conf <= 1

    def test_memorized_exemplar_classified(self, rng):
        config = toy_config()
        dataset = toy_dataset(rng)
        model = train(dataset, config,
                      bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0))
        assert predict(model, dataset[0].map.data)[0] == dataset[0].label

    def test_argmax_stable_under_small_perturbation(self, rng):
        config = toy_config()
        dataset = toy_dataset(rng)
        model = train(dataset, config,
                      bounds=NormalizationBounds(0.0, 1.0, 0.0, 1.0))
        m = dataset[0].map.data
        base = predict(model, m)[0]
        for _ in range(5):
            jitter = np.clip(m + rng.normal(0, 0.01, m.shape), 0, 1)
            assert predict(model, jitter)[0] == base

    def test_unready_model_rejected(self, rng):
        model = tiny_model(bounds=False)
        with pytest.raises(UsageError):
            predict(model, rng.random((10, 12)))


class TestDeriveRng:
    def test_streams_are_stable_and_distinct(self):
        a1 = derive_rng(7, "init").random(4)
        a2 = derive_rng(7, "init").random(4)
        b = derive_rng(7, "shuffle").random(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)
