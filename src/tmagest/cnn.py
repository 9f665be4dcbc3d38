"""From-scratch convolutional classifier for activation maps.

Architecture: two valid (unpadded) 3x3 convolution layers, each followed by
ReLU and 2x2 max pooling, then two fully connected ReLU layers and a softmax
output. For the default 44x80 maps with 8 and 16 filters the shapes run::

    44x80 -> conv 42x78x8 -> pool 21x39x8 -> conv 19x37x16 -> pool 9x18x16
          -> flatten 2592 -> fc 100 -> fc 20 -> softmax over classes

Everything is plain numpy. Training runs SGD in float32, and the trained
model keeps its float32 weights. A model's precision is the one dtype of its
parameters, float32 or float64: the forward pass runs in it, while the maps
and everything before the network stay 64-bit. The layers take their dtype
from their inputs, so one step serves both precisions. conv1 is one GEMM
over the 4x4 input patch of each pooling window, conv2 is nine GEMMs on
shifted views of its input, and max pooling routes gradients to the first
maximum of each window through a stored argmax. An SGD step runs the conv
layers in tiles of eight maps, one numpy call per layer for the tile, and
takes every sum over maps per chunk of four, so a tile gives the bits of two
chunks run apart. Training is plain SGD over seeded shuffled mini-batches;
identical seeds give bit-identical models, on one BLAS thread or more.
Gradients are exact, which the finite-difference tests check in float64.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import SessionConfig, check_field_types
from .errors import StructuralError, TrainingError, UsageError
from .onset import ThresholdCalibration
from .tma import NormalizationBounds, TmaMap, channels_for_rows, normalize_array

PARAM_ORDER = (
    "conv1_w", "conv1_b", "conv2_w", "conv2_b",
    "fc1_w", "fc1_b", "fc2_w", "fc2_b", "out_w", "out_b",
)

# The precision of SGD: batches, weights and gradients during training.
SGD_DTYPE = np.float32


def derive_rng(seed: int, stream: str) -> np.random.Generator:
    """Child generator for one named consumer of the master seed."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode("utf-8"))])


@dataclass(frozen=True)
class CnnArchitecture:
    """Layer sizing; all downstream shapes derive from these fields."""

    input_rows: int
    input_cols: int
    conv1_filters: int
    conv2_filters: int
    num_classes: int
    kernel: int = 3
    fc1_units: int = 100
    fc2_units: int = 20

    def __post_init__(self):
        check_field_types(self)
        if self.kernel != 3:
            raise StructuralError("only 3x3 kernels are supported")
        h, w = self.pool2_shape
        if h < 1 or w < 1:
            raise StructuralError(
                f"input {self.input_rows}x{self.input_cols} too small for "
                "two conv+pool stages"
            )
        for name in ("conv1_filters", "conv2_filters", "num_classes",
                     "fc1_units", "fc2_units"):
            if getattr(self, name) < 1:
                raise StructuralError(f"{name} must be >= 1")

    @property
    def conv1_shape(self) -> tuple[int, int]:
        return self.input_rows - 2, self.input_cols - 2

    @property
    def pool1_shape(self) -> tuple[int, int]:
        h, w = self.conv1_shape
        return h // 2, w // 2

    @property
    def conv2_shape(self) -> tuple[int, int]:
        h, w = self.pool1_shape
        return h - 2, w - 2

    @property
    def pool2_shape(self) -> tuple[int, int]:
        h, w = self.conv2_shape
        return h // 2, w // 2

    @property
    def flat_size(self) -> int:
        h, w = self.pool2_shape
        return h * w * self.conv2_filters

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {
            "conv1_w": (self.conv1_filters, 1, 3, 3),
            "conv1_b": (self.conv1_filters,),
            "conv2_w": (self.conv2_filters, self.conv1_filters, 3, 3),
            "conv2_b": (self.conv2_filters,),
            "fc1_w": (self.flat_size, self.fc1_units),
            "fc1_b": (self.fc1_units,),
            "fc2_w": (self.fc1_units, self.fc2_units),
            "fc2_b": (self.fc2_units,),
            "out_w": (self.fc2_units, self.num_classes),
            "out_b": (self.num_classes,),
        }


@dataclass
class TrainingMetadata:
    seed: int
    epochs: int
    learning_rate: float
    batch_size: int
    final_loss: float

    def __post_init__(self):
        # train records a NaN loss when no epoch ran
        untrained = (self.epochs == 0 and isinstance(self.final_loss, float)
                     and math.isnan(self.final_loss))
        check_field_types(self, skip=("final_loss",) if untrained else ())


@dataclass
class CnnModel:
    """Weights plus everything inference needs alongside them.

    ``config`` is the session configuration the model was trained under;
    carrying it makes a model file self-sufficient for streaming (the
    envelope filter, map geometry, and threshold all reconstruct from it).
    """

    architecture: CnnArchitecture
    params: dict[str, np.ndarray]
    bounds: NormalizationBounds | None = None
    labels: tuple[str, ...] | None = None
    calibration: ThresholdCalibration | None = None
    metadata: TrainingMetadata | None = None
    config: SessionConfig | None = None

    def __post_init__(self):
        shapes = self.architecture.param_shapes()
        missing = set(shapes) - set(self.params)
        if missing:
            raise StructuralError(f"model is missing parameters: {sorted(missing)}")
        for name, shape in shapes.items():
            got = self.params[name].shape
            if got != shape:
                raise StructuralError(
                    f"parameter {name} has shape {got}, expected {shape}"
                )
        dtypes = {self.params[name].dtype for name in shapes}
        if len(dtypes) != 1 or not dtypes <= {np.dtype(np.float32),
                                              np.dtype(np.float64)}:
            raise StructuralError(
                "parameters must share one dtype, float32 or float64, got "
                f"{sorted(map(str, dtypes))}")
        if self.labels is not None:
            if not isinstance(self.labels, (list, tuple)) or not all(
                    isinstance(label, str) for label in self.labels):
                raise StructuralError(
                    f"labels must be a list of strings, got {self.labels!r}")
            self.labels = tuple(self.labels)
            if len(self.labels) != self.architecture.num_classes:
                raise StructuralError(
                    f"{len(self.labels)} labels for "
                    f"{self.architecture.num_classes} classes"
                )

    def require_ready(self) -> None:
        if self.bounds is None or self.labels is None:
            raise UsageError(
                "model has no normalization bounds / label table; train or "
                "load a complete model before predicting"
            )


@dataclass
class TrainingExample:
    """One normalized activation map with its gesture label."""

    map: TmaMap
    label: str


def initial_params(arch: CnnArchitecture, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-uniform weights (limit sqrt(6 / fan_in)), zero biases."""
    params: dict[str, np.ndarray] = {}
    for name, shape in arch.param_shapes().items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
            continue
        fan_in = int(np.prod(shape[1:])) if name.startswith("conv") else shape[0]
        limit = np.sqrt(6.0 / fan_in)
        params[name] = rng.uniform(-limit, limit, size=shape)
    return params


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------
# On the 44x80 maps every layer is memory-bound, so the layout is chosen to
# avoid passes over activation-sized arrays:
# - conv activations are channel-major, (C, B*h*w), so bias, ReLU and
#   reductions run along long contiguous rows; only the (B, h*w*C) flat
#   vector of the dense layers is channels-last;
# - conv1 is evaluated separately at the four positions of each 2x2 pooling
#   window, so pooling is an elementwise max over four arrays and the
#   row/column that pooling drops is never computed;
# - conv2 is nine GEMMs on flat-shifted views of its input (Anderson et al.,
#   "Low-memory GEMM-based convolution algorithms for deep neural networks",
#   arXiv:1709.03395), computed on the whole pooled grid and then sliced;
# - ReLU masks and conv bias gradients are taken at pooled resolution, which
#   is exact: a window's first maximum equals its pooled value, and a window
#   whose maximum is not positive passes no gradient.

# The conv layers of an SGD step work in tiles of TILE_MAPS maps. Every sum
# whose bits depend on how many maps it covers (the bias sums, conv2's
# weight-gradient GEMMs, conv1's weight-gradient blocks and the accumulation
# into the gradients) runs per chunk of CHUNK_MAPS maps, on column slices of
# the tile's arrays. The rest (conv1's patches and GEMM, conv2's tap GEMMs
# and shifted adds, pooling, ReLU masks, unpooling) sums across no maps and
# runs once per tile. So a tile gives the bits of its chunks run apart and
# pays each numpy call's fixed cost once for two chunks; sums over 8-map
# chunks would change every model's bytes. On a 2-core Xeon with OpenBLAS on
# one thread, tiles of 4, 8, 12 and 16 maps took 1.00, 0.98, 1.13 and 1.21
# times as long per float32 32-map step (medians of 300 interleaved steps).
CHUNK_MAPS = 4
TILE_MAPS = 2 * CHUNK_MAPS

# Columns per GEMM of conv1's weight gradient, summed in a fixed order. One
# GEMM over a whole chunk's columns (a long inner dimension, 3276 at 44x80)
# gave different bits on one and two OpenBLAS threads; blocks of this many
# columns give the same bits on both.
CONV1_GRAD_COLUMNS = 512


def _conv1_inputs(x: np.ndarray, arch: CnnArchitecture) -> np.ndarray:
    """(B, H, W) maps -> (16, B*h*w) inputs of conv1, (h, w) = pool1 shape.

    Row 4u + v holds x[b, 2i+u, 2j+v]: the 4x4 input patch of pooling window
    (i, j), which covers the 3x3 patches of its four conv1 outputs. The view
    reads at most row 2h+1 <= H-1 and column 2w+1 <= W-1.
    """
    b = x.shape[0]
    if x.shape[1:] != (arch.input_rows, arch.input_cols):
        raise StructuralError(
            f"map shape {x.shape[1:]} does not match architecture "
            f"({arch.input_rows}, {arch.input_cols})"
        )
    h, w = arch.pool1_shape
    sb, sr, sc = x.strides
    patches = as_strided(x, (4, 4, b, h, w), (sr, sc, sb, 2 * sr, 2 * sc),
                         writeable=False)
    return np.ascontiguousarray(patches).reshape(16, -1)


def _conv1_kernel(params) -> np.ndarray:
    """conv1 weights as a (4*f1, 16) matrix over _conv1_inputs' rows.

    Row block k = 2*pi + pj is the 3x3 kernel placed at offset (pi, pj) of
    the 4x4 patch, i.e. conv1 at position k of every pooling window.
    """
    w = params["conv1_w"][:, 0]
    k = np.zeros((2, 2, w.shape[0], 4, 4), dtype=w.dtype)
    for pi in (0, 1):
        for pj in (0, 1):
            k[pi, pj, :, pi:pi + 3, pj:pj + 3] = w
    return k.reshape(-1, 16)


def _conv2_taps(params, arch: CnnArchitecture):
    """conv2's nine (flat shift, (f2, f1) kernel slice) pairs on p1's grid."""
    w = arch.pool1_shape[1]
    k = np.ascontiguousarray(params["conv2_w"].transpose(2, 3, 0, 1))
    return [(di * w + dj, k[di, dj]) for di in range(3) for dj in range(3)]


class ConvWeights(NamedTuple):
    """The conv layers' weights in the layouts their GEMMs read, built once
    per step or forward pass."""

    conv1: np.ndarray
    conv1_b: np.ndarray
    conv2_taps: list
    conv2_b: np.ndarray


def _conv_weights(params, arch: CnnArchitecture) -> ConvWeights:
    return ConvWeights(_conv1_kernel(params), params["conv1_b"],
                       _conv2_taps(params, arch), params["conv2_b"])


def _conv1(weights: ConvWeights, inputs: np.ndarray) -> np.ndarray:
    """conv1 pre-activations at the four window positions: (4, f1, B*h*w)."""
    a = (weights.conv1 @ inputs).reshape(4, -1, inputs.shape[1])
    a += weights.conv1_b[:, None]
    return a


def _conv2(weights: ConvWeights, arch: CnnArchitecture,
           p1: np.ndarray) -> np.ndarray:
    """conv2 pre-activations on the whole pooled grid: (f2, B, h, w).

    Tap s adds column r + s of ``K_s @ p1`` to column r. Columns inside the
    valid (h-2, w-2) corner of each map read only that map; the others hold
    sums across map and row edges and are never pooled. The shifted adds run
    on the flattened arrays, where they are one contiguous pass each.
    """
    taps = weights.conv2_taps
    out = taps[0][1] @ p1
    tmp = np.empty_like(out)
    flat_out, flat_tmp = out.reshape(-1), tmp.reshape(-1)
    for s, k in taps[1:]:
        np.matmul(k, p1, out=tmp)
        flat_out[:-s] += flat_tmp[s:]
    out += weights.conv2_b[:, None]
    return out.reshape(out.shape[0], -1, *arch.pool1_shape)


def _windows(a: np.ndarray, pooled_shape: tuple[int, int]) -> list[np.ndarray]:
    """The four positions of the 2x2 pooling windows of a (C, B, H, W) grid."""
    h, w = pooled_shape
    return [a[:, :, pi:2 * h:2, pj:2 * w:2] for pi in (0, 1) for pj in (0, 1)]


def _pool_relu(views) -> np.ndarray:
    """ReLU of the window maxima (max and ReLU commute)."""
    a, b, c, d = views
    pooled = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return np.maximum(pooled, 0.0, out=pooled)


def _pool_relu_argmax(views):
    """ReLU'd window maxima and the int8 position of each window's first
    maximum in row-major order, where the backward pass routes gradients."""
    a, b, c, d = views
    right = b > a                     # a later position wins only if greater
    lower_right = d > c
    top = np.maximum(a, b)
    bottom = np.maximum(c, d)
    lower = bottom > top
    pooled = np.maximum(top, bottom, out=top)
    np.maximum(pooled, 0.0, out=pooled)
    right ^= (right ^ lower_right) & lower
    arg = lower.view(np.int8) << 1
    arg |= right.view(np.int8)
    return pooled, arg


def _unpool(g: np.ndarray, arg: np.ndarray, views) -> None:
    """Write each window's gradient to its recorded position in ``views``."""
    for k, v in enumerate(views):
        np.multiply(g, arg == k, out=v)


def _flatten(p2: np.ndarray) -> np.ndarray:
    """(f2, B, h, w) -> the (B, h*w*f2) channels-last input of fc1."""
    return p2.transpose(1, 2, 3, 0).reshape(p2.shape[1], -1)


def _dense_forward(params, flat: np.ndarray):
    """fc1, fc2 and the output layer; returns (a3, a4, log_probs)."""
    a3 = flat @ params["fc1_w"] + params["fc1_b"]
    np.maximum(a3, 0.0, out=a3)
    a4 = a3 @ params["fc2_w"] + params["fc2_b"]
    np.maximum(a4, 0.0, out=a4)
    logits = a4 @ params["out_w"] + params["out_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return a3, a4, log_probs


def _tiles(n: int) -> list[slice]:
    return [slice(s, s + TILE_MAPS) for s in range(0, n, TILE_MAPS)]


def _conv_forward(weights: ConvWeights, arch: CnnArchitecture,
                  x: np.ndarray) -> dict:
    """Training forward pass of the conv layers on a (B, rows, cols) tile.

    Keeps conv1's (16, B*h*w) input patches, which its weight gradient reads
    again, and otherwise only pooled-resolution arrays: p1 (f1, B*h*w),
    p2 (f2, B, h, w) and the window positions of both pools.
    """
    inputs = _conv1_inputs(x, arch)
    p1, arg1 = _pool_relu_argmax(_conv1(weights, inputs))
    p2, arg2 = _pool_relu_argmax(
        _windows(_conv2(weights, arch, p1), arch.pool2_shape))
    return dict(inputs=inputs, p1=p1, arg1=arg1, p2=p2, arg2=arg2)


def _conv2_input_gradient(weights: ConvWeights, da2: np.ndarray) -> np.ndarray:
    """d loss/d p1 from conv2's (f2, B*h*w) output gradient: the transpose of
    _conv2, tap s adding column r of ``K_s.T @ da2`` to column r + s.

    da2 is zero outside the valid corner, so the columns that the flattened
    shifted adds carry across rows and maps add exact zeros.
    """
    taps = weights.conv2_taps
    dp1 = taps[0][1].T @ da2
    tmp = np.empty_like(dp1)
    flat_dp1, flat_tmp = dp1.reshape(-1), tmp.reshape(-1)
    for s, k in taps[1:]:
        np.matmul(k.T, da2, out=tmp)
        flat_dp1[s:] += flat_tmp[:-s]
    return dp1


def _conv_backward(weights: ConvWeights, arch: CnnArchitecture, cache,
                   dflat: np.ndarray, grads: dict) -> None:
    """Add a tile's conv-layer gradients into ``grads``, given d loss/d flat.

    The gradients flowing back run on the whole tile; the sums over maps run
    per chunk of ``CHUNK_MAPS`` maps, in chunk order.
    """
    p1, p2, inputs = cache["p1"], cache["p2"], cache["inputs"]
    f1, f2, maps = p1.shape[0], p2.shape[0], p2.shape[1]
    n = p1.shape[1]
    cols = n // maps
    chunks = [(slice(s, s + CHUNK_MAPS), s * cols,
               min(s + CHUNK_MAPS, maps) * cols)
              for s in range(0, maps, CHUNK_MAPS)]

    dp2 = np.empty_like(p2)
    np.multiply(dflat.reshape(*p2.shape[1:], f2).transpose(3, 0, 1, 2),
                p2 > 0.0, out=dp2)
    # unpooling writes every row and column that a pooling window covers
    h, w = arch.pool2_shape
    da2 = np.empty((f2, maps, *arch.pool1_shape), dtype=dp2.dtype)
    da2[:, :, 2 * h:] = 0.0
    da2[:, :, :2 * h, 2 * w:] = 0.0
    _unpool(dp2, cache["arg2"], _windows(da2, arch.pool2_shape))
    da2 = da2.reshape(f2, n)
    dp1 = _conv2_input_gradient(weights, da2)
    dk2 = np.empty((3, 3, f2, f1), dtype=p1.dtype)
    for chunk, lo, hi in chunks:
        grads["conv2_b"] += dp2[:, chunk].reshape(f2, -1).sum(axis=1)
        for (s, _), dk in zip(weights.conv2_taps, dk2.reshape(9, f2, f1)):
            np.matmul(da2[:, lo:hi - s], p1[:, lo + s:hi].T, out=dk)
        grads["conv2_w"] += dk2.transpose(2, 3, 0, 1)
    # da1 is the tile's largest array; da2 goes before it is made
    del da2

    dp1 *= p1 > 0.0
    da1 = np.empty((4, f1, n), dtype=dp1.dtype)
    _unpool(dp1, cache["arg1"], da1)
    da1 = da1.reshape(4 * f1, n)
    dw1 = grads["conv1_w"][:, 0]
    for _, lo, hi in chunks:
        grads["conv1_b"] += dp1[:, lo:hi].sum(axis=1)
        dk1 = np.zeros((4 * f1, 16), dtype=da1.dtype)
        for s in range(lo, hi, CONV1_GRAD_COLUMNS):
            block = slice(s, min(s + CONV1_GRAD_COLUMNS, hi))
            dk1 += da1[:, block] @ inputs[:, block].T
        dk1 = dk1.reshape(2, 2, f1, 4, 4)
        for pi in (0, 1):
            for pj in (0, 1):
                dw1 += dk1[pi, pj, :, pi:pi + 3, pj:pj + 3]


def _dense_backward(params, flat, a3, a4, dlogits, grads: dict) -> np.ndarray:
    """Dense-layer gradients into ``grads``; returns d loss/d flat."""
    grads["out_w"] = a4.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    da4 = dlogits @ params["out_w"].T
    da4 *= a4 > 0.0
    grads["fc2_w"] = a3.T @ da4
    grads["fc2_b"] = da4.sum(axis=0)
    da3 = da4 @ params["fc2_w"].T
    da3 *= a3 > 0.0
    grads["fc1_w"] = flat.T @ da3
    grads["fc1_b"] = da3.sum(axis=0)
    return da3 @ params["fc1_w"].T


def batch_loss_and_gradients(params, arch: CnnArchitecture,
                             x: np.ndarray, y_idx: np.ndarray):
    """Mean cross-entropy and its gradients for a (B, rows, cols) batch.

    The conv layers run forward and backward in tiles of ``TILE_MAPS`` maps,
    keeping only pooled-resolution arrays between the passes; the dense
    layers run on the whole batch. The conv gradients are summed per chunk
    of ``CHUNK_MAPS`` maps in chunk order, so they hold the bits of
    chunk-sized tiles. A float32 batch, as training runs, gives the same bits
    on one or more OpenBLAS threads; a float64 batch of more than 32 maps
    need not, since OpenBLAS may split its dense-layer GEMMs across threads.
    """
    bsz = x.shape[0]
    weights = _conv_weights(params, arch)
    tiles = _tiles(bsz)
    caches = [_conv_forward(weights, arch, x[t]) for t in tiles]
    flat = np.empty((bsz, arch.flat_size), dtype=x.dtype)
    for t, cache in zip(tiles, caches):
        flat[t] = _flatten(cache["p2"])
    a3, a4, log_probs = _dense_forward(params, flat)
    rows = np.arange(bsz)
    loss = float(-log_probs[rows, y_idx].mean())

    dlogits = np.exp(log_probs)
    dlogits[rows, y_idx] -= 1.0
    dlogits /= bsz
    grads: dict[str, np.ndarray] = {}
    dflat = _dense_backward(params, flat, a3, a4, dlogits, grads)
    del flat  # freed before the conv backward makes its tile arrays
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b"):
        grads[name] = np.zeros_like(params[name])
    for t, cache in zip(tiles, caches):
        _conv_backward(weights, arch, cache, dflat[t], grads)
    return loss, grads


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def forward(model: CnnModel, normalized_map: np.ndarray) -> np.ndarray:
    """Class probabilities (sum to 1) for one normalized (rows, cols) map."""
    return forward_batch(model, np.asarray(normalized_map)[None])[0]


def forward_batch(model: CnnModel, normalized_maps: np.ndarray) -> np.ndarray:
    """(B, classes) probabilities for a (B, rows, cols) stack of normalized
    maps; row i equals ``forward`` of map i up to rounding. Keeps no cache.
    The maps are cast to the dtype of the model's parameters, and every layer
    and the probabilities are in that dtype.

    Raises:
        StructuralError: If the maps' shape does not match the architecture.
    """
    params, arch = model.params, model.architecture
    data = np.asarray(normalized_maps, dtype=params["conv1_w"].dtype)
    if data.ndim != 3:
        raise StructuralError(f"expected a (B, rows, cols) stack, got shape {data.shape}")
    weights = _conv_weights(params, arch)
    flat = np.empty((data.shape[0], arch.flat_size), dtype=data.dtype)
    for t in _tiles(data.shape[0]):
        p1 = _pool_relu(_conv1(weights, _conv1_inputs(data[t], arch)))
        p2 = _pool_relu(_windows(_conv2(weights, arch, p1), arch.pool2_shape))
        flat[t] = _flatten(p2)
    return np.exp(_dense_forward(params, flat)[2])


def _canonical_order(maps: list[np.ndarray], y_idx: np.ndarray) -> np.ndarray:
    """Content-derived ordering so training ignores dataset order."""
    digests = [hashlib.sha256(np.ascontiguousarray(m)).digest() for m in maps]
    return np.array(sorted(range(len(maps)),
                           key=lambda i: (int(y_idx[i]), digests[i])))


def train(dataset: list[TrainingExample], config: SessionConfig,
          bounds: NormalizationBounds | None = None,
          calibration: ThresholdCalibration | None = None,
          log_epoch=None) -> CnnModel:
    """Train a classifier with plain SGD on normalized example maps.

    The dataset is first put into a content-derived canonical order, so any
    permutation of the same examples trains the identical model for a given
    seed. Weight init and epoch shuffles come from dedicated child streams of
    the master seed. Each mini-batch is gathered from the examples' own
    arrays into a float32 batch; the dataset is never copied as a whole.
    SGD updates float32 weights, and the returned model keeps them in
    float32, so it also classifies in float32.

    Args:
        dataset: Normalized examples covering every configured gesture.
        config: Pipeline configuration (filters, lr, epochs, batch, seed).
        bounds: Normalization bounds to embed in the model.
        calibration: Onset calibration to embed in the model.
        log_epoch: Optional callback ``(epoch, mean_loss)`` per epoch.

    Raises:
        TrainingError: On an empty dataset, maps of differing shapes or a
            configured gesture with no examples.
    """
    if not dataset:
        raise TrainingError("training dataset is empty")
    labels = config.gestures
    index = {label: i for i, label in enumerate(labels)}
    try:
        y_idx = np.array([index[ex.label] for ex in dataset])
    except KeyError as exc:
        raise TrainingError(f"label {exc} is not a configured gesture") from exc
    present = set(int(v) for v in np.unique(y_idx))
    missing = [labels[i] for i in range(len(labels)) if i not in present]
    if missing:
        raise TrainingError(f"no training examples for gestures: {missing}")

    maps = [ex.map.data for ex in dataset]
    shape = maps[0].shape
    odd = next((i for i, m in enumerate(maps) if m.shape != shape), None)
    if odd is not None:
        raise TrainingError(
            f"example {odd} has map shape {maps[odd].shape}, expected {shape}")
    arch = CnnArchitecture(
        input_rows=shape[0],
        input_cols=shape[1],
        conv1_filters=config.conv1_filters,
        conv2_filters=config.conv2_filters,
        num_classes=len(labels),
    )
    order = _canonical_order(maps, y_idx)

    params = {name: p.astype(SGD_DTYPE) for name, p in
              initial_params(arch, derive_rng(config.seed, "init")).items()}
    shuffle_rng = derive_rng(config.seed, "shuffle")
    n = len(maps)
    final_loss = float("nan")
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[perm[start:start + config.batch_size]]
            x = np.stack([maps[i] for i in idx], dtype=SGD_DTYPE)
            loss, grads = batch_loss_and_gradients(params, arch, x, y_idx[idx])
            for name in PARAM_ORDER:
                grads[name] *= config.learning_rate
                params[name] -= grads[name]
            total += loss * idx.size
        final_loss = total / n
        if log_epoch is not None:
            log_epoch(epoch, final_loss)

    return CnnModel(
        architecture=arch,
        params=params,
        bounds=bounds,
        labels=labels,
        calibration=calibration,
        metadata=TrainingMetadata(
            seed=config.seed,
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            final_loss=final_loss,
        ),
        config=config,
    )


def predict(model: CnnModel, raw_map: np.ndarray) -> tuple[str, float]:
    """Classify one unnormalized (rows, cols) map.

    Applies the model's stored bounds (clamping values outside the training
    range), runs the forward pass, and returns the argmax label with its
    probability. Ties resolve to the lowest class index.

    Raises:
        UsageError: If the model lacks bounds or a label table.
    """
    model.require_ready()
    data = np.asarray(raw_map, dtype=np.float64)
    channels = channels_for_rows(data.shape[0])
    normalized = normalize_array(data, model.bounds, channels)
    probs = forward(model, normalized)
    best = int(np.argmax(probs))
    return model.labels[best], float(probs[best])
