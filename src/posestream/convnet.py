"""Shallow pose ConvNet: from-scratch forward, backprop, and SGD training.

Architecture: two valid-padding 3x2 convolutions (stride 1) each followed by
ReLU, one 2x2/2 max pool, a hidden fully connected layer with ReLU, and a
softmax output layer. Channel counts and the hidden width are configuration,
not contract; the 3x2 filter and the layer order are fixed. The net computes
in the dtype of its parameters: ``init_net`` draws float64, where analytic
gradients match central finite differences tightly, and ``astype`` casts a
net; forward, backward and train cast their batch to that dtype and keep
every intermediate in it. The command line trains and scores float32 nets,
at about half the float64 GEMM cost.

Each conv is one GEMM over an im2col buffer and computes only the output
positions the pool reads. The pool covers the first (K - 4) // pool * pool
conv2 rows (and likewise columns), so input rows past that many + 4 never
reach the output: with the default 2x2 pool the net never sees the last
snippet when K - 4 is odd (K = 15: row 14 is dead), nor the last tensor
column when W - 2 is odd.

Scoring (``forward``) keeps nothing for backprop and runs in slices of at
most FORWARD_SLICE rows, so its memory does not grow with the batch.
Within a slice, the convs and the pool run on sub-slices of at most
CONV_SLICE rows and the fully connected head once on the slice's pooled
rows. Slicing changes which rows share a matrix product, and OpenBLAS may
pick other kernels for other product heights, so sliced and unsliced
probabilities are equal bit for bit only where the tests check it: the
default 32/64/256 net and the 8/16/64 net. Other widths may differ in the
last bits (NetSpec(5, 7, 9) does at 129 and 130 rows).

The checkpoint file is a ``binio`` container (magic ``PCN1``). Its header
holds ``input_shape``, ``num_classes``, ``arch`` (the ``NetSpec`` fields)
and ``meta`` (the caller's run metadata); those fix every parameter's
shape, and the parameters follow as float64 arrays in ``parameters()``
order, so the file cannot hold a missing, repeated or mis-shaped one. The
payload is float64 whatever the net's dtype (it holds every float32 value
exactly), and the reader returns a float64 net.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from . import binio

FILTER_H = 3  # rows = snippets (time)
FILTER_W = 2  # columns = flattened joint coordinates

CHECKPOINT_MAGIC = b"PCN1"
CHECKPOINT_VERSION = 2

PROB_FLOOR = 1e-12

# Rows per _probs call in forward(), which keeps eval memory flat in corpus
# size, and rows per conv/pool pass inside it: at CONV_SLICE rows the im2col
# buffers are reused from the heap instead of freshly mapped, while the head
# still reads fc1_w only once per FORWARD_SLICE rows.
FORWARD_SLICE = 64
CONV_SLICE = 8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class NetSpec:
    """Tunable architecture constants."""

    conv1_channels: int = 32
    conv2_channels: int = 64
    hidden: int = 256
    pool: int = 2  # window and stride of the single max-pool layer

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class PoseConvNet:
    """Parameter container; every array has the net's dtype (float64 from
    ``init_net``), which is the dtype it computes in.

    Conv weights have shape (3, 2, in_channels, out_channels); fully
    connected weights are (fan_in, fan_out); biases are 1-D.
    """

    input_shape: tuple[int, int, int]
    num_classes: int
    arch: NetSpec
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def parameters(self) -> dict[str, np.ndarray]:
        """Named parameters in a fixed order (update/checkpoint order)."""
        return {
            "conv1_w": self.conv1_w,
            "conv1_b": self.conv1_b,
            "conv2_w": self.conv2_w,
            "conv2_b": self.conv2_b,
            "fc1_w": self.fc1_w,
            "fc1_b": self.fc1_b,
            "out_w": self.out_w,
            "out_b": self.out_b,
        }

    @property
    def dtype(self) -> np.dtype:
        return self.conv1_w.dtype

    def astype(self, dtype) -> "PoseConvNet":
        """A copy with every parameter cast to dtype."""
        return PoseConvNet(
            input_shape=self.input_shape,
            num_classes=self.num_classes,
            arch=self.arch,
            **{name: value.astype(dtype) for name, value in self.parameters().items()},
        )

    def copy(self) -> "PoseConvNet":
        return self.astype(self.dtype)


def _pooled_shape(input_shape: tuple[int, int, int], arch: NetSpec) -> tuple[int, int]:
    k, width, _ = input_shape
    rows = k - 2 * (FILTER_H - 1)
    cols = width - 2 * (FILTER_W - 1)
    pooled_rows = rows // arch.pool
    pooled_cols = cols // arch.pool
    if pooled_rows < 1 or pooled_cols < 1:
        raise ValueError(
            f"input {k}x{width} too small for two {FILTER_H}x{FILTER_W} convolutions "
            f"plus {arch.pool}x{arch.pool} pooling"
        )
    return pooled_rows, pooled_cols


def _xavier(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _param_shapes(
    input_shape: tuple[int, int, int], num_classes: int, arch: NetSpec
) -> dict[str, tuple[int, ...]]:
    """Shape of every named parameter, in ``PoseConvNet.parameters`` order."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    _, _, channels = input_shape
    pooled_rows, pooled_cols = _pooled_shape(input_shape, arch)
    flat = pooled_rows * pooled_cols * arch.conv2_channels
    c1, c2, hidden = arch.conv1_channels, arch.conv2_channels, arch.hidden
    return {
        "conv1_w": (FILTER_H, FILTER_W, channels, c1),
        "conv1_b": (c1,),
        "conv2_w": (FILTER_H, FILTER_W, c1, c2),
        "conv2_b": (c2,),
        "fc1_w": (flat, hidden),
        "fc1_b": (hidden,),
        "out_w": (hidden, num_classes),
        "out_b": (num_classes,),
    }


def init_net(
    input_shape: tuple[int, int, int],
    num_classes: int,
    seed: int = 0,
    arch: NetSpec = NetSpec(),
) -> PoseConvNet:
    """Uniform Xavier weights (bound sqrt(6 / (fan_in + fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(input_shape, num_classes, arch).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:  # conv (3, 2, in, out) or fully connected (in, out)
            receptive = math.prod(shape[:-2])
            params[name] = _xavier(rng, shape, receptive * shape[-2], receptive * shape[-1])
    return PoseConvNet(input_shape=tuple(input_shape), num_classes=num_classes, arch=arch,
                       **params)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _conv_extents(net: PoseConvNet) -> tuple[tuple[int, int], tuple[int, int]]:
    """(rows, cols) each conv computes: only the conv2 outputs the pool reads,
    and only the conv1 outputs those read."""
    pooled_rows, pooled_cols = _pooled_shape(net.input_shape, net.arch)
    rows2, cols2 = pooled_rows * net.arch.pool, pooled_cols * net.arch.pool
    return (rows2 + FILTER_H - 1, cols2 + FILTER_W - 1), (rows2, cols2)


def _im2col(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(B·rows·cols, 6·Cin) buffer: row (b, r, c) is the 3x2 window of x[b]
    at (r, c), flattened in (fh, fw, Cin) order to match w.reshape(-1, Cout)."""
    windows = sliding_window_view(
        x[:, : rows + FILTER_H - 1, : cols + FILTER_W - 1], (FILTER_H, FILTER_W), axis=(1, 2)
    )
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, FILTER_H * FILTER_W * x.shape[3])


def _conv(x: np.ndarray, w: np.ndarray, extent: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The valid stride-1 conv, without bias, at the top-left extent of output
    positions, as one GEMM; returns (im2col columns, outputs (B, R, C, Cout))."""
    columns = _im2col(x, *extent)
    return columns, (columns @ w.reshape(-1, w.shape[3])).reshape(x.shape[0], *extent, w.shape[3])


def _bias_relu(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ReLU(z + b), in place in z."""
    z += b
    return np.maximum(z, 0.0, out=z)


def _conv_relu(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, extent: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """ReLU of the conv plus bias; returns (im2col columns, activations (B, R, C, Cout))."""
    columns, z = _conv(x, w, extent)
    return columns, _bias_relu(z, b)


def _conv_grads(
    d_out: np.ndarray, columns: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_weights, d_bias) of a conv from its output gradient (B, R, C, Cout)."""
    flat = d_out.reshape(-1, w.shape[3])
    return (columns.T @ flat).reshape(w.shape), flat.sum(axis=0)


def _conv_input_grad(d_out: np.ndarray, w: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of a conv's input (B, R+2, C+1, Cin) from its output gradient
    (B, R, C, Cout): one contiguous GEMM per filter offset, added at that offset."""
    batch, rows, cols, c_out = d_out.shape
    flat = d_out.reshape(-1, c_out)
    d_x = np.zeros(input_shape, dtype=d_out.dtype)
    for i in range(FILTER_H):
        for j in range(FILTER_W):
            d_x[:, i:i + rows, j:j + cols, :] += (flat @ w[i, j].T).reshape(batch, rows, cols, -1)
    return d_x


def _pool_views(x: np.ndarray, size: int) -> list[np.ndarray]:
    """The size² strided views of x (B, R·size, C·size, ch), one per window
    offset in row-major order; view k holds offset k of every window."""
    return [x[:, i::size, j::size, :] for i in range(size) for j in range(size)]


def _pool(x: np.ndarray, size: int) -> np.ndarray:
    """Non-overlapping max pool of x, whose rows and columns are whole windows."""
    views = _pool_views(x, size)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def _pool_argmax(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Max pool plus the argmax offset within each window; ties go to the
    lowest offset."""
    views = _pool_views(x, size)
    out = views[0].copy()
    idx = np.zeros(out.shape, dtype=np.intp)
    for k, view in enumerate(views[1:], start=1):
        better = view > out
        np.maximum(out, view, out=out)
        # idx[better] = k without a data-dependent branch per element (~2x faster).
        idx += better * (k - idx)
    return out, idx


def _unpool(d_out: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    """Route each window's gradient to its argmax offset; zeros elsewhere."""
    batch, rows, cols, channels = d_out.shape
    d_x = np.empty((batch, rows * size, cols * size, channels), dtype=d_out.dtype)
    for k, view in enumerate(_pool_views(d_x, size)):
        np.multiply(d_out, idx == k, out=view)
    return d_x


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _as_batch(net: PoseConvNet, x: np.ndarray) -> np.ndarray:
    """x as a batch of the net's input, in the net's dtype."""
    x = np.asarray(x, dtype=net.dtype)
    if x.shape[1:] != net.input_shape:
        raise ValueError(
            f"input shape {x.shape} does not match a batch of net input {net.input_shape}"
        )
    return x


def _head(net: PoseConvNet, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden activations, logits) from flattened pool features."""
    hidden = _bias_relu(flat @ net.fc1_w, net.fc1_b)
    return hidden, hidden @ net.out_w + net.out_b


def row_slices(x: np.ndarray, size: int) -> list[np.ndarray]:
    """Near-equal row slices of x, none longer than size; no slice has a
    single row unless x does, because numpy runs a one-row matmul through a
    matrix-vector path whose last bits differ."""
    return np.array_split(x, -(-len(x) // size))


def _pooled(net: PoseConvNet, x: np.ndarray) -> np.ndarray:
    """Pool output of a batch, keeping nothing for backprop. conv2's bias
    and ReLU come after the pool, on a pool² share of the values: both are
    monotone, so relu(max(z) + b) is max(relu(z + b)) bit for bit."""
    extent1, extent2 = _conv_extents(net)
    a1 = _conv_relu(x, net.conv1_w, net.conv1_b, extent1)[1]
    z2 = _conv(a1, net.conv2_w, extent2)[1]
    return _bias_relu(_pool(z2, net.arch.pool), net.conv2_b)


def _probs(net: PoseConvNet, x: np.ndarray) -> np.ndarray:
    """Class probabilities of a batch: convs and pool per CONV_SLICE rows,
    then one head over all of x."""
    pooled = np.concatenate([_pooled(net, part) for part in row_slices(x, CONV_SLICE)])
    return _softmax(_head(net, pooled.reshape(len(x), -1))[1])


def _forward(net: PoseConvNet, x: np.ndarray) -> dict[str, np.ndarray]:
    """Training forward pass: probabilities plus what backprop reads."""
    extent1, extent2 = _conv_extents(net)
    cols1, a1 = _conv_relu(x, net.conv1_w, net.conv1_b, extent1)
    cols2, a2 = _conv_relu(a1, net.conv2_w, net.conv2_b, extent2)
    pooled, pool_idx = _pool_argmax(a2, net.arch.pool)
    af, logits = _head(net, pooled.reshape(len(x), -1))
    return {
        "cols1": cols1, "a1": a1, "cols2": cols2, "pooled": pooled,
        "pool_idx": pool_idx, "af": af, "probs": _softmax(logits),
    }


def forward(net: PoseConvNet, batch: np.ndarray) -> np.ndarray:
    """(B, classes) probabilities of a batch (B, K, W, 3) of tensors.

    The batch is scored in near-equal slices of at most FORWARD_SLICE rows
    (``row_slices``). For the default and the 8/16/64 net the probabilities
    are those of one unsliced pass bit for bit; for other widths they may
    differ in the last bits (module docstring)."""
    batch = _as_batch(net, batch)
    return np.concatenate([_probs(net, part) for part in row_slices(batch, FORWARD_SLICE)])


def _loss_and_grads(
    net: PoseConvNet, x: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Summed cross-entropy loss and its gradients over a batch."""
    cache = _forward(net, x)
    probs = cache["probs"]
    batch = x.shape[0]
    picked = np.maximum(probs[np.arange(batch), labels], PROB_FLOOR)
    total_loss = float(-np.log(picked).sum())

    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0

    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = cache["af"].T @ d_logits
    grads["out_b"] = d_logits.sum(axis=0)
    d_zf = (d_logits @ net.out_w.T) * (cache["af"] > 0)
    pooled = cache["pooled"]
    grads["fc1_w"] = pooled.reshape(batch, -1).T @ d_zf
    grads["fc1_b"] = d_zf.sum(axis=0)
    # A window's gradient passes conv2's ReLU iff the window max is positive.
    d_pooled = (d_zf @ net.fc1_w.T).reshape(pooled.shape) * (pooled > 0)
    d_z2 = _unpool(d_pooled, cache["pool_idx"], net.arch.pool)
    grads["conv2_w"], grads["conv2_b"] = _conv_grads(d_z2, cache["cols2"], net.conv2_w)
    d_z1 = _conv_input_grad(d_z2, net.conv2_w, cache["a1"].shape)
    d_z1 *= cache["a1"] > 0
    grads["conv1_w"], grads["conv1_b"] = _conv_grads(d_z1, cache["cols1"], net.conv1_w)
    return total_loss, probs, grads


def backward(net: PoseConvNet, batch: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic loss gradients of a batch (B, K, W, 3) with B labels, summed
    over the batch."""
    batch = _as_batch(net, batch)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch.shape[0],):
        raise ValueError(f"expected {batch.shape[0]} labels, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= net.num_classes:
        raise ValueError(f"labels out of range for {net.num_classes} classes")
    _, _, grads = _loss_and_grads(net, batch, labels)
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        for name, least in (("learning_rate", 0), ("epochs", 0), ("batch_size", 1),
                            ("weight_decay", 0)):
            if not getattr(self, name) >= least:  # NaN fails too
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train(
    net: PoseConvNet,
    draw: Callable[[int, np.ndarray], np.ndarray],
    labels: np.ndarray,
    config: TrainConfig,
) -> tuple[PoseConvNet, list[EpochStats]]:
    """Mini-batch SGD on summed-then-averaged cross entropy.

    ``draw(epoch, rows)`` returns the tensors of the examples at ``rows``, in
    order; train calls it once per epoch with that epoch's permutation of
    all of ``labels``' rows and takes each batch as a contiguous slice. The
    input net is not modified. The epoch trace reports mean loss and
    accuracy over that epoch's own batches (measured before each update).
    Runs are bit reproducible for a fixed seed. Raises TrainingDivergedError
    the moment a batch loss stops being finite.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array of class ids")
    if labels.min() < 0 or labels.max() >= net.num_classes:
        raise ValueError(f"labels out of range for {net.num_classes} classes")

    net = net.copy()
    rng = np.random.default_rng(config.seed)
    trace: list[EpochStats] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(labels))
        data = _as_batch(net, draw(epoch, order))
        trace.append(_train_epoch(net, epoch, data, labels[order], config))
        del data  # this epoch's tensors go before the next draw
    return net, trace


def _train_epoch(
    net: PoseConvNet, epoch: int, data: np.ndarray, labels: np.ndarray, config: TrainConfig
) -> EpochStats:
    """One epoch of SGD steps on net, in place; no slice of data outlives it."""
    if len(data) != len(labels):
        raise ValueError(f"draw returned {len(data)} tensors for {len(labels)} rows")
    epoch_loss = 0.0
    epoch_hits = 0
    for start in range(0, len(labels), config.batch_size):
        x = data[start:start + config.batch_size]
        y = labels[start:start + config.batch_size]
        batch_loss, probs, grads = _loss_and_grads(net, x, y)
        if not np.isfinite(batch_loss):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
            )
        epoch_loss += batch_loss
        epoch_hits += int((probs.argmax(axis=1) == y).sum())
        scale = config.learning_rate / len(y)
        params = net.parameters()
        for name, grad in grads.items():
            param = params[name]
            param -= scale * grad
            if config.weight_decay:
                param -= config.learning_rate * config.weight_decay * param
    return EpochStats(epoch, epoch_loss / len(labels), epoch_hits / len(labels))


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

def _checkpoint_layout(header: dict) -> binio.Layout:
    if len(header["input_shape"]) != 3:
        raise ValueError(f"input_shape {header['input_shape']} is not 3 dimensions")
    shapes = _param_shapes(tuple(header["input_shape"]), header["num_classes"],
                           NetSpec(**header["arch"]))
    return {name: ("<f8", shape) for name, shape in shapes.items()}


CHECKPOINT_FILE = binio.FileKind(
    "pose ConvNet checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
    {"input_shape": list[int], "num_classes": int, "arch": dict[str, int], "meta": dict},
    _checkpoint_layout,
)


def save_checkpoint(net: PoseConvNet, path: str | Path, meta: dict | None = None) -> None:
    header = {
        "input_shape": list(net.input_shape),
        "num_classes": net.num_classes,
        "arch": asdict(net.arch),
        "meta": meta or {},
    }
    CHECKPOINT_FILE.write(path, header, net.parameters())


def _net_of(header: dict, params: dict[str, np.ndarray]) -> tuple[PoseConvNet, dict]:
    net = PoseConvNet(input_shape=tuple(header["input_shape"]), num_classes=header["num_classes"],
                      arch=NetSpec(**header["arch"]), **params)
    return net, header["meta"]


def load_checkpoint(path: str | Path) -> tuple[PoseConvNet, dict]:
    """Rebuild a net from a checkpoint; returns (net, caller meta dict).
    The net is float64, whatever dtype the saved net had. Defects raise
    ValueError naming the file."""
    return CHECKPOINT_FILE.read(path, _net_of)
