"""Shallow pose ConvNet: from-scratch forward, backprop, and SGD training.

Architecture: two valid-padding 3x2 convolutions (stride 1) each followed by
ReLU, one 2x2/2 max pool, a hidden fully connected layer with ReLU, and a
softmax output layer. Channel counts and the hidden width are configuration,
not contract; the 3x2 filter, the 2x2 pool and the layer order are fixed.
The net computes in the dtype of its parameters: ``init_net`` draws float64,
where analytic gradients match central finite differences tightly, and
``astype`` casts a net; forward, backward and train cast their batch to that
dtype and keep every intermediate in it. Every command's net, checkpoint and
corpus tensor is NET_DTYPE (float32), at about half the float64 GEMM cost.

Each conv is one GEMM over an im2col buffer and computes only the output
positions the pool reads. The pool covers the first (K - 4) // 2 * 2 conv2
rows (and likewise columns), so input rows past that many + 4 never reach
the output: the net never sees the last snippet when K - 4 is odd (K = 15:
row 14 is dead), nor the last tensor column when W - 2 is odd.

Every pass writes its large arrays into a ``Workspace``: named buffers
allocated on first use and reused by later passes, with the im2col
columns gathered by ``np.copyto`` and the conv products written by
``np.matmul(..., out=)``. So eval's slices and train's SGD steps map no
fresh memory, whatever glibc's mmap threshold, and compute the same bits
as a fresh workspace would; ``forward`` and ``backward`` take a fresh one
where the caller keeps none. Scoring and training run one conv stage,
and the backward pass keeps no pool index: it routes each window's
gradient to the first offset whose biased conv2 output equals the pooled
value, into conv2's output buffer, and writes conv2's input gradient into
conv2's im2col buffer. Both are dead by then, so an SGD step takes no
more workspace than a forward pass.

Scoring (``forward``) keeps nothing for backprop and runs in slices of at
most FORWARD_SLICE rows, so its memory does not grow with the batch.
Within a slice, the convs and the pool run on sub-slices of at most
CONV_SLICE rows, writing one pooled buffer, and the fully connected head
runs once on the slice's pooled rows. CONV_SLICE sizes the workspace's
conv buffers, trading memory for per-call overhead: for the default net
in float32 they take 2.9 MB at 4 rows, 5.8 MB at 8 and 1.4 MB at 2, and
scoring 640 videos took about 4% more CPU time at 4 rows than at 8 and 6%
more at 2 (medians of 30 interleaved runs, one BLAS thread on a 2-vCPU
x86-64 VM). A slice of fewer than HEAD_ROWS rows gets zero pooled rows
whose outputs are dropped, as OpenBLAS multiplies fewer rows with other
kernels and other last bits; so a row's probabilities do not depend on
the batch it came in. Slicing changes which rows share a matrix product,
and OpenBLAS may pick other kernels for other product heights, so sliced
and unsliced probabilities are equal bit for bit only where the tests
check it: the default 32/64/256 net and the 8/16/64 net. Other widths may
differ in the last bits (NetSpec(5, 7, 9) does at 129 and 130 rows).

The checkpoint file is a ``binio`` container (magic ``PCN1``). Its header
holds ``input_shape``, ``num_classes``, ``arch`` (exactly the ``NetSpec``
fields) and ``meta`` (the caller's run metadata); those fix every
parameter's shape, and the parameters follow as NET_DTYPE arrays in
``parameters()`` order, so the file cannot hold a missing, repeated or
mis-shaped one. The writer saves any net as its NET_DTYPE cast and refuses
a parameter that is not finite in it; the reader reads each parameter
straight into a NET_DTYPE net, which is the cast of the saved net whatever
its dtype.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from numpy.lib.stride_tricks import as_strided

from . import binio
from .config import NET_DTYPE, NetSpec, TrainConfig

FILTER_H = 3  # rows = snippets (time)
FILTER_W = 2  # columns = flattened joint coordinates
POOL = 2  # window and stride of the single max-pool layer, in rows and columns

CHECKPOINT_MAGIC = b"PCN1"
CHECKPOINT_VERSION = 4

PROB_FLOOR = 1e-12

# Rows per _probs call in forward(), which keeps eval memory flat in corpus
# size; rows per conv/pool pass inside it, which sizes the workspace's im2col
# buffers while the head still reads fc1_w only once per FORWARD_SLICE rows;
# and the fewest rows the head multiplies (module docstring).
FORWARD_SLICE = 64
CONV_SLICE = 4
HEAD_ROWS = 8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


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
    pooled_rows = rows // POOL
    pooled_cols = cols // POOL
    if pooled_rows < 1 or pooled_cols < 1:
        raise ValueError(
            f"input {k}x{width} too small for two {FILTER_H}x{FILTER_W} convolutions "
            f"plus {POOL}x{POOL} pooling"
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
    rows2, cols2 = pooled_rows * POOL, pooled_cols * POOL
    return (rows2 + FILTER_H - 1, cols2 + FILTER_W - 1), (rows2, cols2)


class Workspace:
    """Named buffers that the passes of one net write into. Each is
    allocated on its first use and reused by every later pass that fits in
    it, so eval's slices and train's steps map no fresh memory."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous view of buffer name in shape, contents undefined."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _conv(
    x: np.ndarray, w: np.ndarray, extent: tuple[int, int], ws: Workspace, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """The valid stride-1 conv, without bias, at the top-left extent of output
    positions, as one GEMM into ws; returns (im2col columns (B·R·C, 6·Cin),
    outputs (B, R, C, Cout)). Row (b, r, c) of the columns is the 3x2 window
    of x[b] at (r, c), in (fh, fw, Cin) order to match w.reshape(-1, Cout).
    The extent must fit in x: the windows are one strided view of it."""
    (rows, cols), (_, _, c_in, c_out) = extent, w.shape
    shape = (len(x), rows, cols, FILTER_H, FILTER_W, c_in)
    s0, s1, s2, s3 = x.strides
    columns = ws.take(f"{name}.columns", shape, x.dtype)
    np.copyto(columns, as_strided(x, shape, (s0, s1, s2, s1, s2, s3), writeable=False))
    columns = columns.reshape(-1, FILTER_H * FILTER_W * c_in)
    out = ws.take(f"{name}.out", (len(x), rows, cols, c_out), x.dtype)
    np.matmul(columns, w.reshape(-1, c_out), out=out.reshape(-1, c_out))
    return columns, out


def _bias_relu(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ReLU(z + b), in place in z."""
    z += b
    return np.maximum(z, 0.0, out=z)


def _conv_grads(
    d_out: np.ndarray, columns: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_weights, d_bias) of a conv from its output gradient (B, R, C, Cout)."""
    flat = d_out.reshape(-1, w.shape[3])
    return (columns.T @ flat).reshape(w.shape), flat.sum(axis=0)


def _conv_input_grad(
    d_out: np.ndarray, w: np.ndarray, input_shape: tuple[int, ...], ws: Workspace, name: str
) -> np.ndarray:
    """Gradient of a conv's input (B, R+2, C+1, Cin) from its output gradient
    (B, R, C, Cout): one contiguous GEMM per filter offset, added at that
    offset. The gradient and the GEMM product are two disjoint views of
    buffer name of ws."""
    batch, rows, cols, c_out = d_out.shape
    flat = d_out.reshape(-1, c_out)
    size = math.prod(input_shape)
    space = ws.take(name, (size + len(flat) * w.shape[2],), d_out.dtype)
    d_x = space[:size].reshape(input_shape)
    d_x.fill(0)
    product = space[size:].reshape(len(flat), w.shape[2])
    for i in range(FILTER_H):
        for j in range(FILTER_W):
            np.matmul(flat, w[i, j].T, out=product)
            d_x[:, i:i + rows, j:j + cols, :] += product.reshape(batch, rows, cols, -1)
    return d_x


def _pool_views(x: np.ndarray) -> list[np.ndarray]:
    """The POOL² strided views of x (B, R·POOL, C·POOL, ch), one per window
    offset in row-major order; view k holds offset k of every window."""
    return [x[:, i::POOL, j::POOL, :] for i in range(POOL) for j in range(POOL)]


def _pool(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Non-overlapping max pool of x, whose rows and columns are whole
    windows, into out."""
    views = _pool_views(x)
    np.copyto(out, views[0])
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def _unpool(d_pooled: np.ndarray, pooled: np.ndarray, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Route each window's gradient to the first offset whose z + b equals
    its pooled value, in place in conv2's unbiased outputs z; zeros
    elsewhere. That is the offset a strict-> argmax over relu(z + b) picks,
    ties going to the lowest one. Each offset's view of z is read before it
    is written."""
    routed = np.zeros(pooled.shape, bool)
    for view in _pool_views(z):
        hit = view + b == pooled
        hit &= ~routed
        routed |= hit
        np.multiply(d_pooled, hit, out=view)
    return z


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
    """Near-equal row slices of x, none longer than size."""
    return np.array_split(x, -(-len(x) // size))


def _stage(
    net: PoseConvNet, x: np.ndarray, pooled: np.ndarray, ws: Workspace
) -> dict[str, np.ndarray]:
    """The convs and the pool of x, in ws, the pool into pooled. conv2's
    bias and ReLU come after the pool, on a POOL² share of the values: both
    are monotone, so relu(max(z) + b) is max(relu(z + b)) bit for bit.
    Returns what backprop reads: both convs' im2col columns, conv1's
    activations and conv2's unbiased outputs."""
    extent1, extent2 = _conv_extents(net)
    cols1, z1 = _conv(x, net.conv1_w, extent1, ws, "conv1")
    a1 = _bias_relu(z1, net.conv1_b)
    cols2, z2 = _conv(a1, net.conv2_w, extent2, ws, "conv2")
    _bias_relu(_pool(z2, pooled), net.conv2_b)
    return {"cols1": cols1, "a1": a1, "cols2": cols2, "z2": z2}


def _pooled(net: PoseConvNet, rows: int, ws: Workspace, dtype) -> np.ndarray:
    pooled_rows, pooled_cols = _pooled_shape(net.input_shape, net.arch)
    return ws.take("pooled", (rows, pooled_rows, pooled_cols, net.arch.conv2_channels), dtype)


def _probs(net: PoseConvNet, x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Class probabilities of a batch: the conv stage per CONV_SLICE rows
    into one pooled buffer, then one head over all of x, padded with zero
    rows to HEAD_ROWS."""
    pooled = _pooled(net, max(len(x), HEAD_ROWS), ws, x.dtype)
    pooled[len(x):] = 0
    for start in range(0, len(x), CONV_SLICE):
        part = x[start:start + CONV_SLICE]
        _stage(net, part, pooled[start:start + len(part)], ws)
    return _softmax(_head(net, pooled.reshape(len(pooled), -1))[1][:len(x)])


def _forward(net: PoseConvNet, x: np.ndarray, ws: Workspace) -> dict[str, np.ndarray]:
    """Training forward pass: the conv stage on all of x, then the head;
    probabilities plus what backprop reads, in ws."""
    pooled = _pooled(net, len(x), ws, x.dtype)
    cache = _stage(net, x, pooled, ws)
    af, logits = _head(net, pooled.reshape(len(x), -1))
    return {**cache, "pooled": pooled, "af": af, "probs": _softmax(logits)}


def forward(net: PoseConvNet, batch: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """(B, classes) probabilities of a batch (B, K, W, 3) of tensors,
    computed in ws (a fresh Workspace if None), which a caller that scores
    many batches keeps across them.

    The batch is scored in near-equal slices of at most FORWARD_SLICE rows
    (``row_slices``), and a video's probabilities do not depend on the
    other rows of its batch. For the default and the 8/16/64 net they are
    those of one unsliced pass of at least HEAD_ROWS rows bit for bit; for
    other widths they may differ in the last bits (module docstring). An
    empty batch gives (0, classes)."""
    batch = _as_batch(net, batch)
    if not len(batch):
        return np.empty((0, net.num_classes), net.dtype)
    ws = Workspace() if ws is None else ws
    return np.concatenate([_probs(net, part, ws) for part in row_slices(batch, FORWARD_SLICE)])


def _loss_and_grads(
    net: PoseConvNet, x: np.ndarray, labels: np.ndarray, ws: Workspace
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Summed cross-entropy loss and its gradients over a batch, computed in ws."""
    cache = _forward(net, x, ws)
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
    # The routing overwrites conv2's outputs, which nothing reads after it,
    # and conv2's input gradient reuses its columns once its gradients are taken.
    d_z2 = _unpool(d_pooled, pooled, cache["z2"], net.conv2_b)
    grads["conv2_w"], grads["conv2_b"] = _conv_grads(d_z2, cache["cols2"], net.conv2_w)
    d_z1 = _conv_input_grad(d_z2, net.conv2_w, cache["a1"].shape, ws, "conv2.columns")
    d_z1 *= cache["a1"] > 0
    grads["conv1_w"], grads["conv1_b"] = _conv_grads(d_z1, cache["cols1"], net.conv1_w)
    return total_loss, probs, grads


def _class_ids(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Non-empty labels as int64 class ids below num_classes. Labels whose
    dtype is no integer type (float, string, bool) are refused, naming the
    first, rather than cast."""
    if labels.dtype.kind not in "iu":
        raise ValueError(f"label {labels[:1].tolist()[0]!r} is not an integer class id "
                         f"(labels are {labels.dtype})")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels out of range for {num_classes} classes")
    return labels.astype(np.int64, copy=False)


def backward(net: PoseConvNet, batch: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic loss gradients of a batch (B, K, W, 3) with B labels, summed
    over the batch, computed in a fresh Workspace; an empty batch is refused."""
    batch = _as_batch(net, batch)
    if not len(batch):
        raise ValueError(f"batch must be non-empty, got shape {batch.shape}")
    labels = np.asarray(labels)
    if labels.shape != (batch.shape[0],):
        raise ValueError(f"expected {batch.shape[0]} labels, got {labels.shape}")
    _, _, grads = _loss_and_grads(net, batch, _class_ids(labels, net.num_classes), Workspace())
    return grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

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
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array of class ids")
    labels = _class_ids(labels, net.num_classes)

    net = net.copy()
    rng = np.random.default_rng(config.seed)
    ws = Workspace()
    trace: list[EpochStats] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(labels))
        data = _as_batch(net, draw(epoch, order))
        trace.append(_train_epoch(net, epoch, data, labels[order], config, ws))
        del data  # this epoch's tensors go before the next draw
    return net, trace


def _train_epoch(
    net: PoseConvNet, epoch: int, data: np.ndarray, labels: np.ndarray, config: TrainConfig,
    ws: Workspace,
) -> EpochStats:
    """One epoch of SGD steps on net, in place, computed in ws; no slice of
    data outlives it."""
    if len(data) != len(labels):
        raise ValueError(f"draw returned {len(data)} tensors for {len(labels)} rows")
    epoch_loss = 0.0
    epoch_hits = 0
    for start in range(0, len(labels), config.batch_size):
        x = data[start:start + config.batch_size]
        y = labels[start:start + config.batch_size]
        batch_loss, probs, grads = _loss_and_grads(net, x, y, ws)
        if not np.isfinite(batch_loss):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
            )
        epoch_loss += batch_loss
        epoch_hits += int((probs.argmax(axis=1) == y).sum())
        scale = config.learning_rate / len(y)
        params = net.parameters()
        for name, grad in grads.items():
            params[name] -= scale * grad
    return EpochStats(epoch, epoch_loss / len(labels), epoch_hits / len(labels))


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

def _arch(arch: dict[str, int]) -> NetSpec:
    """The NetSpec of a checkpoint's arch, whose keys must be exactly its fields."""
    names = [field.name for field in fields(NetSpec)]
    missing = [name for name in names if name not in arch]
    if missing:
        raise ValueError(f"arch lacks the NetSpec keys {missing}")
    unknown = sorted(set(arch) - set(names))
    if unknown:
        raise ValueError(f"arch has keys that are no NetSpec field: {unknown}")
    return NetSpec(**arch)


def _checkpoint_layout(header: dict) -> binio.Layout:
    if len(header["input_shape"]) != 3:
        raise ValueError(f"input_shape {header['input_shape']} is not 3 dimensions")
    shapes = _param_shapes(tuple(header["input_shape"]), header["num_classes"],
                           _arch(header["arch"]))
    return {name: (NET_DTYPE.str, shape) for name, shape in shapes.items()}


CHECKPOINT_FILE = binio.FileKind(
    "pose ConvNet checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
    {"input_shape": list[int], "num_classes": int, "arch": dict[str, int], "meta": dict},
    _checkpoint_layout,
)


def _check_finite(params: dict[str, np.ndarray]) -> None:
    for name, value in params.items():
        # min and max carry any NaN or inf, without a mask the size of fc1_w.
        if value.size and not (np.isfinite(value.min()) and np.isfinite(value.max())):
            raise ValueError(f"parameter '{name}' is not finite in {value.dtype}")


def save_checkpoint(net: PoseConvNet, path: str | Path, meta: dict | None = None) -> None:
    """Write net, of any dtype, as its NET_DTYPE cast; a parameter that is
    not finite in NET_DTYPE is refused, naming the file, before any write."""
    header = {
        "input_shape": list(net.input_shape),
        "num_classes": net.num_classes,
        "arch": asdict(net.arch),
        "meta": meta or {},
    }
    with np.errstate(over="ignore"):  # a value beyond NET_DTYPE's range casts to inf
        params = {name: value.astype(NET_DTYPE, copy=False)
                  for name, value in net.parameters().items()}
    try:
        _check_finite(params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    CHECKPOINT_FILE.write(path, header, params)


def _net_of(header: dict, params: dict[str, np.ndarray]) -> tuple[PoseConvNet, dict]:
    _check_finite(params)
    net = PoseConvNet(input_shape=tuple(header["input_shape"]), num_classes=header["num_classes"],
                      arch=_arch(header["arch"]), **params)
    return net, header["meta"]


def load_checkpoint(path: str | Path) -> tuple[PoseConvNet, dict]:
    """Rebuild a NET_DTYPE net from a checkpoint, each parameter read
    straight into it; returns (net, caller meta dict). A float64 caller
    casts it with ``astype``. Defects, a parameter that is not finite among
    them, raise ValueError naming the file."""
    return CHECKPOINT_FILE.read(path, _net_of)
