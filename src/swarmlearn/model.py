"""Classification models as flat parameter vectors with closed-form gradients.

Two kinds are supported: plain softmax regression and a small ReLU MLP.
Parameters live in a single flat float64 vector (layer-major, weights before
biases) so the swarm update algebra stays purely vector-valued.

A batch is either one set of samples, features (B, d) and labels (B,), or a
stack of U such sets, features (U, B, d) and labels (U, B), evaluated at one
common parameter vector; ``loss`` also takes one parameter vector per slice,
a (U, D) stack. The kernels run the same body on both: every matmul
broadcasts over the leading axis as one BLAS call per slice, and reductions
run along the per-slice axes, so slice u of a stacked result is bit-equal to
the call on batch u alone.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MODEL_KINDS = ("softmax_regression", "mlp")

# numpy sums a reduction of at most this many terms as one pairwise block.
_PAIRWISE_BLOCK = 128
# ``loss`` scores a stack of models in groups of slices whose widest layer
# output fits this many bytes; a ``Workspace`` keeps arrays up to this size.
_SCORE_BUFFER_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind == "softmax_regression" and self.hidden_dims:
            raise ValueError("softmax_regression takes no hidden layers")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ValueError("mlp needs at least one hidden layer")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden dims must be positive")

    @cached_property
    def _layout(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """((offset, out, inp) of each layer's weight block, whose bias
        follows it), and the parameter count. The spec is frozen, so this is
        computed once."""
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        layers, offset = [], 0
        for inp, out in zip(dims, dims[1:]):
            layers.append((offset, out, inp))
            offset += out * inp + out
        return tuple(layers), offset


@dataclass(frozen=True)
class Batch:
    """(feature vector, class label) pairs evaluated together: features
    (B, d) with labels (B,), or a stack of U batches, (U, B, d) with (U, B)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim not in (2, 3):
            raise ValueError("features must be (samples, input_dim) or (U, samples, input_dim)")
        if self.features.shape[:-1] != self.labels.shape:
            raise ValueError("features and labels must have equal length")
        if self.labels.size == 0:
            raise ValueError("batch must be nonempty")

    def __len__(self) -> int:
        """The number of samples, U·B for a stack."""
        return self.labels.size

    def repeat(self, count: int) -> Batch:
        """This batch ``count`` times over, as a stack of broadcast views."""
        return Batch(np.broadcast_to(self.features, (count, *self.features.shape)),
                     np.broadcast_to(self.labels, (count, *self.labels.shape)))


def param_count(spec: ModelSpec) -> int:
    return spec._layout[1]


def _unpack(
    spec: ModelSpec, w: np.ndarray, lead: tuple[int, ...] = ()
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector, or of each row of a ``lead`` stack of them,
    as per-layer (weight matrix (..., out, in), bias (..., 1, out)) pairs: a
    bias row broadcasts over the samples of its slice."""
    layers, count = spec._layout
    if w.shape != (*lead, count):
        raise ValueError(
            f"parameter vector has length {w.shape}, expected {(*lead, count)}"
        )
    return [
        (w[..., at : at + out * inp].reshape(*lead, out, inp),
         w[..., None, at + out * inp : at + out * inp + out])
        for at, out, inp in layers
    ]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform [-0.05, 0.05] entries; tiny enough for near-uniform softmax output."""
    return rng.uniform(-0.05, 0.05, size=param_count(spec))


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray, buffer=None):
    """The logits of ``_unpack``'s layers (one vector's, or a (g, D) stack's
    for (g, N, d) features), and each layer's input: the features, then each
    hidden ReLU output. Each bias is added where its layer is computed; given
    ``buffer(name, shape)``, the layers are written into ``buffer("hidden{i}",
    ...)`` and ``buffer("logits", ...)``, else each is a fresh array."""
    inputs = [features]
    last = len(layers) - 1
    for i, (weight, bias) in enumerate(layers):
        x = inputs[-1]
        if buffer is None:
            a = x @ weight.swapaxes(-1, -2)
        else:
            name = "logits" if i == last else f"hidden{i}"
            a = np.matmul(x, weight.swapaxes(-1, -2),
                          out=buffer(name, (*x.shape[:-1], weight.shape[-2])))
        a += bias
        if i == last:
            return a, inputs
        inputs.append(np.maximum(a, 0.0, out=a))


def _true_class_at(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flat offsets row * C + label of the true classes in C-ordered (..., N, C) logits."""
    at = np.arange(0, z.size, z.shape[-1])
    at += labels.reshape(-1)
    return at


class Workspace:
    """Work buffers kept from call to call (``loss`` takes one): named
    float64 arrays, each grown to the largest size asked for up to the
    scoring budget. Fresh pages for every call cost more than the arithmetic
    at desk shapes.

    The buffers are mapped pages of their own, outside the allocator's heap:
    a long-lived block in the heap keeps the freed (U, D) rows around it
    from being returned, which cost the wide workload 9 MB of peak RSS."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 array of ``shape`` over the named buffer; past the
        budget the array is fresh and not kept."""
        size = math.prod(shape)
        if size * 8 > _SCORE_BUFFER_BYTES:
            return np.empty(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = np.frombuffer(mmap.mmap(-1, size * 8), dtype=np.float64)
            self._buffers[name] = buf
        return buf[:size].reshape(shape)


def _fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape)


def _class_sum(e: np.ndarray, initial: float | None = 0.0) -> np.ndarray:
    """Sum over the class axis of class-major (..., C, N) terms, adding in
    the order numpy's pairwise summation adds a contiguous row of C terms:
    sequentially below 8 terms; up to one block, 8 running sums combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail; past a
    block, the sums of two halves split at a multiple of 8. The row's sum is
    then added to the reduction's initial 0.0 (a half has none). The result
    is bit-equal to summing the row-major rows with ``sum(axis=-1)``."""
    classes = e.shape[-2]
    if classes > _PAIRWISE_BLOCK:
        half = classes // 2 - (classes // 2) % 8
        s = _class_sum(e[..., :half, :], None)
        s += _class_sum(e[..., half:, :], None)
    elif classes < 8:
        s = e[..., 0, :].copy()
        for k in range(1, classes):
            s += e[..., k, :]
    else:
        stop = classes - classes % 8
        r = e[..., :8, :]
        for k in range(8, stop, 8):
            r = r + e[..., k : k + 8, :]
        r = r[..., 0::2, :] + r[..., 1::2, :]   # r0 + r1, r2 + r3, r4 + r5, r6 + r7
        r = r[..., 0::2, :] + r[..., 1::2, :]
        s = r[..., 0, :] + r[..., 1, :]
        for k in range(stop, classes):
            s += e[..., k, :]
    if initial is not None:
        s += initial
    return s


def _score_slices(spec: ModelSpec, w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  buffer):
    """The mean cross-entropy of each of g slices: w (g, D) or (D,),
    features (g, N, d) and labels (g, N).

    ``_forward`` writes the logits into ``buffer``'s arrays; a class-major
    (g, C, N) copy of them then takes the max over classes, the shifted
    exponentials (in place) and their class sums, each one pass over
    contiguous rows of N samples."""
    z = _forward(_unpack(spec, w, w.shape[:-1]), features, buffer)[0]
    g, n, classes = z.shape
    true = z.reshape(-1)[_true_class_at(z, labels)]
    zc = buffer("class_major", (g, classes, n))
    np.copyto(zc, z.swapaxes(-1, -2))
    m = np.max(zc, axis=-2, out=buffer("row_max", (g, n)))
    zc -= m[..., None, :]
    np.exp(zc, out=zc)
    per_row = np.log(_class_sum(zc))
    np.add(m, per_row, out=per_row)
    per_row -= true.reshape(g, n)
    return per_row.sum(axis=-1) / n


def loss(
    spec: ModelSpec, w: np.ndarray, batch: Batch, work: Workspace | None = None
) -> float | np.ndarray:
    """Mean cross-entropy of the batch (of each slice of a stack), computed
    with the log-sum-exp trick.

    ``w`` is one parameter vector, or a (U, D) stack of them for a stack of
    U batches, row u scoring slice u. The result is bit-equal to the
    row-major terms ``loss_and_gradient`` takes; a stack is scored in groups
    of slices that fit the scoring budget, in the buffers of ``work`` when
    given."""
    features, labels = batch.features, batch.labels
    if w.ndim == 2 and (labels.ndim != 2 or len(w) != len(labels)):
        raise ValueError(f"a ({len(w)}, D) parameter stack needs a stack of {len(w)} batches")
    buffer = _fresh if work is None else work.array
    if labels.ndim == 1:
        return float(_score_slices(spec, w, features[None], labels[None], buffer)[0])
    u, n = labels.shape
    widest = max((*spec.hidden_dims, spec.num_classes))
    group = max(1, _SCORE_BUFFER_BYTES // (8 * n * widest))
    values = np.empty(u)
    for lo in range(0, u, group):
        part = slice(lo, lo + group)
        values[part] = _score_slices(
            spec, w[part] if w.ndim == 2 else w, features[part], labels[part], buffer
        )
    return values


def loss_and_gradient(
    spec: ModelSpec, w: np.ndarray, batch: Batch, out: np.ndarray | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """``loss`` and its gradient, bit-identical to the plain formulas.

    For a stack of U batches: U losses and a (U, D) gradient, slice u
    bit-equal to the call on batch u alone. One exp and one row sum serve
    both the log-sum-exp and the softmax, one array of flat offsets picks
    the true classes for both, and each layer's gradient is written into its
    view of one flat buffer: a fresh one, or ``out``, a C-contiguous array of
    the gradient's shape and dtype that shares no memory with the inputs,
    which is then returned.
    """
    layers = _unpack(spec, w)
    z, inputs = _forward(layers, batch.features)
    n = z.shape[-2]
    at = _true_class_at(z, batch.labels)
    # numpy reduces short rows one by one; the max over contiguous rows of a
    # class-major copy is the same (a max rounds nothing) and faster past a
    # few dozen rows
    m = z.swapaxes(-1, -2).copy().max(axis=-2)
    e = np.subtract(z, m[..., None])
    np.exp(e, out=e)
    s = e.sum(axis=-1)
    per_row = np.log(s)
    np.add(m, per_row, out=per_row)
    per_row -= z.reshape(-1)[at].reshape(s.shape)
    value = per_row.sum(axis=-1) / n

    delta = e
    delta /= s[..., None]  # the softmax
    delta.reshape(-1)[at] -= 1.0  # e is fresh, so this is a view
    delta /= n

    lead = z.shape[:-2]
    grad = np.empty((*lead, w.shape[0]), dtype=z.dtype) if out is None else out
    if not (grad.flags.c_contiguous and grad.dtype == z.dtype):
        raise ValueError(f"out must be a C-contiguous {z.dtype} array")
    grad_layers = _unpack(spec, grad, lead)
    for i in range(len(layers) - 1, -1, -1):
        g_w, g_b = grad_layers[i]
        np.matmul(delta.swapaxes(-1, -2), inputs[i], out=g_w)
        delta.sum(axis=-2, keepdims=True, out=g_b)
        if i > 0:  # a ReLU output is positive where its pre-activation is
            delta = (delta @ layers[i][0]) * (inputs[i] > 0)
    return (value if value.ndim else float(value)), grad


def gradient(spec: ModelSpec, w: np.ndarray, batch: Batch) -> np.ndarray:
    return loss_and_gradient(spec, w, batch)[1]


def accuracy(spec: ModelSpec, w: np.ndarray, data) -> float:
    """Fraction of argmax-correct predictions over a Batch or Dataset; argmax
    breaks ties toward the lowest class index."""
    n = len(data.features)
    if n == 0:
        raise ValueError("accuracy needs a nonempty dataset")
    z = _forward(_unpack(spec, w), data.features)[0]
    return float(np.count_nonzero(z.argmax(axis=-1) == data.labels) / n)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[u] @ b[u]`` for every row u of two (U, D) arrays, bit for bit.

    One stacked matmul of (1, D) @ (D, 1) slices runs the same dot product
    per row as ``@`` on the rows alone; ``(a * b).sum(axis=1)`` and
    ``np.einsum`` sum in other orders. That holds for C-ordered rows only (a
    column-major array gives other last bits), so any other layout is a
    ValueError.
    """
    if not (a.flags.c_contiguous and b.flags.c_contiguous):
        raise ValueError("row_dots needs C-contiguous (U, D) arrays")
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of a (U, D) array, bit for bit."""
    return np.sqrt(row_dots(a, a))
