"""Classification models as flat parameter vectors with closed-form gradients.

Two kinds are supported: plain softmax regression and a small ReLU MLP.
Parameters live in a single flat float64 vector (layer-major, weights before
biases) so the swarm update algebra stays purely vector-valued.

A batch is either one set of samples, features (B, d) and labels (B,), or a
stack of U such sets, features (U, B, d) and labels (U, B), evaluated at one
common parameter vector. The kernels run the same body on both: every matmul
broadcasts over the leading axis as one BLAS call per slice, and reductions
run along the per-slice axes, so slice u of a stacked result is bit-equal to
the call on batch u alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MODEL_KINDS = ("softmax_regression", "mlp")


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
        if self.features.shape[:-1] != np.shape(self.labels):
            raise ValueError("features and labels must have equal length")
        if len(self) == 0:
            raise ValueError("batch must be nonempty")

    def __len__(self) -> int:
        """The number of samples, U·B for a stack."""
        return np.size(self.labels)


def param_count(spec: ModelSpec) -> int:
    return spec._layout[1]


def _unpack(
    spec: ModelSpec, w: np.ndarray, lead: tuple[int, ...] = ()
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector, or of each row of a ``lead`` stack of them,
    as per-layer (weight matrix, bias) pairs."""
    layers, count = spec._layout
    if w.shape != (*lead, count):
        raise ValueError(
            f"parameter vector has length {w.shape}, expected {(*lead, count)}"
        )
    return [
        (w[..., at : at + out * inp].reshape(*lead, out, inp),
         w[..., at + out * inp : at + out * inp + out])
        for at, out, inp in layers
    ]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform [-0.05, 0.05] entries; tiny enough for near-uniform softmax output."""
    return rng.uniform(-0.05, 0.05, size=param_count(spec))


def _forward(spec: ModelSpec, w: np.ndarray, features: np.ndarray):
    """Returns (logits, per-layer activations, per-layer pre-activations)."""
    layers = _unpack(spec, w)
    activations = [features]
    pre = []
    a = features
    for i, (weight, bias) in enumerate(layers):
        z = a @ weight.T + bias
        pre.append(z)
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0)
            activations.append(a)
    return pre[-1], activations, pre


def logits(spec: ModelSpec, w: np.ndarray, features: np.ndarray) -> np.ndarray:
    return _forward(spec, w, features)[0]


def _row_max(z: np.ndarray) -> np.ndarray:
    """Max of each row of the (..., rows, classes) logits.

    numpy reduces the short class axis of a C-ordered array row by row; on a
    copy with the last two axes swapped the same maxima come from one pass
    over contiguous rows, 3-5x faster at 500 rows of 10 classes. A max rounds
    nothing, so the value does not depend on the order (NaN still propagates).
    """
    return z.swapaxes(-1, -2).copy().max(axis=-2)


def _cross_entropy_terms(z: np.ndarray, labels: np.ndarray):
    """Each row's log-sum-exp minus its true-class logit, together with the
    shifted exponentials, their row sums and the (row, class) picks of the
    true classes in the (rows, classes) view, which the softmax reuses."""
    m = _row_max(z)
    e = np.exp(z - m[..., None])
    s = e.sum(axis=-1)
    rows = z.reshape(-1, z.shape[-1])
    picks = np.arange(len(rows)), labels.reshape(-1)
    return m + np.log(s) - rows[picks].reshape(s.shape), e, s, picks


def _mean_over_rows(per_row: np.ndarray) -> float | np.ndarray:
    """The mean of each slice's rows: a float, or a (U,) array for a stack.
    Sum then divide, the same arithmetic as ``np.mean``."""
    value = per_row.sum(axis=-1) / per_row.shape[-1]
    return value if value.ndim else float(value)


def loss(spec: ModelSpec, w: np.ndarray, batch: Batch) -> float | np.ndarray:
    """Mean cross-entropy of the batch (of each slice of a stack), computed
    with the log-sum-exp trick."""
    z = logits(spec, w, batch.features)
    return _mean_over_rows(_cross_entropy_terms(z, batch.labels)[0])


def loss_and_gradient(
    spec: ModelSpec, w: np.ndarray, batch: Batch
) -> tuple[float | np.ndarray, np.ndarray]:
    """``loss`` and its gradient, bit-identical to the plain formulas.

    For a stack of U batches: U losses and a (U, D) gradient, slice u
    bit-equal to the call on batch u alone. One exp and one row sum serve
    both the log-sum-exp and the softmax, and each layer's gradient is
    written into its view of one flat buffer.
    """
    z, activations, pre = _forward(spec, w, batch.features)
    per_row, e, s, picks = _cross_entropy_terms(z, batch.labels)
    value = _mean_over_rows(per_row)

    delta = e
    delta /= s[..., None]  # the softmax
    delta.reshape(-1, delta.shape[-1])[picks] -= 1.0  # e is fresh, so this is a view
    delta /= z.shape[-2]

    layers = _unpack(spec, w)
    lead = z.shape[:-2]
    grad = np.empty((*lead, w.shape[0]), dtype=z.dtype)
    grad_layers = _unpack(spec, grad, lead)
    for i in range(len(layers) - 1, -1, -1):
        g_w, g_b = grad_layers[i]
        np.matmul(delta.swapaxes(-1, -2), activations[i], out=g_w)
        delta.sum(axis=-2, out=g_b)
        if i > 0:
            delta = (delta @ layers[i][0]) * (pre[i - 1] > 0)
    return value, grad


def gradient(spec: ModelSpec, w: np.ndarray, batch: Batch) -> np.ndarray:
    return loss_and_gradient(spec, w, batch)[1]


def predict(spec: ModelSpec, w: np.ndarray, features: np.ndarray) -> np.ndarray:
    # argmax breaks ties toward the lowest class index
    return np.argmax(logits(spec, w, features), axis=1)


def accuracy(spec: ModelSpec, w: np.ndarray, data) -> float:
    """Fraction of argmax-correct predictions over a Batch or Dataset."""
    if len(data.features) == 0:
        raise ValueError("accuracy needs a nonempty dataset")
    preds = predict(spec, w, data.features)
    return float(np.mean(preds == data.labels))
