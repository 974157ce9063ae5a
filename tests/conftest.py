import numpy as np
import pytest

from swarmlearn.core import HyperParameters
from swarmlearn.data import synthetic_blobs
from swarmlearn.model import Batch, ModelSpec, init_params


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_spec():
    return ModelSpec("softmax_regression", input_dim=4, num_classes=3)


@pytest.fixture
def small_batch(rng):
    features = rng.standard_normal((12, 4))
    labels = rng.integers(0, 3, size=12)
    return Batch(features, labels)


@pytest.fixture
def blob_dataset():
    return synthetic_blobs(num_classes=4, per_class=50, dim=6, separation=8.0, seed=7)


@pytest.fixture
def default_hyper():
    return HyperParameters(rounds=10, num_workers=4, batch_size=5)


def fit_softmax(spec, batch, steps=400, lr=0.5):
    """Plain full-batch gradient descent, used as an independent trainer."""
    from swarmlearn.model import loss_and_gradient

    w = init_params(spec, np.random.default_rng(0))
    for _ in range(steps):
        _, g = loss_and_gradient(spec, w, batch)
        w = w - lr * g
    return w
