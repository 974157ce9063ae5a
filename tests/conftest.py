import math

import numpy as np
import pytest

from swarmlearn.core import HyperParameters
from swarmlearn.data import Rows, synthetic_blobs
from swarmlearn.model import Batch, ModelSpec, init_params
from swarmlearn.swarm import WorkerState


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


def hand_workers(seed, features, labels, pools, **fields):
    """Workers built by hand the way a run builds them: worker k's pool is
    the ``Rows`` of ``features``/``labels`` at ``pools[k]`` and its seed is
    ``seed``. ``fields`` gives other ``WorkerState`` fields
    as one value per worker; the rest are those of a FedAvg worker (no model,
    no scoring set, a best score of inf)."""
    workers = []
    for k, pool in enumerate(pools):
        given = dict(w=None, v=None, w_p=None, f_p=math.inf, score_set=None)
        given.update({name: values[k] for name, values in fields.items()})
        workers.append(WorkerState(
            worker_id=k, train_features=Rows(features, pool), train_labels=Rows(labels, pool),
            seed=seed, **given,
        ))
    return workers
