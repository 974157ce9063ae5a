"""The per-seed world against the full-dataset world it replaces.

``build_setup`` draws the partition and the shared and test sets from the
labels and builds only the rows a run reads. The oracle here builds every
row of the training set the plain way, draws from it with set-based
bookkeeping, and requires every array a run reads to be byte-equal.
"""
import numpy as np
import pytest

from swarmlearn.core import DOMAIN_ORCHESTRATOR, HyperParameters, derived_rng
from swarmlearn.data import Dataset, partition_iid, partition_shards
from swarmlearn.experiment import (
    DataConfig,
    _digest_plan,
    build_setup,
    make_workers,
    population_batch,
)
from test_data import plain_blobs, write_idx_images, write_idx_labels

H = HyperParameters(rounds=2, num_workers=3, batch_size=5)
CLASSES = 4


def set_stratified_sample(labels, num_classes, count, excluded, rng):
    """Class-stratified draw avoiding a set of excluded indices."""
    if count == 0:
        return np.array([], dtype=np.int64)
    base, extra = divmod(count, num_classes)
    blocked = np.array(sorted(excluded), dtype=np.int64)
    picked = []
    for c in range(num_classes):
        available = np.flatnonzero(labels == c)
        available = available[~np.isin(available, blocked)]
        picked.append(rng.permutation(available)[: base + (1 if c < extra else 0)])
    return np.sort(np.concatenate(picked))


def full_world(cfg: DataConfig, seed: int, idx_pixels=None, idx_test=None):
    """(train, plan, shared train rows, shared score rows, test) built from
    every row of the training set."""
    if cfg.source == "synthetic":
        full = plain_blobs(cfg.classes, cfg.per_class, cfg.dim, cfg.separation,
                           derived_rng(seed, DOMAIN_ORCHESTRATOR, 0))
    else:
        images, labels = idx_pixels
        full = Dataset(images.reshape(len(images), -1).astype(np.float64) / 255.0,
                       labels.astype(np.int64), cfg.classes)
    if cfg.partition == "iid":
        plan = partition_iid(full, H.num_workers, cfg.per_worker,
                             derived_rng(seed, DOMAIN_ORCHESTRATOR, 1))
    else:
        plan = partition_shards(full, cfg.num_shards, cfg.shards_per_worker, H.num_workers,
                                derived_rng(seed, DOMAIN_ORCHESTRATOR, 1))
    taken = set(plan.all_indices().tolist())
    train_idx = score_idx = np.array([], dtype=np.int64)
    if cfg.global_train or cfg.global_score:
        rng = derived_rng(seed, DOMAIN_ORCHESTRATOR, 2)
        train_idx = set_stratified_sample(full.labels, cfg.classes, cfg.global_train, taken, rng)
        taken |= set(train_idx.tolist())
        score_idx = set_stratified_sample(full.labels, cfg.classes, cfg.global_score, taken, rng)
        taken |= set(score_idx.tolist())
    if cfg.source == "synthetic":
        test = plain_blobs(cfg.classes, cfg.test_per_class, cfg.dim, cfg.separation,
                           derived_rng(seed, DOMAIN_ORCHESTRATOR, 3))
    elif idx_test is not None:
        images, labels = idx_test
        test = Dataset(images.reshape(len(images), -1).astype(np.float64) / 255.0,
                       labels.astype(np.int64), cfg.classes)
    else:
        rows = set_stratified_sample(
            full.labels, cfg.classes, cfg.test_per_class * cfg.classes, taken,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 3),
        )
        test = Dataset(full.features[rows], full.labels[rows], cfg.classes)
    return full, plan, train_idx, score_idx, test


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def world_config(tmp_path, source, partition, shared):
    """A small DataConfig, its IDX arrays written to tmp_path for an IDX source."""
    fields = dict(classes=CLASSES, test_per_class=5, partition=partition, per_worker=20,
                  num_shards=24, shards_per_worker=2,
                  global_train=16 * shared[0], global_score=12 * shared[1])
    if source == "synthetic":
        return DataConfig(per_class=60, dim=5, separation=2.6, **fields), None, None
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(240, 3, 3), dtype=np.uint8)
    labels = rng.integers(0, CLASSES, size=240)
    write_idx_images(tmp_path / "images.idx", images)
    write_idx_labels(tmp_path / "labels.idx", labels.tolist())
    paths = dict(idx_images=str(tmp_path / "images.idx"), idx_labels=str(tmp_path / "labels.idx"))
    test = None
    if source == "idx_test":
        test = (rng.integers(0, 256, size=(30, 3, 3), dtype=np.uint8),
                rng.integers(0, CLASSES, size=30))
        write_idx_images(tmp_path / "test-images.idx", test[0])
        write_idx_labels(tmp_path / "test-labels.idx", test[1].tolist())
        paths.update(idx_test_images=str(tmp_path / "test-images.idx"),
                     idx_test_labels=str(tmp_path / "test-labels.idx"))
    return DataConfig(source="idx", **paths, **fields), (images, labels), test


@pytest.mark.parametrize("shared", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("partition", ["shard", "iid"])
@pytest.mark.parametrize("source", ["synthetic", "idx", "idx_test"])
def test_every_array_a_run_reads_equals_the_full_world(tmp_path, source, partition, shared):
    cfg, idx_pixels, idx_test = world_config(tmp_path, source, partition, shared)
    setup = build_setup(cfg, "softmax_regression", (), H, 5)
    full, plan, train_idx, score_idx, test = full_world(cfg, 5, idx_pixels, idx_test)

    assert setup.partition_digest == _digest_plan(plan)
    assert all(same(a, b) for a, b in zip(setup.plan.worker_indices, plan.worker_indices))
    assert same(setup.train.labels, full.labels)
    for i, rows in enumerate(plan.worker_indices):
        assert same(setup.train.labels[setup.plan.worker_indices[i]], full.labels[rows])
    assert same(setup.test.features, test.features) and same(setup.test.labels, test.labels)
    population = population_batch(setup)
    everyone = np.sort(plan.all_indices())
    assert same(population.features, full.features[everyone])
    assert same(population.labels, full.labels[everyone])
    # the store holds the worker rows first: the population is a view of
    # them, the bytes of the gathered batch
    gathered = setup.train.batch(everyone)
    assert same(population.features, gathered.features)
    assert same(population.labels, gathered.labels)
    assert np.shares_memory(population.features, setup.train.store.features)
    assert np.shares_memory(population.labels, setup.train.store.labels)

    if shared == (0, 0):
        assert setup.shared is None
    else:
        assert same(setup.shared.train_indices, train_idx)
        if len(train_idx):   # a Batch is never empty
            shared_train = setup.train.batch(setup.shared.train_indices)
            assert same(shared_train.features, full.features[train_idx])
            assert same(shared_train.labels, full.labels[train_idx])
        assert same(setup.shared.score.features, full.features[score_idx])
        assert same(setup.shared.score.labels, full.labels[score_idx])

    for with_global_train in (False, True) if shared[0] else (False,):
        score_mode = "shared" if shared[1] else "none"
        for i, worker in enumerate(make_workers(setup, H, with_global_train, score_mode)):
            rows = plan.worker_indices[i]
            if with_global_train:
                rows = np.concatenate([rows, train_idx])
            everything = np.arange(len(rows))
            assert same(worker.train_features[everything], full.features[rows])
            assert same(worker.train_labels[everything], full.labels[rows])
    for i, worker in enumerate(make_workers(setup, H, False, "local")):
        rows = plan.worker_indices[i]
        assert same(worker.score_set.features, full.features[rows])
        assert same(worker.score_set.labels, full.labels[rows])


def test_a_dropped_row_raises_on_read():
    # desk's shape: 4,100 of 9,000 rows are read, the rest are never built
    cfg = DataConfig(separation=2.6)
    setup = build_setup(cfg, "softmax_regression", (), HyperParameters(num_workers=10), 1)
    store = setup.train.store
    read = np.concatenate([setup.plan.all_indices(), setup.shared.train_indices])
    dropped = np.setdiff1d(np.arange(len(setup.train)), read)
    assert len(store) == len(read) == 3_600 and len(dropped) == 5_400
    assert len(setup.shared.score) == 500
    for row in (dropped[0], dropped[-1], dropped[len(dropped) // 2]):
        with pytest.raises(IndexError):
            setup.train.batch([row])
        features, labels = setup.train.rows([row])
        with pytest.raises(IndexError):
            features[0]
        with pytest.raises(IndexError):
            labels[0]
    # the labels of every row stay readable: the shared sets are drawn from them
    assert len(setup.train.labels[dropped]) == len(dropped)
