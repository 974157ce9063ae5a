"""Dataset ingestion, worker partitioning, shared-set construction and EMD.

IDX file format (big endian):
  i32  | magic (0x00000803 for images / 3 dims, 0x00000801 for labels / 1 dim)
  i32  | size of each dimension
  u8[] | payload
Pixels are scaled to [0, 1] and images flattened row-major.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import draw_batch_indices  # noqa: F401  a worker's mini-batch draw, re-exported
from .model import Batch

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, d) with one label per row")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def as_batch(self) -> Batch:
        return Batch(self.features, self.labels)


@dataclass(frozen=True)
class Rows:
    """Rows `index` of `base`, gathered on read: rows[idx] is base[index[idx]].

    A worker's training pool is a Rows view of the seed's training set, so no
    worker holds a copy of its partition or of the shared training rows.
    """

    base: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, idx) -> np.ndarray:
        return self.base[self.index[idx]]


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint per-worker index lists into a parent dataset."""

    worker_indices: tuple[np.ndarray, ...]
    mode: str
    parent_size: int

    def __post_init__(self):
        seen: set[int] = set()
        for idx in self.worker_indices:
            if len(idx) and (idx.min() < 0 or idx.max() >= self.parent_size):
                raise ValueError("partition index out of range")
            as_set = set(int(i) for i in idx)
            if seen & as_set:
                raise ValueError("worker partitions overlap")
            seen |= as_set

    @property
    def num_workers(self) -> int:
        return len(self.worker_indices)

    def all_indices(self) -> np.ndarray:
        return np.concatenate(self.worker_indices) if self.worker_indices else np.array([], dtype=np.int64)


@dataclass(frozen=True)
class GlobalShared:
    """Held-out data shared by everyone: a training part and a scoring part.

    The scoring part is a copy, scored every round. The training part is
    rows ``train_indices`` of ``source``, gathered when ``train`` is read:
    the worker pools index ``source`` directly.
    """

    source: Dataset
    score: Dataset
    train_indices: np.ndarray
    score_indices: np.ndarray

    @property
    def train(self) -> Dataset:
        return self.source.subset(self.train_indices)


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"truncated {what} in {getattr(f, 'name', '<stream>')}")
    return data


def _read_idx(path: str, expected_magic: int, ndim: int, what: str):
    with open(path, "rb") as f:
        (magic,) = struct.unpack(">i", _read_exact(f, 4, "header"))
        if magic != expected_magic:
            raise ValueError(
                f"bad magic 0x{magic:08x} in {path}, expected 0x{expected_magic:08x} for {what}"
            )
        dims = [struct.unpack(">i", _read_exact(f, 4, "header"))[0] for _ in range(ndim)]
        payload = _read_exact(f, int(np.prod(dims)), "payload")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path: str, labels_path: str, num_classes: int = 10) -> Dataset:
    """Load an IDX image/label file pair into a flat, [0, 1]-scaled dataset."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3, "images")
    (label_count,), raw_labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1, "labels")
    if count != label_count:
        raise ValueError(f"image count {count} != label count {label_count}")
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(features, raw_labels.astype(np.int64), num_classes)


def synthetic_blobs(num_classes: int, per_class: int, dim: int, separation: float, seed) -> Dataset:
    """Unit-variance Gaussian blobs, one mean per class, pairwise >= separation apart.

    Means sit on scaled axis directions, so the pairwise-distance guarantee is
    exact by construction. Samples are emitted in class blocks.
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class and dim must be positive")
    rng = _as_rng(seed)
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        mean = np.zeros(dim)
        mean[c % dim] = separation * (1 + c // dim)
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = mean + rng.standard_normal((per_class, dim))
        labels[block] = c
    return Dataset(features, labels, num_classes)


def partition_iid(ds: Dataset, num_workers: int, per_worker: int, seed) -> PartitionPlan:
    """num_workers disjoint lists of exactly per_worker random indices."""
    if num_workers * per_worker > len(ds):
        raise ValueError(
            f"need {num_workers * per_worker} samples for the plan, dataset has {len(ds)}"
        )
    rng = _as_rng(seed)
    drawn = rng.permutation(len(ds))[: num_workers * per_worker]
    lists = tuple(
        np.sort(drawn[i * per_worker : (i + 1) * per_worker]) for i in range(num_workers)
    )
    return PartitionPlan(lists, "iid", len(ds))


def partition_shards(
    ds: Dataset, num_shards: int, shards_per_worker: int, num_workers: int, seed
) -> PartitionPlan:
    """Label-sorted contiguous shards, assigned randomly without replacement.

    Each worker receives shards_per_worker shards, so it sees at most
    2 * shards_per_worker distinct labels (usually fewer).
    """
    if num_shards < 1 or num_shards > len(ds):
        raise ValueError("num_shards must be in [1, len(ds)]")
    shard_size = len(ds) // num_shards
    if num_workers * shards_per_worker > num_shards:
        raise ValueError(
            f"{num_workers} workers x {shards_per_worker} shards exceed {num_shards} shards"
        )
    rng = _as_rng(seed)
    order = np.argsort(ds.labels, kind="stable")
    chosen = rng.permutation(num_shards)[: num_workers * shards_per_worker]
    lists = []
    for i in range(num_workers):
        mine = chosen[i * shards_per_worker : (i + 1) * shards_per_worker]
        idx = np.concatenate([order[s * shard_size : (s + 1) * shard_size] for s in mine])
        lists.append(np.sort(idx))
    return PartitionPlan(tuple(lists), "shard", len(ds))


def stratified_sample(
    ds: Dataset, count: int, excluded: set[int], rng: np.random.Generator
) -> np.ndarray:
    """Class-stratified draw of `count` indices avoiding `excluded`.

    Each class contributes count // C samples; the remainder goes one each to
    the lowest class indices.
    """
    if count == 0:
        return np.array([], dtype=np.int64)
    base, extra = divmod(count, ds.num_classes)
    blocked = np.array(sorted(excluded), dtype=np.int64)
    picked = []
    for c in range(ds.num_classes):
        quota = base + (1 if c < extra else 0)
        available = np.flatnonzero(ds.labels == c)
        if len(blocked):
            available = available[~np.isin(available, blocked)]
        if quota > len(available):
            raise ValueError(
                f"insufficient held-out samples for class {c}: need {quota}, have {len(available)}"
            )
        picked.append(rng.permutation(available)[:quota])
    return np.sort(np.concatenate(picked))


def build_global_shared(
    ds: Dataset, n_train: int, n_score: int, plan: PartitionPlan, seed
) -> GlobalShared:
    """Stratified held-out shared sets, disjoint from the plan and each other."""
    rng = _as_rng(seed)
    taken = set(int(i) for i in plan.all_indices())
    train_idx = stratified_sample(ds, n_train, taken, rng)
    taken |= set(int(i) for i in train_idx)
    score_idx = stratified_sample(ds, n_score, taken, rng)
    return GlobalShared(ds, ds.subset(score_idx), train_idx, score_idx)


def label_histogram(data, num_classes: int | None = None) -> np.ndarray:
    """Empirical class frequencies of a Dataset or a label array."""
    if hasattr(data, "labels"):
        labels = data.labels
        num_classes = data.num_classes if num_classes is None else num_classes
    else:
        labels = np.asarray(data)
        if num_classes is None:
            raise ValueError("num_classes is required for raw label arrays")
    if len(labels) == 0:
        raise ValueError("cannot build a histogram of an empty set")
    counts = np.bincount(labels, minlength=num_classes)
    return counts / counts.sum()


def emd(p_local: np.ndarray, p_pop: np.ndarray) -> float:
    """Total-variation style label-distribution distance, sum_c |p_i(c) - p(c)|."""
    p_local = np.asarray(p_local, dtype=np.float64)
    p_pop = np.asarray(p_pop, dtype=np.float64)
    if p_local.shape != p_pop.shape:
        raise ValueError("histograms must have the same number of classes")
    return float(np.abs(p_local - p_pop).sum())
