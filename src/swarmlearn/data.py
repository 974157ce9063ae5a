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


# Synthetic blobs are drawn through a scratch buffer of this many bytes, a
# chunk of draws that stays in a core's L2 cache until its kept rows are copied.
_SCRATCH_BYTES = 1 << 20


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels must lie in [0, num_classes)")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, d) with one label per row")
        _check_labels(self.labels, self.num_classes)

    def __len__(self) -> int:
        return len(self.labels)

    def as_batch(self) -> Batch:
        return Batch(self.features, self.labels)


@dataclass(frozen=True)
class LabelSet:
    """A dataset's labels alone, one per row: the partition and the shared
    and test sets are drawn from these before any feature row is built."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        _check_labels(self.labels, self.num_classes)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Rows:
    """Rows `index` of `base`, gathered on read: rows[idx] is base[index[idx]].

    A worker's training pool is a Rows view of the seed's stored training
    rows, so no worker holds a copy of its partition or of the shared
    training rows.
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
        seen = np.zeros(self.parent_size, dtype=bool)
        for idx in self.worker_indices:
            if len(idx) and (idx.min() < 0 or idx.max() >= self.parent_size):
                raise ValueError("partition index out of range")
            if seen[idx].any():
                raise ValueError("worker partitions overlap")
            seen[idx] = True

    def all_indices(self) -> np.ndarray:
        return np.concatenate(self.worker_indices) if self.worker_indices else np.array([], dtype=np.int64)


@dataclass(frozen=True)
class KeptRows(LabelSet):
    """A training set addressed by original row number: every row's label,
    and the float64 features of only the rows some consumer reads.

    ``store`` holds the kept rows in original row order; ``position`` maps
    each original row to its store row, and every row that was not kept to
    ``len(store)``, one past the end, so reading it raises IndexError and
    never returns a neighbouring row.
    """

    store: Dataset
    position: np.ndarray

    @classmethod
    def of(cls, full: LabelSet, kept: np.ndarray, store: Dataset) -> "KeptRows":
        """``store`` holds the rows ``kept`` (ascending) of ``full``."""
        position = np.full(len(full), len(kept), dtype=np.intp)
        position[kept] = np.arange(len(kept))
        return cls(full.labels, full.num_classes, store, position)

    def batch(self, indices) -> Batch:
        """Original rows ``indices``: (n, d) for an (n,) index, (U, n, d) for (U, n)."""
        at = self.position[indices]
        return Batch(self.store.features[at], self.store.labels[at])

    def rows(self, indices) -> tuple[Rows, Rows]:
        """Features and labels of original rows ``indices`` as Rows views of
        the store, sharing one index."""
        at = self.position[indices]
        return Rows(self.store.features, at), Rows(self.store.labels, at)


@dataclass(frozen=True)
class GlobalShared:
    """Held-out data shared by everyone: a training part and a scoring part.

    The scoring part is held once, scored every round. The training part is
    the rows ``train_indices`` of the seed's training set, which the worker
    pools index directly.
    """

    score: Dataset
    train_indices: np.ndarray


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


def _kept(rows, count: int) -> np.ndarray:
    """The row numbers to keep: ``rows``, or every row when None."""
    if rows is None:
        return np.arange(count)
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) and (rows.min() < 0 or rows.max() >= count):
        raise ValueError(f"row to keep out of range for {count} rows")
    return rows


def read_idx_labels(path: str) -> np.ndarray:
    """The labels of an IDX label file."""
    _, raw_labels = _read_idx(path, IDX_LABEL_MAGIC, 1, "labels")
    return raw_labels.astype(np.int64)


def load_idx(images_path: str, labels_path: str, num_classes: int = 10, rows=None) -> Dataset:
    """Rows ``rows`` (every row when None), in that order, of an IDX
    image/label file pair as a flat, [0, 1]-scaled dataset. Only those rows
    of the uint8 payload are converted."""
    (count, height, width), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3, "images")
    labels = read_idx_labels(labels_path)
    if count != len(labels):
        raise ValueError(f"image count {count} != label count {len(labels)}")
    rows = _kept(rows, count)
    kept = pixels.reshape(count, height * width)[rows]
    features = np.divide(kept, 255.0, out=np.empty(kept.shape))
    return Dataset(features, labels[rows], num_classes)


def blob_labels(num_classes: int, per_class: int) -> np.ndarray:
    """The labels of ``synthetic_blobs``: class blocks of per_class rows."""
    return np.repeat(np.arange(num_classes, dtype=np.int64), per_class)


def synthetic_blobs(
    num_classes: int, per_class: int, dim: int, separation: float, seed, rows=None
) -> Dataset:
    """Unit-variance Gaussian blobs, one mean per class, pairwise >= separation apart.

    Means sit on scaled axis directions, so the pairwise-distance guarantee is
    exact by construction. Samples are emitted in class blocks. Only rows
    ``rows`` (every row when None) are kept, in that order; every block is
    still drawn, chunk by chunk through one cache-sized scratch buffer, so
    the generator's stream and each kept value are those of the full set.
    Each ascending run of ``rows`` is filled chunk by chunk, so rows given
    as a few sorted runs cost least.
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class and dim must be positive")
    rng = _as_rng(seed)
    labels = blob_labels(num_classes, per_class)
    rows = _kept(rows, len(labels))
    # each ascending run of rows fills one stretch of the output, in order
    cuts = np.flatnonzero(np.diff(rows) <= 0) + 1
    runs = list(zip((0, *cuts), np.split(rows, cuts)))
    features = np.empty((len(rows), dim))
    chunk = min(per_class, max(1, _SCRATCH_BYTES // (8 * dim)))
    scratch = np.empty((chunk, dim))
    for c in range(num_classes):
        mean = np.zeros(dim)
        mean[c % dim] = separation * (1 + c // dim)
        for lo in range(c * per_class, (c + 1) * per_class, chunk):
            draws = scratch[: min(chunk, (c + 1) * per_class - lo)]
            # chunked draws are the same draws as one draw of the block
            rng.standard_normal(out=draws)
            draws += mean  # the same sums as mean + draws
            for start, run in runs:
                first, stop = np.searchsorted(run, (lo, lo + len(draws)))
                if first < stop:
                    # positions lie in the chunk by construction; "raise"
                    # would take through a temporary copy of the output
                    np.take(draws, run[first:stop] - lo, axis=0,
                            out=features[start + first : start + stop], mode="clip")
    return Dataset(features, labels[rows], num_classes)


def partition_iid(ds: Dataset | LabelSet, num_workers: int, per_worker: int, seed) -> PartitionPlan:
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
    ds: Dataset | LabelSet, num_shards: int, shards_per_worker: int, num_workers: int, seed
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
    ds: Dataset | LabelSet, count: int, excluded: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Class-stratified draw of `count` indices into `ds` avoiding the
    indices `excluded`.

    Each class contributes count // C samples; the remainder goes one each to
    the lowest class indices.
    """
    if count < 0:
        raise ValueError(f"cannot draw a negative count ({count}) of samples")
    if count == 0:
        return np.array([], dtype=np.int64)
    base, extra = divmod(count, ds.num_classes)
    free = np.ones(len(ds), dtype=bool)
    free[excluded] = False
    picked = []
    for c in range(ds.num_classes):
        quota = base + (1 if c < extra else 0)
        available = np.flatnonzero((ds.labels == c) & free)
        if quota > len(available):
            raise ValueError(
                f"insufficient held-out samples for class {c}: need {quota}, have {len(available)}"
            )
        picked.append(rng.permutation(available)[:quota])
    return np.sort(np.concatenate(picked))


def build_global_shared(
    ds: Dataset | LabelSet, n_train: int, n_score: int, plan: PartitionPlan, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified held-out shared sets, disjoint from the plan and each
    other: the indices into `ds` of the training part and of the scoring
    part."""
    rng = _as_rng(seed)
    taken = plan.all_indices()
    train_idx = stratified_sample(ds, n_train, taken, rng)
    score_idx = stratified_sample(ds, n_score, np.concatenate([taken, train_idx]), rng)
    return train_idx, score_idx


def label_histogram(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Empirical class frequencies of a label array."""
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
