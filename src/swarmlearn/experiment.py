"""Experiment assembly shared by all algorithm variants.

Everything derived from (configuration, seed) — dataset, partitions, shared
sets, test set, model spec and initial parameters — is built here from
dedicated orchestrator streams, so every variant run under the same seed sees
byte-identical data and initialization (checked through the digests).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from .core import (
    DOMAIN_INIT,
    DOMAIN_ORCHESTRATOR,
    HyperParameters,
    derived_rng,
)
from .model import Batch, ModelSpec, init_params, loss, param_count
from .swarm import WorkerState

PARTITION_MODES = ("iid", "shard")
INIT_MODES = ("shared", "per_worker")


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"
    classes: int = 10
    per_class: int = 900
    dim: int = 20
    separation: float = 1.6
    test_per_class: int = 100
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    partition: str = "shard"
    per_worker: int = 300
    num_shards: int = 60
    shards_per_worker: int = 2
    global_train: int = 600
    global_score: int = 500

    def __post_init__(self):
        if self.source not in ("synthetic", "idx"):
            raise ValueError("data source must be 'synthetic' or 'idx'")
        if self.partition not in PARTITION_MODES:
            raise ValueError(f"partition must be one of {PARTITION_MODES}")
        if self.source == "idx" and (self.idx_images is None or self.idx_labels is None):
            raise ValueError("idx source needs idx_images and idx_labels paths")
        paths = [key for key in ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels")
                 if getattr(self, key) is not None]
        if self.source == "synthetic" and paths:
            raise ValueError(f"synthetic source reads no IDX files; remove {', '.join(paths)}")
        if (self.idx_test_images is None) != (self.idx_test_labels is None):
            raise ValueError("idx_test_images and idx_test_labels go together: set both or neither")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        for key in ("per_class", "dim", "test_per_class", "per_worker", "num_shards",
                    "shards_per_worker"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.global_train < 0 or self.global_score < 0:
            raise ValueError("shared set sizes must be >= 0")
        if not math.isfinite(self.separation):
            raise ValueError("separation must be finite")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "softmax_regression"
    hidden_dims: tuple[int, ...] = ()
    init: str = "shared"

    def __post_init__(self):
        """Reject a model before any data exists: ModelSpec runs its kind and
        hidden-layer rules on placeholder sizes, as the data sets the input size."""
        if self.init not in INIT_MODES:
            raise ValueError(f"init mode must be one of {INIT_MODES}")
        ModelSpec(self.kind, input_dim=1, num_classes=2, hidden_dims=self.hidden_dims)


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    variant: str
    seed: int
    f_g: float
    train_loss_mean: float
    train_loss_min: float
    train_loss_max: float
    test_accuracy: float
    scalar_uplinks: int
    vector_uplinks: int
    vector_broadcasts: int
    detections: int
    diag: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSetup:
    train: datamod.KeptRows
    test: Batch
    plan: datamod.PartitionPlan
    shared: datamod.GlobalShared | None
    spec: ModelSpec
    init_w: np.ndarray          # (D,) shared or (U, D) per-worker
    seed: int
    partition_digest: str
    init_digest: str


def _digest_plan(plan: datamod.PartitionPlan) -> str:
    h = hashlib.sha256(plan.mode.encode())
    for idx in plan.worker_indices:
        h.update(np.ascontiguousarray(idx, dtype="<i8").tobytes())
    return h.hexdigest()


def _digest_array(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def draw_labels(
    cfg: DataConfig,
    spec_kind: str,
    hidden_dims: tuple[int, ...],
    h: HyperParameters,
    seed: int,
    init_mode: str = "shared",
) -> tuple[datamod.LabelSet, datamod.PartitionPlan, np.ndarray, np.ndarray, np.ndarray]:
    """The label-level first step of ``build_setup``: the model check, the
    labels, the partition, the shared sets and a carved test split. These are
    the draws that can make one seed infeasible; no feature row is built.

    Returns the label set, the partition plan, and the shared training,
    shared scoring and carved test rows, in original row numbers (the carved
    rows are empty unless a test split is carved)."""
    ModelConfig(spec_kind, tuple(hidden_dims), init_mode)
    if cfg.source == "synthetic":
        labels = datamod.blob_labels(cfg.classes, cfg.per_class)
    else:
        labels = datamod.read_idx_labels(cfg.idx_labels)
    world = datamod.LabelSet(labels, cfg.classes)

    if cfg.partition == "iid":
        plan = datamod.partition_iid(
            world, h.num_workers, cfg.per_worker, derived_rng(seed, DOMAIN_ORCHESTRATOR, 1)
        )
    else:
        plan = datamod.partition_shards(
            world, cfg.num_shards, cfg.shards_per_worker, h.num_workers,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 1),
        )

    train_idx = score_idx = test_idx = np.array([], dtype=np.int64)
    if cfg.global_train or cfg.global_score:
        train_idx, score_idx = datamod.build_global_shared(
            world, cfg.global_train, cfg.global_score, plan,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 2),
        )
    if cfg.source == "idx" and cfg.idx_test_images is None:
        test_idx = datamod.stratified_sample(
            world, cfg.test_per_class * cfg.classes,
            np.concatenate([plan.all_indices(), train_idx, score_idx]),
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 3),
        )
    return world, plan, train_idx, score_idx, test_idx


def build_setup(
    cfg: DataConfig,
    spec_kind: str,
    hidden_dims: tuple[int, ...],
    h: HyperParameters,
    seed: int,
    init_mode: str = "shared",
    *,
    draws: tuple | None = None,
) -> ExperimentSetup:
    """Build the per-seed world every variant shares. ``draws`` are this
    seed's ``draw_labels`` of the same arguments, taken earlier; without
    them they are drawn here."""
    # Labels first: the partition, the shared sets and a carved test split
    # are drawn from them, then only the rows some consumer reads are built.
    if draws is None:
        draws = draw_labels(cfg, spec_kind, hidden_dims, h, seed, init_mode)
    world, plan, train_idx, score_idx, test_idx = draws

    # one buffer: the stored worker and shared-train rows in original row
    # order, then the scoring rows, then a carved test split
    stored = np.sort(np.concatenate([plan.all_indices(), train_idx]))
    rows = np.concatenate([stored, score_idx, test_idx])
    if cfg.source == "synthetic":
        kept = datamod.synthetic_blobs(
            cfg.classes, cfg.per_class, cfg.dim, cfg.separation,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 0), rows=rows,
        )
    else:
        kept = datamod.load_idx(cfg.idx_images, cfg.idx_labels, cfg.classes, rows=rows)
    bounds = (0, len(stored), len(stored) + len(score_idx), len(rows))
    store, score, carved = (
        datamod.Dataset(kept.features[lo:hi], kept.labels[lo:hi], cfg.classes)
        for lo, hi in zip(bounds, bounds[1:])
    )
    train = datamod.KeptRows.of(world, stored, store)
    shared = None
    if cfg.global_train or cfg.global_score:
        shared = datamod.GlobalShared(score, train_idx)

    if cfg.source == "synthetic":
        test_ds = datamod.synthetic_blobs(
            cfg.classes, cfg.test_per_class, cfg.dim, cfg.separation,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 3),
        )
    elif cfg.idx_test_images is None:
        test_ds = carved
    else:
        test_ds = datamod.load_idx(cfg.idx_test_images, cfg.idx_test_labels, cfg.classes)

    spec = ModelSpec(spec_kind, store.features.shape[1], cfg.classes, tuple(hidden_dims))
    if init_mode == "shared":
        init_w = init_params(spec, derived_rng(seed, DOMAIN_INIT, 0))
    else:
        init_w = np.stack(
            [init_params(spec, derived_rng(seed, DOMAIN_INIT, i)) for i in range(h.num_workers)]
        )

    return ExperimentSetup(
        train=train,
        test=test_ds.as_batch(),
        plan=plan,
        shared=shared,
        spec=spec,
        init_w=init_w,
        seed=seed,
        partition_digest=_digest_plan(plan),
        init_digest=_digest_array(init_w),
    )


def initial_w_for(setup: ExperimentSetup, worker_id: int) -> np.ndarray:
    return (setup.init_w[worker_id] if setup.init_w.ndim == 2 else setup.init_w).copy()


def worker_pool(setup: ExperimentSetup, worker_id: int, with_global_train: bool):
    """A worker's training pool: its partition, optionally + the shared train set.

    Both are rows of ``setup.train``'s store (the shared sets are drawn from
    the training set), so the pool is a pair of Rows views over one index
    array, not a copy.
    """
    rows = setup.plan.worker_indices[worker_id]
    if with_global_train:
        rows = np.concatenate([rows, setup.shared.train_indices])
    return setup.train.rows(rows)


def make_workers(
    setup: ExperimentSetup,
    h: HyperParameters,
    with_global_train: bool,
    score_mode: str,            # "shared" | "local" | "none"
) -> list[WorkerState]:
    """The run's workers in worker-id order. Swarm workers (a ``score_mode``
    other than "none") carry read-only views of their start as ``w`` and
    ``w_p`` and of one zero ``v``, which ``Population.of`` copies into the
    run's rows, and a scoring set: one shared Batch or a row of one (U, n, d)
    gather. One ``loss`` call scores every start. FedAvg workers carry none."""
    if score_mode == "shared" and (setup.shared is None or not len(setup.shared.score)):
        raise ValueError("missing global scoring dataset (global_score)")
    if with_global_train and (setup.shared is None or not len(setup.shared.train_indices)):
        raise ValueError("missing global training dataset (global_train)")
    count = h.num_workers
    pools = [worker_pool(setup, i, with_global_train) for i in range(count)]
    zero, starts, sets, f_p = None, [None] * count, [None] * count, np.full(count, math.inf)
    if score_mode != "none":
        zero = np.broadcast_to(0.0, param_count(setup.spec))
        starts = np.broadcast_to(setup.init_w, (count, len(zero)))
        if score_mode == "shared":
            sets = [setup.shared.score.as_batch()] * count
            scored = sets[0] if setup.init_w.ndim == 1 else sets[0].repeat(count)
        else:
            scored = setup.train.batch(np.stack(setup.plan.worker_indices))
            sets = [Batch(x, y) for x, y in zip(scored.features, scored.labels)]
        f_p = np.broadcast_to(loss(setup.spec, setup.init_w, scored), (count,))
    return [
        WorkerState(
            worker_id=i,
            w=w0,
            v=zero,
            w_p=w0,
            f_p=float(f_p[i]),
            train_features=features,
            train_labels=labels,
            score_set=sets[i],
            seed=setup.seed,
        )
        for i, (w0, (features, labels)) in enumerate(zip(starts, pools))
    ]


def population_batch(setup: ExperimentSetup) -> Batch:
    """Union of all worker partitions: the empirical population."""
    return setup.train.batch(np.sort(setup.plan.all_indices()))
