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
    draw_table,
    worker_stream,
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
        for key in ("per_worker", "num_shards", "shards_per_worker"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.global_train < 0 or self.global_score < 0:
            raise ValueError("shared set sizes must be >= 0")
        if not math.isfinite(self.separation):
            raise ValueError("separation must be finite")


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
    train: datamod.Dataset
    test: Batch
    plan: datamod.PartitionPlan
    shared: datamod.GlobalShared | None
    spec: ModelSpec
    init_w: np.ndarray          # (D,) shared or (U, D) per-worker
    init_mode: str
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


def check_model(kind: str, hidden_dims: tuple[int, ...], init_mode: str) -> None:
    """Reject a model config before any data exists.

    The input size is only known once the data is loaded, so ModelSpec runs
    its kind and hidden-layer rules here on placeholder sizes.
    """
    if init_mode not in INIT_MODES:
        raise ValueError(f"init mode must be one of {INIT_MODES}")
    ModelSpec(kind, input_dim=1, num_classes=2, hidden_dims=tuple(hidden_dims))


def build_setup(
    cfg: DataConfig,
    spec_kind: str,
    hidden_dims: tuple[int, ...],
    h: HyperParameters,
    seed: int,
    init_mode: str = "shared",
) -> ExperimentSetup:
    """Build the per-seed world every variant shares."""
    check_model(spec_kind, hidden_dims, init_mode)

    if cfg.source == "synthetic":
        train = datamod.synthetic_blobs(
            cfg.classes, cfg.per_class, cfg.dim, cfg.separation,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 0),
        )
    else:
        train = datamod.load_idx(cfg.idx_images, cfg.idx_labels, cfg.classes)

    if cfg.partition == "iid":
        plan = datamod.partition_iid(
            train, h.num_workers, cfg.per_worker, derived_rng(seed, DOMAIN_ORCHESTRATOR, 1)
        )
    else:
        plan = datamod.partition_shards(
            train, cfg.num_shards, cfg.shards_per_worker, h.num_workers,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 1),
        )

    shared = None
    if cfg.global_train or cfg.global_score:
        shared = datamod.build_global_shared(
            train, cfg.global_train, cfg.global_score, plan,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 2),
        )

    if cfg.source == "synthetic":
        test_ds = datamod.synthetic_blobs(
            cfg.classes, cfg.test_per_class, cfg.dim, cfg.separation,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 3),
        )
        test = test_ds.as_batch()
    elif cfg.idx_test_images is not None and cfg.idx_test_labels is not None:
        test = datamod.load_idx(cfg.idx_test_images, cfg.idx_test_labels, cfg.classes).as_batch()
    else:
        taken = set(int(i) for i in plan.all_indices())
        if shared is not None:
            taken |= set(int(i) for i in shared.train_indices)
            taken |= set(int(i) for i in shared.score_indices)
        test_idx = datamod.stratified_sample(
            train, cfg.test_per_class * cfg.classes, taken,
            derived_rng(seed, DOMAIN_ORCHESTRATOR, 3),
        )
        test = train.subset(test_idx).as_batch()

    spec = ModelSpec(spec_kind, train.features.shape[1], cfg.classes, tuple(hidden_dims))
    if init_mode == "shared":
        init_w = init_params(spec, derived_rng(seed, DOMAIN_INIT, 0))
    else:
        init_w = np.stack(
            [init_params(spec, derived_rng(seed, DOMAIN_INIT, i)) for i in range(h.num_workers)]
        )

    return ExperimentSetup(
        train=train,
        test=test,
        plan=plan,
        shared=shared,
        spec=spec,
        init_w=init_w,
        init_mode=init_mode,
        seed=seed,
        partition_digest=_digest_plan(plan),
        init_digest=_digest_array(init_w),
    )


def initial_w_for(setup: ExperimentSetup, worker_id: int) -> np.ndarray:
    if setup.init_mode == "shared":
        return setup.init_w.copy()
    return setup.init_w[worker_id].copy()


def worker_pool(setup: ExperimentSetup, worker_id: int, with_global_train: bool):
    """A worker's training pool: its partition, optionally + the shared train set.

    Both are rows of ``setup.train`` (the shared sets are drawn from it), so
    the pool is a pair of Rows views over one index array, not a copy.
    """
    rows = setup.plan.worker_indices[worker_id]
    if with_global_train and setup.shared is not None and len(setup.shared.train_indices):
        rows = np.concatenate([rows, setup.shared.train_indices])
    return datamod.Rows(setup.train.features, rows), datamod.Rows(setup.train.labels, rows)


def make_workers(
    setup: ExperimentSetup,
    h: HyperParameters,
    with_global_train: bool,
    score_mode: str,            # "shared" | "local" | "none"
) -> list[WorkerState]:
    """The run's workers in worker-id order. Swarm workers (a ``score_mode``
    other than "none") carry their start as ``w`` and ``w_p`` and a zero
    ``v``, all read-only views of the setup's start and of one zero vector:
    ``Population.of`` copies them into the run's rows. FedAvg workers hold
    no model of their own and carry none."""
    if score_mode == "shared" and (setup.shared is None or not len(setup.shared.score)):
        raise ValueError("missing global scoring dataset (global_score)")
    # one scoring Batch for every worker; None when score_mode is "none"
    score_set = setup.shared.score.as_batch() if score_mode == "shared" else None
    pools = [worker_pool(setup, i, with_global_train) for i in range(h.num_workers)]
    # FedAvg workers (no scoreboard) take no swarm step, so they draw no weights.
    draws = draw_table(
        setup.seed, range(h.num_workers), [len(labels) for _, labels in pools], h,
        coefficients=score_mode != "none",
    )
    zero = None
    if score_mode != "none":
        zero = np.zeros(param_count(setup.spec))
        zero.flags.writeable = False
    workers = []
    for i, (features, labels) in enumerate(pools):
        if score_mode == "local":
            # scored every round, so it stays a contiguous copy
            local_idx = setup.plan.worker_indices[i]
            score_set = Batch(setup.train.features[local_idx], setup.train.labels[local_idx])
        w0 = (setup.init_w if setup.init_mode == "shared" else setup.init_w[i]).view()
        w0.flags.writeable = False
        if score_set is None:
            f_p = math.inf
        elif workers and score_mode == "shared" and setup.init_mode == "shared":
            f_p = workers[0].f_p  # same start, same scoring set: the same score
        else:
            f_p = loss(setup.spec, w0, score_set)
        workers.append(
            WorkerState(
                worker_id=i,
                w=w0 if zero is not None else None,
                v=zero,
                w_p=w0 if zero is not None else None,
                f_p=f_p,
                train_features=features,
                train_labels=labels,
                score_set=score_set,
                stream=worker_stream(seed=setup.seed, worker_id=i),
                draws=draws[i],
            )
        )
    return workers


def population_batch(setup: ExperimentSetup) -> Batch:
    """Union of all worker partitions: the empirical population."""
    idx = np.sort(setup.plan.all_indices())
    return Batch(setup.train.features[idx], setup.train.labels[idx])
