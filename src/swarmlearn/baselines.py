"""Reference algorithms and the variant dispatcher for the five-way comparison.

FedAvg here is synchronized gradient averaging: every worker computes one
mini-batch gradient at the common model per round, the server applies the
mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .attacks import AttackSpec
from .core import HyperParameters, require_finite
# Bound here only for perfbench's span hooks; nothing in this module calls them.
from .core import derived_rng, draw_batch_indices  # noqa: F401
from .model import loss  # noqa: F401
from .experiment import (
    ExperimentSetup,
    RoundRecord,
    initial_w_for,
    make_workers,
    population_batch,
)
from .model import accuracy, loss_and_gradient
from .swarm import Crew, Population, ProtocolWiring, RoundOutcome, initial_ps, run_round


@dataclass(frozen=True)
class Variant:
    """One row of the variant table: what a learning variant trains on and scores with.

    ``score`` is the scoring set: ``shared`` (the global scoring set, which
    also lets the server verify uploads), ``local`` (each worker's own
    partition; nothing to verify against) or ``none`` (FedAvg keeps no
    scoreboard).
    """

    name: str
    swarm: bool             # swarm protocol; False means synchronized FedAvg
    global_train: bool      # the training pool includes the shared training set
    score: str


VARIANTS = {
    v.name: v
    for v in (
        Variant("fedavg", swarm=False, global_train=False, score="none"),
        Variant("fedavg_gtr", swarm=False, global_train=True, score="none"),
        Variant("cbdsl_plain", swarm=True, global_train=False, score="local"),
        Variant("cbdsl_gsc", swarm=True, global_train=False, score="shared"),
        Variant("cbdsl_full", swarm=True, global_train=True, score="shared"),
    )
}


def check_variants(
    names, num_workers: int, attack: AttackSpec, global_train: int, global_score: int
) -> tuple[Variant, ...]:
    """The table rows for ``names``; ValueError for anything a run cannot honour.

    ``global_train``/``global_score`` are the sizes of the shared sets the
    variants would run against.
    """
    bad_ids = sorted(i for i in attack.attacker_ids if not 0 <= i < num_workers)
    if bad_ids:
        raise ValueError(f"attacker ids out of range: {bad_ids}")
    rows = []
    for name in names:
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}")
        row = VARIANTS[name]
        if row.score == "shared" and global_score < 1:
            raise ValueError(f"variant {name}: missing global scoring dataset (global_score)")
        if row.global_train and global_train < 1:
            raise ValueError(f"variant {name}: missing global training dataset (global_train)")
        rows.append(row)
    non_swarm = [row.name for row in rows if not row.swarm]
    if attack.active and non_swarm:
        raise ValueError(
            f"attacks target the swarm report/upload path; remove variants {non_swarm} "
            "or run them in a separate config"
        )
    return tuple(rows)


@dataclass(frozen=True)
class DiagnosticsFlags:
    cosine_stats: bool = False
    divergence: bool = False
    lipschitz_probes: int = 16   # probe pairs of the per-seed Lipschitz estimate

    def __post_init__(self):
        if self.cosine_stats and self.lipschitz_probes < analysis.MIN_LIPSCHITZ_PROBES:
            raise ValueError(
                f"lipschitz_probes must be >= {analysis.MIN_LIPSCHITZ_PROBES} "
                "when cosine_stats is on"
            )


@dataclass
class RunResult:
    variant: str
    seed: int
    records: list[RoundRecord]
    cosine_stats: analysis.CosineStats | None


def fedavg_round(crew: Crew, w: np.ndarray, h: HyperParameters, spec, t: int):
    """One synchronized round: mean of all workers' mini-batch gradients at w.

    The crew's round-t batches are gathered as one stacked batch and their
    gradients taken in one kernel call.
    """
    losses, grads = loss_and_gradient(spec, w, crew.batches(t))
    w_new = w - h.alpha * grads.mean(axis=0)
    require_finite(w_new, f"fedavg consensus at round {t}")
    return w_new, losses


def run_variant(
    variant: str,
    setup: ExperimentSetup,
    h: HyperParameters,
    attack: AttackSpec = AttackSpec(),
    verification: bool = True,
    diag: DiagnosticsFlags = DiagnosticsFlags(),
) -> RunResult:
    """Run one algorithm variant against the shared per-seed world.

    The variant's kind only decides how a round is taken; test accuracy, the
    diagnostics and the round records are built here the same way for all.
    """
    shared = setup.shared
    (row,) = check_variants(
        (variant,), h.num_workers, attack,
        len(shared.train_indices) if shared is not None else 0,
        len(shared.score) if shared is not None else 0,
    )
    if row.swarm:
        rounds = _swarm_rounds(row, setup, h, attack, verification, diag.cosine_stats)
    else:
        rounds = _fedavg_rounds(row, setup, h)
    # FedAvg takes no swarm steps, so it has no alignment statistics.
    stats = analysis.CosineStats(h) if diag.cosine_stats and row.swarm else None
    genie = population = None
    if diag.divergence:
        population = population_batch(setup)
        genie = analysis.GenieState(initial_w_for(setup, 0), np.zeros(setup.init_w.shape[-1]))

    records = []
    tested, test_acc = None, math.nan   # a swarm round without a broadcast keeps its w_g
    for t, (outcome, w_test, worker_ws) in enumerate(rounds):
        diag_row: dict[str, float] = {}
        if stats is not None:
            diag_row.update(stats.consume_round(outcome.step_infos))
        if genie is not None:
            genie = analysis.genie_step(genie, h, setup.spec, population, t)
            diag_row.update(analysis.divergence_row(worker_ws, genie))
        if w_test is not tested:
            tested, test_acc = w_test, accuracy(setup.spec, w_test, setup.test)
        records.append(
            RoundRecord(
                round_index=t,
                variant=row.name,
                seed=setup.seed,
                f_g=outcome.f_g,
                train_loss_mean=float(outcome.batch_losses.mean()),
                train_loss_min=float(outcome.batch_losses.min()),
                train_loss_max=float(outcome.batch_losses.max()),
                test_accuracy=test_acc,
                scalar_uplinks=outcome.scalar_uplinks,
                vector_uplinks=outcome.vector_uplinks,
                vector_broadcasts=outcome.vector_broadcasts,
                detections=outcome.detections,
                diag=diag_row,
            )
        )
    return RunResult(row.name, setup.seed, records, stats)


def _swarm_rounds(row: Variant, setup, h, attack, verification, collect_vectors):
    """Swarm protocol rounds, each as (outcome, model to test, (U, D) worker
    models); the model to test is the global best, None until one exists.
    The workers are one population, its rows copied once from the workers'
    start and advanced in place by every round, so a round's worker models
    are valid until the next one."""
    workers = make_workers(setup, h, row.global_train, row.score)
    if attack.active:
        workers = [
            replace(w, is_byzantine=w.worker_id in attack.attacker_ids) for w in workers
        ]
    pop = Population.of(workers, h)
    shared_score = setup.shared.score.as_batch() if row.score == "shared" else None
    wiring = ProtocolWiring(
        hyper=h,
        spec=setup.spec,
        shared_score=shared_score,
        verification=verification,
        attack=attack,
    )
    ps = initial_ps()
    for t in range(h.rounds):
        pop, ps, outcome = run_round(pop, ps, wiring, t, collect_vectors=collect_vectors)
        yield outcome, ps.w_g, pop.w


def _fedavg_rounds(row: Variant, setup, h):
    """FedAvg rounds in the shape of ``_swarm_rounds``: every worker uplinks
    its gradient and the server broadcasts the new consensus, which all
    workers then hold."""
    crew = Crew.of(make_workers(setup, h, row.global_train, row.score), h)
    w = initial_w_for(setup, 0)
    for t in range(h.rounds):
        w, losses = fedavg_round(crew, w, h, setup.spec, t)
        outcome = RoundOutcome(
            f_g=math.nan, batch_losses=losses, scalar_uplinks=0, vector_uplinks=len(crew.ids),
            vector_broadcasts=1, detections=0, step_infos=None,
        )
        yield outcome, w, np.broadcast_to(w, (len(crew.ids), w.size))
