"""The swarm-learning protocol engine: worker update, best tracking, server side.

One round runs in three phases. Every worker takes a hybrid step (inertia +
pull toward its own best + pull toward the global best - a gradient step),
scores itself on its scoring set and reports that scalar. The server then
invites the claims that beat the global best, lowest first: the invited
worker uploads its best model and the server re-scores it to screen Byzantine
forgeries. A rejected upload blacklists its sender and the next claim is
invited; the first accepted one is broadcast as the new global best.
Communication is metered per round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks
from .core import (
    HyperParameters,
    RngStream,
    WorkerDraws,
    attack_stream,
    draw_batch_indices,  # noqa: F401  bound here only for perfbench's span hook
    inertia_schedule,
    require_finite,
    stream_draws,
)
from .data import Rows
from .model import Batch, ModelSpec, loss, loss_and_gradient


@dataclass
class WorkerState:
    worker_id: int
    w: np.ndarray
    v: np.ndarray
    w_p: np.ndarray
    f_p: float
    train_features: np.ndarray | Rows
    train_labels: np.ndarray | Rows
    score_set: Batch | None
    stream: RngStream
    is_byzantine: bool = False
    draws: WorkerDraws | None = None   # this worker's column of the run's draw table

    def round_draws(
        self, t: int, h: HyperParameters, coefficients: bool = True
    ) -> tuple[float, float, np.ndarray]:
        """Round t's (c1, c2, batch positions): read from the run's draw
        table, or drawn from the stream for a worker built without one."""
        if self.draws is not None:
            return self.draws.at(t)
        return stream_draws(self.stream, t, len(self.train_labels), h, coefficients)


@dataclass
class PsState:
    w_g: np.ndarray | None
    f_g: float
    blacklist: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class ScalarReport:
    worker_id: int
    claimed: float


@dataclass(frozen=True)
class StepInfo:
    """Raw per-step quantities kept for diagnostics (vectors only when asked)."""

    worker_id: int
    c0: float
    c1: float
    c2: float          # as applied; 0.0 while no global best exists
    batch_loss: float
    grad_sq: float
    w_pre: np.ndarray | None = None
    w_post: np.ndarray | None = None
    v_pre: np.ndarray | None = None
    v_post: np.ndarray | None = None
    w_p_pre: np.ndarray | None = None
    w_g_used: np.ndarray | None = None
    grad: np.ndarray | None = None


@dataclass(frozen=True)
class RoundOutcome:
    f_g: float
    batch_losses: np.ndarray
    scalar_uplinks: int
    vector_uplinks: int
    vector_broadcasts: int
    detections: int
    step_infos: tuple[StepInfo, ...] | None


@dataclass(frozen=True)
class ProtocolWiring:
    """Everything a round needs besides the mutable worker/server state."""

    hyper: HyperParameters
    spec: ModelSpec
    shared_score: Batch | None
    verification: bool
    attack: attacks.AttackSpec

    @property
    def can_verify(self) -> bool:
        return self.verification and self.shared_score is not None


def hybrid_update(
    w: np.ndarray,
    v: np.ndarray,
    w_p: np.ndarray,
    w_g: np.ndarray | None,
    c0: float,
    c1: float,
    c2: float,
    alpha: float,
    grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The hybrid position update: inertia + both pulls - a gradient step.

    Returns (w', v') with v' defined as the realized displacement, so
    v' == w' - w holds exactly in arithmetic. Zero coefficients skip their
    term entirely, which keeps the degenerate configuration bit-identical to
    plain SGD.
    """
    disp = np.zeros_like(w)
    if c0 != 0.0:
        disp += c0 * v
    if c1 != 0.0:
        disp += c1 * (w_p - w)
    if c2 != 0.0 and w_g is not None:
        disp += c2 * (w_g - w)
    disp -= alpha * grad
    w_new = w + disp
    return w_new, w_new - w


def worker_step(
    state: WorkerState,
    w_g: np.ndarray | None,
    h: HyperParameters,
    spec: ModelSpec,
    t: int,
    collect_vectors: bool = False,
) -> tuple[WorkerState, StepInfo]:
    """One hybrid update at the current global best; returns the moved worker.

    The gradient is a mini-batch estimate taken at the pre-update parameters;
    the social pull is suppressed until a global best exists.
    """
    c0 = inertia_schedule(h, t)
    c1, c2, idx = state.round_draws(t, h)
    batch = Batch(state.train_features[idx], state.train_labels[idx])
    batch_loss, grad = loss_and_gradient(spec, state.w, batch)

    c2_applied = c2 if w_g is not None else 0.0
    w_new, v_new = hybrid_update(
        state.w, state.v, state.w_p, w_g, c0, c1, c2_applied, h.alpha, grad
    )
    require_finite(w_new, f"worker {state.worker_id} parameters at round {t}")

    vectors = dict(
        w_pre=state.w, w_post=w_new, v_pre=state.v, v_post=v_new,
        w_p_pre=state.w_p, w_g_used=w_g, grad=grad,
    ) if collect_vectors else {}
    info = StepInfo(
        state.worker_id, c0, c1, c2_applied, batch_loss, float(grad @ grad), **vectors
    )
    return replace(state, w=w_new, v=v_new), info


def score_and_update_best(
    state: WorkerState, spec: ModelSpec
) -> tuple[WorkerState, ScalarReport]:
    """Score the current model; keep (f_p, w_p) if strictly better."""
    score = loss(spec, state.w, state.score_set)
    if score < state.f_p:
        state = replace(state, f_p=score, w_p=state.w.copy())
    return state, ScalarReport(state.worker_id, state.f_p)


def invitation_order(reports: list[ScalarReport], f_g: float) -> list[int]:
    """Positions in ``reports`` of the claims that beat f_g, lowest claim first
    (ties to the lowest worker id): the order the server invites uploads in."""
    beating = [i for i, r in enumerate(reports) if r.claimed < f_g]
    return sorted(beating, key=lambda i: (reports[i].claimed, reports[i].worker_id))


def verify_upload(
    w_up: np.ndarray, claimed: float, score_set: Batch, spec: ModelSpec, tolerance: float
) -> bool:
    """Re-score the upload on the shared scoring set; reject mismatched claims."""
    if not np.all(np.isfinite(w_up)):
        return False
    recomputed = loss(spec, w_up, score_set)
    return abs(recomputed - claimed) <= tolerance


def _upload_for(state: WorkerState, wiring: ProtocolWiring, t: int) -> np.ndarray:
    if state.is_byzantine and wiring.attack.active:
        rng = attack_stream(state.stream.seed, state.worker_id).round(t)
        return attacks.forge_upload(state.w_p, wiring.attack.strategy, wiring.attack.scale, rng)
    return state.w_p.copy()


def run_round(
    workers: list[WorkerState],
    ps: PsState,
    wiring: ProtocolWiring,
    t: int,
    collect_vectors: bool = False,
) -> tuple[list[WorkerState], PsState, RoundOutcome]:
    """One full protocol round. Worker phase order does not affect the result."""
    h, spec, attack = wiring.hyper, wiring.spec, wiring.attack

    # Worker phase. Blacklisted workers still train but no longer report.
    new_workers, infos, reports, claimants = [], [], [], []
    for state in sorted(workers, key=lambda s: s.worker_id):
        try:
            moved, info = worker_step(state, ps.w_g, h, spec, t, collect_vectors)
            scored, report = score_and_update_best(moved, spec)
        except Exception as exc:
            exc.args = (f"round {t}, worker {state.worker_id}: {exc}",)
            raise
        new_workers.append(scored)
        infos.append(info)
        if state.worker_id in ps.blacklist:
            continue
        if scored.is_byzantine and attack.active:
            report = attacks.forge_report(report, ps.f_g, attack.strategy)
        reports.append(report)
        claimants.append(scored)

    # Server phase: invite the claims that beat f_g, lowest first. A rejected
    # upload blacklists its sender; the first accepted one ends the walk.
    blacklist = set(ps.blacklist)
    f_g, w_g = ps.f_g, ps.w_g
    vector_uplinks = 0
    for i in invitation_order(reports, ps.f_g):
        report = reports[i]
        upload = _upload_for(claimants[i], wiring, t)
        vector_uplinks += 1
        if not wiring.can_verify:
            # No scoring data at the server (or verification ablated): trust the claim.
            f_g = report.claimed
        elif verify_upload(upload, report.claimed, wiring.shared_score, spec, h.verify_tolerance):
            f_g = loss(spec, upload, wiring.shared_score)
        else:
            blacklist.add(report.worker_id)
            continue
        w_g = upload
        break

    outcome = RoundOutcome(
        f_g=f_g,
        batch_losses=np.array([info.batch_loss for info in infos]),
        scalar_uplinks=len(reports),
        vector_uplinks=vector_uplinks,
        vector_broadcasts=1 if w_g is not ps.w_g else 0,  # every upload is a fresh array
        detections=len(blacklist) - len(ps.blacklist),
        step_infos=tuple(infos) if collect_vectors else None,
    )
    return new_workers, PsState(w_g, f_g, blacklist), outcome


def initial_ps() -> PsState:
    return PsState(w_g=None, f_g=math.inf, blacklist=set())
