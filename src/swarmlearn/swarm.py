"""The swarm-learning protocol engine: worker update, best tracking, server side.

One round runs in three phases. Every worker takes a hybrid step (inertia +
pull toward its own best + pull toward the global best - a gradient step),
scores itself on its scoring set and reports that scalar. The server then
selects the lowest claim, invites that worker to upload its best model,
re-scores the upload to screen Byzantine forgeries, and broadcasts the new
global best if it changed. Communication is metered per round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks
from .core import (
    HyperParameters,
    RngStream,
    attack_stream,
    inertia_schedule,
    require_finite,
    sample_coefficients,
)
from .data import draw_batch_indices
from .model import Batch, ModelSpec, loss, loss_and_gradient


@dataclass
class WorkerState:
    worker_id: int
    w: np.ndarray
    v: np.ndarray
    w_p: np.ndarray
    f_p: float
    train_features: np.ndarray
    train_labels: np.ndarray
    score_set: Batch | None
    stream: RngStream
    is_byzantine: bool = False


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
    w_g_changed: bool
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
    rng = state.stream.round(t)
    c1, c2 = sample_coefficients(h, rng)
    c0 = inertia_schedule(h, t)
    idx = draw_batch_indices(rng, len(state.train_labels), h.batch_size)
    batch = Batch(state.train_features[idx], state.train_labels[idx])
    batch_loss, grad = loss_and_gradient(spec, state.w, batch)

    c2_applied = c2 if w_g is not None else 0.0
    w_new, v_new = hybrid_update(
        state.w, state.v, state.w_p, w_g, c0, c1, c2_applied, h.alpha, grad
    )
    require_finite(w_new, f"worker {state.worker_id} parameters at round {t}")

    info = StepInfo(
        worker_id=state.worker_id,
        c0=c0,
        c1=c1,
        c2=c2_applied,
        batch_loss=batch_loss,
        grad_sq=float(grad @ grad),
        w_pre=state.w if collect_vectors else None,
        w_post=w_new if collect_vectors else None,
        v_pre=state.v if collect_vectors else None,
        v_post=v_new if collect_vectors else None,
        w_p_pre=state.w_p if collect_vectors else None,
        w_g_used=w_g if collect_vectors else None,
        grad=grad if collect_vectors else None,
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


def select_global_best(
    reports: list[ScalarReport], f_g: float, blacklist: set[int]
) -> int | None:
    """Lowest claim wins (ties to lowest id); None when nothing beats f_g."""
    eligible = [r for r in reports if r.worker_id not in blacklist]
    if not eligible:
        return None
    best = min(eligible, key=lambda r: (r.claimed, r.worker_id))
    return best.worker_id if best.claimed < f_g else None


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
    h = wiring.hyper
    w_g_broadcast = ps.w_g

    stepped: dict[int, WorkerState] = {}
    infos: dict[int, StepInfo] = {}
    reports: dict[int, ScalarReport] = {}
    for state in workers:
        try:
            moved, info = worker_step(state, w_g_broadcast, h, wiring.spec, t, collect_vectors)
            scored, report = score_and_update_best(moved, wiring.spec)
        except Exception as exc:
            exc.args = (f"round {t}, worker {state.worker_id}: {exc}",)
            raise
        stepped[state.worker_id] = scored
        infos[state.worker_id] = info
        reports[state.worker_id] = report

    ids = sorted(stepped)
    new_workers = [stepped[i] for i in ids]
    batch_losses = np.array([infos[i].batch_loss for i in ids])

    # Collection phase: blacklisted workers no longer participate.
    collected = []
    for i in ids:
        if i in ps.blacklist:
            continue
        report = reports[i]
        if stepped[i].is_byzantine and wiring.attack.active:
            report = attacks.forge_report(report, ps.f_g, wiring.attack.strategy)
        collected.append(report)

    blacklist = set(ps.blacklist)
    f_g, w_g = ps.f_g, ps.w_g
    detections = 0
    vector_uplinks = 0
    changed = False
    candidates = list(collected)
    while True:
        winner = select_global_best(candidates, f_g, blacklist)
        if winner is None:
            break
        claim = next(r.claimed for r in candidates if r.worker_id == winner)
        upload = _upload_for(stepped[winner], wiring, t)
        vector_uplinks += 1
        if wiring.can_verify:
            if verify_upload(upload, claim, wiring.shared_score, wiring.spec, h.verify_tolerance):
                f_g = loss(wiring.spec, upload, wiring.shared_score)
                w_g = upload
                changed = True
                break
            detections += 1
            blacklist.add(winner)
            candidates = [r for r in candidates if r.worker_id != winner]
        else:
            # No scoring data at the server (or verification ablated): trust the claim.
            f_g = claim
            w_g = upload
            changed = True
            break

    new_ps = PsState(w_g, f_g, blacklist)
    outcome = RoundOutcome(
        f_g=f_g,
        w_g_changed=changed,
        batch_losses=batch_losses,
        scalar_uplinks=len(collected),
        vector_uplinks=vector_uplinks,
        vector_broadcasts=1 if changed else 0,
        detections=detections,
        step_infos=tuple(infos[i] for i in ids) if collect_vectors else None,
    )
    return new_workers, new_ps, outcome


def initial_ps() -> PsState:
    return PsState(w_g=None, f_g=math.inf, blacklist=set())
