"""The protocol round as one loop over per-worker states, kept as a test oracle.

This is the engine the package ran before its rounds moved to a population of
(U, D) rows: every worker takes ``worker_step`` and ``score_and_update_best``
on its own, and the moved worker is a ``dataclasses.replace`` copy. Its step
quantities are ``StepInfo`` rows, one per worker; ``rows`` reads a round's
``StepInfos`` arrays the same way. The population engine must reproduce the
oracle bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from swarmlearn import attacks
from swarmlearn.core import attack_stream, inertia_schedule, require_finite, stream_draws
from swarmlearn.core import worker_stream
from swarmlearn.model import Batch, loss, loss_and_gradient
from swarmlearn.swarm import (
    PsState,
    RoundOutcome,
    ScalarReport,
    StepInfos,
    invitation_order,
    verify_upload,
)


@dataclass(frozen=True)
class StepInfo:
    """One worker's step quantities (vectors only when asked)."""

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


def rows(infos: StepInfos) -> tuple[StepInfo, ...]:
    """A round's step infos as one ``StepInfo`` per worker, in worker-id
    order; the vectors are rows of the round's (U, D) arrays."""
    out = []
    for u, worker_id in enumerate(infos.ids):
        vectors = {name: stacked[u] for name, stacked in infos.vectors.items()}
        if vectors:
            vectors["w_g_used"] = infos.w_g_used
        out.append(StepInfo(
            worker_id, infos.c0, float(infos.c1[u]), float(infos.c2[u]),
            float(infos.batch_losses[u]), float(infos.grad_sq[u]), **vectors,
        ))
    return tuple(out)


def hybrid_update(w, v, w_p, w_g, c0, c1, c2, alpha, grad):
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


def worker_step(state, w_g, h, spec, t, collect_vectors=False):
    c0 = inertia_schedule(h, t)
    stream = worker_stream(state.seed, state.worker_id)
    c1, c2, idx = stream_draws(stream, t, len(state.train_labels), h)
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


def score_and_update_best(state, spec):
    score = loss(spec, state.w, state.score_set)
    if score < state.f_p:
        state = replace(state, f_p=score, w_p=state.w.copy())
    return state, ScalarReport(state.worker_id, state.f_p)


def _upload_for(state, wiring, t):
    if state.is_byzantine and wiring.attack.active:
        rng = attack_stream(state.seed, state.worker_id).round(t)
        return attacks.forge_upload(state.w_p, wiring.attack.strategy, wiring.attack.scale, rng)
    return state.w_p.copy()


def run_round(workers, ps, wiring, t, collect_vectors=False):
    h, spec, attack = wiring.hyper, wiring.spec, wiring.attack

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

    blacklist = set(ps.blacklist)
    f_g, w_g = ps.f_g, ps.w_g
    vector_uplinks = 0
    for i in invitation_order(reports, ps.f_g):
        report = reports[i]
        upload = _upload_for(claimants[i], wiring, t)
        vector_uplinks += 1
        if not wiring.can_verify:
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
        vector_broadcasts=1 if w_g is not ps.w_g else 0,
        detections=len(blacklist) - len(ps.blacklist),
        step_infos=tuple(infos),
    )
    return new_workers, PsState(w_g, f_g, blacklist), outcome
