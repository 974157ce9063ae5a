"""Diagnostics evaluated on live runs: descent-alignment statistics, the
composite convergence coefficient and its bound, a genie reference trainer,
model-divergence traces with their per-round bound, and Lipschitz estimation.

All consumers here are read-only over logged step data; nothing feeds back
into the protocol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HyperParameters, inertia_schedule, require_finite
from .data import emd
from .model import Batch, ModelSpec, gradient, param_count
from .swarm import StepInfo


def cosine_step(v: np.ndarray, grad: np.ndarray) -> tuple[float, float, bool]:
    """Cosine of the angle between v and the descent direction, plus the
    norm ratio ||v|| / ||grad||. Zero-velocity samples come back flagged."""
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        raise ValueError("gradient norm is zero; sample must be skipped")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return 0.0, 0.0, True
    cos = float(v @ (-grad)) / (vnorm * gnorm)
    return cos, vnorm / gnorm, False


class _Extrema:
    __slots__ = ("lo", "hi", "count")

    def __init__(self):
        self.lo = math.inf
        self.hi = -math.inf
        self.count = 0

    def add(self, value: float):
        self.lo = min(self.lo, value)
        self.hi = max(self.hi, value)
        self.count += 1

    @property
    def min(self) -> float:
        return self.lo if self.count else 0.0

    @property
    def max(self) -> float:
        return self.hi if self.count else 0.0


class CosineStats:
    """Running extrema of the alignment cosines and norm ratios over a run.

    Zero-velocity samples are counted but excluded from the extrema (they
    carry no angle); zero-gradient samples are skipped and counted.
    """

    def __init__(self, h: HyperParameters):
        self.h = h
        self.q = _Extrema()
        self.qp = _Extrema()
        self.qg = _Extrema()
        self.u = _Extrema()
        self.up = _Extrema()
        self.ug = _Extrema()
        self.samples = 0
        self.zero_velocity = 0
        self.zero_grad = 0
        self.grad_sq_sum = 0.0
        self.grad_sq_count = 0
        self.grad_sq_min = math.inf

    def consume_round(self, infos: tuple[StepInfo, ...]) -> dict[str, float]:
        """Fold one round of step logs in; returns the round's diagnostic row."""
        round_vals: dict[str, list[float]] = {k: [] for k in
                                              ("cos", "cos_p", "cos_g", "ratio", "ratio_p", "ratio_g")}
        recursion_res = 0.0
        vel_res = 0.0
        grad_sqs = []
        for info in infos:
            grad_sqs.append(info.grad_sq)
            self.grad_sq_sum += info.grad_sq
            self.grad_sq_count += 1
            self.grad_sq_min = min(self.grad_sq_min, info.grad_sq)

            # Personal/global optimal velocities relative to the previous position.
            w_prev = info.w_pre - info.v_pre
            w_g = info.w_g_used if info.w_g_used is not None else w_prev
            v_p, v_g = info.w_p_pre - w_prev, w_g - w_prev
            recon = -self.h.alpha * info.grad
            recon = recon + (info.c0 - info.c1 - info.c2) * info.v_pre
            recon = recon + info.c1 * v_p + info.c2 * v_g
            recursion_res = max(recursion_res, float(np.max(np.abs(info.v_post - recon))))
            vel_res = max(
                vel_res, float(np.max(np.abs(info.v_post - (info.w_post - info.w_pre))))
            )

            if info.grad_sq == 0.0:
                self.zero_grad += 1
                continue
            self.samples += 1
            for vec, ext_q, ext_u, cos_key, ratio_key in (
                (info.v_pre, self.q, self.u, "cos", "ratio"),
                (v_p, self.qp, self.up, "cos_p", "ratio_p"),
                (v_g, self.qg, self.ug, "cos_g", "ratio_g"),
            ):
                cos, ratio, flagged = cosine_step(vec, info.grad)
                if flagged:
                    self.zero_velocity += 1
                    continue
                ext_q.add(cos)
                ext_u.add(ratio)
                round_vals[cos_key].append(cos)
                round_vals[ratio_key].append(ratio)

        row: dict[str, float] = {}
        for key, vals in round_vals.items():
            row[f"{key}_min"] = min(vals) if vals else math.nan
            row[f"{key}_max"] = max(vals) if vals else math.nan
        row["grad_sq_mean"] = float(np.mean(grad_sqs)) if grad_sqs else math.nan
        row["recursion_residual"] = recursion_res
        row["velocity_residual"] = vel_res
        return row

    @property
    def mean_grad_sq(self) -> float:
        return self.grad_sq_sum / self.grad_sq_count if self.grad_sq_count else math.nan

    @property
    def min_grad_sq(self) -> float:
        return self.grad_sq_min if self.grad_sq_count else math.nan


def phi_e(h: HyperParameters, stats: CosineStats, lipschitz: float) -> float:
    """Composite convergence coefficient built from the logged extrema.

    May come out negative on real runs, in which case the convergence bound
    is vacuous; callers report the sign rather than assert it.
    """
    d1, d2, c0, a = h.delta_c1, h.delta_c2, h.c0, h.alpha
    value = a
    value -= (2 * c0 - d1 - d2) / 2 * stats.q.min * stats.u.min
    value -= d1 / 2 * stats.up.max * stats.qp.max
    value -= d2 / 2 * stats.ug.max * stats.qg.max
    quad = (
        (c0 * c0 - d1 * c0 - d2 * c0 + d1 * d1 / 3 + d2 * d2 / 3 + d1 * d2 / 2)
        * stats.u.max ** 2
        + d1 * d1 / 3 * stats.up.max ** 2
        + d2 * d2 / 3 * stats.ug.max ** 2
        + a * a
    )
    return value - 2 * lipschitz * quad


@dataclass(frozen=True)
class ConvergenceBound:
    value: float
    vacuous: bool


def convergence_bound(f0: float, f_star: float, rounds: int, phi: float) -> ConvergenceBound:
    """Bound on the mean squared gradient over a run; vacuous unless phi > 0."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if phi == 0.0:
        return ConvergenceBound(math.inf, True)
    return ConvergenceBound((f0 - f_star) / (rounds * phi), phi < 0.0)


@dataclass(frozen=True)
class GenieState:
    """Reference trainer on the pooled population data (inertia + full gradient)."""

    w: np.ndarray
    v: np.ndarray


def inertia_update(
    w: np.ndarray, v: np.ndarray, c0: float, alpha: float, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Momentum-only update used by the genie: v' = c0 v - alpha grad, w' = w + v'."""
    v_new = c0 * v - alpha * grad
    return w + v_new, v_new


def genie_step(
    g: GenieState, h: HyperParameters, spec: ModelSpec, population: Batch, t: int
) -> GenieState:
    c0 = inertia_schedule(h, t)
    grad = gradient(spec, g.w, population)
    w_new, v_new = inertia_update(g.w, g.v, c0, h.alpha, grad)
    require_finite(w_new, f"genie parameters at round {t}")
    return GenieState(w_new, v_new)


def class_batches(population: Batch, num_classes: int) -> list[Batch | None]:
    """Per-class sub-batches of the population (None where a class is absent)."""
    out: list[Batch | None] = []
    for c in range(num_classes):
        mask = population.labels == c
        out.append(Batch(population.features[mask], population.labels[mask]) if mask.any() else None)
    return out


def f_max_at(spec: ModelSpec, w: np.ndarray, per_class: list[Batch | None]) -> float:
    """Largest class-conditional mean-gradient norm at w."""
    norms = [
        float(np.linalg.norm(gradient(spec, w, batch)))
        for batch in per_class
        if batch is not None
    ]
    if not norms:
        raise ValueError("no class has samples")
    return max(norms)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Max observed gradient-difference ratios, inflated by a 1.5 safety factor.

    ``l_global``/``l_classes`` carry the inflated values used in bounds;
    ``raw_global``/``raw_classes`` keep the uninflated maxima.
    """

    l_global: float
    l_classes: np.ndarray
    raw_global: float
    raw_classes: np.ndarray
    samples: int

SAFETY_FACTOR = 1.5


def estimate_gradient_lipschitz(
    grad_fn,
    dim: int,
    probes: int,
    rng: np.random.Generator,
    envelope: np.ndarray | None = None,
    spread: float = 1.0,
) -> tuple[list[float], int]:
    """Raw max of ||g_k(w) - g_k(w')|| / ||w - w'|| over sampled pairs.

    ``grad_fn`` maps w to K stacked gradients, shape (K, dim); the result
    holds one maximum per row k, plus the number of pairs used. Points are
    drawn around the envelope (trajectory snapshots, or the origin by
    default). Degenerate pairs are skipped; growing the probe count with the
    same generator only extends the sampled prefix, so the estimate is
    monotone non-decreasing in probes.
    """
    if probes < 2:
        raise ValueError("need at least 2 probe pairs")
    if envelope is None:
        envelope = np.zeros((1, dim))
    best = None
    used = 0
    for _ in range(probes):
        w1 = envelope[rng.integers(len(envelope))] + spread * rng.standard_normal(dim)
        w2 = envelope[rng.integers(len(envelope))] + spread * rng.standard_normal(dim)
        denom = float(np.linalg.norm(w1 - w2))
        if denom == 0.0:
            continue
        used += 1
        ratios = [float(np.linalg.norm(row)) / denom for row in grad_fn(w1) - grad_fn(w2)]
        best = [max(b, r) for b, r in zip(best or [0.0] * len(ratios), ratios)]
    if used == 0:
        raise ValueError("all probe pairs were degenerate")
    return best, used


def estimate_model_lipschitz(
    spec: ModelSpec,
    population: Batch,
    num_classes: int,
    probes: int,
    rng: np.random.Generator,
    envelope: np.ndarray | None = None,
    spread: float = 1.0,
) -> LipschitzEstimate:
    """Global and per-class gradient Lipschitz estimates around the envelope.

    A class absent from the population contributes a zero gradient, so its
    estimate stays 0.
    """
    per_class = class_batches(population, num_classes)
    dim = param_count(spec)
    absent = np.zeros(dim)

    def grads(w):
        return np.stack([gradient(spec, w, population)] + [
            gradient(spec, w, batch) if batch is not None else absent for batch in per_class
        ])

    raw, used = estimate_gradient_lipschitz(grads, dim, probes, rng, envelope, spread)
    raw_classes = np.array(raw[1:])
    return LipschitzEstimate(
        l_global=SAFETY_FACTOR * raw[0],
        l_classes=SAFETY_FACTOR * raw_classes,
        raw_global=raw[0],
        raw_classes=raw_classes,
        samples=used,
    )


@dataclass(frozen=True)
class AlignedTrace:
    """Distances between workers and the genie, per round, plus the realized
    coefficients and class-wise max gradient norms needed by the bound."""

    w_dist: np.ndarray       # (U, T+1)
    v_dist: np.ndarray       # (U, T+1)
    rel_divergence: np.ndarray
    coeffs: np.ndarray       # (U, T, 3) realized (c0, c1, c2)
    f_max: np.ndarray        # (T,) at the genie position entering round t
    genie_norm: np.ndarray   # (T+1,)
    envelope: np.ndarray     # trajectory snapshots for Lipschitz probing


def run_genie_aligned(
    workers,
    genie: GenieState,
    spec: ModelSpec,
    h: HyperParameters,
    rounds: int,
    population: Batch,
    num_classes: int,
):
    """Run workers with the genie as their global-best attractor.

    Both the stepped workers and the distance trace are returned; the trace
    feeds the per-round divergence bound check.
    """
    from .swarm import score_and_update_best, worker_step

    per_class = class_batches(population, num_classes)
    nw = len(workers)
    w_dist = np.zeros((nw, rounds + 1))
    v_dist = np.zeros((nw, rounds + 1))
    rel = np.zeros((nw, rounds + 1))
    coeffs = np.zeros((nw, rounds, 3))
    f_max = np.zeros(rounds)
    genie_norm = np.zeros(rounds + 1)
    snapshots = []

    def _record(t, states, g):
        gnorm = float(np.linalg.norm(g.w))
        genie_norm[t] = gnorm
        for k, st in enumerate(states):
            w_dist[k, t] = float(np.linalg.norm(st.w - g.w))
            v_dist[k, t] = float(np.linalg.norm(st.v - g.v))
            rel[k, t] = w_dist[k, t] / gnorm if gnorm else math.nan

    states = list(workers)
    _record(0, states, genie)
    every = max(1, rounds // 8)
    for t in range(rounds):
        f_max[t] = f_max_at(spec, genie.w, per_class)
        if t % every == 0:
            snapshots.append(genie.w.copy())
            snapshots.append(states[0].w.copy())
        new_states = []
        for k, st in enumerate(states):
            moved, info = worker_step(st, genie.w, h, spec, t, collect_vectors=False)
            moved, _ = score_and_update_best(moved, spec)
            coeffs[k, t] = (info.c0, info.c1, info.c2)
            new_states.append(moved)
        genie = genie_step(genie, h, spec, population, t)
        states = new_states
        _record(t + 1, states, genie)

    trace = AlignedTrace(
        w_dist=w_dist,
        v_dist=v_dist,
        rel_divergence=rel,
        coeffs=coeffs,
        f_max=f_max,
        genie_norm=genie_norm,
        envelope=np.array(snapshots),
    )
    return states, genie, trace


@dataclass(frozen=True)
class DivergenceVerdict:
    worker: int
    round_index: int
    lhs: float
    rhs: float
    slack: float
    holds: bool
    telescoped_rhs: float
    telescoped_holds: bool


def divergence_bound_check(
    trace: AlignedTrace,
    worker_hists: np.ndarray,
    pop_hist: np.ndarray,
    lip: LipschitzEstimate,
    h: HyperParameters,
    tolerance: float = 1e-9,
) -> list[DivergenceVerdict]:
    """Per-round check of the one-step divergence recursion (and, reported
    alongside, the fully telescoped bound with per-round realized weights).

    The one-step form with realized coefficients is the quantity the
    acceptance suite requires to hold; the telescoped bound is evaluated for
    reporting only.
    """
    if lip.l_classes.shape[0] != worker_hists.shape[1]:
        raise ValueError("per-class Lipschitz estimates missing for some classes")
    nw, t_plus_1 = trace.w_dist.shape
    rounds = t_plus_1 - 1
    verdicts = []
    for i in range(nw):
        hist = worker_hists[i]
        beta = 1.0 + h.alpha * float(hist @ lip.l_classes)
        emd_i = emd(hist, pop_hist)
        # Telescoped accumulators: the initial divergence picks up a beta
        # factor per round, the velocity terms are amplified from the round
        # they enter, and the distribution-distance terms add up unamplified.
        vel_acc = 0.0
        fmax_sum = 0.0
        for t in range(rounds):
            c0, c1, c2 = trace.coeffs[i, t]
            damp = abs(c0 - c1 - c2)
            third = h.alpha * trace.f_max[t] * emd_i
            rhs = beta * trace.w_dist[i, t] + damp * trace.v_dist[i, t] + third
            lhs = trace.w_dist[i, t + 1]
            vel_acc = beta * vel_acc + damp * trace.v_dist[i, t]
            fmax_sum += trace.f_max[t]
            tel_rhs = (beta ** (t + 1)) * trace.w_dist[i, 0] + vel_acc + h.alpha * emd_i * fmax_sum
            verdicts.append(
                DivergenceVerdict(
                    worker=i,
                    round_index=t,
                    lhs=lhs,
                    rhs=rhs,
                    slack=rhs - lhs,
                    holds=lhs <= rhs + tolerance,
                    telescoped_rhs=tel_rhs,
                    telescoped_holds=lhs <= tel_rhs + tolerance,
                )
            )
    return verdicts
