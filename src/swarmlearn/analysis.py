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

from .attacks import AttackSpec
from .core import HyperParameters, inertia_schedule, require_finite
from .data import emd
from .model import Batch, ModelSpec, gradient, param_count, row_dots, row_norms
from .swarm import Population, ProtocolWiring, PsState, StepInfos, row_runs, run_round

# Columns of the tables built here. A round's row carries COSINE_COLUMNS with
# cosine_stats on and DIVERGENCE_COLUMNS with divergence on, in this order;
# diagnostics.csv has one DIAGNOSTICS_COLUMNS row per diagnosed swarm run.
COSINE_COLUMNS = (
    "cos_min", "cos_max", "cos_p_min", "cos_p_max", "cos_g_min", "cos_g_max",
    "ratio_min", "ratio_max", "ratio_p_min", "ratio_p_max", "ratio_g_min", "ratio_g_max",
    "grad_sq_mean", "recursion_residual", "velocity_residual",
)
DIVERGENCE_COLUMNS = ("divergence_mean", "divergence_max")
DIAGNOSTICS_COLUMNS = (
    "variant", "seed", "lipschitz", "f0", "f_star", "phi_e", "phi_e_degenerate",
    "phi_e_delta", "bound", "bound_vacuous", "empirical_mean_grad_sq",
    "empirical_min_grad_sq", "q_min", "q_max", "q_p_min", "q_p_max",
    "q_g_min", "q_g_max", "u_min", "u_max", "u_p_min", "u_p_max",
    "u_g_min", "u_g_max", "zero_velocity_samples", "zero_grad_samples",
)


def _cosines(v: np.ndarray, neg_grad: np.ndarray, gnorm: np.ndarray):
    """Per row: the cosine of v with the descent direction, the norm ratio
    ||v|| / ||grad|| and ||v||. Rows with a zero norm come out inf or NaN."""
    vnorm = row_norms(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return row_dots(v, neg_grad) / (vnorm * gnorm), vnorm / gnorm, vnorm


class _Extrema:
    __slots__ = ("lo", "hi", "count")

    def __init__(self):
        self.lo = math.inf
        self.hi = -math.inf
        self.count = 0

    def add(self, *values: float):
        """Fold ``values`` in, in order. ``min``/``max`` keep the running value
        unless a value compares below/above it, so a NaN never enters."""
        if values:
            self.lo = min(self.lo, *values)
            self.hi = max(self.hi, *values)
            self.count += len(values)

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
        self.zero_velocity = 0
        self.zero_grad = 0
        self.grad_sq_sum = 0.0
        self.grad_sq_count = 0
        self.grad_sq_min = math.inf

    def consume_round(self, infos: StepInfos) -> dict[str, float]:
        """Fold one round of step logs in; returns the round's diagnostic row.

        ``infos`` is a round's ``StepInfos``, whose (U,) and (U, D) arrays
        are read as they are. The norms, dots and residuals are taken in
        ``row_runs``, so no (U, D) temporary is made, into (U,) arrays of the
        round. Those are folded into the extrema in worker order with
        Python's ``min``/``max``, as one worker at a time would.
        """
        w_pre, w_post, v_pre, v_post, w_p, grad = (
            infos.vectors[name] for name in ("w_pre", "w_post", "v_pre", "v_post", "w_p_pre", "grad")
        )
        c0, w_g = infos.c0, infos.w_g_used
        grad_sqs = infos.grad_sq.tolist()
        for grad_sq in grad_sqs:
            self.grad_sq_sum += grad_sq
        self.grad_sq_count += len(grad_sqs)
        self.grad_sq_min = min(self.grad_sq_min, *grad_sqs)

        # Per row, for the velocity and the personal and global optimal
        # velocities: cosine, norm ratio and norm; and both residuals' maxima.
        count, dim = grad.shape
        cos, ratio, vnorm = np.empty((3, 3, count))
        recursion, velocity = np.empty((2, count))
        for rows in row_runs(count, dim):
            c1, c2 = infos.c1[rows, None], infos.c2[rows, None]
            # Optimal velocities relative to the previous position; a step
            # without a global best has none to move toward.
            w_prev = w_pre[rows] - v_pre[rows]
            v_p, v_g = w_p[rows] - w_prev, (w_prev if w_g is None else w_g) - w_prev
            recon = -self.h.alpha * grad[rows]
            recon = recon + (c0 - c1 - c2) * v_pre[rows]
            recon = recon + c1 * v_p + c2 * v_g
            recursion[rows] = np.max(np.abs(v_post[rows] - recon), axis=1)
            velocity[rows] = np.max(np.abs(v_post[rows] - (w_post[rows] - w_pre[rows])), axis=1)
            gnorm, neg_grad = row_norms(grad[rows]), -grad[rows]
            for k, vec in enumerate((v_pre[rows], v_p, v_g)):
                cos[k, rows], ratio[k, rows], vnorm[k, rows] = _cosines(vec, neg_grad, gnorm)

        # Zero-gradient samples carry no direction; zero-velocity ones no angle.
        sampled = infos.grad_sq != 0.0
        n_sampled = int(np.count_nonzero(sampled))
        self.zero_grad += len(infos.ids) - n_sampled
        row = dict.fromkeys(COSINE_COLUMNS, math.nan)   # nan where a round has no samples
        for k, (ext_q, ext_u, suffix) in enumerate(
            ((self.q, self.u, ""), (self.qp, self.up, "_p"), (self.qg, self.ug, "_g"))
        ):
            kept = sampled & (vnorm[k] != 0.0)
            self.zero_velocity += n_sampled - int(np.count_nonzero(kept))
            for ext, key, vals in ((ext_q, "cos", cos[k, kept].tolist()),
                                   (ext_u, "ratio", ratio[k, kept].tolist())):
                ext.add(*vals)
                if vals:
                    row[f"{key}{suffix}_min"], row[f"{key}{suffix}_max"] = min(vals), max(vals)
        row["grad_sq_mean"] = float(np.mean(grad_sqs))
        row["recursion_residual"] = max(0.0, *recursion.tolist())
        row["velocity_residual"] = max(0.0, *velocity.tolist())
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


def diagnostics_row(
    variant: str, seed: int, h: HyperParameters, stats: CosineStats, lipschitz: float, f0: float
) -> dict:
    """A run's ``diagnostics.csv`` row, keyed by DIAGNOSTICS_COLUMNS.

    ``lipschitz`` and ``f0`` belong to the seed. The bound is taken down to
    ``f_star = 0.0``, the certified floor: a cross-entropy is never negative.
    """
    phi = phi_e(h, stats, lipschitz)
    phi_deg = h.alpha - 2 * lipschitz * h.alpha ** 2   # phi_e of plain SGD: every velocity zero
    f_star = 0.0
    bound = convergence_bound(f0, f_star, h.rounds, phi)
    row = {
        "variant": variant, "seed": seed, "lipschitz": lipschitz, "f0": f0, "f_star": f_star,
        "phi_e": phi, "phi_e_degenerate": phi_deg, "phi_e_delta": phi - phi_deg,
        "bound": bound.value, "bound_vacuous": int(bound.vacuous),
        "empirical_mean_grad_sq": stats.mean_grad_sq, "empirical_min_grad_sq": stats.min_grad_sq,
    }
    for name, ext in (("q", stats.q), ("q_p", stats.qp), ("q_g", stats.qg),
                      ("u", stats.u), ("u_p", stats.up), ("u_g", stats.ug)):
        row[f"{name}_min"], row[f"{name}_max"] = ext.min, ext.max
    row["zero_velocity_samples"] = stats.zero_velocity
    row["zero_grad_samples"] = stats.zero_grad
    return row


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


def divergence_row(worker_ws: np.ndarray, genie: GenieState) -> dict[str, float]:
    """The round's DIVERGENCE_COLUMNS: mean and max distance of the (U, D)
    worker models to the genie, relative to the genie's norm; nan while the
    genie sits at the origin. The distances are taken in ``row_runs``."""
    gnorm = float(np.linalg.norm(genie.w))
    if gnorm == 0.0:
        return dict.fromkeys(DIVERGENCE_COLUMNS, math.nan)
    dist = np.empty(len(worker_ws))
    for rows in row_runs(*worker_ws.shape):
        dist[rows] = row_norms(worker_ws[rows] - genie.w)
    divs = dist / gnorm
    return {"divergence_mean": float(np.mean(divs)), "divergence_max": float(np.max(divs))}


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
    """Max observed gradient-difference ratios, global and per class,
    inflated by a 1.5 safety factor: the values used in bounds."""

    l_global: float
    l_classes: np.ndarray

SAFETY_FACTOR = 1.5
# Fewest probe pairs the Lipschitz estimator accepts; DiagnosticsFlags checks it too.
MIN_LIPSCHITZ_PROBES = 2


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
    if probes < MIN_LIPSCHITZ_PROBES:
        raise ValueError(f"need at least {MIN_LIPSCHITZ_PROBES} probe pairs")
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

    raw, _ = estimate_gradient_lipschitz(grads, dim, probes, rng, envelope, spread)
    return LipschitzEstimate(SAFETY_FACTOR * raw[0], SAFETY_FACTOR * np.array(raw[1:]))


@dataclass(frozen=True)
class AlignedTrace:
    """Distances between workers and the genie, per round, plus the realized
    coefficients and class-wise max gradient norms needed by the bound."""

    w_dist: np.ndarray       # (U, T+1)
    v_dist: np.ndarray       # (U, T+1)
    coeffs: np.ndarray       # (U, T, 3) realized (c0, c1, c2)
    f_max: np.ndarray        # (T,) at the genie position entering round t
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
    """Run protocol rounds with the genie pinned as the global best.

    No claim beats a global best of -inf, so the server never invites an
    upload and every worker is pulled toward the genie. The stepped workers
    (in worker-id order), the final genie and the distance trace are
    returned; the trace feeds the per-round divergence bound check.
    """
    per_class = class_batches(population, num_classes)
    wiring = ProtocolWiring(h, spec, None, False, AttackSpec())
    pop = Population.of(workers, h)
    w_dist = np.zeros((len(pop), rounds + 1))
    v_dist = np.zeros((len(pop), rounds + 1))
    coeffs = np.zeros((len(pop), rounds, 3))
    f_max = np.zeros(rounds)
    snapshots = []

    def _record(t, g):
        w_dist[:, t] = row_norms(pop.w - g.w)
        v_dist[:, t] = row_norms(pop.v - g.v)

    _record(0, genie)
    every = max(1, rounds // 8)
    for t in range(rounds):
        f_max[t] = f_max_at(spec, genie.w, per_class)
        if t % every == 0:
            snapshots.append(genie.w.copy())
            snapshots.append(pop.w[0].copy())
        pop, _, outcome = run_round(pop, PsState(genie.w, -math.inf), wiring, t)
        infos = outcome.step_infos
        coeffs[:, t, 0], coeffs[:, t, 1], coeffs[:, t, 2] = infos.c0, infos.c1, infos.c2
        genie = genie_step(genie, h, spec, population, t)
        _record(t + 1, genie)

    trace = AlignedTrace(w_dist, v_dist, coeffs, f_max, np.array(snapshots))
    return pop, genie, trace


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
