"""Diagnostics evaluated on live runs: descent-alignment statistics, the
composite convergence coefficient and its bound, a genie reference trainer,
model-divergence traces with their per-round bound, and Lipschitz estimation.

All consumers here are read-only over logged step data; nothing feeds back
into the protocol.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec
from .core import HyperParameters, inertia_schedule, require_finite
from .data import emd
from .model import Batch, ModelSpec, gradient, param_count
from .swarm import Population, ProtocolWiring, PsState, StepInfo, StepInfos, run_round


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[u] @ b[u]`` for every row u of two (U, D) arrays, bit for bit.

    One stacked matmul of (1, D) @ (D, 1) slices runs the same dot product
    per row as ``@`` on the rows alone; ``(a * b).sum(axis=1)`` and
    ``np.einsum`` sum in other orders.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of a (U, D) array, bit for bit."""
    return np.sqrt(row_dots(a, a))


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
        self.samples = 0
        self.zero_velocity = 0
        self.zero_grad = 0
        self.grad_sq_sum = 0.0
        self.grad_sq_count = 0
        self.grad_sq_min = math.inf

    def consume_round(self, infos: Sequence[StepInfo]) -> dict[str, float]:
        """Fold one round of step logs in; returns the round's diagnostic row.

        ``infos`` is a round's ``StepInfos``, whose (U,) and (U, D) arrays
        are read as they are, or ``StepInfo`` rows, which are stacked. Every
        norm, dot and residual is taken over the rows at once. The values
        are folded into the extrema in worker order with Python's
        ``min``/``max``, as one worker at a time would.
        """
        w_pre, w_post, v_pre, v_post, w_p, grad, c0, c1, c2, grad_sqs, w_g = _round_arrays(infos)
        for grad_sq in grad_sqs:
            self.grad_sq_sum += grad_sq
        self.grad_sq_count += len(grad_sqs)
        self.grad_sq_min = min(self.grad_sq_min, *grad_sqs)

        # Personal/global optimal velocities relative to the previous position;
        # a step without a global best has none to move toward.
        w_prev = w_pre - v_pre
        v_p, v_g = w_p - w_prev, (w_prev if w_g is None else w_g) - w_prev
        recon = -self.h.alpha * grad
        recon = recon + (c0 - c1 - c2) * v_pre
        recon = recon + c1 * v_p + c2 * v_g

        # Zero-gradient samples carry no direction; zero-velocity ones no angle.
        sampled = np.array(grad_sqs) != 0.0
        n_sampled = int(np.count_nonzero(sampled))
        self.samples += n_sampled
        self.zero_grad += len(infos) - n_sampled
        gnorm, neg_grad = row_norms(grad), -grad
        round_vals: dict[str, list[float]] = {}
        for vec, ext_q, ext_u, cos_key, ratio_key in (
            (v_pre, self.q, self.u, "cos", "ratio"),
            (v_p, self.qp, self.up, "cos_p", "ratio_p"),
            (v_g, self.qg, self.ug, "cos_g", "ratio_g"),
        ):
            cos, ratio, vnorm = _cosines(vec, neg_grad, gnorm)
            kept = sampled & (vnorm != 0.0)
            self.zero_velocity += n_sampled - int(np.count_nonzero(kept))
            round_vals[cos_key], round_vals[ratio_key] = cos[kept].tolist(), ratio[kept].tolist()
            ext_q.add(*round_vals[cos_key])
            ext_u.add(*round_vals[ratio_key])

        row: dict[str, float] = {}
        for key in ("cos", "cos_p", "cos_g", "ratio", "ratio_p", "ratio_g"):
            vals = round_vals[key]
            row[f"{key}_min"] = min(vals) if vals else math.nan
            row[f"{key}_max"] = max(vals) if vals else math.nan
        row["grad_sq_mean"] = float(np.mean(grad_sqs))
        row["recursion_residual"] = max(0.0, *np.max(np.abs(v_post - recon), axis=1).tolist())
        row["velocity_residual"] = max(
            0.0, *np.max(np.abs(v_post - (w_post - w_pre)), axis=1).tolist()
        )
        return row

    @property
    def mean_grad_sq(self) -> float:
        return self.grad_sq_sum / self.grad_sq_count if self.grad_sq_count else math.nan

    @property
    def min_grad_sq(self) -> float:
        return self.grad_sq_min if self.grad_sq_count else math.nan


_VECTORS = ("w_pre", "w_post", "v_pre", "v_post", "w_p_pre", "grad")


def _round_arrays(infos: Sequence[StepInfo]):
    """A round's step vectors as (U, D) arrays, the coefficients (c0, c1,
    c2) as columns or scalars, the squared gradient norms as floats and
    the global best the steps used: None, one (D,) vector, or rows per
    worker (a worker's own previous position where it had none)."""
    if isinstance(infos, StepInfos):
        return (*(infos.vectors[name] for name in _VECTORS), infos.c0, infos.c1[:, None],
                infos.c2[:, None], infos.grad_sq.tolist(), infos.w_g_used)
    stacks = [np.array([getattr(info, name) for info in infos]) for name in _VECTORS]
    coefficients = np.array([(info.c0, info.c1, info.c2) for info in infos])
    w_prev = stacks[0] - stacks[2]
    w_g = np.array([info.w_g_used if info.w_g_used is not None else prev
                    for info, prev in zip(infos, w_prev)])
    return (*stacks, coefficients[:, 0:1], coefficients[:, 1:2], coefficients[:, 2:3],
            [info.grad_sq for info in infos], w_g)


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
# Fewest probe pairs the Lipschitz estimator accepts; config loading checks it too.
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
    pop = Population.of(workers)
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
