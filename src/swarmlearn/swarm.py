"""The swarm-learning protocol engine: worker update, best tracking, server side.

One round runs in three phases. Every worker takes a hybrid step (inertia +
pull toward its own best + pull toward the global best - a gradient step),
scores itself on its scoring set and reports that scalar. The server then
invites the claims that beat the global best, lowest first: the invited
worker uploads its best model and the server re-scores it to screen Byzantine
forgeries. A rejected upload blacklists its sender and the next claim is
invited; the first accepted one is broadcast as the new global best.
Communication is metered per round.

The workers of a run form one ``Population``: positions, velocities and
personal bests as (U, D) rows and best scores as (U,), in worker-id order,
one set of arrays that every round advances in place. The step phase takes
one gradient kernel call per worker and updates the rows together; the
scoring phase scores every worker in one stacked ``loss`` call and copies
the rows that improved into the personal bests.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks
from .core import (
    HyperParameters,
    NonFiniteError,
    attack_stream,
    draw_batch_indices,  # noqa: F401  bound here only for perfbench's span hook
    draw_table,
    inertia_schedule,
)
from .data import Rows
from .model import Batch, ModelSpec, Workspace, loss, loss_and_gradient, row_dots

# The step phase and the diagnostics work over runs of rows whose (rows, D)
# arrays fit this many bytes: a wide model makes no (U, D) temporaries, and
# each run's arithmetic stays within a core's cache.
_ROW_BUDGET_BYTES = 1 << 18


def row_runs(count: int, dim: int) -> list[slice]:
    """``count`` rows of ``dim`` float64 values as consecutive runs, in
    order, each of as many rows as fit ``_ROW_BUDGET_BYTES`` (one at least)."""
    run = max(1, _ROW_BUDGET_BYTES // (8 * dim))
    return [slice(lo, min(count, lo + run)) for lo in range(0, count, run)]


@dataclass
class WorkerState:
    worker_id: int
    w: np.ndarray
    v: np.ndarray
    w_p: np.ndarray
    f_p: float
    train_features: Rows
    train_labels: Rows
    score_set: Batch | None
    seed: int                    # the run's seed, which keys the worker's streams
    is_byzantine: bool = False   # forges its report and upload with the round's attack


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
class RoundOutcome:
    f_g: float
    batch_losses: np.ndarray
    scalar_uplinks: int
    vector_uplinks: int
    vector_broadcasts: int
    detections: int
    step_infos: StepInfos | None   # None for a round that takes no swarm steps


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


@dataclass(frozen=True, eq=False)
class StepInfos:
    """One round's step quantities in worker-id order: the realized swarm
    weights ``c1``, ``c2`` (``c2`` 0.0 while no global best exists), batch
    losses and squared gradient norms as (U,) arrays, the inertia weight
    ``c0`` and the global best the step pulled toward. ``vectors``, empty
    unless the round collected them, maps ``w_pre``, ``v_pre``, ``w_p_pre``
    and ``grad`` to (U, D) arrays of the round's own, which later rounds
    leave as they are, and ``w_post``, ``v_post`` to the population's ``w``
    and ``v``, valid until the next round steps."""

    ids: tuple[int, ...]
    c0: float
    c1: np.ndarray
    c2: np.ndarray
    batch_losses: np.ndarray
    grad_sq: np.ndarray
    w_g_used: np.ndarray | None
    vectors: dict[str, np.ndarray]


@dataclass(frozen=True)
class Crew:
    """What a run's workers keep from round to round, in worker-id order.

    ``states`` are the worker states the population was built from (pools,
    seed and scoring sets). ``rows`` is the run's batches as store rows:
    ``rows[t, u]`` are the rows of ``features`` and ``labels``, the training
    set every pool indexes, that worker u trains on in round t, a (T, U, B)
    table drawn once. ``c1`` and ``c2`` are the (T, U) swarm weights drawn
    with it. ``score`` is every worker's scoring set as one stacked batch
    (broadcast views of one shared set, or the adopted stack whose rows are
    the local sets), None without a scoreboard. ``work`` holds the buffers
    the step and scoring phases reuse, kept for the run.
    """

    states: tuple[WorkerState, ...]
    ids: tuple[int, ...]
    byzantine: tuple[bool, ...]
    rows: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    score: Batch | None
    work: Workspace = field(default_factory=Workspace)

    @classmethod
    def of(cls, states, h: HyperParameters) -> Crew:
        """The crew of ``states`` in the order given, with the draws of
        their worker streams (keyed by the run's seed and each worker id) for
        ``h.rounds`` rounds, the batch positions as store rows. Workers with
        a scoreboard draw swarm weights; FedAvg workers (no scoring set) draw
        only batches. ValueError unless the workers are of one seed, their
        pools equal-length Rows of one training set and their scoring sets
        one set, the rows of one stack in the order given, or none."""
        states = tuple(states)
        seed = states[0].seed
        if any(s.seed != seed for s in states):
            raise ValueError("workers are not of one seed")
        features = [s.train_features for s in states]
        labels = [s.train_labels for s in states]
        if not all(isinstance(f, Rows) and f.base is features[0].base
                   and isinstance(y, Rows) and y.base is labels[0].base and f.index is y.index
                   for f, y in zip(features, labels)):
            raise ValueError("worker pools are not Rows of one training set")
        if len({len(f) for f in features}) != 1:
            raise ValueError("worker pools differ in length")
        sets = [s.score_set for s in states]
        score = None
        if all(b is sets[0] for b in sets) and sets[0] is not None:
            score = sets[0].repeat(len(sets))
        elif any(b is not None for b in sets):
            if any(b is None for b in sets):
                raise ValueError("some workers have a scoring set and some have none")
            if len({b.labels.shape for b in sets}) != 1:
                raise ValueError("worker scoring sets differ in length")
            x, y = sets[0].features.base, sets[0].labels.base
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and len(y) == len(sets)
                    and all(b.features.__array_interface__ == x[u].__array_interface__
                            and b.labels.__array_interface__ == y[u].__array_interface__
                            for u, b in enumerate(sets))):
                raise ValueError("worker scoring sets are not the rows of one stack")
            score = Batch(x, y)
        index = np.stack([f.index for f in features])
        ids = tuple(s.worker_id for s in states)
        draws = draw_table(seed, ids, index.shape[1], h, coefficients=score is not None)
        return cls(
            states, ids, tuple(s.is_byzantine for s in states),
            index[np.arange(len(ids))[:, None], draws.batches], draws.c1, draws.c2,
            features[0].base, labels[0].base, score,
        )

    def batches(self, t: int, rows: slice = slice(None)) -> Batch:
        """Round t's mini-batches of workers ``rows`` as one (rows, B) stacked
        batch, gathered in one pass over the training set."""
        at = self.rows[t, rows]
        return Batch(self.features[at], self.labels[at])


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """A run's workers as rows: (U, D) positions ``w``, velocities ``v``
    and personal bests ``w_p`` and (U,) best scores ``f_p``, in worker-id
    order. The arrays are kept for the whole run: every round advances them
    in place. The population reads as a sequence of read-only
    ``WorkerState`` views, one per worker, valid until the next round; copy
    what is read after it."""

    crew: Crew
    w: np.ndarray
    v: np.ndarray
    w_p: np.ndarray
    f_p: np.ndarray

    @classmethod
    def of(cls, states, h: HyperParameters) -> Population:
        """The population of worker states given in any order, for a run of
        ``h``. The rows are copies of the states' vectors, so no round writes
        the states; the crew keeps the states without their vectors."""
        states = sorted(states, key=lambda s: s.worker_id)
        rows = [np.array([getattr(s, name) for s in states], dtype=np.float64)
                for name in ("w", "v", "w_p", "f_p")]
        crew = Crew.of(tuple(replace(s, w=None, v=None, w_p=None) for s in states), h)
        return cls(crew, *rows)

    def __len__(self) -> int:
        return len(self.crew.ids)

    def __getitem__(self, u):
        if isinstance(u, slice):
            return [self[k] for k in range(*u.indices(len(self)))]
        w, v, w_p = self.w[u], self.v[u], self.w_p[u]
        for view in (w, v, w_p):
            view.flags.writeable = False
        return replace(self.crew.states[u], w=w, v=v, w_p=w_p, f_p=float(self.f_p[u]))


def hybrid_update(
    w: np.ndarray,
    v: np.ndarray,
    w_p: np.ndarray,
    w_g: np.ndarray | None,
    c0: float,
    c1: float | np.ndarray,
    c2: float | np.ndarray,
    alpha: float,
    grad: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The hybrid position update: inertia + both pulls - a gradient step.

    Returns (w', v') with v' defined as the realized displacement, so
    v' == w' - w holds exactly in arithmetic. Zero coefficients skip their
    term entirely, which keeps the degenerate configuration bit-identical to
    plain SGD. ``w``, ``v``, ``w_p`` and ``grad`` may be (U, D) rows with
    ``c1`` and ``c2`` (U, 1) columns; a zero then skips its term in its own
    row, so every row is bit-equal to the update of that row alone. ``out``
    takes the arrays to write (w', v') into (v' may go into ``v`` itself,
    which is read before v' is written, and w' into the second scratch
    array, free once the displacement is formed), ``scratch`` two arrays
    shaped like ``w`` for the displacement and its terms.
    """
    disp, term = scratch if scratch is not None else (np.empty_like(w), np.empty_like(w))
    disp.fill(0.0)
    if c0 != 0.0:
        disp += np.multiply(c0, v, out=term)
    _add_pull(disp, term, c1, w_p, w)
    if w_g is not None:
        _add_pull(disp, term, c2, w_g, w)
    disp -= np.multiply(alpha, grad, out=term)
    w_new, v_new = out if out is not None else (None, None)
    w_new = np.add(w, disp, out=w_new)
    return w_new, np.subtract(w_new, w, out=v_new)


def _add_pull(disp: np.ndarray, term: np.ndarray, c, target: np.ndarray, w: np.ndarray) -> None:
    """disp += c * (target - w), in the rows whose coefficient is nonzero;
    ``term`` is scratch space shaped like ``w``."""
    live = np.asarray(c) != 0.0
    if live.all():
        np.subtract(target, w, out=term)
        term *= c
        disp += term
    elif live.any():
        rows = live[:, 0]
        disp[rows] += c[rows] * ((target[rows] if target.ndim == 2 else target) - w[rows])


def worker_step(
    pop: Population,
    w_g: np.ndarray | None,
    h: HyperParameters,
    spec: ModelSpec,
    t: int,
    collect_vectors: bool = False,
) -> tuple[Population, StepInfos]:
    """The round's step phase: every worker takes one hybrid update at the
    current global best, written into the population's rows. Returns the
    population and the step infos (collected post-step vectors are those rows).

    Each gradient is a mini-batch estimate taken at the worker's
    pre-update parameters, one kernel call per worker, written into a run's
    (rows, D) gradient buffer (the collected ``grad`` rows when collecting
    vectors); the social pull is suppressed until a global best exists. The
    rows are updated in ``row_runs``, through the crew's scratch buffers. A
    non-finite row names its worker and leaves the population partly stepped.
    """
    crew = pop.crew
    c0 = inertia_schedule(h, t)
    c1, c2 = crew.c1[t], crew.c2[t]
    if w_g is None:
        c2 = np.zeros_like(c1)
    count, dim = pop.w.shape
    batch_losses, grad_sq = np.empty(count), np.empty(count)
    vectors = dict(w_pre=pop.w.copy(), v_pre=pop.v.copy(), w_p_pre=pop.w_p.copy(), w_post=pop.w,
                   v_post=pop.v, grad=np.empty((count, dim))) if collect_vectors else {}
    for rows in row_runs(count, dim):
        lo = rows.start
        batch = crew.batches(t, rows)
        part = (vectors["grad"][rows] if collect_vectors
                else crew.work.array("grad", (len(batch.labels), dim)))
        for u, (x, y) in enumerate(zip(batch.features, batch.labels), lo):
            try:
                batch_losses[u] = loss_and_gradient(spec, pop.w[u], Batch(x, y), out=part[u - lo])[0]
            except Exception as exc:
                exc.args = (f"round {t}, worker {crew.ids[u]}: {exc}",)
                raise
        grad_sq[rows] = row_dots(part, part)
        # v' needs w as it was, so w' is formed in the scratch that held the
        # displacement's terms and copied in
        w, v = pop.w[rows], pop.v[rows]
        disp, w_new = crew.work.array("disp", part.shape), crew.work.array("term", part.shape)
        hybrid_update(
            w, v, pop.w_p[rows], w_g, c0, c1[rows, None], c2[rows, None], h.alpha, part,
            out=(w_new, v), scratch=(disp, w_new),
        )
        finite = np.isfinite(w_new).all(axis=1)
        if not finite.all():
            worker = crew.ids[lo + int(finite.argmin())]
            raise NonFiniteError(
                f"round {t}, worker {worker}: non-finite values in worker {worker} "
                f"parameters at round {t}"
            )
        w[...] = w_new

    return pop, StepInfos(crew.ids, c0, c1, c2, batch_losses, grad_sq, w_g, vectors)


def score_and_update_best(pop: Population, spec: ModelSpec) -> Population:
    """The round's scoring phase: every worker scores its current model,
    all in one stacked ``loss`` call; the workers that scored strictly
    better copy their score and row into (f_p, w_p)."""
    crew = pop.crew
    scores = loss(spec, pop.w, crew.score, work=crew.work)
    for u in np.flatnonzero(scores < pop.f_p):
        pop.f_p[u], pop.w_p[u] = scores[u], pop.w[u]
    return pop


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


def _upload_for(pop: Population, u: int, wiring: ProtocolWiring, t: int) -> np.ndarray:
    crew = pop.crew
    if crew.byzantine[u]:
        rng = attack_stream(crew.states[u].seed, crew.ids[u]).round(t)
        return attacks.forge_upload(pop.w_p[u], wiring.attack.strategy, wiring.attack.scale, rng)
    return pop.w_p[u].copy()


def run_round(
    workers: Sequence[WorkerState],
    ps: PsState,
    wiring: ProtocolWiring,
    t: int,
    collect_vectors: bool = False,
) -> tuple[Population, PsState, RoundOutcome]:
    """One full protocol round. Worker phase order does not affect the result.

    ``workers`` is the ``Population`` an earlier round returned, which this
    round advances in place and returns, or worker states in any order,
    which are copied into a new population first and left as they are.
    """
    h, spec, attack = wiring.hyper, wiring.spec, wiring.attack
    pop = workers if isinstance(workers, Population) else Population.of(workers, h)

    # Worker phase. Blacklisted workers still train but no longer report.
    _, infos = worker_step(pop, ps.w_g, h, spec, t, collect_vectors)
    score_and_update_best(pop, spec)
    crew = pop.crew
    reports, claimants = [], []
    for u, worker_id in enumerate(crew.ids):
        if worker_id in ps.blacklist:
            continue
        report = ScalarReport(worker_id, float(pop.f_p[u]))
        if crew.byzantine[u]:
            report = attacks.forge_report(report, ps.f_g, attack.strategy)
        reports.append(report)
        claimants.append(u)

    # Server phase: invite the claims that beat f_g, lowest first. A rejected
    # upload blacklists its sender; the first accepted one ends the walk.
    blacklist = set(ps.blacklist)
    f_g, w_g = ps.f_g, ps.w_g
    vector_uplinks = 0
    for i in invitation_order(reports, ps.f_g):
        report = reports[i]
        upload = _upload_for(pop, claimants[i], wiring, t)
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
        batch_losses=infos.batch_losses,
        scalar_uplinks=len(reports),
        vector_uplinks=vector_uplinks,
        vector_broadcasts=1 if w_g is not ps.w_g else 0,  # every upload is a fresh array
        detections=len(blacklist) - len(ps.blacklist),
        step_infos=infos,
    )
    return pop, PsState(w_g, f_g, blacklist), outcome


def initial_ps() -> PsState:
    return PsState(w_g=None, f_g=math.inf, blacklist=set())
