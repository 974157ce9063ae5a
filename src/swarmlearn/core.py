"""Shared domain plumbing: hyperparameters, deterministic RNG streams, coefficients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream namespaces. Workers, orchestrator duties, parameter initialization,
# attack draws and diagnostics each get their own namespace so that adding a
# consumer in one place never shifts anybody else's random stream.
DOMAIN_WORKER = 0
DOMAIN_ORCHESTRATOR = 1
DOMAIN_INIT = 2
DOMAIN_ATTACK = 3
DOMAIN_DIAG = 4

INERTIA_MODES = ("constant", "linear")


class NonFiniteError(ValueError):
    """A parameter or velocity vector picked up NaN/Inf entries."""


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, *key), independent of call order.

    Every (seed, key) pair owns its own stream, so results do not depend on
    how many draws other owners made or on evaluation order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class RngStream:
    """Handle for one owner's stream; a fresh generator is derived per round."""

    seed: int
    domain: int
    index: int

    def round(self, t: int) -> np.random.Generator:
        return derived_rng(self.seed, self.domain, self.index, t)


def worker_stream(seed: int, worker_id: int) -> RngStream:
    return RngStream(seed, DOMAIN_WORKER, worker_id)


def attack_stream(seed: int, worker_id: int) -> RngStream:
    return RngStream(seed, DOMAIN_ATTACK, worker_id)


@dataclass(frozen=True)
class HyperParameters:
    """Run-wide constants of the swarm/SGD hybrid and its baselines.

    ``c0`` is the inertia weight, ``delta_c1``/``delta_c2`` the upper ends of
    the uniform ranges the cognitive and social weights are drawn from, and
    ``alpha`` the SGD learning rate.
    """

    c0: float = 1.0
    delta_c1: float = 1.0
    delta_c2: float = 1.0
    alpha: float = 0.005
    batch_size: int = 10
    rounds: int = 200
    num_workers: int = 50
    verify_tolerance: float = 1e-9
    inertia_mode: str = "constant"

    def __post_init__(self):
        if self.c0 < 0 or self.delta_c1 < 0 or self.delta_c2 < 0:
            raise ValueError("c0, delta_c1, delta_c2 must be >= 0")
        if self.alpha < 0:
            # alpha == 0 is allowed: it turns off the gradient term, which the
            # pure-inertia and pure-swarm modes rely on.
            raise ValueError("alpha must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.verify_tolerance <= 0:
            raise ValueError("verify_tolerance must be > 0")
        if self.inertia_mode not in INERTIA_MODES:
            raise ValueError(f"inertia_mode must be one of {INERTIA_MODES}")


def sample_coefficients(h: HyperParameters, rng: np.random.Generator) -> tuple[float, float]:
    """Draw the round's cognitive/social weights, one scalar pair per worker.

    Both draws are uniform on [0, delta); a zero delta degenerates to 0.0 but
    still consumes the stream, keeping draw alignment identical across
    configurations.
    """
    c1 = float(rng.uniform(0.0, h.delta_c1))
    c2 = float(rng.uniform(0.0, h.delta_c2))
    return c1, c2


def inertia_schedule(h: HyperParameters, t: int) -> float:
    """Inertia weight at round t: constant c0, or linearly decaying to 0 at T."""
    if not 0 <= t < h.rounds:
        raise ValueError(f"round index {t} outside [0, {h.rounds})")
    if h.inertia_mode == "linear":
        return h.c0 * (1.0 - t / h.rounds)
    return h.c0


def require_finite(values: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"non-finite values in {context}")
