"""Shared domain plumbing: hyperparameters, deterministic RNG streams and their draws."""
from __future__ import annotations

import math
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
        for name in ("c0", "delta_c1", "delta_c2", "alpha", "verify_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def draw_batch_indices(rng: np.random.Generator, pool_size: int, batch_size: int) -> np.ndarray:
    """Mini-batch draw without replacement (capped at the pool size)."""
    take = min(batch_size, pool_size)
    return rng.choice(pool_size, size=take, replace=False)


def stream_draws(
    stream: RngStream, t: int, pool_size: int, h: HyperParameters, coefficients: bool = True
) -> tuple[float, float, np.ndarray]:
    """Round t of one worker's stream, drawn by numpy: (c1, c2, batch positions).

    The swarm weights come first, then the mini-batch. FedAvg streams draw no
    weights (``coefficients`` False) and read 0.0 for both.
    """
    rng = stream.round(t)
    c1, c2 = sample_coefficients(h, rng) if coefficients else (0.0, 0.0)
    return c1, c2, draw_batch_indices(rng, pool_size, h.batch_size)


@dataclass(frozen=True)
class DrawTable:
    """A run's draws for U workers over T rounds; row t holds round t's."""

    c1: np.ndarray       # (T, U)
    c2: np.ndarray       # (T, U)
    batches: np.ndarray  # (T, U, min(B, pool)) positions into each worker's pool


# numpy's SeedSequence hash constants, and its PCG64 multiplier as 64-bit words.
_M32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Generator.choice leaves Floyd's sampling for a tail shuffle past this pool size.
_FLOYD_MAX_POOL = 10_000


def _mul_64x64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products a * b as (high, low) words, from 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    low_low = a0 * b0
    mid = a1 * b0 + (low_low >> 32)
    mid2 = (mid & _M32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (mid2 >> 32), (mid2 << 32) | (low_low & _M32)


class _Pcg64Lanes:
    """Many numpy PCG64 streams stepped side by side, one per array lane.

    Lane i starts where ``np.random.PCG64(SeedSequence(seed, spawn_key=key_i))``
    starts, for a seed below 2**32 and key words below 2**32: numpy's
    SeedSequence hash on uint32 words, then PCG64 seeding (O'Neill 2014). The
    128-bit LCG state is a (high, low) pair of uint64 arrays; the output is
    XSL-RR. ``next32`` buffers 32-bit halves, low half first, like numpy.
    """

    def __init__(self, seed: int, key: list[np.ndarray]):
        hash_const = _HASH_INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = (hash_const * _HASH_MULT_A) & _M32
            value = value * hash_const
            return value ^ (value >> 16)

        def mix(x, y):
            result = x * _MIX_MULT_L - y * _MIX_MULT_R
            return result ^ (result >> 16)

        # The run entropy is padded to the pool size (4) before the key is appended.
        entropy = [np.array([seed, 0, 0, 0], dtype=np.uint32)[i : i + 1] for i in range(4)]
        entropy += [word.astype(np.uint32) for word in key]
        pool = [hashmix(word) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))

        hash_const = _HASH_INIT_B
        words = []
        for i in range(8):      # generate_state(4, uint64)
            value = pool[i % 4] ^ hash_const
            hash_const = (hash_const * _HASH_MULT_B) & _M32
            value = value * hash_const
            words.append((value ^ (value >> 16)).astype(np.uint64))
        # The 128-bit seed and sequence, high 64-bit word first.
        seed_hi, seed_lo, seq_hi, seq_lo = (words[k] | (words[k + 1] << 32) for k in (0, 2, 4, 6))
        self.inc_hi = (seq_hi << 1) | (seq_lo >> 63)
        self.inc_lo = (seq_lo << 1) | 1
        self.hi, self.lo = self.inc_hi, self.inc_lo     # state 0, one step
        low = self.lo + seed_lo
        self.hi, self.lo = self.hi + seed_hi + (low < self.lo), low
        self._step()
        self.buffer = None

    def _step(self) -> None:
        high, low = _mul_64x64(self.lo, _PCG_MULT_LO)
        high = high + self.hi * _PCG_MULT_LO + self.lo * _PCG_MULT_HI
        self.lo = low + self.inc_lo
        self.hi = high + self.inc_hi + (self.lo < low)

    def next64(self) -> np.ndarray:
        self._step()
        x, rot = self.hi ^ self.lo, self.hi >> 58
        return (x >> rot) | (x << ((64 - rot) & 63))

    def next32(self) -> np.ndarray:
        if self.buffer is not None:
            out, self.buffer = self.buffer, None
            return out
        out = self.next64()
        self.buffer = out >> 32
        return out & _M32

    def bounded(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Integers on [0, r] by Lemire's method (Lemire 2019), numpy's way,
        and the lanes whose draw numpy would have rejected and redrawn."""
        if r == 0:
            zero = np.zeros(self.hi.shape, dtype=np.uint64)
            return zero, zero.astype(bool)
        m = self.next32() * (r + 1)
        threshold = (_M32 - r) % (r + 1)
        return m >> 32, (m & _M32) < threshold


def _vector_draws(seed: int, worker_ids: np.ndarray, rounds: int, pool: int, batch: int,
                  coefficients: bool):
    """Every (t, worker) stream of a pool size: the swarm-weight uniforms as
    (2, T, U) (None without coefficients), batch positions (T, U, batch), and a
    (T, U) mask of the streams numpy would have drawn differently."""
    t = np.repeat(np.arange(rounds, dtype=np.uint32), len(worker_ids))
    lanes = _Pcg64Lanes(seed, [np.full(1, DOMAIN_WORKER), np.tile(worker_ids, rounds), t])
    shape = (rounds, len(worker_ids))
    uniforms = None
    if coefficients:
        uniforms = np.stack([(lanes.next64() >> 11) * 2.0**-53 for _ in range(2)]).reshape(2, *shape)
    # Generator.choice(pool, batch, replace=False): Floyd's sampling, then a
    # Fisher-Yates shuffle of the picks.
    picked = np.empty((len(t), batch), dtype=np.int64)
    rejected = np.zeros(len(t), dtype=bool)
    for s, j in enumerate(range(pool - batch, pool)):
        v, bad = lanes.bounded(j)
        rejected |= bad
        v = v.astype(np.int64)
        seen = (picked[:, :s] == v[:, None]).any(axis=1)
        picked[:, s] = np.where(seen, j, v)
    lane = np.arange(len(t))
    for i in range(batch - 1, 0, -1):
        k, bad = lanes.bounded(i)
        rejected |= bad
        k = k.astype(np.intp)
        column = picked[:, i].copy()
        picked[:, i] = picked[lane, k]
        picked[lane, k] = column
    return uniforms, picked.reshape(*shape, batch), rejected.reshape(shape)


def draw_table(
    seed: int, worker_ids, pool: int, h: HyperParameters, coefficients: bool = True
) -> DrawTable:
    """Every draw of a run's worker streams at once, bit-equal to ``stream_draws``.

    Every worker draws from a pool of ``pool`` rows for ``h.rounds`` rounds;
    the (T, U) streams are drawn in vectorized uint32/uint64 arithmetic.
    numpy draws a stream itself when the vectorized path does not reproduce
    it: a seed outside [0, 2**32), a pool past Floyd's sampling, or a bounded
    draw numpy would reject and redraw. One stream is also drawn both ways;
    if they differ, numpy draws every stream.
    """
    rounds, n, batch = h.rounds, len(worker_ids), min(h.batch_size, pool)
    c1, c2 = np.zeros((rounds, n)), np.zeros((rounds, n))
    batches = np.empty((rounds, n, batch), dtype=np.int64)
    by_numpy = np.ones((rounds, n), dtype=bool)
    ids = np.array(worker_ids)
    if (0 <= min(seed, ids.min()) and max(seed, ids.max()) < 2**32 and pool >= 1
            and (pool <= _FLOYD_MAX_POOL or batch <= pool // 50)):
        uniforms, batches, by_numpy = _vector_draws(
            seed, ids.astype(np.uint32), rounds, pool, batch, coefficients
        )
        if uniforms is not None:
            c1, c2 = 0.0 + h.delta_c1 * uniforms[0], 0.0 + h.delta_c2 * uniforms[1]

    def from_numpy(t, u):
        return stream_draws(worker_stream(seed, worker_ids[u]), t, pool, h, coefficients)

    covered = np.argwhere(~by_numpy).tolist()
    if covered:
        t, u = covered[0]
        n1, n2, n_batch = from_numpy(t, u)
        if (n1, n2) != (c1[t, u], c2[t, u]) or not np.array_equal(n_batch, batches[t, u]):
            by_numpy[:] = True
    for t, u in np.argwhere(by_numpy).tolist():
        c1[t, u], c2[t, u], batches[t, u] = from_numpy(t, u)
    return DrawTable(c1, c2, batches)


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
