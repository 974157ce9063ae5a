import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmlearn.core as core
from swarmlearn.core import (
    HyperParameters,
    NonFiniteError,
    derived_rng,
    draw_table,
    inertia_schedule,
    require_finite,
    sample_coefficients,
    stream_draws,
    worker_stream,
)
from swarmlearn.data import draw_batch_indices


class TestSampleCoefficients:
    def test_degenerate_ranges_give_zero(self):
        h = HyperParameters(delta_c1=0.0, delta_c2=0.0)
        c1, c2 = sample_coefficients(h, np.random.default_rng(0))
        assert (c1, c2) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 42, 987])
    def test_unit_ranges(self, seed):
        h = HyperParameters(delta_c1=1.0, delta_c2=1.0)
        for t in range(20):
            c1, c2 = sample_coefficients(h, worker_stream(seed, 0).round(t))
            assert 0.0 <= c1 < 1.0
            assert 0.0 <= c2 < 1.0

    def test_replay_is_identical(self):
        h = HyperParameters()
        first = sample_coefficients(h, worker_stream(42, 0).round(0))
        second = sample_coefficients(h, worker_stream(42, 0).round(0))
        assert first == second

    def test_scaled_ranges(self):
        h = HyperParameters(delta_c1=0.25, delta_c2=3.0)
        c1, c2 = sample_coefficients(h, worker_stream(5, 1).round(2))
        assert 0.0 <= c1 < 0.25
        assert 0.0 <= c2 < 3.0


class TestInertiaSchedule:
    def test_constant(self):
        h = HyperParameters(c0=1.0, rounds=100, inertia_mode="constant")
        assert inertia_schedule(h, 37) == 1.0

    def test_linear_start(self):
        h = HyperParameters(c0=1.0, rounds=100, inertia_mode="linear")
        assert inertia_schedule(h, 0) == 1.0

    def test_linear_midpoint(self):
        # evaluate 1 * (1 - 50/100) by hand
        h = HyperParameters(c0=1.0, rounds=100, inertia_mode="linear")
        assert inertia_schedule(h, 50) == 1.0 * (1.0 - 50 / 100)

    def test_nonnegative_everywhere(self):
        h = HyperParameters(c0=0.7, rounds=40, inertia_mode="linear")
        assert all(inertia_schedule(h, t) >= 0 for t in range(40))

    def test_out_of_range_round(self):
        h = HyperParameters(rounds=10)
        with pytest.raises(ValueError):
            inertia_schedule(h, 10)


class TestHyperParameters:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"batch_size": 0},
            {"rounds": 0},
            {"num_workers": 0},
            {"c0": -1.0},
            {"delta_c1": -0.5},
            {"verify_tolerance": 0.0},
            {"inertia_mode": "quadratic"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HyperParameters(**kwargs)

    def test_defaults_match_reference_settings(self):
        h = HyperParameters()
        assert h.c0 == 1.0
        assert h.delta_c1 == 1.0
        assert h.delta_c2 == 1.0
        assert h.alpha == 0.005
        assert h.batch_size == 10
        assert h.num_workers == 50


class TestStreams:
    def test_workers_have_independent_streams(self):
        draws = [worker_stream(9, i).round(0).uniform(size=4) for i in range(6)]
        for a in range(6):
            for b in range(a + 1, 6):
                assert not np.allclose(draws[a], draws[b])

    def test_evaluation_order_does_not_matter(self):
        h = HyperParameters()
        forward = {i: sample_coefficients(h, worker_stream(3, i).round(5)) for i in range(8)}
        backward = {
            i: sample_coefficients(h, worker_stream(3, i).round(5))
            for i in reversed(range(8))
        }
        assert forward == backward

    def test_rounds_are_independent(self):
        a = worker_stream(3, 0).round(0).uniform(size=3)
        b = worker_stream(3, 0).round(1).uniform(size=3)
        assert not np.allclose(a, b)

    def test_derived_rng_reproducible(self):
        x = derived_rng(11, 1, 2, 3).standard_normal(5)
        y = derived_rng(11, 1, 2, 3).standard_normal(5)
        assert np.array_equal(x, y)


def test_require_finite():
    require_finite(np.array([1.0, -2.0]), "ok")
    with pytest.raises(NonFiniteError, match="worker 3"):
        require_finite(np.array([1.0, np.nan]), "worker 3 parameters at round 7")


# --- numpy's per-stream algorithm, rebuilt from raw PCG64 output ----------------

M32 = 0xFFFFFFFF


def oracle_stream(seed, worker_id, t, pool, batch, deltas):
    """A worker-round's draws rebuilt from its stream's raw 64-bit outputs.

    The uniforms are (u64 >> 11) * 2**-53 scaled by delta; choice(pool, b,
    replace=False) is Floyd's sampling then a Fisher-Yates shuffle, both on
    bounded integers by Lemire's method over buffered 32-bit halves, low half
    first. ``deltas`` None draws no coefficients.
    """
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0, worker_id, t)))
    halves = []

    def next64():
        return int(bits.random_raw())

    def next32():
        if not halves:
            x = next64()
            halves.extend([x & M32, x >> 32])
        return halves.pop(0)

    def bounded(r):
        if r == 0:
            return 0
        m = next32() * (r + 1)
        while (m & M32) < (M32 - r) % (r + 1):
            m = next32() * (r + 1)
        return m >> 32

    coefficients = [0.0 + d * ((next64() >> 11) * 2.0**-53) for d in deltas or ()]
    b = min(batch, pool)
    picked = []
    for j in range(pool - b, pool):
        v = bounded(j)
        picked.append(j if v in picked else v)
    for i in range(b - 1, 0, -1):
        k = bounded(i)
        picked[k], picked[i] = picked[i], picked[k]
    return coefficients, np.array(picked, dtype=np.int64)


def numpy_stream(seed, worker_id, t, pool, batch, deltas):
    rng = worker_stream(seed, worker_id).round(t)
    coefficients = []
    if deltas is not None:
        h = HyperParameters(delta_c1=deltas[0], delta_c2=deltas[1])
        coefficients = list(sample_coefficients(h, rng))
    return coefficients, draw_batch_indices(rng, pool, batch)


DELTAS = st.sampled_from([0.0, 0.7, 1.0, 2.5])
streams = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "worker_id": st.integers(0, 60),
    "t": st.integers(0, 500),
    "pool": st.one_of(st.integers(1, 40), st.integers(1, 10_000)),
    "batch": st.integers(1, 63),
    "deltas": st.one_of(st.none(), st.tuples(DELTAS, DELTAS)),
})


class TestNumpyStreamAlgorithm:
    """Pins the per-stream algorithm the vectorized draw table reproduces."""

    @settings(max_examples=300, deadline=None)
    @given(streams)
    def test_oracle_rebuilds_numpy_bit_for_bit(self, case):
        coefficients, batch = oracle_stream(**case)
        np_coefficients, np_batch = numpy_stream(**case)
        assert coefficients == np_coefficients
        assert np_batch.dtype == batch.dtype and np_batch.tobytes() == batch.tobytes()

    @pytest.mark.parametrize("pool, batch, floyd", [(10_001, 10, True), (10_001, 201, False)])
    def test_numpy_leaves_floyd_sampling_past_ten_thousand(self, pool, batch, floyd):
        # Generator.choice switches to a tail shuffle when pool > 10000 and
        # batch > pool // 50; the draw table hands those pools to numpy.
        same = [
            np.array_equal(oracle_stream(s, 0, 0, pool, batch, None)[1],
                           numpy_stream(s, 0, 0, pool, batch, None)[1])
            for s in range(3)
        ]
        assert same == [floyd] * 3


# --- the vectorized draw table ----------------------------------------------------

def assert_table_is_numpy(table, seed, worker_ids, pool, h, coefficients):
    shape = (h.rounds, len(worker_ids))
    assert table.c1.shape == table.c2.shape == shape
    assert table.batches.shape == (*shape, min(h.batch_size, pool))
    for u, worker_id in enumerate(worker_ids):
        for t in range(h.rounds):
            c1, c2, batch = stream_draws(worker_stream(seed, worker_id), t, pool, h, coefficients)
            t1, t2, t_batch = table.c1[t, u], table.c2[t, u], table.batches[t, u]
            assert (t1, t2) == (c1, c2)
            assert t_batch.dtype == batch.dtype and t_batch.tobytes() == batch.tobytes()


@pytest.fixture
def derivations(monkeypatch):
    """Counts the streams numpy derives (the guard and every fallback)."""
    calls = []
    monkeypatch.setattr(core, "derived_rng", lambda *key: calls.append(key) or derived_rng(*key))
    return calls


tables = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "worker_ids": st.lists(st.integers(0, 200), min_size=1, max_size=4, unique=True),
    "pool": st.one_of(st.integers(1, 40), st.integers(1, 12_000)),
    "rounds": st.integers(1, 4),
    "batch": st.integers(1, 63),
    "deltas": st.tuples(DELTAS, DELTAS),
    "coefficients": st.booleans(),
})


class TestDrawTable:
    @settings(max_examples=150, deadline=None)
    @given(tables)
    def test_table_equals_numpy_stream_by_stream(self, case):
        ids, pool = case["worker_ids"], case["pool"]
        h = HyperParameters(rounds=case["rounds"], batch_size=case["batch"],
                            delta_c1=case["deltas"][0], delta_c2=case["deltas"][1])
        table = draw_table(case["seed"], ids, pool, h, case["coefficients"])
        assert_table_is_numpy(table, case["seed"], ids, pool, h, case["coefficients"])

    def test_numpy_derives_only_the_guard_stream(self, derivations):
        h = HyperParameters(rounds=200, batch_size=10)
        table = draw_table(1, range(10), 900, h)
        assert len(derivations) == 1
        assert_table_is_numpy(table, 1, range(10), 900, h, True)

    def test_rejected_draws_fall_back_to_numpy(self, monkeypatch, derivations):
        # flag every third lane as rejected and spoil its draw: numpy redraws
        # exactly those streams
        exact = core._Pcg64Lanes.bounded

        def rejecting(self, r):
            value, rejected = exact(self, r)
            forced = np.arange(len(value)) % 3 == 0
            return np.where(forced, 0, value), rejected | forced

        monkeypatch.setattr(core._Pcg64Lanes, "bounded", rejecting)
        h = HyperParameters(rounds=6, batch_size=5)
        table = draw_table(4, [0, 1], 30, h)
        assert len(derivations) == 4 + 1     # the (t, worker) lanes 0, 3, 6, 9 and the guard
        assert_table_is_numpy(table, 4, [0, 1], 30, h, True)

    def test_guard_mismatch_hands_every_stream_to_numpy(self, monkeypatch, derivations):
        # a vectorized path that silently disagrees with numpy (as a numpy
        # whose choice changed would) is caught by the per-table guard
        monkeypatch.setattr(core._Pcg64Lanes, "next32", lambda self: self.next64() & 7)
        h = HyperParameters(rounds=3, batch_size=4)
        table = draw_table(2, [0, 1, 2], 50, h)
        assert len(derivations) == 1 + 3 * 3
        assert_table_is_numpy(table, 2, [0, 1, 2], 50, h, True)

    @pytest.mark.parametrize("seed, pool, batch", [
        (2**32, 300, 10),           # the seed takes two entropy words
        (2**40 + 7, 30, 40),
        (5, 10_001, 201),           # numpy's tail-shuffle branch
    ])
    def test_uncovered_streams_are_drawn_by_numpy(self, derivations, seed, pool, batch):
        h = HyperParameters(rounds=2, batch_size=batch)
        table = draw_table(seed, [0, 1], pool, h)
        assert len(derivations) == 2 * 2
        assert_table_is_numpy(table, seed, [0, 1], pool, h, True)
