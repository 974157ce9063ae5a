import numpy as np
import pytest

from swarmlearn.core import (
    HyperParameters,
    NonFiniteError,
    derived_rng,
    inertia_schedule,
    require_finite,
    sample_coefficients,
    worker_stream,
)


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
