import math

import numpy as np
import pytest

from swarmlearn import analysis
from swarmlearn.attacks import AttackSpec
from swarmlearn.core import DOMAIN_DIAG, HyperParameters, derived_rng
from swarmlearn.data import label_histogram, synthetic_blobs
from swarmlearn.experiment import DataConfig, build_setup, make_workers, population_batch
from swarmlearn.model import ModelSpec, loss, param_count
from swarmlearn.swarm import ProtocolWiring, initial_ps, run_round

SMALL = DataConfig(
    classes=4, per_class=250, dim=5, separation=6.0, test_per_class=25,
    partition="shard", num_shards=20, shards_per_worker=2,
    global_train=80, global_score=80,
)


class TestVelocityReconstruction:
    def test_live_run_reassembles_velocity(self):
        # the velocity recursion residual stays at rounding level on real runs
        h = HyperParameters(rounds=12, num_workers=4, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 3)
        workers = make_workers(setup, h, True, "shared")
        wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), True, AttackSpec())
        stats = analysis.CosineStats(h)
        ps = initial_ps()
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t, collect_vectors=True)
            row = stats.consume_round(outcome.step_infos)
            assert row["recursion_residual"] <= 1e-10
            assert row["velocity_residual"] <= 1e-10


class TestCosineStep:
    def test_perfect_descent_alignment(self):
        g = np.array([1.0, -2.0])
        cos, ratio, flagged = analysis.cosine_step(-g, g)
        assert cos == pytest.approx(1.0, abs=1e-15)
        assert ratio == pytest.approx(1.0, abs=1e-15)
        assert not flagged

    def test_orthogonal(self):
        cos, ratio, _ = analysis.cosine_step(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert cos == 0.0

    def test_anti_alignment_with_ratio(self):
        g = np.array([0.3, -0.4])
        cos, ratio, _ = analysis.cosine_step(2 * g, g)
        assert cos == pytest.approx(-1.0, abs=1e-15)
        assert ratio == pytest.approx(2.0, abs=1e-15)

    def test_zero_velocity_flagged(self):
        cos, ratio, flagged = analysis.cosine_step(np.zeros(2), np.array([1.0, 0.0]))
        assert flagged and cos == 0.0 and ratio == 0.0

    def test_zero_gradient_errors(self):
        with pytest.raises(ValueError):
            analysis.cosine_step(np.ones(2), np.zeros(2))


class TestPhiE:
    def _empty_stats(self, h):
        return analysis.CosineStats(h)

    def test_degenerate_configuration_value(self):
        # by hand: alpha - 2 L alpha^2 with alpha = 0.005, L = 10
        h = HyperParameters(c0=0.0, delta_c1=0.0, delta_c2=0.0, alpha=0.005)
        value = analysis.phi_e(h, self._empty_stats(h), lipschitz=10.0)
        assert value == pytest.approx(0.005 - 2 * 10 * 0.005 ** 2, abs=1e-15)
        assert value == pytest.approx(0.0045, abs=1e-12)

    def test_zero_extrema_make_stats_irrelevant(self):
        h = HyperParameters(c0=0.0, delta_c1=0.0, delta_c2=0.0, alpha=0.005)
        a = analysis.phi_e(h, self._empty_stats(h), 4.0)
        stats = self._empty_stats(h)
        stats.q.add(0.0)
        stats.u.add(0.0)
        b = analysis.phi_e(h, stats, 4.0)
        assert a == b == 0.005 - 2 * 4.0 * 0.005 ** 2

    def test_reports_negative_values_as_is(self):
        h = HyperParameters()
        stats = self._empty_stats(h)
        stats.q.add(-0.9)
        stats.u.add(50.0)
        stats.up.add(50.0)
        stats.qp.add(1.0)
        stats.ug.add(50.0)
        stats.qg.add(1.0)
        value = analysis.phi_e(h, stats, 5.0)
        assert value < 0  # vacuous regime is reported, not clamped

    def test_live_run_delta_vs_degenerate_form(self):
        h = HyperParameters(rounds=10, num_workers=4, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 5)
        workers = make_workers(setup, h, True, "shared")
        wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), True, AttackSpec())
        stats = analysis.CosineStats(h)
        ps = initial_ps()
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t, collect_vectors=True)
            stats.consume_round(outcome.step_infos)
        value = analysis.phi_e(h, stats, 2.0)
        degenerate = h.alpha - 2 * 2.0 * h.alpha ** 2
        assert math.isfinite(value - degenerate)
        # extrema sandwich held during accumulation
        assert stats.q.min <= stats.q.max
        assert stats.u.min <= stats.u.max


class TestConvergenceBound:
    def test_already_optimal(self):
        assert analysis.convergence_bound(1.0, 1.0, 10, 0.5).value == 0.0

    def test_doubling_rounds_halves_bound(self):
        a = analysis.convergence_bound(2.0, 1.0, 100, 0.01)
        b = analysis.convergence_bound(2.0, 1.0, 200, 0.01)
        assert b.value == pytest.approx(a.value / 2, rel=1e-12)

    def test_vacuous_flag(self):
        assert analysis.convergence_bound(2.0, 1.0, 10, -0.1).vacuous
        assert analysis.convergence_bound(2.0, 1.0, 10, 0.0).vacuous
        assert not analysis.convergence_bound(2.0, 1.0, 10, 0.1).vacuous

    def test_min_grad_bounded_by_mean(self):
        h = HyperParameters(rounds=10, num_workers=3, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 6)
        workers = make_workers(setup, h, True, "shared")
        wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), True, AttackSpec())
        stats = analysis.CosineStats(h)
        ps = initial_ps()
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t, collect_vectors=True)
            stats.consume_round(outcome.step_infos)
        assert stats.min_grad_sq <= stats.mean_grad_sq

    def test_trailing_window_gradient_decay(self):
        # on a converging configuration (evenly spread data, decaying
        # inertia) the windowed mean of ||grad||^2 shrinks toward the tail
        from swarmlearn.baselines import DiagnosticsFlags, run_variant

        cfg = DataConfig(
            classes=10, per_class=900, dim=20, separation=2.6, test_per_class=25,
            partition="iid", per_worker=300, global_train=600, global_score=500,
        )
        h = HyperParameters(rounds=200, num_workers=10, batch_size=10, inertia_mode="linear")
        setup = build_setup(cfg, "softmax_regression", (), h, 1)
        result = run_variant("cbdsl_full", setup, h, diag=DiagnosticsFlags(cosine_stats=True))
        series = np.array([r.diag["grad_sq_mean"] for r in result.records])
        windows = [series[-k:].mean() for k in (200, 150, 100, 50)]
        assert all(b < a for a, b in zip(windows, windows[1:]))

    def test_round_values_stay_inside_running_extrema(self):
        h = HyperParameters(rounds=15, num_workers=4, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 7)
        workers = make_workers(setup, h, True, "shared")
        wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), True, AttackSpec())
        stats = analysis.CosineStats(h)
        ps = initial_ps()
        rows = []
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t, collect_vectors=True)
            rows.append(stats.consume_round(outcome.step_infos))
        for row in rows:
            for key, ext in (("cos", stats.q), ("ratio", stats.u),
                             ("cos_p", stats.qp), ("ratio_p", stats.up),
                             ("cos_g", stats.qg), ("ratio_g", stats.ug)):
                lo, hi = row[f"{key}_min"], row[f"{key}_max"]
                if not math.isnan(lo):
                    assert ext.min <= lo <= hi <= ext.max


class TestGenie:
    def test_inertia_update_scalar_example(self):
        w_new, v_new = analysis.inertia_update(
            np.array([0.7]), np.array([0.0]), c0=1.0, alpha=0.1, grad=np.array([1.0])
        )
        assert v_new[0] == pytest.approx(-0.1, abs=1e-15)
        assert w_new[0] == pytest.approx(0.6, abs=1e-15)

    def test_zero_learning_rate_is_pure_inertia(self):
        v = np.array([0.5, -0.25])
        w_new, v_new = analysis.inertia_update(np.zeros(2), v, 1.0, 0.0, np.ones(2))
        assert np.array_equal(v_new, v)
        assert np.array_equal(w_new, v)

    def test_population_loss_decreases_on_blobs(self):
        ds = synthetic_blobs(4, 100, 6, 9.0, seed=0)
        spec = ModelSpec("softmax_regression", 6, 4)
        h = HyperParameters(alpha=0.005, rounds=100, num_workers=1)
        population = ds.as_batch()
        genie = analysis.GenieState(np.zeros(param_count(spec)), np.zeros(param_count(spec)))
        losses = [loss(spec, genie.w, population)]
        for t in range(100):
            genie = analysis.genie_step(genie, h, spec, population, t)
            losses.append(loss(spec, genie.w, population))
        decreases = sum(b < a for a, b in zip(losses, losses[1:]))
        assert decreases >= 95


class TestLipschitzEstimation:
    def test_quadratic_gradient_recovers_curvature(self):
        a = 3.7
        (raw,), used = analysis.estimate_gradient_lipschitz(
            lambda w: 2 * a * w[None], dim=1, probes=16, rng=np.random.default_rng(0)
        )
        assert used == 16
        assert raw == pytest.approx(2 * a, rel=0.05)

    def test_degenerate_pairs_skipped(self):
        envelope = np.array([[0.0], [1.0]])
        (raw,), used = analysis.estimate_gradient_lipschitz(
            lambda w: 5.0 * w[None], dim=1, probes=8,
            rng=np.random.default_rng(1), envelope=envelope, spread=0.0,
        )
        assert used < 8  # identical-base pairs were dropped
        assert raw == pytest.approx(5.0, rel=1e-12)

    def test_monotone_in_probe_count(self):
        grad_fn = lambda w: np.stack([np.tanh(w) * 3.0, w * w])
        values = []
        for probes in (4, 8, 16, 32):
            raw, _ = analysis.estimate_gradient_lipschitz(
                grad_fn, dim=3, probes=probes, rng=np.random.default_rng(7)
            )
            values.append(raw)
        for row in zip(*values):
            assert all(b >= a for a, b in zip(row, row[1:]))

    def test_model_estimate_applies_safety_factor(self):
        ds = synthetic_blobs(3, 60, 4, 5.0, seed=2)
        spec = ModelSpec("softmax_regression", 4, 3)
        est = analysis.estimate_model_lipschitz(
            spec, ds.as_batch(), 3, probes=8, rng=np.random.default_rng(3)
        )
        assert est.l_global == pytest.approx(1.5 * est.raw_global, rel=1e-12)
        assert np.allclose(est.l_classes, 1.5 * est.raw_classes)
        assert est.l_classes.shape == (3,)
        assert est.samples == 8

    def test_all_degenerate_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            analysis.estimate_gradient_lipschitz(
                lambda w: w[None], dim=2, probes=4,
                rng=np.random.default_rng(0), envelope=np.zeros((1, 2)), spread=0.0,
            )


class TestFMax:
    def test_matches_per_class_norms(self):
        ds = synthetic_blobs(3, 40, 4, 5.0, seed=4)
        spec = ModelSpec("softmax_regression", 4, 3)
        w = np.random.default_rng(0).standard_normal(param_count(spec)) * 0.1
        per_class = analysis.class_batches(ds.as_batch(), 3)
        from swarmlearn.model import gradient

        norms = [np.linalg.norm(gradient(spec, w, b)) for b in per_class]
        assert analysis.f_max_at(spec, w, per_class) == max(norms)

    def test_absent_class_is_skipped(self):
        ds = synthetic_blobs(2, 30, 4, 5.0, seed=5)
        spec = ModelSpec("softmax_regression", 4, 4)
        batches = analysis.class_batches(
            ds.as_batch().__class__(ds.features, ds.labels), 4
        )
        assert batches[2] is None and batches[3] is None
        value = analysis.f_max_at(spec, np.zeros(param_count(spec)), batches)
        assert math.isfinite(value)


DIAG_CFG = DataConfig(
    classes=10, per_class=900, dim=20, separation=1.6, test_per_class=20,
    partition="shard", num_shards=60, shards_per_worker=2,
    global_train=600, global_score=500,
)
# full local gradients (batch = partition size): the divergence bound is a
# statement about full local gradients, not mini-batch estimates
DIAG_HYPER = HyperParameters(
    c0=0.5, delta_c1=0.5, delta_c2=0.5, alpha=0.005,
    rounds=50, num_workers=3, batch_size=300,
)


def genie_aligned_world(seed, h=DIAG_HYPER, rounds=50):
    setup = build_setup(DIAG_CFG, "softmax_regression", (), h, seed)
    workers = make_workers(setup, h, with_global_train=False, score_mode="shared")
    population = population_batch(setup)
    genie = analysis.GenieState(setup.init_w.copy(), np.zeros(setup.init_w.shape[0]))
    states, genie_out, trace = analysis.run_genie_aligned(
        workers, genie, setup.spec, h, rounds, population, DIAG_CFG.classes
    )
    pop_hist = label_histogram(population.labels, DIAG_CFG.classes)
    hists = np.stack([
        label_histogram(setup.train.labels[setup.plan.worker_indices[i]], DIAG_CFG.classes)
        for i in range(h.num_workers)
    ])
    lip = analysis.estimate_model_lipschitz(
        setup.spec, population, DIAG_CFG.classes, probes=24,
        rng=derived_rng(seed, DOMAIN_DIAG, 1), envelope=trace.envelope, spread=0.5,
    )
    return setup, trace, hists, pop_hist, lip


class TestDivergenceBound:
    def test_worker_identical_to_genie(self):
        # same data, same init, pull coefficients forced to zero, full-batch
        # gradient: the worker IS the genie, so the divergence stays at zero
        classes, per_class, dim = 3, 60, 4
        ds = synthetic_blobs(classes, per_class, dim, 6.0, seed=1)
        spec = ModelSpec("softmax_regression", dim, classes)
        population = ds.as_batch()
        h = HyperParameters(
            c0=1.0, delta_c1=0.0, delta_c2=0.0, alpha=0.005,
            rounds=20, num_workers=1, batch_size=len(ds),
        )
        from swarmlearn.core import worker_stream
        from swarmlearn.swarm import WorkerState

        w0 = np.zeros(param_count(spec))
        worker = WorkerState(
            worker_id=0, w=w0.copy(), v=np.zeros_like(w0), w_p=w0.copy(),
            f_p=loss(spec, w0, population),
            train_features=population.features, train_labels=population.labels,
            score_set=population, stream=worker_stream(0, 0),
        )
        genie = analysis.GenieState(w0.copy(), np.zeros_like(w0))
        _, _, trace = analysis.run_genie_aligned(
            [worker], genie, spec, h, 20, population, classes
        )
        assert np.all(trace.w_dist <= 1e-12)
        hist = label_histogram(population.labels, classes)
        lip = analysis.estimate_model_lipschitz(
            spec, population, classes, 8, np.random.default_rng(0)
        )
        verdicts = analysis.divergence_bound_check(trace, hist[None, :], hist, lip, h)
        assert all(v.holds for v in verdicts)
        # slack is essentially the whole right-hand side
        for v in verdicts:
            assert v.slack == pytest.approx(v.rhs, abs=1e-9)

    def test_iid_worker_drops_third_term(self):
        # equal local and population histograms zero the distribution term
        setup, trace, hists, pop_hist, lip = genie_aligned_world(seed=1)
        same = np.stack([pop_hist] * DIAG_HYPER.num_workers)
        verdicts = analysis.divergence_bound_check(trace, same, pop_hist, lip, DIAG_HYPER)
        for v in verdicts[:50]:
            i, t = v.worker, v.round_index
            beta = 1.0 + DIAG_HYPER.alpha * float(pop_hist @ lip.l_classes)
            c0, c1, c2 = trace.coeffs[i, t]
            expected = beta * trace.w_dist[i, t] + abs(c0 - c1 - c2) * trace.v_dist[i, t]
            assert v.rhs == pytest.approx(expected, rel=1e-12)

    def test_shard_workers_hold_every_round(self):
        setup, trace, hists, pop_hist, lip = genie_aligned_world(seed=2)
        verdicts = analysis.divergence_bound_check(trace, hists, pop_hist, lip, DIAG_HYPER)
        assert all(v.holds for v in verdicts)
        assert all(v.telescoped_holds for v in verdicts)

    def test_missing_class_estimates_error(self):
        setup, trace, hists, pop_hist, lip = genie_aligned_world(seed=3)
        from dataclasses import replace

        short = replace(lip, l_classes=lip.l_classes[:4])
        with pytest.raises(ValueError, match="class"):
            analysis.divergence_bound_check(trace, hists, pop_hist, short, DIAG_HYPER)
