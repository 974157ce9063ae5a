import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlearn import analysis
from swarmlearn.attacks import AttackSpec
from swarmlearn.core import DOMAIN_DIAG, HyperParameters, derived_rng
from swarmlearn.data import label_histogram, synthetic_blobs
from swarmlearn.experiment import (
    DataConfig,
    build_setup,
    initial_w_for,
    make_workers,
    population_batch,
)
from swarmlearn.model import ModelSpec, gradient, loss, param_count
from swarmlearn.swarm import (
    ProtocolWiring,
    StepInfos,
    initial_ps,
    run_round,
)

import swarm_oracle
from conftest import hand_workers

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


def _oracle_cosine_step(v, grad):
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        raise ValueError("gradient norm is zero; sample must be skipped")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return 0.0, 0.0, True
    cos = float(v @ (-grad)) / (vnorm * gnorm)
    return cos, vnorm / gnorm, False


class OracleCosineStats(analysis.CosineStats):
    """The per-worker ``consume_round`` the package had before it worked over
    (U, D) rows: one ``np.linalg.norm`` and one ``@`` per vector and worker."""

    def consume_round(self, infos):
        round_vals = {k: [] for k in ("cos", "cos_p", "cos_g", "ratio", "ratio_p", "ratio_g")}
        recursion_res = 0.0
        vel_res = 0.0
        grad_sqs = []
        for info in swarm_oracle.rows(infos):
            grad_sqs.append(info.grad_sq)
            self.grad_sq_sum += info.grad_sq
            self.grad_sq_count += 1
            self.grad_sq_min = min(self.grad_sq_min, info.grad_sq)

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
            for vec, ext_q, ext_u, cos_key, ratio_key in (
                (info.v_pre, self.q, self.u, "cos", "ratio"),
                (v_p, self.qp, self.up, "cos_p", "ratio_p"),
                (v_g, self.qg, self.ug, "cos_g", "ratio_g"),
            ):
                cos, ratio, flagged = _oracle_cosine_step(vec, info.grad)
                if flagged:
                    self.zero_velocity += 1
                    continue
                ext_q.add(cos)
                ext_u.add(ratio)
                round_vals[cos_key].append(cos)
                round_vals[ratio_key].append(ratio)

        row = {}
        for key, vals in round_vals.items():
            row[f"{key}_min"] = min(vals) if vals else math.nan
            row[f"{key}_max"] = max(vals) if vals else math.nan
        row["grad_sq_mean"] = float(np.mean(grad_sqs)) if grad_sqs else math.nan
        row["recursion_residual"] = recursion_res
        row["velocity_residual"] = vel_res
        return row


def same_float(a, b):
    """Equal including the sign of zero, with NaN equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SCALES = (1e-3, 1.0, 1e3, 1e100)


@st.composite
def step_rounds(draw):
    """One to three rounds of U step logs over D parameters, each round's as
    the ``StepInfos`` a round returns. Rows may carry a zero velocity, a zero
    pull toward the personal best, a zero gradient, a NaN entry, and vectors
    at scales up to 1e100; a round may have no global best yet."""
    u = draw(st.integers(1, 12))
    d = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector():
        return rng.standard_normal(d) * SCALES[rng.integers(len(SCALES))]

    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        flags = draw(st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans(), st.integers(0, 9)),
            min_size=u, max_size=u,
        ))
        no_wg = draw(st.booleans())
        rows = []
        for zero_v, zero_vp, zero_grad, poison in flags:
            vec = {name: vector() for name in ("w_pre", "v_pre", "w_p_pre", "grad", "v_post")}
            if zero_v:
                vec["v_pre"] = np.zeros(d)
            if zero_vp:
                vec["w_p_pre"] = vec["w_pre"] - vec["v_pre"]
            if zero_grad:
                vec["grad"] = np.zeros(d)
            if poison == 0:
                vec["grad"][rng.integers(d)] = math.nan
            vec["w_post"] = vec["w_pre"] + vec["v_post"] * rng.choice([1.0, 1.0 + 1e-12])
            rows.append(vec)
        rounds.append(StepInfos(
            ids=tuple(range(u)),
            c0=float(rng.uniform(0.0, 2.0)),
            c1=rng.uniform(0.0, 2.0, u),
            c2=np.zeros(u) if no_wg else rng.uniform(0.0, 2.0, u),
            batch_losses=np.zeros(u),
            grad_sq=np.array([float(row["grad"] @ row["grad"]) for row in rows]),
            w_g_used=None if no_wg else vector(),
            vectors={name: np.stack([row[name] for row in rows]) for name in rows[0]},
        ))
    return rounds


def stats_state(stats):
    extrema = [(e.lo, e.hi, e.count) for e in (stats.q, stats.qp, stats.qg,
                                                stats.u, stats.up, stats.ug)]
    return [v for triple in extrema for v in triple] + [
        stats.zero_velocity, stats.zero_grad,
        stats.grad_sq_sum, stats.grad_sq_count, stats.grad_sq_min,
    ]


@settings(max_examples=120, deadline=None)
@given(step_rounds(), st.sampled_from([0.0, 0.01, 0.1]))
def test_consume_round_equals_per_worker_oracle(rounds, alpha):
    h = HyperParameters(rounds=3, num_workers=1, batch_size=1, alpha=alpha)
    stats, oracle = analysis.CosineStats(h), OracleCosineStats(h)
    for infos in rounds:
        got, want = stats.consume_round(infos), oracle.consume_round(infos)
        assert got.keys() == want.keys()
        for key in want:
            assert same_float(got[key], want[key]), key
        for a, b in zip(stats_state(stats), stats_state(oracle)):
            assert same_float(a, b)


def test_row_helpers_take_c_ordered_rows_only():
    # per-row results are bit-equal to the rows alone only in C order: a
    # column-major copy of the same values gives other last bits
    a = np.random.default_rng(3).standard_normal((4, 300))
    assert analysis.row_dots(a, a).tobytes() == np.array([row @ row for row in a]).tobytes()
    assert analysis.row_norms(a).tobytes() == \
        np.array([np.linalg.norm(row) for row in a]).tobytes()
    for bad in ((np.asfortranarray(a), a), (a, np.asfortranarray(a))):
        with pytest.raises(ValueError, match="C-contiguous"):
            analysis.row_dots(*bad)
    with pytest.raises(ValueError, match="C-contiguous"):
        analysis.row_norms(np.asfortranarray(a))


def one_step_round(v, grad):
    """``consume_round`` over one worker whose velocity entering the step is
    ``v``; its personal and global pulls are zero."""
    w = np.zeros((1, len(v)))
    infos = StepInfos(
        ids=(0,), c0=1.0, c1=np.zeros(1), c2=np.zeros(1), batch_losses=np.zeros(1),
        grad_sq=np.array([float(grad @ grad)]), w_g_used=None,
        vectors=dict(w_pre=w, w_post=w, v_pre=v[None], v_post=w, w_p_pre=w - v, grad=grad[None]),
    )
    stats = analysis.CosineStats(HyperParameters())
    return stats, stats.consume_round(infos)


class TestCosineStep:
    def test_perfect_descent_alignment(self):
        g = np.array([1.0, -2.0])
        stats, row = one_step_round(-g, g)
        assert row["cos_min"] == pytest.approx(1.0, abs=1e-15)
        assert row["ratio_min"] == pytest.approx(1.0, abs=1e-15)
        assert stats.zero_velocity == 2  # only the zero pulls

    def test_orthogonal(self):
        _, row = one_step_round(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert row["cos_min"] == 0.0

    def test_anti_alignment_with_ratio(self):
        g = np.array([0.3, -0.4])
        _, row = one_step_round(2 * g, g)
        assert row["cos_min"] == pytest.approx(-1.0, abs=1e-15)
        assert row["ratio_min"] == pytest.approx(2.0, abs=1e-15)

    def test_zero_velocity_flagged(self):
        stats, row = one_step_round(np.zeros(2), np.array([1.0, 0.0]))
        assert stats.grad_sq_count - stats.zero_grad == 1 and stats.zero_velocity == 3
        assert math.isnan(row["cos_min"]) and math.isnan(row["ratio_min"])
        assert stats.q.count == 0

    def test_zero_gradient_skipped(self):
        stats, row = one_step_round(np.ones(2), np.zeros(2))
        assert stats.grad_sq_count - stats.zero_grad == 0 and stats.zero_grad == 1
        assert math.isnan(row["cos_min"]) and math.isnan(row["ratio_min"])


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

    def test_diagnostics_row_follows_its_columns(self):
        h = HyperParameters(rounds=6, num_workers=3, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 6)
        workers = make_workers(setup, h, True, "shared")
        wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), True, AttackSpec())
        stats = analysis.CosineStats(h)
        ps = initial_ps()
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t, collect_vectors=True)
            stats.consume_round(outcome.step_infos)
        row = analysis.diagnostics_row("cbdsl_full", 6, h, stats, 3.0, 1.25)
        assert tuple(row) == analysis.DIAGNOSTICS_COLUMNS
        phi = analysis.phi_e(h, stats, 3.0)
        degenerate = h.alpha - 2 * 3.0 * h.alpha ** 2
        bound = analysis.convergence_bound(1.25, 0.0, h.rounds, phi)
        assert row["f_star"] == 0.0 and row["phi_e"] == phi
        assert row["phi_e_degenerate"] == degenerate and row["phi_e_delta"] == phi - degenerate
        assert row["bound"] == bound.value and row["bound_vacuous"] == int(bound.vacuous)
        assert (row["q_p_min"], row["u_g_max"]) == (stats.qp.min, stats.ug.max)
        assert row["zero_grad_samples"] == stats.zero_grad

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
        # the probe points depend on the generator alone, so each row rerun
        # with the same generator reads the same pairs
        population = ds.as_batch()
        for batch, value in zip([population, *analysis.class_batches(population, 3)],
                                [est.l_global, *est.l_classes]):
            raw, used = analysis.estimate_gradient_lipschitz(
                lambda w: gradient(spec, w, batch)[None], param_count(spec), probes=8,
                rng=np.random.default_rng(3),
            )
            assert value == 1.5 * raw[0] and used == 8
        assert est.l_classes.shape == (3,)

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
        w0 = np.zeros(param_count(spec))
        workers = hand_workers(
            0, population.features, population.labels, [np.arange(len(ds))],
            w=[w0.copy()], v=[np.zeros_like(w0)], w_p=[w0.copy()],
            f_p=[loss(spec, w0, population)], score_set=[population],
        )
        genie = analysis.GenieState(w0.copy(), np.zeros_like(w0))
        _, _, trace = analysis.run_genie_aligned(
            workers, genie, spec, h, 20, population, classes
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


def oracle_genie_aligned(workers, genie, spec, h, rounds, population, num_classes):
    """The genie-aligned run as the package had it before it drove its workers
    through ``run_round``: a loop of ``worker_step`` and
    ``score_and_update_best`` per worker, and one ``np.linalg.norm`` per
    worker and distance."""
    per_class = analysis.class_batches(population, num_classes)
    nw = len(workers)
    w_dist = np.zeros((nw, rounds + 1))
    v_dist = np.zeros((nw, rounds + 1))
    coeffs = np.zeros((nw, rounds, 3))
    f_max = np.zeros(rounds)
    snapshots = []

    def record(t, states, g):
        for k, st in enumerate(states):
            w_dist[k, t] = float(np.linalg.norm(st.w - g.w))
            v_dist[k, t] = float(np.linalg.norm(st.v - g.v))

    states = list(workers)
    record(0, states, genie)
    every = max(1, rounds // 8)
    for t in range(rounds):
        f_max[t] = analysis.f_max_at(spec, genie.w, per_class)
        if t % every == 0:
            snapshots.append(genie.w.copy())
            snapshots.append(states[0].w.copy())
        new_states = []
        for k, st in enumerate(states):
            moved, info = swarm_oracle.worker_step(st, genie.w, h, spec, t)
            moved, _ = swarm_oracle.score_and_update_best(moved, spec)
            coeffs[k, t] = (info.c0, info.c1, info.c2)
            new_states.append(moved)
        genie = analysis.genie_step(genie, h, spec, population, t)
        states = new_states
        record(t + 1, states, genie)
    trace = {"w_dist": w_dist, "v_dist": v_dist, "coeffs": coeffs, "f_max": f_max,
             "envelope": np.array(snapshots)}
    return states, genie, trace


@lru_cache(maxsize=None)
def aligned_setup(seed, num_workers, init_mode):
    h = HyperParameters(num_workers=num_workers)
    return build_setup(DIAG_CFG, "softmax_regression", (), h, seed, init_mode)


@pytest.mark.parametrize(
    "seed, shape, inertia, init_mode, global_train",
    list(itertools.product(
        (1, 2), ((3, 300, 50), (5, 10, 17)), ("constant", "linear"),
        ("shared", "per_worker"), (False, True),
    )),
)
def test_genie_aligned_equals_per_worker_oracle(seed, shape, inertia, init_mode, global_train):
    num_workers, batch_size, rounds = shape
    h = HyperParameters(
        c0=0.5, delta_c1=0.5, delta_c2=0.5, alpha=0.005, rounds=rounds,
        num_workers=num_workers, batch_size=batch_size, inertia_mode=inertia,
    )
    setup = aligned_setup(seed, num_workers, init_mode)
    population = population_batch(setup)
    runs = []
    for run in (analysis.run_genie_aligned, oracle_genie_aligned):
        workers = make_workers(setup, h, global_train, "shared")
        genie = analysis.GenieState(initial_w_for(setup, 0), np.zeros(setup.init_w.shape[-1]))
        runs.append(run(workers, genie, setup.spec, h, rounds, population, DIAG_CFG.classes))
    (states, genie, trace), (want_states, want_genie, want_trace) = runs
    for name, want in want_trace.items():
        assert getattr(trace, name).tobytes() == want.tobytes(), name
    assert genie.w.tobytes() == want_genie.w.tobytes()
    assert genie.v.tobytes() == want_genie.v.tobytes()
    assert [s.worker_id for s in states] == [s.worker_id for s in want_states]
    for got, want in zip(states, want_states):
        for name in ("w", "v", "w_p", "f_p"):
            assert np.asarray(getattr(got, name)).tobytes() == \
                np.asarray(getattr(want, name)).tobytes(), (got.worker_id, name)
