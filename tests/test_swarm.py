import math

import numpy as np
import pytest

from swarmlearn.attacks import AttackSpec
from swarmlearn.core import HyperParameters, NonFiniteError, sample_coefficients, worker_stream
from swarmlearn.data import draw_batch_indices, synthetic_blobs
from swarmlearn.experiment import DataConfig, build_setup, make_workers
from swarmlearn.model import Batch, ModelSpec, loss, loss_and_gradient, param_count
from swarmlearn.swarm import (
    ProtocolWiring,
    PsState,
    ScalarReport,
    WorkerState,
    hybrid_update,
    initial_ps,
    run_round,
    score_and_update_best,
    select_global_best,
    verify_upload,
    worker_step,
)

SMALL = DataConfig(
    classes=4, per_class=250, dim=5, separation=6.0, test_per_class=25,
    partition="shard", num_shards=20, shards_per_worker=2,
    global_train=80, global_score=80,
)


def small_setup(seed=1, h=None):
    h = h or HyperParameters(rounds=10, num_workers=4, batch_size=5)
    return build_setup(SMALL, "softmax_regression", (), h, seed), h


def swarm_world(seed=1, h=None, variant_gtr=True, attack=AttackSpec(), verification=True):
    setup, h = small_setup(seed, h)
    workers = make_workers(setup, h, with_global_train=variant_gtr, score_mode="shared")
    if attack.active:
        from dataclasses import replace

        workers = [replace(w, is_byzantine=w.worker_id in attack.attacker_ids) for w in workers]
    wiring = ProtocolWiring(
        hyper=h, spec=setup.spec, shared_score=setup.shared.score.as_batch(),
        verification=verification, attack=attack,
    )
    return setup, h, workers, wiring


class TestHybridUpdate:
    def test_hand_worked_scalar_example(self):
        # w=1.0 v=0.5 w_p=1.2 w_g=0.8 c0=1 c1=0.5 c2=0.5 alpha=0.1 grad=2.0
        # -> w' = 1.0 + 0.5 + 0.5*0.2 + 0.5*(-0.2) - 0.2 = 1.3, v' = 0.3
        w_new, v_new = hybrid_update(
            np.array([1.0]), np.array([0.5]), np.array([1.2]), np.array([0.8]),
            c0=1.0, c1=0.5, c2=0.5, alpha=0.1, grad=np.array([2.0]),
        )
        assert w_new[0] == pytest.approx(1.3, abs=1e-15)
        assert v_new[0] == pytest.approx(0.3, abs=1e-15)

    def test_pure_sgd_when_coefficients_zero(self):
        w = np.array([0.2, -0.4])
        grad = np.array([1.0, -2.0])
        w_new, v_new = hybrid_update(w, np.ones(2), np.ones(2), np.ones(2), 0.0, 0.0, 0.0, 0.1, grad)
        assert np.array_equal(w_new, w - 0.1 * grad)
        assert np.array_equal(v_new, w_new - w)

    def test_pure_inertia(self):
        # alpha=0, deltas zero, c0=1: w' = w + v and the displacement equals v
        w = np.array([1.0, 2.0])
        v = np.array([0.25, -0.5])
        w_new, v_new = hybrid_update(w, v, w.copy(), None, 1.0, 0.0, 0.0, 0.0, np.zeros(2))
        assert np.array_equal(w_new, w + v)
        assert np.allclose(v_new, v, atol=1e-15)

    def test_velocity_is_displacement_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, v, wp, wg, g = (rng.standard_normal(6) for _ in range(5))
            c0, c1, c2, a = rng.uniform(0, 1, 4)
            w_new, v_new = hybrid_update(w, v, wp, wg, c0, c1, c2, a, g)
            assert np.array_equal(v_new, w_new - w)


class TestWorkerStep:
    def test_degenerate_matches_standalone_sgd(self):
        # zeroed swarm coefficients: trajectory must be bit-identical to plain
        # mini-batch SGD driven by the same streams
        h = HyperParameters(
            c0=0.0, delta_c1=0.0, delta_c2=0.0, rounds=12, num_workers=3, batch_size=5
        )
        setup, _ = small_setup(seed=2, h=h)
        workers = make_workers(setup, h, with_global_train=True, score_mode="shared")
        wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), True, AttackSpec())
        ps = initial_ps()
        states = workers
        for t in range(h.rounds):
            states, ps, _ = run_round(states, ps, wiring, t)

        for worker in workers:
            # independent twin: same stream discipline, pure SGD
            w = worker.w.copy()
            for t in range(h.rounds):
                rng = worker_stream(setup.seed, worker.worker_id).round(t)
                sample_coefficients(h, rng)
                idx = draw_batch_indices(rng, len(worker.train_labels), h.batch_size)
                batch = Batch(worker.train_features[idx], worker.train_labels[idx])
                _, grad = loss_and_gradient(setup.spec, w, batch)
                disp = np.zeros_like(w)
                disp -= h.alpha * grad
                w = w + disp
            final = next(s for s in states if s.worker_id == worker.worker_id)
            assert np.array_equal(final.w, w)

    def test_social_pull_suppressed_without_global_best(self):
        setup, h = small_setup(seed=3)
        workers = make_workers(setup, h, True, "shared")
        moved, info = worker_step(workers[0], None, h, setup.spec, 0, collect_vectors=True)
        assert info.c2 == 0.0
        # identical init means the personal pull is zero at round 0 too:
        # the step reduces to -alpha * grad
        assert np.allclose(moved.w - workers[0].w, -h.alpha * info.grad, rtol=0, atol=1e-17)

    def test_velocity_identity_along_live_run(self):
        setup, h, workers, wiring = swarm_world(seed=4)
        ps = initial_ps()
        for t in range(h.rounds):
            prev = {w.worker_id: w.w for w in workers}
            workers, ps, _ = run_round(workers, ps, wiring, t)
            for w in workers:
                assert np.array_equal(w.v, w.w - prev[w.worker_id])

    def test_non_finite_raises_with_context(self):
        setup, h, workers, wiring = swarm_world(seed=5)
        from dataclasses import replace

        bad = replace(workers[0], w=workers[0].w * np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="worker 0"):
            worker_step(bad, None, h, setup.spec, 0)


class TestScoreAndBest:
    def test_first_score_replaces_sentinel(self):
        setup, h, workers, _ = swarm_world(seed=6)
        from dataclasses import replace

        w = replace(workers[0], f_p=math.inf)
        scored, report = score_and_update_best(w, setup.spec)
        assert math.isfinite(scored.f_p)
        assert report.claimed == scored.f_p
        assert np.array_equal(scored.w_p, scored.w)

    def test_equal_score_keeps_old_best(self):
        setup, h, workers, _ = swarm_world(seed=6)
        scored, _ = score_and_update_best(workers[0], setup.spec)
        # scoring the same parameters again produces the same value: no update
        before = scored.w_p
        again, _ = score_and_update_best(scored, setup.spec)
        assert again.w_p is before
        assert again.f_p == scored.f_p

    def test_reported_best_is_non_increasing(self):
        setup, h, workers, wiring = swarm_world(seed=7)
        ps = initial_ps()
        history = {w.worker_id: [] for w in workers}
        for t in range(h.rounds):
            workers, ps, _ = run_round(workers, ps, wiring, t)
            for w in workers:
                history[w.worker_id].append(w.f_p)
        for series in history.values():
            assert all(b <= a for a, b in zip(series, series[1:]))


class TestSelection:
    def test_argmin_with_id_tiebreak(self):
        reports = [ScalarReport(1, 0.9), ScalarReport(2, 0.4), ScalarReport(3, 0.4)]
        assert select_global_best(reports, 0.7, set()) == 2

    def test_keep_when_nothing_beats_global(self):
        reports = [ScalarReport(1, 0.9), ScalarReport(2, 0.8)]
        assert select_global_best(reports, 0.5, set()) is None

    def test_blacklisted_claimant_skipped(self):
        reports = [ScalarReport(1, 0.2), ScalarReport(2, 0.4)]
        assert select_global_best(reports, 0.7, {1}) == 2

    def test_empty_report_set(self):
        assert select_global_best([], 0.5, set()) is None


class TestVerification:
    def test_honest_upload_accepted_exactly(self):
        setup, h, workers, wiring = swarm_world(seed=8)
        scored, report = score_and_update_best(workers[1], setup.spec)
        assert verify_upload(
            scored.w_p.copy(), report.claimed, wiring.shared_score, setup.spec, 1e-9
        )

    def test_wrong_claim_rejected(self):
        setup, h, workers, wiring = swarm_world(seed=8)
        scored, report = score_and_update_best(workers[1], setup.spec)
        assert not verify_upload(
            scored.w_p.copy(), report.claimed - 0.55, wiring.shared_score, setup.spec, 1e-9
        )

    def test_nan_upload_rejected(self):
        setup, h, workers, wiring = swarm_world(seed=8)
        bad = workers[0].w_p.copy()
        bad[0] = np.nan
        assert not verify_upload(bad, 0.1, wiring.shared_score, setup.spec, 1e-9)


class TestRunRound:
    def test_improving_round_costs_one_uplink_one_broadcast(self):
        setup, h, workers, wiring = swarm_world(seed=9)
        workers, ps, outcome = run_round(workers, initial_ps(), wiring, 0)
        assert outcome.vector_uplinks == 1
        assert outcome.vector_broadcasts == 1
        assert outcome.scalar_uplinks == h.num_workers
        assert outcome.detections == 0
        assert math.isfinite(ps.f_g)
        assert np.all(np.isfinite(ps.w_g))

    def test_keep_round_costs_nothing(self):
        setup, h, workers, wiring = swarm_world(seed=9)
        ps = PsState(np.zeros(param_count(setup.spec)), -1.0, set())
        workers, ps2, outcome = run_round(workers, ps, wiring, 0)
        assert outcome.vector_uplinks == 0
        assert outcome.vector_broadcasts == 0
        assert ps2.f_g == -1.0

    def test_global_best_monotone_and_sound(self):
        setup, h, workers, wiring = swarm_world(seed=10)
        ps = initial_ps()
        last = math.inf
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t)
            assert ps.f_g <= last
            last = ps.f_g
            if ps.w_g is not None:
                rescored = loss(setup.spec, ps.w_g, wiring.shared_score)
                assert abs(rescored - ps.f_g) <= h.verify_tolerance

    def test_worker_order_does_not_change_anything(self):
        setup, h, workers, wiring = swarm_world(seed=11)
        ps_a, ps_b = initial_ps(), initial_ps()
        wa = list(workers)
        wb = list(reversed(workers))
        for t in range(h.rounds):
            wa, ps_a, out_a = run_round(wa, ps_a, wiring, t)
            wb, ps_b, out_b = run_round(wb, ps_b, wiring, t)
            assert out_a.f_g == out_b.f_g
            assert np.array_equal(out_a.batch_losses, out_b.batch_losses)
        assert ps_a.f_g == ps_b.f_g
        for a in wa:
            b = next(x for x in wb if x.worker_id == a.worker_id)
            assert np.array_equal(a.w, b.w)

    def test_fake_loss_attacker_blacklisted_then_ignored(self):
        attack = AttackSpec(frozenset({0}), "fake_loss_garbage")
        setup, h, workers, wiring = swarm_world(seed=12, attack=attack)
        ps = initial_ps()
        workers, ps, outcome = run_round(workers, ps, wiring, 0)
        # forged claim wins selection, upload fails verification, attacker is
        # blacklisted, and an honest worker lands the round's global best
        assert 0 in ps.blacklist
        assert outcome.detections == 1
        assert outcome.vector_uplinks == 2  # rejected + accepted
        assert math.isfinite(ps.f_g)
        for t in range(1, 5):
            workers, ps, outcome = run_round(workers, ps, wiring, t)
            assert outcome.detections == 0
            assert outcome.scalar_uplinks == h.num_workers - 1
        assert ps.blacklist == {0}
