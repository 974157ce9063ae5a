import math
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlearn.attacks import STRATEGIES, AttackSpec
from swarmlearn.baselines import run_variant
from swarmlearn.core import HyperParameters, NonFiniteError, sample_coefficients, worker_stream
from swarmlearn.data import draw_batch_indices, synthetic_blobs
from swarmlearn.experiment import DataConfig, build_setup, make_workers
from swarmlearn.model import Batch, ModelSpec, loss, loss_and_gradient, param_count
from swarmlearn import swarm
from swarmlearn.swarm import (
    Population,
    ProtocolWiring,
    PsState,
    ScalarReport,
    StepInfo,
    WorkerState,
    hybrid_update,
    initial_ps,
    invitation_order,
    run_round,
    score_and_update_best,
    verify_upload,
    worker_step,
)

import swarm_oracle

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

    def test_pure_social_pull(self):
        # with c0 = 0, c1 = 0 and c2 realized as exactly 1, the particle lands
        # on the global best
        w = np.array([2.0, -1.0])
        w_g = np.array([0.5, 0.25])
        w_new, _ = hybrid_update(w, np.ones(2), w.copy(), w_g, 0.0, 0.0, 1.0, 0.0, np.zeros(2))
        assert np.allclose(w_new, w_g, atol=1e-15)

    @pytest.mark.parametrize("c0", [0.0, 0.7])
    def test_rows_equal_the_update_of_each_row_alone(self, c0):
        # one coefficient per row; a zero skips its term in its own row only,
        # so the infinite personal best of row 1 (c1 = 0) leaves it finite
        rng = np.random.default_rng(3)
        w, v, wp, grad = (rng.standard_normal((4, 6)) for _ in range(4))
        wg = rng.standard_normal(6)
        wp[1, 2] = np.inf
        w[3] = -0.0
        c1 = np.array([0.5, 0.0, 0.25, 0.0])
        c2 = np.array([0.0, 0.75, 0.5, 0.0])
        out = np.empty((4, 6)), np.empty((4, 6))
        rows = hybrid_update(w, v, wp, wg, c0, c1[:, None], c2[:, None], 0.1, grad, out=out)
        assert rows[0] is out[0] and rows[1] is out[1]
        for u in range(4):
            alone = hybrid_update(w[u], v[u], wp[u], wg, c0, c1[u], c2[u], 0.1, grad[u])
            assert rows[0][u].tobytes() == alone[0].tobytes()
            assert rows[1][u].tobytes() == alone[1].tobytes()


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
        moved, infos = worker_step(Population.of(workers), None, h, setup.spec, 0,
                                   collect_vectors=True)
        for worker, info in zip(workers, infos):
            assert info.c2 == 0.0 and info.w_g_used is None
            # identical init means the personal pull is zero at round 0 too:
            # the step reduces to -alpha * grad
            step = moved[worker.worker_id].w - worker.w
            assert np.allclose(step, -h.alpha * info.grad, rtol=0, atol=1e-17)

    def test_velocity_identity_along_live_run(self):
        setup, h, workers, wiring = swarm_world(seed=4)
        ps = initial_ps()
        for t in range(h.rounds):
            # a population's rows move in place: keep a copy of the round's w
            prev = {w.worker_id: w.w.copy() for w in workers}
            workers, ps, _ = run_round(workers, ps, wiring, t)
            for w in workers:
                assert np.array_equal(w.v, w.w - prev[w.worker_id])

    def test_non_finite_raises_with_context(self):
        setup, h, workers, wiring = swarm_world(seed=5)
        bad = [replace(w, w=w.w * np.inf) if w.worker_id in (2, 3) else w for w in workers]
        # the lowest bad worker id and the round are named
        with np.errstate(invalid="ignore"), pytest.raises(
            NonFiniteError, match="^round 0, worker 2: non-finite values in worker 2 parameters"
        ):
            worker_step(Population.of(bad), None, h, setup.spec, 0)

    def test_row_runs_change_no_bit(self, monkeypatch):
        # a row budget of one row steps every worker in its own run, as the
        # widest models do; the rounds stay byte-equal to the per-worker oracle
        setup, h, workers, wiring = swarm_world(seed=5)
        monkeypatch.setattr(swarm, "_ROW_BUDGET_BYTES", 8)
        engine, oracle = (workers, initial_ps()), (workers, initial_ps())
        for t in range(h.rounds):
            got = run_round(*engine, wiring, t, collect_vectors=True)
            want = swarm_oracle.run_round(*oracle, wiring, t, collect_vectors=True)
            assert_same_round(got, want)
            engine, oracle = got[:2], want[:2]


class TestScoreAndBest:
    def test_first_score_replaces_sentinel(self):
        setup, h, workers, _ = swarm_world(seed=6)
        pop = Population.of([replace(workers[0], f_p=math.inf), *workers[1:]])
        # scoring writes in place: keep the others' bests as they were
        before = pop.f_p[1:].tobytes(), pop.w_p[1:].tobytes()
        scored = score_and_update_best(pop, setup.spec)
        assert math.isfinite(scored.f_p[0])
        assert scored.f_p[0] == loss(setup.spec, workers[0].w, workers[0].score_set)
        assert np.array_equal(scored.w_p[0], scored.w[0])
        # the others scored their starting point already: nothing better
        assert (scored.f_p[1:].tobytes(), scored.w_p[1:].tobytes()) == before

    def test_equal_score_keeps_old_best(self):
        # every best holds other parameters than w at exactly the score w
        # earns: an equal score is no improvement, so no best moves
        setup, h, workers, _ = swarm_world(seed=6)
        pop = Population.of([replace(s, w_p=s.w_p + 1.0) for s in workers])
        pop.f_p[:] = loss(setup.spec, pop.w, pop.crew.score)
        before = pop.w_p.tobytes(), pop.f_p.tobytes()
        assert score_and_update_best(pop, setup.spec) is pop
        assert (pop.w_p.tobytes(), pop.f_p.tobytes()) == before

    def test_one_stacked_score_per_round(self, monkeypatch):
        # every worker's score comes from one loss call over a (U, D) stack,
        # on broadcast views of the shared set: U * N sample-evaluations
        setup, h, workers, _ = swarm_world(seed=6)
        calls = []

        def counting(spec, w, batch, **kwargs):
            calls.append((w.shape, len(batch)))
            return loss(spec, w, batch, **kwargs)

        monkeypatch.setattr(swarm, "loss", counting)
        score_and_update_best(Population.of(workers), setup.spec)
        score_set = workers[0].score_set
        assert calls == [((h.num_workers, param_count(setup.spec)), h.num_workers * len(score_set))]

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


class TestInvitationOrder:
    def test_lowest_claim_first_with_id_tiebreak(self):
        reports = [ScalarReport(1, 0.4), ScalarReport(3, 0.2), ScalarReport(2, 0.2)]
        assert [reports[i].worker_id for i in invitation_order(reports, 0.7)] == [2, 3, 1]

    def test_only_claims_that_beat_the_global_best(self):
        reports = [ScalarReport(1, 0.9), ScalarReport(2, 0.5), ScalarReport(3, 0.4)]
        assert invitation_order(reports, 0.5) == [2]

    def test_empty_report_set(self):
        assert invitation_order([], 0.5) == []


class TestVerification:
    def test_honest_upload_accepted_exactly(self):
        setup, h, workers, wiring = swarm_world(seed=8)
        scored = score_and_update_best(Population.of(workers), setup.spec)
        assert verify_upload(
            scored.w_p[1].copy(), scored.f_p[1], wiring.shared_score, setup.spec, 1e-9
        )

    def test_wrong_claim_rejected(self):
        setup, h, workers, wiring = swarm_world(seed=8)
        scored = score_and_update_best(Population.of(workers), setup.spec)
        assert not verify_upload(
            scored.w_p[1].copy(), scored.f_p[1] - 0.55, wiring.shared_score, setup.spec, 1e-9
        )

    def test_nan_upload_rejected(self):
        setup, h, workers, wiring = swarm_world(seed=8)
        bad = workers[0].w_p.copy()
        bad[0] = np.nan
        assert not verify_upload(bad, 0.1, wiring.shared_score, setup.spec, 1e-9)


class TestPopulation:
    def test_rows_read_as_worker_state_views(self):
        setup, h, workers, wiring = swarm_world(seed=9)
        pop, ps, outcome = run_round(workers, initial_ps(), wiring, 0)
        assert isinstance(pop, Population) and len(pop) == len(outcome.step_infos) == h.num_workers
        for u, state in enumerate(pop):
            assert isinstance(state, WorkerState) and state.worker_id == u
            assert np.shares_memory(state.w, pop.w) and state.f_p == pop.f_p[u]
            assert state.train_labels is workers[u].train_labels
        assert [s.worker_id for s in pop[1:3]] == [1, 2] and pop[-1].worker_id == h.num_workers - 1
        with pytest.raises(ValueError, match="read-only"):
            pop[0].w[0] = 1.0
        with pytest.raises(TypeError):
            pop[0] = workers[0]
        # a view is valid until the next round, which moves the row under it;
        # a copy keeps the round's value
        view, kept = pop[0].w, pop[0].w.copy()
        run_round(pop, ps, wiring, 1)
        assert view.tobytes() == pop.w[0].tobytes() != kept.tobytes()

    def test_a_round_leaves_its_input_as_it_was(self):
        # a hand-built list is copied and never written; a population is
        # advanced in place and returned, its arrays kept for the run
        setup, h, workers, wiring = swarm_world(seed=9)
        before = [(s.w.tobytes(), s.v.tobytes(), s.w_p.tobytes(), s.f_p) for s in workers]
        pop, ps, _ = run_round(workers, initial_ps(), wiring, 0)
        arrays, moved = (pop.w, pop.v, pop.w_p, pop.f_p), pop.w.copy()
        again, _, _ = run_round(pop, ps, wiring, 1)
        assert [(s.w.tobytes(), s.v.tobytes(), s.w_p.tobytes(), s.f_p) for s in workers] == before
        assert again is pop
        assert all(now is then for now, then in zip((pop.w, pop.v, pop.w_p, pop.f_p), arrays))
        assert pop.w.tobytes() != moved.tobytes()

    def test_step_vectors_outlive_the_round(self):
        # the vectors a round collects are its own: the next round, which
        # moves the rows in place, leaves them as they were
        setup, h, workers, wiring = swarm_world(seed=9)
        pop, ps, _ = run_round(workers, initial_ps(), wiring, 0)
        entering = pop.w.copy(), pop.v.copy(), pop.w_p.copy()
        pop, ps, outcome = run_round(pop, ps, wiring, 1, collect_vectors=True)
        vectors = outcome.step_infos.vectors
        snapshot = {name: rows.tobytes() for name, rows in vectors.items()}
        assert [vectors[name].tobytes() for name in ("w_pre", "v_pre", "w_p_pre")] == \
            [rows.tobytes() for rows in entering]
        assert vectors["w_post"].tobytes() == pop.w.tobytes()
        assert vectors["v_post"].tobytes() == pop.v.tobytes()
        run_round(pop, ps, wiring, 2)
        assert {name: rows.tobytes() for name, rows in vectors.items()} == snapshot
        assert not any(np.shares_memory(rows, pop.w) or np.shares_memory(rows, pop.v)
                       or np.shares_memory(rows, pop.w_p) for rows in vectors.values())

    def test_step_infos_read_the_round_arrays(self):
        setup, h, workers, wiring = swarm_world(seed=9)
        _, _, outcome = run_round(workers, initial_ps(), wiring, 0, collect_vectors=True)
        infos = outcome.step_infos
        assert [i.worker_id for i in infos] == list(range(h.num_workers))
        assert np.array([i.batch_loss for i in infos]).tobytes() == outcome.batch_losses.tobytes()
        # vectors are rows of the round's (U, D) arrays
        assert infos[2].w_post.base is infos[0].w_post.base is not None
        _, _, plain = run_round(workers, initial_ps(), wiring, 0)
        assert plain.step_infos == tuple(
            replace(i, w_pre=None, w_post=None, v_pre=None, v_post=None, w_p_pre=None,
                    w_g_used=None, grad=None)
            for i in infos
        )


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

    def test_each_rejection_invites_the_next_lowest_claim(self):
        # both forged claims undercut every honest one: the server rejects
        # and blacklists them in turn, then accepts an honest upload
        attack = AttackSpec(frozenset({0, 3}), "fake_loss_garbage")
        setup, h, workers, wiring = swarm_world(seed=12, attack=attack)
        workers, ps, outcome = run_round(workers, initial_ps(), wiring, 0)
        assert outcome.vector_uplinks == 3
        assert outcome.detections == 2
        assert outcome.vector_broadcasts == 1
        assert ps.blacklist == {0, 3}
        assert loss(setup.spec, ps.w_g, wiring.shared_score) == ps.f_g
        # blacklisted workers report nothing and are not detected again
        workers, ps, outcome = run_round(workers, ps, wiring, 1)
        assert outcome.scalar_uplinks == 2
        assert outcome.detections == 0

        # unverified, the lowest forged claim is trusted at once
        _, _, workers, wiring = swarm_world(seed=12, attack=attack, verification=False)
        _, ps, outcome = run_round(workers, initial_ps(), wiring, 0)
        assert outcome.vector_uplinks == 1
        assert outcome.detections == 0
        assert ps.blacklist == set()


# SMALL with finer shards, so that five workers never empty a class the
# shared sets draw from
ROOMY = replace(SMALL, num_shards=40)
round_configs = st.fixed_dictionaries({
    "seed": st.integers(0, 3),
    "num_workers": st.integers(2, 5),
    "rounds": st.integers(1, 8),
    "strategy": st.sampled_from(STRATEGIES),
    "attackers": st.sets(st.integers(0, 4), max_size=5),
    "verification": st.booleans(),
    "inertia_mode": st.sampled_from(("constant", "linear")),
    "init_mode": st.sampled_from(("shared", "per_worker")),
    "global_train": st.booleans(),
    "order": st.randoms(use_true_random=False),
})


class TestRoundInvariants:
    @settings(max_examples=40, deadline=None)
    @given(round_configs)
    def test_protocol_invariants_over_random_configs(self, cfg):
        h = HyperParameters(
            rounds=cfg["rounds"], num_workers=cfg["num_workers"], batch_size=5,
            inertia_mode=cfg["inertia_mode"],
        )
        setup = build_setup(ROOMY, "softmax_regression", (), h, cfg["seed"], cfg["init_mode"])
        attackers = frozenset(i for i in cfg["attackers"] if i < h.num_workers)
        attack = AttackSpec(attackers, cfg["strategy"])
        workers = [
            replace(w, is_byzantine=w.worker_id in attackers)
            for w in make_workers(setup, h, cfg["global_train"], "shared")
        ]
        wiring = ProtocolWiring(
            h, setup.spec, setup.shared.score.as_batch(), cfg["verification"], attack
        )
        shuffled, ps, ps_shuffled = list(workers), initial_ps(), initial_ps()
        for t in range(h.rounds):
            before = set(ps.blacklist)
            f_before = ps.f_g
            workers, ps, outcome = run_round(workers, ps, wiring, t)
            shuffled = list(shuffled)
            cfg["order"].shuffle(shuffled)
            shuffled, ps_shuffled, shuffled_outcome = run_round(shuffled, ps_shuffled, wiring, t)
            assert ps.f_g <= f_before
            assert before <= ps.blacklist
            assert outcome.scalar_uplinks == h.num_workers - len(before)
            # the order workers are handed in changes nothing
            same = replace(shuffled_outcome, batch_losses=None) == replace(outcome, batch_losses=None)
            assert same
            assert shuffled_outcome.batch_losses.tobytes() == outcome.batch_losses.tobytes()
            assert ps_shuffled.f_g == ps.f_g and ps_shuffled.blacklist == ps.blacklist
            assert (ps.w_g is None) == (ps_shuffled.w_g is None)
            if ps.w_g is not None:
                assert ps_shuffled.w_g.tobytes() == ps.w_g.tobytes()
            by_id = {w.worker_id: w for w in shuffled}
            for w in workers:
                assert w.w.tobytes() == by_id[w.worker_id].w.tobytes()
                assert w.f_p == by_id[w.worker_id].f_p

    @pytest.mark.parametrize("strategy", ["fake_loss_garbage", "fake_loss_scaled"])
    def test_all_attackers_leave_no_global_best(self, strategy):
        # every claim is forged and screened out at once: no model is ever
        # accepted, so the run has no global best to test or score
        h = HyperParameters(rounds=5, num_workers=4, batch_size=5)
        setup, _ = small_setup(seed=6, h=h)
        attack = AttackSpec(frozenset(range(h.num_workers)), strategy)
        result = run_variant("cbdsl_full", setup, h, attack)
        assert [r.detections for r in result.records] == [h.num_workers] + [0] * (h.rounds - 1)
        for r in result.records:
            assert r.f_g == math.inf
            assert math.isnan(r.test_accuracy)
            assert r.vector_broadcasts == 0


def exact(value) -> bytes | None:
    """The bytes of a float or vector, None for an absent vector."""
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def assert_same_round(got, want):
    """Two rounds' (workers, server state, outcome) are equal byte for byte."""
    (workers, ps, outcome), (want_workers, want_ps, want_outcome) = got, want
    for name in ("scalar_uplinks", "vector_uplinks", "vector_broadcasts", "detections"):
        assert getattr(outcome, name) == getattr(want_outcome, name), name
    assert exact(outcome.f_g) == exact(want_outcome.f_g)
    assert outcome.batch_losses.tobytes() == want_outcome.batch_losses.tobytes()
    assert len(outcome.step_infos) == len(want_outcome.step_infos)
    for info, want_info in zip(outcome.step_infos, want_outcome.step_infos):
        assert info.worker_id == want_info.worker_id
        for field in fields(StepInfo)[1:]:
            got_value, want_value = getattr(info, field.name), getattr(want_info, field.name)
            assert exact(got_value) == exact(want_value), (info.worker_id, field.name)
    assert ps.blacklist == want_ps.blacklist
    assert exact(ps.f_g) == exact(want_ps.f_g)
    assert exact(ps.w_g) == exact(want_ps.w_g)
    got_by_id = sorted(workers, key=lambda s: s.worker_id)
    want_by_id = sorted(want_workers, key=lambda s: s.worker_id)
    assert [s.worker_id for s in got_by_id] == [s.worker_id for s in want_by_id]
    for state, want_state in zip(got_by_id, want_by_id):
        assert state.is_byzantine == want_state.is_byzantine
        for name in ("w", "v", "w_p", "f_p"):
            assert exact(getattr(state, name)) == exact(getattr(want_state, name)), \
                (state.worker_id, name)


@lru_cache(maxsize=None)
def oracle_setup(seed, num_workers, init_mode, kind):
    h = HyperParameters(num_workers=num_workers, batch_size=5)
    hidden = (6,) if kind == "mlp" else ()
    return build_setup(ROOMY, kind, hidden, h, seed, init_mode)


engine_configs = st.fixed_dictionaries({
    "seed": st.integers(0, 3),
    "num_workers": st.integers(1, 12),
    "rounds": st.integers(1, 6),
    "batch_size": st.sampled_from((1, 5, 12)),
    "kind": st.sampled_from(("softmax_regression", "mlp")),
    "strategy": st.sampled_from(STRATEGIES),
    "attackers": st.sets(st.integers(0, 11), max_size=4),
    "verification": st.booleans(),
    "inertia_mode": st.sampled_from(("constant", "linear")),
    "init_mode": st.sampled_from(("shared", "per_worker")),
    "global_train": st.booleans(),
    # workers score on the shared set with the server holding it too, on
    # their own partitions (nothing for the server to verify against), or on
    # the shared set with no scoring set at the server
    "scoring": st.sampled_from(("shared", "local", "unscored_server")),
    "collect_vectors": st.booleans(),
    "order": st.randoms(use_true_random=False),
})


class TestEngineEqualsOracle:
    @settings(max_examples=60, deadline=None)
    @given(engine_configs)
    def test_engine_equals_per_worker_oracle(self, cfg):
        h = HyperParameters(
            rounds=cfg["rounds"], num_workers=cfg["num_workers"], batch_size=cfg["batch_size"],
            c0=0.7, inertia_mode=cfg["inertia_mode"],
        )
        setup = oracle_setup(cfg["seed"], h.num_workers, cfg["init_mode"], cfg["kind"])
        attackers = frozenset(i for i in cfg["attackers"] if i < h.num_workers)
        attack = AttackSpec(attackers, cfg["strategy"])
        score_mode = "local" if cfg["scoring"] == "local" else "shared"
        workers = [
            replace(w, is_byzantine=w.worker_id in attackers)
            for w in make_workers(setup, h, cfg["global_train"], score_mode)
        ]
        server_set = setup.shared.score.as_batch() if cfg["scoring"] == "shared" else None
        wiring = ProtocolWiring(h, setup.spec, server_set, cfg["verification"], attack)
        engine = (workers, initial_ps())
        oracle = (workers, initial_ps())
        for t in range(h.rounds):
            handed = engine[0]
            if cfg["order"].random() < 0.5:
                # a plain list in any order, as a caller may hand one in
                handed = list(handed)
                cfg["order"].shuffle(handed)
            got = run_round(handed, engine[1], wiring, t, cfg["collect_vectors"])
            want = swarm_oracle.run_round(oracle[0], oracle[1], wiring, t, cfg["collect_vectors"])
            assert_same_round(got, want)
            engine, oracle = got[:2], want[:2]
