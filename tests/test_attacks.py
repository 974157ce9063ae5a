import math

import numpy as np
import pytest

from swarmlearn.attacks import AttackSpec, forge_claim, forge_report, forge_upload
from swarmlearn.core import HyperParameters
from swarmlearn.experiment import DataConfig, build_setup, make_workers
from swarmlearn.model import loss
from swarmlearn.swarm import (
    ProtocolWiring,
    ScalarReport,
    initial_ps,
    run_round,
    verify_upload,
)

SMALL = DataConfig(
    classes=4, per_class=250, dim=5, separation=6.0, test_per_class=25,
    partition="shard", num_shards=20, shards_per_worker=2,
    global_train=80, global_score=80,
)


def attacked_world(seed, strategy, attacker=0, verification=True, h=None, with_gtr=True):
    h = h or HyperParameters(rounds=8, num_workers=4, batch_size=5)
    setup = build_setup(SMALL, "softmax_regression", (), h, seed)
    attack = AttackSpec(frozenset({attacker}), strategy) if strategy != "none" else AttackSpec()
    workers = make_workers(setup, h, with_global_train=with_gtr, score_mode="shared")
    from dataclasses import replace

    workers = [replace(w, is_byzantine=w.worker_id in attack.attacker_ids) for w in workers]
    wiring = ProtocolWiring(h, setup.spec, setup.shared.score.as_batch(), verification, attack)
    return setup, h, workers, wiring


class TestForgery:
    def test_none_strategy_is_identity(self):
        report = ScalarReport(3, 0.42)
        assert forge_report(report, 0.1, "none") == report

    def test_forging_formula(self):
        # min(0.9, 0.4) * 0.5 - 0.01
        assert forge_claim(0.9, 0.4, "fake_loss_garbage") == pytest.approx(0.19, abs=1e-15)

    def test_forged_claim_beats_known_best(self):
        for true, best in [(0.9, 0.4), (0.2, 5.0), (1.5, math.inf)]:
            fake = forge_claim(true, best, "fake_loss_scaled")
            assert fake < min(true, best)

    def test_infinite_best_falls_back_to_own_claim(self):
        assert forge_claim(0.8, math.inf, "fake_loss_garbage") == pytest.approx(0.39, abs=1e-15)

    def test_upload_strategies(self):
        rng = np.random.default_rng(0)
        w_p = np.array([0.5, -0.25, 1.0])
        assert np.array_equal(forge_upload(w_p, "none", 10.0, rng), w_p)
        garbage = forge_upload(w_p, "fake_loss_garbage", 10.0, rng)
        assert garbage.shape == w_p.shape
        assert np.all(np.abs(garbage) <= 1.0)
        scaled = forge_upload(w_p, "fake_loss_scaled", 10.0, rng)
        assert np.array_equal(scaled, -10.0 * w_p)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(frozenset({0}), "dropout")

    @pytest.mark.parametrize("ids, strategy, message", [
        (frozenset({0}), "none", "attackers need a strategy other than none"),
        (frozenset(), "fake_loss_garbage", "strategy fake_loss_garbage names no attackers"),
        (frozenset(), "fake_loss_scaled", "strategy fake_loss_scaled names no attackers"),
    ])
    def test_either_half_alone_is_rejected(self, ids, strategy, message):
        # either half alone used to run unattacked, with no detections
        with pytest.raises(ValueError) as caught:
            AttackSpec(ids, strategy)
        assert str(caught.value) == message

    def test_no_attack_is_inactive(self):
        assert not AttackSpec().active
        assert AttackSpec(frozenset({1}), "fake_loss_scaled").active


class TestVerificationCatchesForgeries:
    def test_garbage_upload_fails_verification(self):
        setup, h, workers, wiring = attacked_world(1, "fake_loss_garbage")
        rng = np.random.default_rng(5)
        fake_w = forge_upload(workers[0].w_p, "fake_loss_garbage", 10.0, rng)
        fake_claim = forge_claim(workers[0].f_p, 0.4, "fake_loss_garbage")
        assert not verify_upload(fake_w, fake_claim, wiring.shared_score, setup.spec, 1e-9)

    @pytest.mark.parametrize("with_gtr", [True, False], ids=["full", "scoring_only"])
    @pytest.mark.parametrize("strategy", ["fake_loss_garbage", "fake_loss_scaled"])
    @pytest.mark.parametrize("seed", range(10))
    def test_attacker_blacklisted_at_first_invitation(self, strategy, seed, with_gtr):
        setup, h, workers, wiring = attacked_world(seed, strategy, with_gtr=with_gtr)
        ps = initial_ps()
        first_detection_round = None
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t)
            if outcome.detections and first_detection_round is None:
                first_detection_round = t
        # the forged claim always wins until screening, so the first
        # invitation happens at round 0 and immediately blacklists
        assert first_detection_round == 0
        assert ps.blacklist == {0}

    def test_attacker_claim_is_strict_minimum_until_blacklisted(self):
        setup, h, workers, wiring = attacked_world(3, "fake_loss_garbage", verification=False)
        ps = initial_ps()
        for t in range(5):
            # replicate the collection phase: honest scores vs forged claim
            claims = {}
            for w in workers:
                s = loss(setup.spec, w.w, w.score_set)
                claims[w.worker_id] = min(s, w.f_p)
            forged = forge_claim(claims[0], ps.f_g, "fake_loss_garbage")
            assert forged < min(v for k, v in claims.items() if k != 0)
            workers, ps, outcome = run_round(workers, ps, wiring, t)


class TestUndefendedFailure:
    def test_no_verification_pins_global_best_to_garbage(self):
        setup, h, workers, wiring = attacked_world(4, "fake_loss_garbage", verification=False)
        ps = initial_ps()
        honest_scores = []
        for t in range(h.rounds):
            workers, ps, outcome = run_round(workers, ps, wiring, t)
            assert outcome.detections == 0
            # attacker wins every round; the recorded global best is garbage
            assert outcome.vector_broadcasts == 1
            honest_scores.append(loss(setup.spec, ps.w_g, wiring.shared_score))
        # claimed f_g is fake and keeps shrinking; the true score of the
        # pinned model stays terrible relative to an honest worker's best
        honest_best = min(w.f_p for w in workers if not w.is_byzantine)
        assert min(honest_scores) > honest_best
        assert ps.f_g < 0  # the fake claims dive below zero quickly

    def test_scaled_upload_poisons_undefended_aggregator(self):
        # two-worker model-averaging aggregator with no screening: once the
        # honest model has learned something, one sign-flipped upload strictly
        # increases the global model's loss
        setup, h, workers, wiring = attacked_world(5, "none", verification=False)
        ps = initial_ps()
        for t in range(h.rounds):
            workers, ps, _ = run_round(workers, ps, wiring, t)
        honest = next(w for w in workers if w.worker_id == 1)
        rng = np.random.default_rng(0)
        score = wiring.shared_score
        before = loss(setup.spec, honest.w_p, score)
        forged = forge_upload(honest.w_p, "fake_loss_scaled", 10.0, rng)
        aggregated = (honest.w_p + forged) / 2
        assert loss(setup.spec, aggregated, score) > before

    def test_verified_run_recovers_despite_attacker(self):
        setup, h, workers, wiring = attacked_world(6, "fake_loss_garbage", verification=True)
        ps = initial_ps()
        for t in range(h.rounds):
            workers, ps, _ = run_round(workers, ps, wiring, t)
        # global best is a genuine model: its rescored loss matches f_g
        assert abs(loss(setup.spec, ps.w_g, wiring.shared_score) - ps.f_g) <= 1e-9
