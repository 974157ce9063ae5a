import math
import tracemalloc

import numpy as np
import pytest

from swarmlearn.attacks import AttackSpec
from swarmlearn.core import (
    DOMAIN_INIT,
    HyperParameters,
    derived_rng,
    inertia_schedule,
    sample_coefficients,
    worker_stream,
)
from swarmlearn.data import draw_batch_indices
from swarmlearn.experiment import DataConfig, build_setup, initial_w_for, make_workers
from swarmlearn.model import Batch, ModelSpec, accuracy, loss, loss_and_gradient, param_count
from swarmlearn.baselines import (
    DiagnosticsFlags,
    fedavg_round,
    run_variant,
)
from swarmlearn.analysis import COSINE_COLUMNS, DIVERGENCE_COLUMNS
from swarmlearn.swarm import Crew, Population, ProtocolWiring, initial_ps, run_round

from conftest import hand_workers

SMALL = DataConfig(
    classes=4, per_class=250, dim=5, separation=6.0, test_per_class=25,
    partition="shard", num_shards=20, shards_per_worker=2,
    global_train=80, global_score=80,
)


def small_setup(seed=1, h=None):
    h = h or HyperParameters(rounds=6, num_workers=4, batch_size=5)
    return build_setup(SMALL, "softmax_regression", (), h, seed), h


class TestFedAvg:
    def test_two_worker_mean_gradient(self):
        h = HyperParameters(rounds=3, num_workers=2, batch_size=5)
        setup, _ = small_setup(seed=2, h=h)
        workers = make_workers(setup, h, False, "none")
        w0 = setup.init_w.copy()
        w1, losses = fedavg_round(Crew.of(workers, h), w0, h, setup.spec, 0)
        want_w1, want_losses = fedavg_oracle(workers, w0, h, setup.spec, 0, setup.seed)
        assert w1.tobytes() == want_w1.tobytes()
        assert losses.tobytes() == want_losses.tobytes()

    def test_pools_smaller_than_the_batch(self):
        # a pool smaller than B gives every worker a batch of its whole pool
        spec = ModelSpec("softmax_regression", input_dim=4, num_classes=3)
        h = HyperParameters(rounds=3, num_workers=2, batch_size=5)
        rng = np.random.default_rng(11)
        workers = hand_workers(
            5, rng.standard_normal((6, 4)), rng.integers(0, 3, 6), [np.arange(3), np.arange(3, 6)]
        )
        crew = Crew.of(workers, h)
        w = rng.standard_normal(param_count(spec))
        for t in range(h.rounds):
            want_w, want_losses = fedavg_oracle(workers, w, h, spec, t, seed=5)
            w, losses = fedavg_round(crew, w, h, spec, t)
            assert w.tobytes() == want_w.tobytes()
            assert losses.tobytes() == want_losses.tobytes()

    def test_zero_gradients_are_a_fixed_point(self):
        # same feature with both labels at zero weights: the gradient cancels
        spec = ModelSpec("softmax_regression", input_dim=2, num_classes=2)
        h = HyperParameters(rounds=1, num_workers=1, batch_size=2)
        features = np.array([[1.0, 2.0], [1.0, 2.0]])
        labels = np.array([0, 1])
        workers = hand_workers(0, features, labels, [np.arange(2)])
        w0 = np.zeros(param_count(spec))
        w1, _ = fedavg_round(Crew.of(workers, h), w0, h, spec, 0)
        assert np.array_equal(w1, w0)

    def test_single_worker_is_standalone_sgd(self):
        h = HyperParameters(rounds=10, num_workers=1, batch_size=5)
        setup, _ = small_setup(seed=3, h=h)
        workers = make_workers(setup, h, False, "none")
        crew = Crew.of(workers, h)
        w = setup.init_w.copy()
        for t in range(h.rounds):
            w, _ = fedavg_round(crew, w, h, setup.spec, t)
        # twin: same stream, plain SGD
        w_twin = setup.init_w.copy()
        worker = workers[0]
        for t in range(h.rounds):
            rng = worker_stream(setup.seed, 0).round(t)
            idx = draw_batch_indices(rng, len(worker.train_labels), h.batch_size)
            batch = Batch(worker.train_features[idx], worker.train_labels[idx])
            _, g = loss_and_gradient(setup.spec, w_twin, batch)
            w_twin = w_twin - h.alpha * g.reshape(1, -1).mean(axis=0)
        assert np.array_equal(w, w_twin)

    def test_communication_counts(self):
        setup, h = small_setup(seed=4)
        result = run_variant("fedavg", setup, h)
        for r in result.records:
            assert r.vector_uplinks == h.num_workers
            assert r.vector_broadcasts == 1
            assert r.scalar_uplinks == 0
        total = sum(r.vector_uplinks for r in result.records)
        assert total == h.rounds * h.num_workers


def fedavg_oracle(workers, w, h, spec, t, seed):
    """A FedAvg round from plain parts: replay each worker's numpy draw, take
    one gradient per worker at w, stack the gradients and average them."""
    losses, grads = [], []
    for worker in workers:
        rng = worker_stream(seed, worker.worker_id).round(t)
        idx = draw_batch_indices(rng, len(worker.train_labels), h.batch_size)
        batch = Batch(worker.train_features[idx], worker.train_labels[idx])
        value, grad = loss_and_gradient(spec, w, batch)
        losses.append(value)
        grads.append(grad)
    return w - h.alpha * np.stack(grads).mean(axis=0), np.array(losses)


def canonical_pso(objective, positions, h, seed):
    """Canonical particle-swarm optimization on a shared objective, as the
    oracle of the protocol with its gradient term off. Each particle draws its
    round's weights from its worker stream; the velocity is kept as the
    realized displacement, as the protocol keeps it. Yields, after each round,
    the positions, the personal-best scores and the global best (f_g, w_g)."""
    x = [w.copy() for w in positions]
    v = [np.zeros_like(w) for w in x]
    p = [w.copy() for w in x]
    f_p = [objective(w) for w in x]
    f_g, g = math.inf, None
    for t in range(h.rounds):
        c0 = inertia_schedule(h, t)
        for i in range(len(x)):
            c1, c2 = sample_coefficients(h, worker_stream(seed, i).round(t))
            step = c0 * v[i] + c1 * (p[i] - x[i])
            if g is not None:
                step = step + c2 * (g - x[i])
            moved = x[i] + step
            x[i], v[i] = moved, moved - x[i]
            score = objective(moved)
            if score < f_p[i]:
                f_p[i], p[i] = score, moved.copy()
        best = min(range(len(x)), key=lambda i: (f_p[i], i))
        if f_p[best] < f_g:
            f_g, g = f_p[best], p[best].copy()
        yield x, f_p, f_g, g


class TestPso:
    def test_structural_equivalence_with_swarm(self):
        # with the gradient term off and a common objective, the protocol's
        # trajectory equals canonical swarm optimization bit for bit
        h = HyperParameters(
            c0=0.8, delta_c1=1.0, delta_c2=1.0, alpha=0.0,
            rounds=3, num_workers=3, batch_size=2,
        )
        seed = 11
        dim_in, classes = 2, 2
        spec = ModelSpec("softmax_regression", dim_in, classes)
        dim = param_count(spec)
        rng = np.random.default_rng(99)
        common = Batch(rng.standard_normal((8, dim_in)), rng.integers(0, classes, 8))

        def objective(w):
            return loss(spec, w, common)

        starts = [
            derived_rng(seed, DOMAIN_INIT, i).uniform(-1.0, 1.0, size=dim)
            for i in range(h.num_workers)
        ]

        n = h.num_workers
        workers = hand_workers(
            seed, common.features, common.labels, [np.arange(8)] * n,
            w=[w.copy() for w in starts], v=[np.zeros(dim)] * n, w_p=[w.copy() for w in starts],
            f_p=[objective(w) for w in starts], score_set=[common] * n,
        )
        wiring = ProtocolWiring(h, spec, common, True, AttackSpec())
        ps = initial_ps()
        for t, (x, f_p, f_g, w_g) in enumerate(canonical_pso(objective, starts, h, seed)):
            workers, ps, _ = run_round(workers, ps, wiring, t)
            for i in range(h.num_workers):
                assert np.array_equal(workers[i].w, x[i])
                assert workers[i].f_p == f_p[i]
        assert ps.f_g == f_g
        assert np.array_equal(ps.w_g, w_g)


class TestRunVariant:
    @pytest.mark.parametrize("variant", ["cbdsl_full", "fedavg"])
    def test_accuracy_is_taken_once_per_new_model(self, monkeypatch, variant):
        # a swarm round without a broadcast tests the same global best again
        import swarmlearn.baselines as baselines_mod

        setup, h = small_setup(seed=8, h=HyperParameters(rounds=30, num_workers=4, batch_size=5))
        calls = []
        monkeypatch.setattr(
            baselines_mod, "accuracy", lambda *args: calls.append(1) or accuracy(*args)
        )
        result = run_variant(variant, setup, h)
        broadcasts = sum(r.vector_broadcasts for r in result.records)
        assert 0 < len(calls) == broadcasts
        if variant == "cbdsl_full":
            assert broadcasts < h.rounds

    def test_pool_wiring(self):
        setup, h = small_setup(seed=6)
        plain = make_workers(setup, h, False, "local")
        full = make_workers(setup, h, True, "shared")
        local_size = len(setup.plan.worker_indices[0])
        assert len(plain[0].train_labels) == local_size
        assert len(full[0].train_labels) == local_size + len(setup.shared.train_indices)
        # plain scores on its own data, full on the shared scoring set
        assert len(plain[0].score_set) == local_size
        assert len(full[0].score_set) == len(setup.shared.score)

    @pytest.mark.parametrize("with_global_train", [False, True])
    def test_pool_batches_equal_a_copied_pool(self, with_global_train):
        setup, h = small_setup(seed=6)
        workers = make_workers(setup, h, with_global_train, "shared")
        for i, worker in enumerate(workers):
            own = setup.train.batch(setup.plan.worker_indices[i])
            features = [own.features]
            labels = [own.labels]
            if with_global_train:
                shared = setup.train.batch(setup.shared.train_indices)
                features.append(shared.features)
                labels.append(shared.labels)
            features, labels = np.concatenate(features), np.concatenate(labels)
            assert len(worker.train_labels) == len(labels)
            rng = worker_stream(setup.seed, i).round(0)
            for idx in (draw_batch_indices(rng, len(labels), h.batch_size), np.arange(len(labels))):
                assert worker.train_features[idx].tobytes() == features[idx].tobytes()
                assert worker.train_labels[idx].tobytes() == labels[idx].tobytes()

    def test_make_workers_copies_no_training_rows(self):
        cfg = DataConfig(dim=200, partition="iid", per_worker=300, global_train=600, global_score=500)
        h = HyperParameters(rounds=1, num_workers=10, batch_size=5)
        setup = build_setup(cfg, "softmax_regression", (), h, 1)
        one_pool_bytes = (cfg.per_worker + cfg.global_train) * cfg.dim * 8
        tracemalloc.start()
        try:
            workers = make_workers(setup, h, True, "shared")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(workers[0].train_labels) == cfg.per_worker + cfg.global_train
        # ten pool copies would be ten times this
        assert peak < one_pool_bytes

    @staticmethod
    def wide_rows_setup():
        """A world whose (U, D) worker rows outweigh the data a run touches."""
        cfg = DataConfig(classes=10, per_class=60, dim=2000, test_per_class=5, partition="iid",
                         per_worker=30, global_train=50, global_score=50)
        h = HyperParameters(rounds=4, num_workers=10, batch_size=5)
        setup = build_setup(cfg, "softmax_regression", (), h, 1)
        return setup, h, h.num_workers * param_count(setup.spec) * 8

    def test_swarm_rounds_keep_one_set_of_rows(self):
        # w, v and w_p are built once and advanced in place: fresh rows each
        # round, or per-worker copies stacked again, would pass six arrays
        setup, h, rows_bytes = self.wide_rows_setup()
        tracemalloc.start()
        try:
            result = run_variant("cbdsl_full", setup, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == h.rounds
        assert peak < 4 * rows_bytes

    def test_fedavg_workers_carry_no_vectors(self):
        setup, h, rows_bytes = self.wide_rows_setup()
        tracemalloc.start()
        try:
            workers = make_workers(setup, h, False, "none")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(w.w is None and w.v is None and w.w_p is None for w in workers)
        assert peak < rows_bytes / 10

    def test_swarm_workers_share_the_start(self):
        # swarm workers hold read-only views of the start and one zero
        # velocity; Population.of makes the run's only copy
        setup, h, rows_bytes = self.wide_rows_setup()
        tracemalloc.start()
        try:
            workers = make_workers(setup, h, True, "shared")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scoring set and the zero vector; per-worker copies of w alone
        # would be one (U, D) array
        assert peak < rows_bytes / 2
        for s in workers:
            assert s.w is s.w_p and s.v is workers[0].v and not s.v.any()
            assert np.shares_memory(s.w, setup.init_w) and not s.w.flags.writeable
            assert not s.v.flags.writeable
        pop = Population.of(workers, h)
        assert not any(np.shares_memory(rows, setup.init_w) or np.shares_memory(rows, workers[0].v)
                       for rows in (pop.w, pop.v, pop.w_p))

    @pytest.mark.parametrize("init_mode", ["shared", "per_worker"])
    @pytest.mark.parametrize("score_mode", ["shared", "local"])
    def test_initial_scores(self, monkeypatch, init_mode, score_mode):
        # every start is scored in one loss call, bit-equal to scoring each
        # worker's start on its own scoring set alone
        import swarmlearn.experiment as experiment_mod

        h = HyperParameters(rounds=1, num_workers=4, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 1, init_mode)
        calls = []
        monkeypatch.setattr(experiment_mod, "loss", lambda *args: calls.append(1) or loss(*args))
        workers = make_workers(setup, h, True, score_mode)
        assert len(calls) == 1
        for worker in workers:
            want = loss(setup.spec, initial_w_for(setup, worker.worker_id), worker.score_set)
            assert np.float64(worker.f_p).tobytes() == np.float64(want).tobytes()

    def test_local_scoring_sets_are_held_once(self):
        # the workers' local sets are the rows of one gathered stack, and the
        # crew scores that stack itself: a second copy would double the peak
        cfg = DataConfig(dim=200, partition="iid", per_worker=300, global_train=600, global_score=500)
        h = HyperParameters(rounds=1, num_workers=10, batch_size=5)
        setup = build_setup(cfg, "softmax_regression", (), h, 1)
        local_bytes = h.num_workers * cfg.per_worker * cfg.dim * 8
        tracemalloc.start()
        try:
            workers = make_workers(setup, h, False, "local")
            crew = Crew.of(workers, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert crew.score.features.shape == (h.num_workers, cfg.per_worker, cfg.dim)
        for u, worker in enumerate(workers):
            assert np.shares_memory(crew.score.features[u], worker.score_set.features)
            assert np.shares_memory(crew.score.labels[u], worker.score_set.labels)
        assert peak < 1.5 * local_bytes

    def test_pure_pso_is_rejected(self):
        setup, h = small_setup(seed=7)
        with pytest.raises(ValueError, match="unknown variant"):
            run_variant("pure_pso", setup, h)

    def test_missing_global_train_rejected(self):
        cfg = DataConfig(
            classes=4, per_class=250, dim=5, separation=6.0, test_per_class=25,
            partition="shard", num_shards=20, shards_per_worker=2,
            global_train=0, global_score=80,
        )
        h = HyperParameters(rounds=2, num_workers=4, batch_size=5)
        setup = build_setup(cfg, "softmax_regression", (), h, 1)
        with pytest.raises(ValueError, match="global training"):
            run_variant("cbdsl_full", setup, h)
        # and direct callers: asked for the shared training rows, such a
        # setup used to give local-only pools
        for score_mode in ("shared", "none"):
            with pytest.raises(ValueError, match=r"missing global training dataset \(global_train\)"):
                make_workers(setup, h, True, score_mode)
        # but scoring-only variants run fine
        run_variant("cbdsl_gsc", setup, h)

    def test_missing_score_set_rejected(self):
        cfg = DataConfig(
            classes=4, per_class=250, dim=5, separation=6.0, test_per_class=25,
            partition="shard", num_shards=20, shards_per_worker=2,
            global_train=80, global_score=0,
        )
        h = HyperParameters(rounds=2, num_workers=4, batch_size=5)
        setup = build_setup(cfg, "softmax_regression", (), h, 1)
        with pytest.raises(ValueError, match="scoring"):
            run_variant("cbdsl_gsc", setup, h)
        # plain needs no shared data at all
        run_variant("cbdsl_plain", setup, h)

    def test_attacks_rejected_for_fedavg(self):
        setup, h = small_setup(seed=8)
        attack = AttackSpec(frozenset({0}), "fake_loss_garbage")
        with pytest.raises(ValueError, match="swarm"):
            run_variant("fedavg", setup, h, attack=attack)

    def test_divergence_diagnostics_columns(self):
        setup, h = small_setup(seed=9)
        result = run_variant(
            "cbdsl_full", setup, h, diag=DiagnosticsFlags(divergence=True)
        )
        for r in result.records:
            # the exact CSV schema: a misnamed key would become a column of nan
            assert tuple(r.diag) == DIVERGENCE_COLUMNS
            assert r.diag["divergence_mean"] >= 0

    def test_cosine_diagnostics_columns(self):
        setup, h = small_setup(seed=10)
        result = run_variant(
            "cbdsl_full", setup, h, diag=DiagnosticsFlags(cosine_stats=True)
        )
        assert result.cosine_stats is not None
        assert result.cosine_stats.grad_sq_count > result.cosine_stats.zero_grad
        for r in result.records:
            assert tuple(r.diag) == COSINE_COLUMNS

    def test_mlp_variant_end_to_end(self):
        h = HyperParameters(rounds=4, num_workers=3, batch_size=5)
        setup = build_setup(SMALL, "mlp", (8,), h, 2)
        result = run_variant("cbdsl_full", setup, h)
        assert len(result.records) == 4
        assert all(np.isfinite(r.f_g) for r in result.records)
        series = [r.f_g for r in result.records]
        assert all(b <= a for a, b in zip(series, series[1:]))

    def test_per_worker_initialization(self):
        h = HyperParameters(rounds=2, num_workers=4, batch_size=5)
        setup = build_setup(SMALL, "softmax_regression", (), h, 3, init_mode="per_worker")
        assert setup.init_w.shape[0] == 4
        workers = make_workers(setup, h, True, "shared")
        for a in range(4):
            for b in range(a + 1, 4):
                assert not np.array_equal(workers[a].w, workers[b].w)
        # runs fine end to end; fedavg starts from worker 0's parameters
        run_variant("cbdsl_full", setup, h)
        run_variant("fedavg", setup, h)
