import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlearn import model
from swarmlearn.model import (
    Batch,
    ModelSpec,
    accuracy,
    gradient,
    init_params,
    loss,
    loss_and_gradient,
    param_count,
)

MLP = ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dims=(16,))
SOFTMAX = ModelSpec("softmax_regression", input_dim=6, num_classes=10)


def random_batch(rng, spec, n=8):
    return Batch(rng.standard_normal((n, spec.input_dim)), rng.integers(0, spec.num_classes, n))


class TestSpec:
    def test_param_count_softmax(self):
        assert param_count(SOFTMAX) == 10 * 6 + 10

    def test_param_count_mlp(self):
        assert param_count(MLP) == (16 * 6 + 16) + (4 * 16 + 4)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ModelSpec("cnn", 4, 3)
        with pytest.raises(ValueError):
            ModelSpec("softmax_regression", 4, 1)
        with pytest.raises(ValueError):
            ModelSpec("mlp", 4, 3)  # no hidden layers
        with pytest.raises(ValueError):
            ModelSpec("softmax_regression", 4, 3, hidden_dims=(8,))


class TestLoss:
    def test_zero_params_give_log_c(self, rng):
        batch = random_batch(rng, SOFTMAX)
        w = np.zeros(param_count(SOFTMAX))
        assert loss(SOFTMAX, w, batch) == pytest.approx(math.log(10), abs=1e-12)

    def test_loss_vanishes_as_true_logit_grows(self):
        # single sample, push the true class weight up and watch the loss
        # shrink monotonically toward zero
        spec = ModelSpec("softmax_regression", input_dim=2, num_classes=3)
        x = np.array([[1.0, 0.0]])
        batch = Batch(x, np.array([1]))
        losses = []
        for scale in (0.0, 1.0, 4.0, 16.0, 64.0):
            w = np.zeros(param_count(spec))
            w[2] = scale  # weight of class 1 on feature 0
            losses.append(loss(spec, w, batch))
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-20

    def test_mean_of_per_sample_losses(self, rng):
        # recompute each sample's -ln p(y) with straight numpy
        spec = ModelSpec("softmax_regression", input_dim=3, num_classes=4)
        w = rng.standard_normal(param_count(spec))
        batch = random_batch(rng, spec, n=5)
        weight = w[: 4 * 3].reshape(4, 3)
        bias = w[4 * 3 :]
        per_sample = []
        for x, y in zip(batch.features, batch.labels):
            z = weight @ x + bias
            p = np.exp(z) / np.exp(z).sum()
            per_sample.append(-math.log(p[y]))
        assert loss(spec, w, batch) == pytest.approx(np.mean(per_sample), rel=1e-12)

    def test_loss_additivity(self, rng):
        spec = SOFTMAX
        w = rng.standard_normal(param_count(spec))
        a = random_batch(rng, spec, n=6)
        b = random_batch(rng, spec, n=6)
        union = Batch(
            np.concatenate([a.features, b.features]), np.concatenate([a.labels, b.labels])
        )
        mean_of_two = (loss(spec, w, a) + loss(spec, w, b)) / 2
        assert loss(spec, w, union) == pytest.approx(mean_of_two, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        batch = random_batch(rng, SOFTMAX)
        with pytest.raises(ValueError):
            loss(SOFTMAX, np.zeros(5), batch)

    def test_nonnegative_and_finite(self, rng):
        for _ in range(5):
            w = rng.standard_normal(param_count(MLP)) * 10
            value = loss(MLP, w, random_batch(rng, MLP))
            assert math.isfinite(value) and value >= 0


class TestGradient:
    def test_zero_params_single_sample_closed_form(self):
        # with all-zero parameters the softmax is uniform, so the weight-block
        # gradient for class c is (1/C - [c == y]) x
        spec = ModelSpec("softmax_regression", input_dim=3, num_classes=5)
        x = np.array([0.5, -1.5, 2.0])
        y = 2
        g = gradient(spec, np.zeros(param_count(spec)), Batch(x[None, :], np.array([y])))
        weights = g[: 5 * 3].reshape(5, 3)
        bias = g[5 * 3 :]
        for c in range(5):
            expected = (1 / 5 - (1 if c == y else 0)) * x
            assert np.allclose(weights[c], expected, atol=1e-15)
            assert bias[c] == pytest.approx(1 / 5 - (1 if c == y else 0), abs=1e-15)

    DEEP_MLP = ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dims=(10, 8))

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP, DEEP_MLP], ids=["softmax", "mlp", "mlp2"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_finite_difference(self, spec, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(param_count(spec)) * 0.5
        batch = random_batch(rng, spec, n=7)
        g = gradient(spec, w, batch)
        coords = rng.choice(param_count(spec), size=20, replace=False)
        step = 1e-6
        for j in coords:
            plus = w.copy()
            plus[j] += step
            minus = w.copy()
            minus[j] -= step
            fd = (loss(spec, plus, batch) - loss(spec, minus, batch)) / (2 * step)
            denom = max(abs(fd), abs(g[j]), 1e-8)
            assert abs(fd - g[j]) / denom <= 1e-5

    def test_duplicated_batch_same_gradient(self, rng):
        w = rng.standard_normal(param_count(SOFTMAX))
        batch = random_batch(rng, SOFTMAX, n=4)
        doubled = Batch(
            np.concatenate([batch.features, batch.features]),
            np.concatenate([batch.labels, batch.labels]),
        )
        assert np.allclose(gradient(SOFTMAX, w, batch), gradient(SOFTMAX, w, doubled), atol=1e-14)

    def test_permutation_invariance(self, rng):
        w = rng.standard_normal(param_count(MLP))
        batch = random_batch(rng, MLP, n=9)
        for _ in range(3):
            perm = rng.permutation(9)
            shuffled = Batch(batch.features[perm], batch.labels[perm])
            assert loss(MLP, w, batch) == pytest.approx(loss(MLP, w, shuffled), rel=1e-12)
            assert np.allclose(gradient(MLP, w, batch), gradient(MLP, w, shuffled), atol=1e-13)

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP], ids=["softmax", "mlp"])
    def test_gradient_written_into_out(self, spec, rng):
        w = rng.standard_normal(param_count(spec))
        batch = random_batch(rng, spec)
        want_value, want = loss_and_gradient(spec, w, batch)
        rows = np.full((3, param_count(spec)), np.nan)
        out = rows[1]
        value, grad = loss_and_gradient(spec, w, batch, out=out)
        assert value == want_value and grad is out
        assert rows[1].tobytes() == want.tobytes() and np.isnan(rows[[0, 2]]).all()
        for bad in (np.empty((param_count(spec), 2))[:, 0], np.empty(param_count(spec), np.float32)):
            with pytest.raises(ValueError, match="C-contiguous"):
                loss_and_gradient(spec, w, batch, out=bad)
        with pytest.raises(ValueError):
            loss_and_gradient(spec, w, batch, out=rows)

    def test_loss_and_gradient_agree_with_parts(self, rng):
        w = rng.standard_normal(param_count(MLP))
        batch = random_batch(rng, MLP)
        value, g = loss_and_gradient(MLP, w, batch)
        assert value == loss(MLP, w, batch)
        assert np.array_equal(g, gradient(MLP, w, batch))


def _oracle_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _oracle_loss_and_gradient(spec, w, batch):
    """The plain formulas: row max by ``z.max(axis=1)``, a separate softmax
    pass, and a gradient assembled by per-layer ``np.concatenate``."""
    dims = [spec.input_dim, *spec.hidden_dims, spec.num_classes]
    layers, offset = [], 0
    for inp, out in zip(dims, dims[1:]):
        weight = w[offset : offset + out * inp].reshape(out, inp)
        offset += out * inp
        layers.append((weight, w[offset : offset + out]))
        offset += out
    activations, pre = [batch.features], []
    a = batch.features
    for i, (weight, bias) in enumerate(layers):
        z = a @ weight.T + bias
        pre.append(z)
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0)
            activations.append(a)
    n = len(batch)
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    value = float(np.mean(lse - z[np.arange(n), batch.labels]))
    delta = _oracle_softmax(z)
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        g_w = delta.T @ activations[i]
        grads[i] = np.concatenate([g_w.ravel(), delta.sum(axis=0)])
        if i > 0:
            delta = (delta @ layers[i][0]) * (pre[i - 1] > 0)
    return value, np.concatenate(grads)


@st.composite
def kernel_cases(draw):
    """A spec, parameters and a batch. Rows span both sides of numpy's
    8-element pairwise-summation block; scale 0 gives exact logit ties and
    the largest scales make exp underflow to 0 for all but the top class."""
    classes = draw(st.integers(2, 12))
    input_dim = draw(st.integers(1, 12))
    hidden = draw(st.one_of(st.just(()), st.lists(st.integers(1, 20), min_size=1, max_size=2)))
    kind = "mlp" if hidden else "softmax_regression"
    spec = ModelSpec(kind, input_dim, classes, tuple(hidden))
    rows = draw(st.integers(1, 600))
    scale = draw(st.sampled_from([0.0, 1e-3, 0.05, 1.0, 10.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal(param_count(spec)) * scale
    batch = Batch(rng.standard_normal((rows, input_dim)), rng.integers(0, classes, rows))
    return spec, w, batch


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernels_bit_identical_to_plain_formulas(case):
    spec, w, batch = case
    w_before = w.tobytes()
    features_before, labels_before = batch.features.tobytes(), batch.labels.tobytes()
    want_value, want_grad = _oracle_loss_and_gradient(spec, w, batch)

    value, grad = loss_and_gradient(spec, w, batch)
    assert value == want_value
    assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
    assert grad.tobytes() == want_grad.tobytes()
    assert loss(spec, w, batch) == want_value
    assert gradient(spec, w, batch).tobytes() == want_grad.tobytes()

    # a fresh gradient that aliases none of the inputs, which stay as they were
    assert grad.flags.owndata
    assert not np.shares_memory(grad, w) and not np.shares_memory(grad, batch.features)
    assert grad is not loss_and_gradient(spec, w, batch)[1]
    assert w.tobytes() == w_before
    assert batch.features.tobytes() == features_before
    assert batch.labels.tobytes() == labels_before


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_accuracy_is_a_brute_force_argmax_count(case):
    # scale 0 ties every logit exactly: the first class of a tie is predicted
    spec, w, batch = case
    dims = [spec.input_dim, *spec.hidden_dims, spec.num_classes]
    a, offset = batch.features, 0
    for i, (inp, out) in enumerate(zip(dims, dims[1:])):
        weight = w[offset : offset + out * inp].reshape(out, inp)
        a = a @ weight.T + w[offset + out * inp : offset + out * inp + out]
        offset += out * inp + out
        if i < len(dims) - 2:
            a = np.maximum(a, 0.0)
    correct = 0
    for row, y in zip(a, batch.labels):
        best = 0
        for c in range(1, len(row)):
            if row[c] > row[best]:
                best = c
        correct += best == y
    got = accuracy(spec, w, batch)
    assert type(got) is float
    assert got == correct / len(batch)


@st.composite
def stacked_cases(draw):
    """A spec, parameters, one parameter vector per slice and a stack of U
    batches of B rows each."""
    classes = draw(st.integers(2, 40))
    input_dim = draw(st.integers(1, 12))
    hidden = draw(st.one_of(st.just(()), st.lists(st.integers(1, 20), min_size=1, max_size=2)))
    spec = ModelSpec("mlp" if hidden else "softmax_regression", input_dim, classes, tuple(hidden))
    u, b = draw(st.integers(1, 12)), draw(st.integers(1, 64))
    scale = draw(st.sampled_from([0.0, 1e-3, 0.05, 1.0, 10.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal(param_count(spec)) * scale
    ws = rng.standard_normal((u, param_count(spec))) * scale
    batch = Batch(rng.standard_normal((u, b, input_dim)), rng.integers(0, classes, (u, b)))
    return spec, w, ws, batch


@settings(max_examples=150, deadline=None)
@given(stacked_cases())
def test_stacked_slices_bit_equal_to_single_calls(case):
    spec, w, ws, batch = case
    u, b = batch.labels.shape
    w_before, ws_before = w.tobytes(), ws.tobytes()
    features_before, labels_before = batch.features.tobytes(), batch.labels.tobytes()

    values, grads = loss_and_gradient(spec, w, batch)
    losses = loss(spec, w, batch)
    per_worker = loss(spec, ws, batch)
    # one batch shared by every worker, as broadcast views
    shared = Batch(np.broadcast_to(batch.features[0], batch.features.shape),
                   np.broadcast_to(batch.labels[0], batch.labels.shape))
    on_shared = loss(spec, ws, shared)
    assert len(batch) == len(shared) == u * b
    assert values.shape == losses.shape == per_worker.shape == on_shared.shape == (u,)
    assert grads.shape == (u, param_count(spec))
    for k in range(u):
        single = Batch(batch.features[k], batch.labels[k])
        value, grad = loss_and_gradient(spec, w, single)
        assert values[k] == value and losses[k] == value
        assert grads[k].tobytes() == grad.tobytes()
        # the row-major terms of the gradient kernel score row k alike
        assert per_worker[k] == loss_and_gradient(spec, ws[k], single)[0] == loss(spec, ws[k], single)
        first = Batch(batch.features[0], batch.labels[0])
        assert on_shared[k] == loss_and_gradient(spec, ws[k], first)[0]

    assert grads.flags.owndata and grads.flags.c_contiguous
    assert not np.shares_memory(grads, w) and not np.shares_memory(grads, batch.features)
    assert w.tobytes() == w_before and ws.tobytes() == ws_before
    assert batch.features.tobytes() == features_before
    assert batch.labels.tobytes() == labels_before


@st.composite
def forward_cases(draw):
    """A spec, its layers and features: one vector on a 2-D batch, one
    vector on a stack of U batches, or a (U, D) stack on a stack."""
    classes, input_dim = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    hidden = draw(st.one_of(st.just(()), st.lists(st.integers(1, 20), min_size=1, max_size=2)))
    spec = ModelSpec("mlp" if hidden else "softmax_regression", input_dim, classes, tuple(hidden))
    form = draw(st.sampled_from(["one_on_rows", "one_on_stack", "stack_on_stack"]))
    u, rows = draw(st.integers(1, 8)), draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((u, param_count(spec)) if form == "stack_on_stack" else param_count(spec))
    features = rng.standard_normal((rows, input_dim) if form == "one_on_rows" else (u, rows, input_dim))
    return spec, model._unpack(spec, w, w.shape[:-1]), features


@settings(max_examples=150, deadline=None)
@given(forward_cases())
def test_buffered_forward_bit_equal_to_the_fresh_one(case):
    # one forward pass serves every kernel: written into a Workspace's
    # buffers, each layer keeps every bit of the fresh arrays
    spec, layers, features = case
    z, inputs = model._forward(layers, features)
    work = model.Workspace()
    zb, inputs_b = model._forward(layers, features, work.array)
    assert zb.shape == z.shape == (*features.shape[:-1], spec.num_classes)
    assert zb.tobytes() == z.tobytes()
    assert len(inputs_b) == len(inputs) == len(spec.hidden_dims) + 1
    assert inputs_b[0] is inputs[0] is features
    for i, (got, want) in enumerate(zip(inputs_b[1:], inputs[1:])):
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, work.array(f"hidden{i}", got.shape))
    assert np.shares_memory(zb, work.array("logits", zb.shape))
    assert not np.shares_memory(z, work.array("logits", z.shape))


# Class counts just past one pairwise block, with a half that is not a
# multiple of 8, past two blocks, and a prime whose halves split unevenly
# four levels deep.
PAST_ONE_BLOCK = (129, 136, 257, 1031)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 640),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
    st.sampled_from([0.0, 0.05, 0.5]),
)
@example(PAST_ONE_BLOCK[0], 3, 1, 1.0, 0.0)
@example(PAST_ONE_BLOCK[1], 3, 2, 1e8, 0.05)
@example(PAST_ONE_BLOCK[2], 3, 3, 1.0, 0.0)
@example(PAST_ONE_BLOCK[3], 3, 4, 1e-8, 0.05)
def test_class_sum_adds_in_numpys_pairwise_order(n, rows, seed, magnitude, special):
    # the explicit class-major sum pins numpy's own order for a row of n
    # terms, whole blocks and halves of longer rows alike: magnitudes spread
    # over many decades make a different order round differently, and a
    # share of the entries is inf, -inf, nan or -0.0
    rng = np.random.default_rng(seed)
    with np.errstate(invalid="ignore", over="ignore"):
        terms = rng.standard_normal((rows, n)) * magnitude * 10.0 ** rng.integers(-8, 9, (rows, n))
        odd = rng.random((rows, n)) < special
        terms[odd] = rng.choice([np.inf, -np.inf, np.nan, -0.0], odd.sum())
        want = terms.sum(axis=-1)
        got = model._class_sum(np.ascontiguousarray(terms.T))
    # which NaN an addition of two NaNs keeps is up to the machine code, not
    # the order; every other value must match bit for bit, signed zeros too
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize(
    "spec",
    [MLP, SOFTMAX] + [ModelSpec(kind, 3, classes, hidden)
                      for classes in PAST_ONE_BLOCK
                      for kind, hidden in (("softmax_regression", ()), ("mlp", (16,)))],
    ids=["mlp", "softmax"] + [f"{kind}_{classes}" for classes in PAST_ONE_BLOCK
                              for kind in ("softmax", "mlp")],
)
def test_scoring_groups_and_wide_outputs_keep_every_bit(spec, monkeypatch, rng):
    # a stack scored in groups of two slices, and a model with more classes
    # than one pairwise block, score every slice as the single call does:
    # at a (U, D) stack, at one vector, and at one vector for one batch
    u, n = 5, 40
    ws = rng.standard_normal((u, param_count(spec)))
    batch = Batch(rng.standard_normal((u, n, spec.input_dim)),
                  rng.integers(0, spec.num_classes, (u, n)))
    whole = loss(spec, ws, batch)
    widest = max((*spec.hidden_dims, spec.num_classes))
    monkeypatch.setattr(model, "_SCORE_BUFFER_BYTES", 2 * 8 * n * widest)
    work = model.Workspace()
    grouped = loss(spec, ws, batch, work=work)
    # the groups reuse one set of kept buffers, which change no result
    assert loss(spec, ws, batch, work=work).tobytes() == grouped.tobytes()
    singles = [loss_and_gradient(spec, ws[k], Batch(batch.features[k], batch.labels[k]))[0]
               for k in range(u)]
    assert whole.tobytes() == grouped.tobytes() == np.array(singles).tobytes()
    assert [loss(spec, ws[k], Batch(batch.features[k], batch.labels[k])) for k in range(u)] == singles
    common = loss_and_gradient(spec, ws[0], batch)[0]
    assert loss(spec, ws[0], batch).tobytes() == common.tobytes()
    assert loss(spec, ws[0], batch, work=work).tobytes() == common.tobytes()


class TestBatch:
    def test_stack_needs_one_label_per_row(self, rng):
        with pytest.raises(ValueError):
            Batch(rng.standard_normal((2, 3, 4)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            Batch(rng.standard_normal((2, 3, 4)), np.zeros((3, 2), dtype=int))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            Batch(np.zeros((0, 3, 4)), np.zeros((0, 3), dtype=int))

    def test_stacked_parameters_rejected(self, rng):
        batch = Batch(rng.standard_normal((2, 3, 6)), rng.integers(0, 10, (2, 3)))
        with pytest.raises(ValueError):
            loss_and_gradient(SOFTMAX, np.zeros((2, param_count(SOFTMAX))), batch)

    def test_parameter_stack_needs_as_many_batches(self, rng):
        ws = np.zeros((2, param_count(SOFTMAX)))
        with pytest.raises(ValueError, match="stack of 2 batches"):
            loss(SOFTMAX, ws, Batch(rng.standard_normal((3, 3, 6)), rng.integers(0, 10, (3, 3))))
        with pytest.raises(ValueError, match="stack of 2 batches"):
            loss(SOFTMAX, ws, Batch(rng.standard_normal((3, 6)), rng.integers(0, 10, 3)))


class TestAccuracy:
    def test_zero_params_predict_class_zero(self, rng):
        batch = random_batch(rng, SOFTMAX, n=30)
        expected = float(np.mean(batch.labels == 0))
        assert accuracy(SOFTMAX, np.zeros(param_count(SOFTMAX)), batch) == expected

    def test_single_correct_sample(self):
        spec = ModelSpec("softmax_regression", input_dim=2, num_classes=2)
        w = np.zeros(param_count(spec))
        w[0] = 5.0  # class 0 likes feature 0
        batch = Batch(np.array([[1.0, 0.0]]), np.array([0]))
        assert accuracy(spec, w, batch) == 1.0

    def test_matches_brute_force_count(self, rng, blob_dataset):
        from conftest import fit_softmax

        spec = ModelSpec("softmax_regression", blob_dataset.features.shape[1],
                         blob_dataset.num_classes)
        w = fit_softmax(spec, blob_dataset.as_batch())
        weight = w[: spec.num_classes * spec.input_dim].reshape(spec.num_classes, spec.input_dim)
        bias = w[spec.num_classes * spec.input_dim :]
        correct = 0
        for x, y in zip(blob_dataset.features, blob_dataset.labels):
            scores = weight @ x + bias
            best = 0
            for c in range(1, spec.num_classes):
                if scores[c] > scores[best]:
                    best = c
            correct += best == y
        assert accuracy(spec, w, blob_dataset) == correct / len(blob_dataset)

    def test_empty_dataset_errors(self):
        from swarmlearn.data import Dataset

        empty = Dataset(np.empty((0, 6)), np.empty(0, dtype=np.int64), 10)
        with pytest.raises(ValueError):
            accuracy(SOFTMAX, np.zeros(param_count(SOFTMAX)), empty)


def test_init_params_range_and_determinism():
    w1 = init_params(SOFTMAX, np.random.default_rng(5))
    w2 = init_params(SOFTMAX, np.random.default_rng(5))
    assert np.array_equal(w1, w2)
    assert np.all(np.abs(w1) <= 0.05)
