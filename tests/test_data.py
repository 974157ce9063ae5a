import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlearn import data
from swarmlearn.data import (
    Dataset,
    LabelSet,
    PartitionPlan,
    build_global_shared,
    draw_batch_indices,
    emd,
    label_histogram,
    load_idx,
    partition_iid,
    partition_shards,
    stratified_sample,
    synthetic_blobs,
)
from swarmlearn.model import ModelSpec


def write_idx_images(path, images):
    """images: uint8 array (n, rows, cols), serialized per the IDX layout."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, len(labels)))
        f.write(bytes(labels))


def plain_blobs(classes, per_class, dim, separation, rng):
    """The synthetic blobs by their formula: each class block is its mean
    plus a fresh (per_class, dim) standard normal draw."""
    features = np.empty((classes * per_class, dim))
    for c in range(classes):
        mean = np.zeros(dim)
        mean[c % dim] = separation * (1 + c // dim)
        features[c * per_class : (c + 1) * per_class] = mean + rng.standard_normal((per_class, dim))
    return Dataset(features, np.repeat(np.arange(classes), per_class), classes)


class TestLoadIdx:
    def test_hand_built_pair(self, tmp_path):
        images = np.array([[[0, 128], [255, 0]]], dtype=np.uint8)
        img_path = tmp_path / "img.idx"
        lbl_path = tmp_path / "lbl.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lbl_path, [7])
        ds = load_idx(str(img_path), str(lbl_path))
        assert len(ds) == 1
        assert np.array_equal(ds.features[0], [0.0, 128 / 255, 1.0, 0.0])
        assert ds.labels[0] == 7

    def test_kept_rows_convert_only_those_rows(self, tmp_path):
        images = np.random.default_rng(0).integers(0, 256, size=(6, 2, 3), dtype=np.uint8)
        labels = [0, 1, 2, 3, 4, 5]
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lbl.idx", labels)
        full = load_idx(str(tmp_path / "img.idx"), str(tmp_path / "lbl.idx"))
        assert full.features.tobytes() == (images.reshape(6, 6).astype(np.float64) / 255.0).tobytes()
        rows = [4, 0, 4, 5]
        kept = load_idx(str(tmp_path / "img.idx"), str(tmp_path / "lbl.idx"), rows=rows)
        assert kept.features.tobytes() == full.features[rows].tobytes()
        assert kept.labels.tolist() == [4, 0, 4, 5]
        with pytest.raises(ValueError, match="out of range"):
            load_idx(str(tmp_path / "img.idx"), str(tmp_path / "lbl.idx"), rows=[6])

    def test_image_magic_in_label_slot(self, tmp_path):
        img_path = tmp_path / "img.idx"
        write_idx_images(img_path, np.zeros((1, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(str(img_path), str(img_path))

    def test_empty_file(self, tmp_path):
        img_path = tmp_path / "img.idx"
        img_path.write_bytes(b"")
        lbl_path = tmp_path / "lbl.idx"
        write_idx_labels(lbl_path, [1])
        with pytest.raises(ValueError, match="truncated header"):
            load_idx(str(img_path), str(lbl_path))

    def test_truncated_payload(self, tmp_path):
        img_path = tmp_path / "img.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, 2, 2, 2))
            f.write(bytes(3))  # needs 8
        lbl_path = tmp_path / "lbl.idx"
        write_idx_labels(lbl_path, [1, 2])
        with pytest.raises(ValueError, match="truncated payload"):
            load_idx(str(img_path), str(lbl_path))

    def test_count_mismatch(self, tmp_path):
        img_path = tmp_path / "img.idx"
        lbl_path = tmp_path / "lbl.idx"
        write_idx_images(img_path, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lbl_path, [1, 2, 3])
        with pytest.raises(ValueError, match="count"):
            load_idx(str(img_path), str(lbl_path))


class TestSyntheticBlobs:
    def test_counts_and_labels(self):
        ds = synthetic_blobs(2, 5, 3, 4.0, seed=0)
        assert len(ds) == 10
        assert np.bincount(ds.labels).tolist() == [5, 5]

    def test_deterministic(self):
        a = synthetic_blobs(3, 10, 4, 2.0, seed=9)
        b = synthetic_blobs(3, 10, 4, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 5, 3), (10, 90, 20), (12, 7, 4), (3, 40, 784)])
    @pytest.mark.parametrize("separation", [0.0, 2.6, 1e3])
    @pytest.mark.parametrize("chunk_rows", [None, 1, 3])
    def test_bytes_equal_the_mean_plus_draws_formula(self, shape, separation, chunk_rows, monkeypatch):
        # every block is drawn chunk by chunk through a scratch buffer and
        # shifted; the plain formula draws each block fresh and adds it to
        # the class mean. A kept subset, in any order and with repeats, reads
        # those rows, and the generator ends in the same state either way.
        classes, per_class, dim = shape
        if chunk_rows is not None:
            monkeypatch.setattr(data, "_SCRATCH_BYTES", 8 * dim * chunk_rows)
        rng = np.random.default_rng(17)
        want = plain_blobs(classes, per_class, dim, separation, rng)
        ds = synthetic_blobs(classes, per_class, dim, separation, seed=17)
        assert ds.features.tobytes() == want.features.tobytes()
        assert ds.labels.dtype == np.int64
        assert ds.labels.tobytes() == np.repeat(np.arange(classes), per_class).astype(np.int64).tobytes()
        rows = np.random.default_rng(1).integers(0, len(want), size=len(want) // 2 + 1)
        gen = np.random.default_rng(17)
        kept = synthetic_blobs(classes, per_class, dim, separation, seed=gen, rows=rows)
        assert kept.features.tobytes() == want.features[rows].tobytes()
        assert kept.labels.tobytes() == want.labels[rows].tobytes()
        assert gen.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("rows", [[-1], [10], [0, 10]])
    def test_a_row_past_the_set_is_refused(self, rows):
        with pytest.raises(ValueError, match="out of range"):
            synthetic_blobs(2, 5, 3, 4.0, seed=0, rows=rows)

    def test_means_respect_separation(self):
        ds = synthetic_blobs(10, 200, 4, 6.0, seed=3)
        means = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(10)])
        for a in range(10):
            for b in range(a + 1, 10):
                # empirical means wobble around the true centers by ~1/sqrt(n)
                assert np.linalg.norm(means[a] - means[b]) > 6.0 - 0.5

    def test_well_separated_blobs_are_learnable(self):
        from conftest import fit_softmax
        from swarmlearn.model import accuracy

        ds = synthetic_blobs(4, 40, 2, 10.0, seed=2)
        spec = ModelSpec("softmax_regression", 2, 4)
        w = fit_softmax(spec, ds.as_batch(), steps=600, lr=0.2)
        assert accuracy(spec, w, ds) == 1.0


class TestPartitionIid:
    def test_reference_scale_counts(self):
        ds = Dataset(np.zeros((60000, 1)), np.zeros(60000, dtype=np.int64), 10)
        plan = partition_iid(ds, 50, 300, seed=0)
        assert len(plan.worker_indices) == 50
        assert all(len(ix) == 300 for ix in plan.worker_indices)
        flat = plan.all_indices()
        assert len(np.unique(flat)) == 15000

    def test_identity_partition(self):
        ds = Dataset(np.zeros((20, 1)), np.zeros(20, dtype=np.int64), 10)
        plan = partition_iid(ds, 1, 20, seed=1)
        assert np.array_equal(np.sort(plan.worker_indices[0]), np.arange(20))

    def test_two_workers_partition_everything(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10, dtype=np.int64), 10)
        plan = partition_iid(ds, 2, 5, seed=4)
        union = set(plan.worker_indices[0]) | set(plan.worker_indices[1])
        assert union == set(range(10))
        assert not set(plan.worker_indices[0]) & set(plan.worker_indices[1])

    def test_insufficient_samples(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10, dtype=np.int64), 10)
        with pytest.raises(ValueError):
            partition_iid(ds, 3, 4, seed=0)


class TestPartitionShards:
    def test_reference_scale_label_spread(self):
        labels = np.repeat(np.arange(10), 6000)
        ds = Dataset(np.zeros((60000, 1)), labels, 10)
        plan = partition_shards(ds, 200, 2, 50, seed=0)
        for ix in plan.worker_indices:
            assert len(ix) == 600
            assert len(np.unique(labels[ix])) <= 4

    def test_single_class_dataset(self):
        ds = Dataset(np.zeros((40, 1)), np.zeros(40, dtype=np.int64), 3)
        plan = partition_shards(ds, 8, 1, 8, seed=1)
        for ix in plan.worker_indices:
            assert len(np.unique(ds.labels[ix])) == 1

    def test_label_spans_match_enumerated_shards(self):
        # 10-class balanced 1000-sample set, 20 shards of 50, 2 per worker
        rng = np.random.default_rng(0)
        labels = rng.permutation(np.repeat(np.arange(10), 100))
        ds = Dataset(np.zeros((1000, 1)), labels, 10)
        plan = partition_shards(ds, 20, 2, 10, seed=5)
        # enumerate shard label spans independently from the sorted order
        order = np.argsort(labels, kind="stable")
        shard_label_sets = [
            set(labels[order[s * 50 : (s + 1) * 50]].tolist()) for s in range(20)
        ]
        max_span = max(len(s) for s in shard_label_sets)
        assert max_span <= 2
        for ix in plan.worker_indices:
            assert len(np.unique(labels[ix])) <= 4

    def test_infeasible_plans(self):
        ds = Dataset(np.zeros((100, 1)), np.zeros(100, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            partition_shards(ds, 10, 2, 6, seed=0)  # needs 12 shards
        with pytest.raises(ValueError):
            partition_shards(ds, 101, 1, 1, seed=0)


class TestPartitionPlan:
    def test_a_row_two_workers_hold_is_refused(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionPlan((np.array([0, 1]), np.array([2, 1])), "iid", 4)

    def test_a_row_one_worker_lists_twice_is_no_overlap(self):
        plan = PartitionPlan((np.array([0, 0, 1]), np.array([2])), "iid", 4)
        assert len(plan.worker_indices) == 2

    @pytest.mark.parametrize("row", [-1, 4])
    def test_a_row_outside_the_parent_is_refused(self, row):
        with pytest.raises(ValueError, match="out of range"):
            PartitionPlan((np.array([0]), np.array([row])), "iid", 4)


class TestGlobalShared:
    @pytest.fixture
    def balanced(self):
        return LabelSet(np.repeat(np.arange(10), 3000), 10)

    def test_stratified_counts(self, balanced):
        plan = partition_iid(balanced, 10, 300, seed=0)
        train_idx, score_idx = build_global_shared(balanced, 600, 2000, plan, seed=1)
        assert np.bincount(balanced.labels[train_idx], minlength=10).tolist() == [60] * 10
        assert np.bincount(balanced.labels[score_idx], minlength=10).tolist() == [200] * 10

    def test_remainder_goes_to_low_classes(self, balanced):
        plan = partition_iid(balanced, 2, 10, seed=0)
        train_idx, _ = build_global_shared(balanced, 12, 0, plan, seed=1)
        assert np.bincount(balanced.labels[train_idx], minlength=10).tolist() == [2, 2] + [1] * 8

    def test_empty_train_part(self, balanced):
        plan = partition_iid(balanced, 2, 10, seed=0)
        train_idx, score_idx = build_global_shared(balanced, 0, 100, plan, seed=1)
        assert len(train_idx) == 0
        assert len(score_idx) == 100

    def test_disjoint_from_plan_and_each_other(self, balanced):
        plan = partition_iid(balanced, 50, 300, seed=3)
        train_idx, score_idx = build_global_shared(balanced, 600, 2000, plan, seed=4)
        plan_set = set(plan.all_indices().tolist())
        train_set = set(train_idx.tolist())
        score_set = set(score_idx.tolist())
        assert not plan_set & train_set
        assert not plan_set & score_set
        assert not train_set & score_set

    def test_insufficient_holdout(self):
        ds = LabelSet(np.repeat(np.arange(2), 10), 2)
        plan = partition_iid(ds, 2, 9, seed=0)
        with pytest.raises(ValueError, match="insufficient held-out"):
            build_global_shared(ds, 4, 0, plan, seed=0)

    def test_negative_count_is_refused(self, balanced):
        # a negative count used to slice every free row but |count| per class
        with pytest.raises(ValueError, match="negative count"):
            stratified_sample(balanced, -5, np.array([], dtype=np.int64), np.random.default_rng(0))


class TestHistogramAndEmd:
    def test_two_class_worker(self):
        labels = np.repeat([3, 7], 300)
        hist = label_histogram(labels, 10)
        expected = np.zeros(10)
        expected[3] = expected[7] = 0.5
        assert np.array_equal(hist, expected)

    def test_balanced_set_is_uniform(self):
        labels = np.repeat(np.arange(10), 123)
        assert np.allclose(label_histogram(labels, 10), 0.1, atol=1e-15)

    def test_single_sample_one_hot(self):
        hist = label_histogram(np.array([3]), 10)
        assert hist[3] == 1.0 and hist.sum() == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            label_histogram(np.array([], dtype=np.int64), 10)

    def test_identical_histograms(self):
        p = label_histogram(np.repeat(np.arange(4), 5), 4)
        assert emd(p, p) == 0.0

    def test_two_shard_worker_vs_uniform(self):
        worker = label_histogram(np.repeat([0, 1], 300), 10)
        pop = label_histogram(np.repeat(np.arange(10), 400), 10)
        assert emd(worker, pop) == 1.6

    def test_emd_after_stratified_mixing(self):
        local = np.repeat([0, 1], 300)
        shared = np.repeat(np.arange(10), 60)
        mixed = label_histogram(np.concatenate([local, shared]), 10)
        pop = label_histogram(np.repeat(np.arange(10), 400), 10)
        assert emd(mixed, pop) == 0.8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            emd(np.ones(3) / 3, np.ones(4) / 4)

    @given(
        counts_p=st.lists(st.integers(0, 50), min_size=5, max_size=5).filter(lambda c: sum(c) > 0),
        counts_q=st.lists(st.integers(0, 50), min_size=5, max_size=5).filter(lambda c: sum(c) > 0),
        counts_r=st.lists(st.integers(0, 50), min_size=5, max_size=5).filter(lambda c: sum(c) > 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, counts_p, counts_q, counts_r):
        p = np.array(counts_p) / sum(counts_p)
        q = np.array(counts_q) / sum(counts_q)
        r = np.array(counts_r) / sum(counts_r)
        assert emd(p, q) == emd(q, p)
        assert emd(p, q) <= emd(p, r) + emd(r, q) + 1e-12
        assert 0.0 <= emd(p, q) <= 2.0

    def test_mixing_shared_data_never_increases_emd(self):
        # balanced shared set + uniform population: mixing can only help
        pop = np.full(10, 0.1)
        for seed in range(5):
            labels = np.repeat(np.arange(10), 120)
            ds = Dataset(np.zeros((1200, 1)), labels, 10)
            plan = partition_shards(ds, 12, 2, 4, seed=seed)
            shared_labels = np.repeat(np.arange(10), 10)
            for ix in plan.worker_indices:
                before = emd(label_histogram(labels[ix], 10), pop)
                mixed = label_histogram(np.concatenate([labels[ix], shared_labels]), 10)
                assert emd(mixed, pop) <= before + 1e-12


class TestDrawBatch:
    def test_within_pool_and_unique(self):
        rng = np.random.default_rng(0)
        idx = draw_batch_indices(rng, 50, 10)
        assert len(idx) == 10
        assert len(np.unique(idx)) == 10
        assert idx.min() >= 0 and idx.max() < 50

    def test_caps_at_pool_size(self):
        rng = np.random.default_rng(0)
        idx = draw_batch_indices(rng, 4, 10)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 5]), 3)
