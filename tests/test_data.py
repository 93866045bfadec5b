import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramfed.data import (
    Dataset,
    InputError,
    PartitionSpec,
    batch_indices,
    batches,
    gen_synthetic_2d,
    load_csv,
    load_idx,
    parse_idx,
    partition_heterogeneous,
    partition_indices,
    save_csv,
    write_idx,
)
from ramfed.models import Batch, ModelArch, ModelParams, loss_and_grad


LABEL_FIXTURE = bytes([0, 0, 8, 1, 0, 0, 0, 2, 3, 7])
IMAGE_FIXTURE = bytes([0, 0, 8, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 255, 0, 255])


class TestIdx:
    def test_label_fixture(self):
        arr = parse_idx(LABEL_FIXTURE)
        assert arr.dtype == np.uint8
        assert np.array_equal(arr, np.array([3, 7], dtype=np.uint8))

    def test_image_fixture(self):
        arr = parse_idx(IMAGE_FIXTURE)
        assert arr.shape == (1, 2, 2)
        assert np.array_equal(arr[0], np.array([[0, 255], [0, 255]], dtype=np.uint8))

    def test_round_trip_bit_exact(self):
        for fixture in (LABEL_FIXTURE, IMAGE_FIXTURE):
            assert write_idx(parse_idx(fixture)) == fixture

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_bad_magic_rejected_with_offset(self, magic):
        if magic in (0x801, 0x803):
            return
        buf = magic.to_bytes(4, "big") + bytes(8)
        with pytest.raises(InputError, match="offset 0"):
            parse_idx(buf)

    def test_truncated_header(self):
        with pytest.raises(InputError, match="truncated"):
            parse_idx(bytes([0, 0, 8, 3, 0, 0]))

    def test_truncated_payload_names_offset(self):
        bad = LABEL_FIXTURE[:-1]
        with pytest.raises(InputError, match="offset 8"):
            parse_idx(bad)

    def test_dimension_overflow(self):
        huge = bytes([0, 0, 8, 1, 0xFF, 0xFF, 0xFF, 0xFF]) + bytes(4)
        with pytest.raises(InputError, match="overflow"):
            parse_idx(huge)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(InputError, match="trailing"):
            parse_idx(LABEL_FIXTURE + b"\x00")

    def test_random_arrays_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            if rng.random() < 0.5:
                arr = rng.integers(0, 256, size=rng.integers(1, 40), dtype=np.uint8)
            else:
                shape = tuple(int(s) for s in rng.integers(1, 6, size=3))
                arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
            again = parse_idx(write_idx(arr))
            assert np.array_equal(arr, again)

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "labels.gz"
        path.write_bytes(gzip.compress(LABEL_FIXTURE))
        assert np.array_equal(load_idx(path), np.array([3, 7], dtype=np.uint8))


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic_2d(3, 100, 0.4, 12)
        b = gen_synthetic_2d(3, 100, 0.4, 12)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_spread_collapses_to_means(self):
        data = gen_synthetic_2d(4, 5, 0.0, 1)
        for c in range(4):
            rows = data.features[data.labels == c]
            assert np.allclose(rows, rows[0])
            assert np.linalg.norm(rows[0]) == pytest.approx(3.0, abs=1e-12)

    def test_pooled_data_linearly_separable(self):
        # Centralized SGD on the pooled fixture must reach high accuracy,
        # pinning down that the blob geometry is linearly separable.
        data = gen_synthetic_2d(3, 200, 0.4, 7)
        arch = ModelArch("logreg", 2, 3)
        values = np.zeros(arch.num_params)
        rng = np.random.default_rng(0)
        for _ in range(400):
            idx = rng.integers(0, len(data), size=32)
            batch = Batch(data.features[idx], data.labels[idx])
            _, grad = loss_and_grad(ModelParams(arch, values), batch)
            values -= 0.5 * grad
        logits = data.features @ values[:6].reshape(2, 3) + values[6:]
        acc = float((logits.argmax(axis=1) == data.labels).mean())
        assert acc >= 0.95

    def test_csv_round_trip(self, tmp_path):
        data = gen_synthetic_2d(3, 20, 0.4, 5)
        path = tmp_path / "synth.csv"
        save_csv(data, path)
        assert path.read_text().splitlines()[0] == "x1,x2,label"
        again = load_csv(path)
        assert np.array_equal(data.features, again.features)
        assert np.array_equal(data.labels, again.labels)


def uniform_dataset(num_classes, per_class, seed=0):
    rng = np.random.default_rng(seed)
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(rng.standard_normal((n, 2)), labels, num_classes)


class TestPartition:
    def test_fig3_style_split(self):
        data = uniform_dataset(10, 30)
        spec = PartitionSpec(num_users=30, frequent_fraction=90,
                             frequent_pattern_fraction=90, seed=1)
        shards = partition_heterogeneous(data, spec)
        for user in range(27):
            assert set(shards[user].labels.tolist()) <= set(range(9))
        for user in range(27, 30):
            assert set(shards[user].labels.tolist()) == {9}

    def test_two_exclusive_patterns_split(self):
        data = uniform_dataset(10, 30)
        spec = PartitionSpec(30, 90, 80, seed=1)
        shards = partition_heterogeneous(data, spec)
        rare_labels = set()
        for user in range(27, 30):
            rare_labels |= set(shards[user].labels.tolist())
        assert rare_labels == {8, 9}

    def test_smallest_instance(self):
        data = uniform_dataset(3, 40)
        spec = PartitionSpec(3, 67, 67, seed=9)
        shards = partition_heterogeneous(data, spec)
        assert set(shards[0].labels.tolist()) <= {0, 1}
        assert set(shards[1].labels.tolist()) <= {0, 1}
        assert set(shards[2].labels.tolist()) == {2}

    def test_conservation_and_disjointness(self):
        data = uniform_dataset(10, 13, seed=3)
        spec = PartitionSpec(30, 90, 90, seed=2)
        indices = partition_indices(data, spec)
        merged = np.concatenate(indices)
        assert len(merged) == len(data)
        assert np.array_equal(np.sort(merged), np.arange(len(data)))

    def test_group_sizes_balanced(self):
        data = uniform_dataset(10, 13, seed=3)
        spec = PartitionSpec(30, 90, 90, seed=2)
        sizes = [len(idx) for idx in partition_indices(data, spec)]
        assert max(sizes[:27]) - min(sizes[:27]) <= 1
        assert max(sizes[27:]) - min(sizes[27:]) <= 1

    @given(
        num_users=st.integers(2, 12),
        num_classes=st.integers(2, 8),
        m=st.integers(20, 80),
        r=st.integers(20, 80),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_invariants_hold(self, num_users, num_classes, m, r, seed):
        data = uniform_dataset(num_classes, 2 * num_users, seed=seed)
        try:
            spec = PartitionSpec(num_users, m, r, seed)
            n_freq_classes = spec.num_frequent_classes(num_classes)
        except ValueError:
            return
        indices = partition_indices(data, spec)
        merged = np.sort(np.concatenate(indices))
        assert np.array_equal(merged, np.arange(len(data)))
        for user, idx in enumerate(indices):
            labels = set(data.labels[idx].tolist())
            if user < spec.num_frequent_users:
                assert labels <= set(range(n_freq_classes))
            else:
                assert labels <= set(range(n_freq_classes, num_classes))

    def test_missing_class_rejected(self):
        data = uniform_dataset(3, 10)
        data = Dataset(data.features, data.labels, num_classes=4)
        with pytest.raises(InputError, match=r"\[3\]"):
            partition_indices(data, PartitionSpec(4, 50, 50, seed=0))

    def test_starved_user_rejected(self):
        # Two rare users but only one rare-class sample.
        labels = np.array([0] * 10 + [1])
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((11, 2)), labels, 2)
        with pytest.raises(InputError):
            partition_indices(data, PartitionSpec(4, 50, 50, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(1, 50, 50, seed=0)
        with pytest.raises(ValueError):
            PartitionSpec(10, 0, 50, seed=0)
        with pytest.raises(ValueError):
            PartitionSpec(10, 100, 50, seed=0)
        with pytest.raises(ValueError):
            # All users would be frequent.
            PartitionSpec(10, 99, 50, seed=0)
        with pytest.raises(ValueError):
            PartitionSpec(10, 50, 50, seed=0).num_frequent_classes(1)


class TestBatches:
    def test_chunk_sizes(self):
        data = uniform_dataset(5, 1)
        sizes = [len(b) for b in batches(data, 2, seed=0, epoch=0)]
        assert sizes == [2, 2, 1]

    def test_full_batch_is_permutation(self):
        data = uniform_dataset(4, 3)
        (batch,) = batches(data, len(data), seed=1, epoch=0)
        assert sorted(batch.labels.tolist()) == sorted(data.labels.tolist())

    def test_same_key_same_order(self):
        data = uniform_dataset(4, 3)
        a = batches(data, 5, seed=3, epoch=2)
        b = batches(data, 5, seed=3, epoch=2)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_epoch_changes_order(self):
        data = uniform_dataset(4, 10)
        a = np.concatenate([b.features for b in batches(data, 7, seed=3, epoch=0)])
        b = np.concatenate([b.features for b in batches(data, 7, seed=3, epoch=1)])
        assert not np.array_equal(a, b)

    @given(n=st.integers(1, 40), batch_size=st.integers(1, 40), epoch=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_epoch_covers_every_sample_once(self, n, batch_size, epoch):
        if batch_size > n:
            return
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((n, 2)), np.zeros(n, dtype=int), 2)
        chunks = batches(data, batch_size, seed=5, epoch=epoch)
        stacked = np.concatenate([b.features for b in chunks])
        assert stacked.shape == data.features.shape
        order = np.lexsort(stacked.T)
        base = np.lexsort(data.features.T)
        assert np.array_equal(stacked[order], data.features[base])

    def test_batch_size_bounds(self):
        data = uniform_dataset(2, 2)
        with pytest.raises(ValueError):
            batches(data, 0, seed=0, epoch=0)
        with pytest.raises(ValueError):
            batches(data, 5, seed=0, epoch=0)

    def test_order_follows_numpy_seeding(self):
        # The batch order of README's determinism contract, for keys of any size.
        for seed, epoch in [(0, 0), (3, 7), (2**32 - 1, 2**31), (2**32, 0), (2**64, 5)]:
            (order,) = batch_indices(300, 300, seed, epoch)
            assert np.array_equal(order, np.random.default_rng([seed, epoch]).permutation(300))

    @pytest.mark.parametrize("seed, epoch, error", [(-1, 0, ValueError), (0, -1, ValueError),
                                                    (1.5, 0, TypeError)])
    def test_negative_or_non_integer_key_raises(self, seed, epoch, error):
        with pytest.raises(error):
            batches(uniform_dataset(2, 2), 2, seed=seed, epoch=epoch)
