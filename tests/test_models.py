import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramfed.models import (
    LOGREG,
    MLP,
    Batch,
    ModelArch,
    ModelParams,
    cross_entropy,
    finite_diff_grad,
    forward,
    init_params,
    load_params,
    loss_and_grad,
    save_params,
)


def random_batch(rng, input_dim, num_classes, rows):
    return Batch(
        rng.standard_normal((rows, input_dim)),
        rng.integers(0, num_classes, size=rows),
    )


class TestArchitecture:
    def test_logreg_param_count(self):
        assert ModelArch(LOGREG, 2, 3).num_params == 3 * (2 + 1)

    def test_mlp_param_count_matches_layer_enumeration(self):
        arch = ModelArch(MLP, 784, 10, (128, 128))
        # Independent recount from the layer shapes.
        expected = 0
        dims = [784, 128, 128, 10]
        for fan_in, fan_out in zip(dims, dims[1:]):
            expected += fan_in * fan_out + fan_out
        assert expected == 118_282
        assert arch.num_params == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelArch(LOGREG, 2, 1)
        with pytest.raises(ValueError):
            ModelArch(LOGREG, 0, 3)
        with pytest.raises(ValueError):
            ModelArch(LOGREG, 2, 3, (4,))
        with pytest.raises(ValueError):
            ModelArch(MLP, 2, 3)
        with pytest.raises(ValueError):
            ModelArch("cnn", 2, 3)

    def test_params_length_checked(self):
        arch = ModelArch(LOGREG, 2, 3)
        with pytest.raises(ValueError):
            ModelParams(arch, np.zeros(8))
        with pytest.raises(ValueError):
            ModelParams(arch, np.full(9, np.nan))


class TestInit:
    def test_same_seed_bit_identical(self):
        arch = ModelArch(LOGREG, 2, 3)
        a = init_params(arch, 7)
        b = init_params(arch, 7)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        arch = ModelArch(LOGREG, 2, 3)
        assert not np.array_equal(init_params(arch, 7).values, init_params(arch, 8).values)

    def test_biases_zero_and_weights_scaled(self):
        arch = ModelArch(MLP, 9, 4, (5,))
        params = init_params(arch, 0)
        w1 = params.values[: 9 * 5]
        b1 = params.values[9 * 5 : 9 * 5 + 5]
        assert np.array_equal(b1, np.zeros(5))
        assert np.all(np.abs(w1) <= 1.0 / 3.0)


class TestForward:
    def test_zero_params_zero_logits(self):
        arch = ModelArch(LOGREG, 4, 3)
        params = ModelParams(arch, np.zeros(arch.num_params))
        out = forward(params, np.random.default_rng(0).standard_normal((6, 4)))
        assert np.array_equal(out, np.zeros((6, 3)))

    def test_basis_vector_reads_weight_row(self):
        # For e_1 input and zero bias the logits equal W's first row.
        arch = ModelArch(LOGREG, 3, 3)
        values = np.zeros(arch.num_params)
        values[: 9] = np.arange(9)  # W row-major (3, 3)
        params = ModelParams(arch, values)
        e1 = np.zeros((1, 3))
        e1[0, 0] = 1.0
        assert np.array_equal(forward(params, e1)[0], np.array([0.0, 1.0, 2.0]))

    def test_mlp_zero_hidden_weights_gives_output_bias(self):
        arch = ModelArch(MLP, 4, 3, (5,))
        values = np.zeros(arch.num_params)
        values[-3:] = [0.5, -1.0, 2.0]  # output bias
        params = ModelParams(arch, values)
        out = forward(params, np.random.default_rng(1).standard_normal((7, 4)))
        assert np.allclose(out, np.tile([0.5, -1.0, 2.0], (7, 1)))

    def test_dimension_mismatch_rejected(self):
        arch = ModelArch(LOGREG, 4, 3)
        params = init_params(arch, 0)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 5)))


class TestLossAndGrad:
    def test_zero_params_uniform_softmax(self):
        arch = ModelArch(LOGREG, 2, 3)
        params = ModelParams(arch, np.zeros(9))
        batch = Batch(np.array([[0.3, -0.7]]), np.array([1]))
        loss, grad = loss_and_grad(params, batch)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)
        bias_grad = grad[-3:]
        expected = np.array([1 / 3, 1 / 3 - 1.0, 1 / 3])
        np.testing.assert_allclose(bias_grad, expected, atol=1e-12)

    def test_confident_correct_prediction_loss_near_zero(self):
        arch = ModelArch(LOGREG, 1, 2)
        values = np.array([50.0, -50.0, 0.0, 0.0])  # W pushes class 0 hard
        params = ModelParams(arch, values)
        loss, _ = loss_and_grad(params, Batch(np.array([[1.0]]), np.array([0])))
        assert loss < 1e-12

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        arch = ModelArch(MLP, 5, 3, (4,))
        params = init_params(arch, 1)
        batch = random_batch(rng, 5, 3, 6)
        l1, g1 = loss_and_grad(params, batch)
        l2, g2 = loss_and_grad(params, batch)
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_labels_out_of_range_rejected(self):
        arch = ModelArch(LOGREG, 2, 3)
        params = init_params(arch, 0)
        with pytest.raises(ValueError):
            loss_and_grad(params, Batch(np.zeros((1, 2)), np.array([3])))

    def test_shift_invariance_of_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, size=8)
        base = cross_entropy(logits, labels)
        for c in (-100.0, -1.0, 3.0, 250.0):
            assert cross_entropy(logits + c, labels) == pytest.approx(base, abs=1e-9)


class TestFiniteDifferenceOracle:
    def test_zero_params_bias_gradient_matches_closed_form(self):
        arch = ModelArch(LOGREG, 2, 3)
        params = ModelParams(arch, np.zeros(9))
        batch = Batch(np.array([[0.0, 0.0]]), np.array([2]))
        fd = finite_diff_grad(params, batch, eps=1e-5)
        expected = np.array([1 / 3, 1 / 3, 1 / 3 - 1.0])
        np.testing.assert_allclose(fd[-3:], expected, atol=1e-6)

    def test_symmetric_label_pair_gives_exact_zero(self):
        # Two copies of the same feature, labels 0 and 1, zero params: the
        # loss is an even function of every coordinate, so central
        # differences cancel exactly.
        arch = ModelArch(LOGREG, 2, 2)
        params = ModelParams(arch, np.zeros(arch.num_params))
        batch = Batch(np.array([[0.4, -1.2], [0.4, -1.2]]), np.array([0, 1]))
        fd = finite_diff_grad(params, batch, eps=1e-3)
        assert np.array_equal(fd, np.zeros_like(fd))

    def test_dead_relu_unit_has_zero_gradient_both_ways(self):
        # Drive one hidden unit's pre-activation negative for all samples;
        # its outgoing weight is then a no-op coordinate.
        arch = ModelArch(MLP, 1, 2, (2,))
        params = init_params(arch, 0)
        values = params.values.copy()
        values[0] = -5.0  # weight into unit 0
        values[2] = -5.0  # bias of unit 0
        params = ModelParams(arch, values)
        batch = Batch(np.array([[1.0], [2.0]]), np.array([0, 1]))
        _, grad = loss_and_grad(params, batch)
        fd = finite_diff_grad(params, batch, eps=1e-5)
        out_w0 = 2 * 1 + 2  # offset of unit-0 outgoing weights
        assert grad[out_w0] == 0.0
        assert fd[out_w0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("trial", range(4))
    def test_analytic_matches_central_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        arch = ModelArch(MLP, 6, 4, (7,))
        params = init_params(arch, trial)
        batch = random_batch(rng, 6, 4, 5)
        _, grad = loss_and_grad(params, batch)
        fd = finite_diff_grad(params, batch, eps=1e-5)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(fd[mask] - grad[mask]) / np.abs(grad[mask])
        assert rel.max() < 1e-4

    def test_eps_must_be_positive(self):
        arch = ModelArch(LOGREG, 2, 2)
        params = init_params(arch, 0)
        with pytest.raises(ValueError):
            finite_diff_grad(params, Batch(np.zeros((1, 2)), np.array([0])), eps=0.0)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        arch = ModelArch(MLP, 6, 4, (7, 3))
        params = init_params(arch, 99)
        path = tmp_path / "model.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.arch == arch
        assert np.array_equal(loaded.values, params.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_params(path)

    def test_truncation_rejected(self, tmp_path):
        arch = ModelArch(LOGREG, 2, 2)
        params = init_params(arch, 1)
        path = tmp_path / "model.bin"
        save_params(params, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            load_params(path)

    def test_unknown_kind_byte_names_offset(self, tmp_path):
        path = tmp_path / "model.bin"
        save_params(init_params(ModelArch(LOGREG, 2, 2), 1), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="offset 4"):
            load_params(path)

    def test_truncated_header_names_offset(self, tmp_path):
        path = tmp_path / "model.bin"
        save_params(init_params(ModelArch(LOGREG, 2, 2), 1), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="offset 10"):
            load_params(path)


def _snapshot_bytes(tmp_dir) -> bytes:
    path = tmp_dir / "valid.bin"
    save_params(init_params(ModelArch(MLP, 3, 2, (2, 2)), 5), path)
    return path.read_bytes()


class TestMalformedSnapshots:
    """A damaged snapshot either loads or raises ValueError, nothing else."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncation_or_byte_mutation(self, tmp_path_factory, data):
        tmp_dir = tmp_path_factory.getbasetemp()
        blob = _snapshot_bytes(tmp_dir)
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            damaged = blob[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[at + 1 :]
        path = tmp_dir / "damaged.bin"
        path.write_bytes(damaged)
        try:
            load_params(path)
        except ValueError:
            pass
