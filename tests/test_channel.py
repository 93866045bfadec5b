import numpy as np
import pytest
from scipy import stats

from ramfed.channel import (
    GEOMETRIC,
    TAIL_THREE,
    TAIL_THREE_PROBS,
    RamDistribution,
    RandomAccessChannel,
    make_ram,
    relay,
    sample,
    skewed_weights,
)
from ramfed.risk import cvar_discrete


class TestMakeRam:
    def test_already_normalized_unchanged(self):
        ram = make_ram([0.5, 0.4, 0.1])
        np.testing.assert_allclose(ram.weights, [0.5, 0.4, 0.1], atol=1e-15)

    def test_normalization(self):
        ram = make_ram([2.0, 2.0])
        np.testing.assert_allclose(ram.weights, [0.5, 0.5], atol=1e-15)

    def test_point_mass_is_valid(self):
        ram = make_ram([1.0, 0.0, 0.0])
        assert ram.weights[0] == 1.0

    def test_invalid_weights_rejected(self):
        for bad in ([0.0, 0.0], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0], []):
            with pytest.raises(ValueError):
                make_ram(bad)

    def test_distribution_frozen(self):
        ram = make_ram([0.5, 0.5])
        with pytest.raises(ValueError):
            ram.weights[0] = 0.9


MALFORMED = {"empty": [], "2-D": [[0.5], [0.5]], "negative": [-0.5, 1.5],
             "sum off by 1e-9": [0.5, 0.5 + 1e-9], "NaN": [np.nan, 1.0]}
PROBABILITY_CHECKS = {"make_ram": make_ram, "RamDistribution": RamDistribution,
                      "cvar_discrete": lambda p: cvar_discrete(np.zeros(np.shape(p)), p, 0.5)}


# make_ram takes raw weights and normalizes their sum, so an off sum is legal input to it.
@pytest.mark.parametrize("check, vector", [
    pytest.param(PROBABILITY_CHECKS[c], v, id=f"{c}-{k}")
    for c in PROBABILITY_CHECKS for k, v in MALFORMED.items()
    if (c, k) != ("make_ram", "sum off by 1e-9")])
def test_one_probability_rule_rejects_malformed_vectors(check, vector):
    with pytest.raises(ValueError):
        check(vector)


class TestSample:
    def test_point_mass_always_selected(self):
        ram = make_ram([1.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        assert all(sample(ram, rng) == 0 for _ in range(200))

    def test_single_user(self):
        ram = make_ram([3.0])
        rng = np.random.default_rng(0)
        assert all(sample(ram, rng) == 0 for _ in range(50))

    def test_zero_weight_user_never_selected(self):
        ram = make_ram([0.0, 1.0, 0.0])
        rng = np.random.default_rng(1)
        draws = {sample(ram, rng) for _ in range(500)}
        assert draws == {1}

    def test_law_of_large_numbers(self):
        ram = make_ram([0.5, 0.4, 0.1])
        rng = np.random.default_rng(42)
        draws = np.array([sample(ram, rng) for _ in range(100_000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.all(np.abs(freq - ram.weights) <= 0.01)

    def test_frequencies_within_three_sigma(self):
        ram = make_ram(skewed_weights(30, TAIL_THREE, 0.9))
        rng = np.random.default_rng(7)
        n = 100_000
        draws = np.array([sample(ram, rng) for _ in range(n)])
        freq = np.bincount(draws, minlength=30) / n
        bound = 3.0 * np.sqrt(ram.weights * (1.0 - ram.weights) / n)
        assert np.all(np.abs(freq - ram.weights) <= bound)

    def test_lag_one_independence(self):
        ram = make_ram([0.5, 0.4, 0.1])
        rng = np.random.default_rng(11)
        draws = np.array([sample(ram, rng) for _ in range(100_000)])
        table = np.zeros((3, 3))
        for a, b in zip(draws[:-1], draws[1:]):
            table[a, b] += 1
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3


class TestSkewedWeights:
    def test_tail_three_exact_probabilities(self):
        ram = make_ram(skewed_weights(30, TAIL_THREE, 0.9))
        np.testing.assert_allclose(ram.weights[27:], TAIL_THREE_PROBS, atol=1e-12)
        assert ram.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_geometric_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            skewed_weights(2, GEOMETRIC, 1.0)

    def test_geometric_two_users(self):
        ram = make_ram(skewed_weights(2, GEOMETRIC, 0.5))
        np.testing.assert_allclose(ram.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_geometric_ratios_preserved(self):
        ram = make_ram(skewed_weights(3, GEOMETRIC, 0.8))
        w = ram.weights
        assert w[1] / w[0] == pytest.approx(0.8, abs=1e-12)
        assert w[2] / w[0] == pytest.approx(0.64, abs=1e-12)

    def test_tail_three_needs_four_users(self):
        with pytest.raises(ValueError):
            skewed_weights(3, TAIL_THREE, 0.9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            skewed_weights(5, "uniformish", 0.5)


class TestRelay:
    def test_point_mass_relays_that_user(self):
        ram = make_ram([0.0, 0.0, 1.0])
        rng = np.random.default_rng(0)
        pairs = [(np.zeros(3), 0.0), (np.ones(3), 1.0), (np.full(3, 2.0), 2.0)]
        for _ in range(20):
            idx, pair = relay(ram, rng, pairs)
            assert idx == 2
            assert pair is pairs[2]

    def test_relayed_pair_is_the_input_object(self):
        ram = make_ram([1.0])
        rng = np.random.default_rng(0)
        payload = (np.array([1.5, -2.5]), 0.25)
        _, pair = relay(ram, rng, [payload])
        assert pair is payload

    def test_candidate_count_checked(self):
        ram = make_ram([0.5, 0.5])
        with pytest.raises(ValueError):
            relay(ram, np.random.default_rng(0), [("a", 0.0)])

    def test_reproducible_selection_sequence(self):
        ram = make_ram([0.3, 0.3, 0.4])
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        seq_a = [sample(ram, a) for _ in range(100)]
        seq_b = [sample(ram, b) for _ in range(100)]
        assert seq_a == seq_b

    def test_channel_owns_its_stream(self):
        ram = make_ram([0.3, 0.3, 0.4])
        chan1 = RandomAccessChannel(ram, seed=9)
        chan2 = RandomAccessChannel(ram, seed=9)
        pairs = [("p0", 0.0), ("p1", 0.0), ("p2", 0.0)]
        seq1 = [chan1.relay(pairs)[0] for _ in range(50)]
        seq2 = [chan2.relay(pairs)[0] for _ in range(50)]
        assert seq1 == seq2
