import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ramfed.channel import (
    EXPLICIT,
    GEOMETRIC,
    TAIL_THREE,
    TAIL_THREE_PROBS,
    RandomAccessChannel,
    relay,
    selection_weights,
)
from ramfed.risk import cvar_discrete

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ramfed_reference", ROOT / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def explicit(raw):
    """The normalized weights of an explicit recipe over these raw weights."""
    return selection_weights(EXPLICIT, np.size(raw), weights=raw)


def draws(weights, seed, n):
    channel = RandomAccessChannel(weights, seed)
    return np.array([channel.relay(len(weights)) for _ in range(n)])


class TestMakeRam:
    """Raw weights through the explicit recipe: normalized once, then checked."""

    def test_already_normalized_unchanged(self):
        np.testing.assert_allclose(explicit([0.5, 0.4, 0.1]), [0.5, 0.4, 0.1], atol=1e-15)

    def test_normalization(self):
        np.testing.assert_allclose(explicit([2.0, 2.0]), [0.5, 0.5], atol=1e-15)

    def test_point_mass_is_valid(self):
        assert explicit([1.0, 0.0, 0.0])[0] == 1.0

    def test_invalid_weights_rejected(self):
        for bad in ([0.0, 0.0], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0], []):
            with pytest.raises(ValueError):
                explicit(bad)

    def test_distribution_frozen(self):
        # The channel keeps its own cumulative weights: editing the caller's
        # vector afterwards changes no draw, and its own copy is read-only.
        weights = explicit([0.3, 0.3, 0.4])
        channel = RandomAccessChannel(weights, seed=9)
        weights[:] = [1.0, 0.0, 0.0]
        expected = draws(explicit([0.3, 0.3, 0.4]), 9, 50).tolist()
        assert [channel.relay(3) for _ in range(50)] == expected
        with pytest.raises(ValueError):
            channel.cum_weights[0] = 0.9


MALFORMED = {"empty": [], "2-D": [[0.5], [0.5]], "negative": [-0.5, 1.5],
             "sum off by 1e-9": [0.5, 0.5 + 1e-9], "NaN": [np.nan, 1.0]}
# Rows keep their ids: "make_ram" rows are raw weights of an explicit recipe,
# "RamDistribution" rows are normalized vectors handed to the channel.
PROBABILITY_CHECKS = {"make_ram": explicit,
                      "RamDistribution": lambda p: RandomAccessChannel(p, seed=0),
                      "cvar_discrete": lambda p: cvar_discrete(np.zeros(np.shape(p)), p, 0.5)}


# An explicit recipe takes raw weights and normalizes their sum, so an off sum is legal input to it.
@pytest.mark.parametrize("check, vector", [
    pytest.param(PROBABILITY_CHECKS[c], v, id=f"{c}-{k}")
    for c in PROBABILITY_CHECKS for k, v in MALFORMED.items()
    if (c, k) != ("make_ram", "sum off by 1e-9")])
def test_one_probability_rule_rejects_malformed_vectors(check, vector):
    with pytest.raises(ValueError):
        check(vector)


class TestSample:
    """Inverse-CDF draws of the channel, one uniform each."""

    def test_point_mass_always_selected(self):
        assert set(draws(explicit([1.0, 0.0, 0.0]), 0, 200)) == {0}

    def test_single_user(self):
        assert set(draws(explicit([3.0]), 0, 50)) == {0}

    def test_zero_weight_user_never_selected(self):
        assert set(draws(explicit([0.0, 1.0, 0.0]), 1, 500)) == {1}

    @pytest.mark.parametrize("raw, last_positive", [([0.05] * 19 + [0.0], 18),
                                                    ([0.1] * 10 + [0.0], 9)])
    def test_draw_past_a_short_total_skips_a_zero_weight_user(self, raw, last_positive):
        class TopOfTheUnitInterval:
            def random(self):
                return np.nextafter(1.0, 0.0)

        cum = RandomAccessChannel(explicit(raw), seed=0).cum_weights
        assert cum[-1] <= TopOfTheUnitInterval().random()  # rounding left the total short of 1
        assert relay(cum, TopOfTheUnitInterval(), len(raw)) == last_positive

    def test_law_of_large_numbers(self):
        weights = explicit([0.5, 0.4, 0.1])
        picks = draws(weights, 42, 100_000)
        freq = np.bincount(picks, minlength=3) / picks.size
        assert np.all(np.abs(freq - weights) <= 0.01)

    def test_frequencies_within_three_sigma(self):
        weights = selection_weights(TAIL_THREE, 30)
        n = 100_000
        freq = np.bincount(draws(weights, 7, n), minlength=30) / n
        bound = 3.0 * np.sqrt(weights * (1.0 - weights) / n)
        assert np.all(np.abs(freq - weights) <= bound)

    def test_lag_one_independence(self):
        picks = draws(explicit([0.5, 0.4, 0.1]), 11, 100_000)
        table = np.zeros((3, 3))
        for a, b in zip(picks[:-1], picks[1:]):
            table[a, b] += 1
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3


class TestSkewedWeights:
    def test_tail_three_exact_probabilities(self):
        weights = selection_weights(TAIL_THREE, 30, 0.9)
        np.testing.assert_allclose(weights[27:], TAIL_THREE_PROBS, atol=1e-12)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_geometric_ratio_one_rejected(self):
        with pytest.raises(ValueError, match="param = 1.0"):
            selection_weights(GEOMETRIC, 2, 1.0)

    def test_tail_three_head_ratio_above_one_rejected(self):
        with pytest.raises(ValueError, match="param = 1.5"):
            selection_weights(TAIL_THREE, 5, 1.5)

    def test_geometric_two_users(self):
        np.testing.assert_allclose(selection_weights(GEOMETRIC, 2, 0.5), [2 / 3, 1 / 3],
                                   atol=1e-15)

    def test_geometric_ratios_preserved(self):
        w = selection_weights(GEOMETRIC, 3, 0.8)
        assert w[1] / w[0] == pytest.approx(0.8, abs=1e-12)
        assert w[2] / w[0] == pytest.approx(0.64, abs=1e-12)

    def test_geometric_needs_two_users(self):
        with pytest.raises(ValueError, match="num_users >= 2"):
            selection_weights(GEOMETRIC, 1, 0.9)

    def test_tail_three_needs_four_users(self):
        with pytest.raises(ValueError, match="num_users >= 4"):
            selection_weights(TAIL_THREE, 3, 0.9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            selection_weights("uniformish", 5, 0.5)


class TestAgainstReference:
    """The recipes and the draw against `bench/reference.py`, which never imports ramfed."""

    @pytest.mark.parametrize("kind, param", [(GEOMETRIC, 0.85), (TAIL_THREE, 0.9)])
    @pytest.mark.parametrize("num_users", [4, 10, 30])
    def test_skew_weights_are_the_reference_bytes(self, kind, param, num_users):
        ours = selection_weights(kind, num_users, param)
        assert ours.tobytes() == reference.selection_weights(kind, num_users, param).tobytes()

    def test_explicit_weights_are_the_reference_bytes(self):
        raw = [0.3, 0.05, 0.2, 0.45, 0.7]
        assert (explicit(raw).tobytes()
                == reference.selection_weights("explicit", 5, weights=raw).tobytes())

    def test_draws_are_the_reference_replay(self):
        weights = selection_weights(TAIL_THREE, 30, 0.9)
        expected = reference.replay_selections(weights, 2027, 10_000)
        assert draws(weights, 2027, 10_000).tolist() == expected.tolist()


class TestRelay:
    def test_point_mass_relays_that_user(self):
        channel = RandomAccessChannel(explicit([0.0, 0.0, 1.0]), seed=0)
        assert all(channel.relay(3) == 2 for _ in range(20))

    def test_candidate_count_checked(self):
        with pytest.raises(ValueError):
            RandomAccessChannel(explicit([0.5, 0.5]), seed=0).relay(1)

    def test_one_draw_per_relay(self):
        # One uniform per round: relay k reads the k-th uniform of the stream.
        weights = explicit([0.3, 0.3, 0.4])
        u = np.random.default_rng(5).random(100)
        expected = np.searchsorted(np.cumsum(weights), u, side="right").tolist()
        assert draws(weights, 5, 100).tolist() == expected

    def test_reproducible_selection_sequence(self):
        weights = explicit([0.3, 0.3, 0.4])
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        cum = np.cumsum(weights)
        assert [relay(cum, a, 3) for _ in range(100)] == [relay(cum, b, 3) for _ in range(100)]

    def test_channel_owns_its_stream(self):
        weights = explicit([0.3, 0.3, 0.4])
        assert draws(weights, 9, 50).tolist() == draws(weights, 9, 50).tolist()
