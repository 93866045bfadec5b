import inspect
from dataclasses import replace

import numpy as np
import pytest

import ramfed.channel
import ramfed.training
from ramfed.channel import EXPLICIT, RandomAccessChannel, selection_weights
from ramfed.data import Dataset, PartitionSpec, batches, gen_synthetic_2d, partition_heterogeneous
from ramfed.models import (LOGREG, MLP, ModelArch, ModelParams, cross_entropy, forward,
                           init_params, loss_and_grad)
from ramfed.risk import RiskConfig, composite_grads
from ramfed.training import (
    INITIAL_THRESHOLD,
    DivergenceError,
    GlobalState,
    RunHistory,
    Seeds,
    TrainConfig,
    evaluate,
    local_update,
    run_round,
    selection_frequencies,
    shard_loss,
    train,
    user_shuffle_seed,
)

ARCH3 = ModelArch(LOGREG, 2, 3)


def make_config(alpha=0.1, gamma=0.1, rounds=20, epochs=2, batch=32,
                lr_theta=0.05, lr_t=0.005, seeds=(3, 7, 13), arch=ARCH3):
    return TrainConfig(
        arch=arch, global_rounds=rounds, local_epochs=epochs,
        batch_size=batch, lr_theta=lr_theta, lr_t=lr_t,
        risk=RiskConfig(alpha, gamma), seeds=Seeds(*seeds),
    )


def fig_fixture(seed=11, per_class=60, spread=0.4):
    data = gen_synthetic_2d(3, per_class, spread, seed)
    shards = partition_heterogeneous(data, PartitionSpec(3, 67, 67, seed=seed + 1))
    test = gen_synthetic_2d(3, per_class, spread, seed + 500)
    return shards, test


def ram_channel(weights, cfg):
    """The channel a run over these raw weights relays through."""
    return RandomAccessChannel(selection_weights(EXPLICIT, len(weights), weights=weights),
                               cfg.seeds.ram)


class ScriptedChannel:
    """Relay-only stand-in cycling through a fixed selection script."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def relay(self, num_candidates):
        idx = self.script[self.calls % len(self.script)]
        self.calls += 1
        return idx


class RecordingChannel(ScriptedChannel):
    """A scripted channel that keeps the candidate count of each relay."""

    def __init__(self, script):
        super().__init__(script)
        self.asked = []

    def relay(self, num_candidates):
        self.asked.append(num_candidates)
        return super().relay(num_candidates)


class TestConfigValidation:
    def test_seed_nonnegative(self):
        with pytest.raises(ValueError):
            Seeds(-1, 0, 0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_config(rounds=-1)
        with pytest.raises(ValueError):
            make_config(epochs=0)
        with pytest.raises(ValueError):
            make_config(lr_theta=-0.1)
        make_config(rounds=0, lr_theta=0.0)  # degenerate but legal


class TestLocalUpdate:
    def test_zero_learning_rates_are_identity(self):
        shards, _ = fig_fixture()
        cfg = make_config(lr_theta=0.0, lr_t=0.0)
        start = init_params(ARCH3, 5)
        out_params, out_t = local_update(shards[0], 0, start, 0.4, cfg)
        assert np.array_equal(out_params.values, start.values)
        assert out_t == 0.4

    def test_gamma_one_freezes_t_and_matches_plain_sgd(self):
        shards, _ = fig_fixture()
        cfg = make_config(alpha=0.3, gamma=1.0, epochs=2)
        start = init_params(ARCH3, 5)
        out_params, out_t = local_update(shards[1], 1, start, 0.7, cfg)
        assert out_t == 0.7

        theta = start.values.copy()
        seed = user_shuffle_seed(cfg.seeds.shuffle, 1)
        for epoch in range(cfg.local_epochs):
            for b in batches(shards[1], cfg.batch_size, seed, epoch):
                _, grad = loss_and_grad(ModelParams(ARCH3, theta), b)
                theta -= cfg.lr_theta * grad
        assert np.array_equal(out_params.values, theta)

    def test_hand_computed_single_step(self):
        # One sample, zero params, C=2: softmax is exactly (1/2, 1/2), the
        # loss is ln 2 > t, so the hinge is active.
        arch = ModelArch(LOGREG, 2, 2)
        data = Dataset(np.array([[1.0, 2.0]]), np.array([0]), 2)
        start = ModelParams(arch, np.zeros(arch.num_params))
        cfg = make_config(alpha=0.5, gamma=0.2, epochs=1, batch=1,
                          lr_theta=0.1, lr_t=0.01, arch=arch)
        out_params, out_t = local_update(data, 0, start, 0.3, cfg)

        grad_hand = np.array([-0.5, 0.5, -1.0, 1.0, -0.5, 0.5])
        scale = (1.0 - 0.2) * 1.0 / 0.5 + 0.2
        expected_theta = -0.1 * (scale * grad_hand)
        expected_t = 0.3 - 0.01 * ((1.0 - 0.2) * (1.0 - 1.0 / 0.5))
        np.testing.assert_allclose(out_params.values, expected_theta, atol=1e-12)
        assert out_t == pytest.approx(expected_t, abs=1e-12)

    def test_deterministic(self):
        shards, _ = fig_fixture()
        cfg = make_config()
        start = init_params(ARCH3, 5)
        a_params, a_t = local_update(shards[2], 2, start, 0.0, cfg, epoch_offset=6)
        b_params, b_t = local_update(shards[2], 2, start, 0.0, cfg, epoch_offset=6)
        assert np.array_equal(a_params.values, b_params.values)
        assert a_t == b_t


def reference_update(shard, user_id, theta_in, t_in, cfg, epoch_offset):
    """Independent step loop over the public pieces: batches, loss_and_grad, composite_grads.

    Returns ((theta, t), None), or (None, epoch) for the local epoch of the
    first step whose loss, t or theta is non-finite.
    """
    theta, t = theta_in.values.copy(), t_in
    seed = user_shuffle_seed(cfg.seeds.shuffle, user_id)
    size = min(cfg.batch_size, len(shard))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.local_epochs):
            for batch in batches(shard, size, seed, epoch_offset + epoch):
                f, grad_f = loss_and_grad(ModelParams(cfg.arch, theta), batch)
                grad_theta, grad_t = composite_grads(f, grad_f, t, cfg.risk)
                theta = theta - cfg.lr_theta * grad_theta
                t = t - cfg.lr_t * grad_t
                if not (np.isfinite(f) and np.isfinite(t) and np.isfinite(theta).all()):
                    return None, epoch
    return (theta, t), None


class TestStepOracle:
    """local_update is bit-identical to the reference step loop: 3 epochs from
    a nonzero epoch offset over 13 rows in batches of 5, 5 and 3."""

    @staticmethod
    def case(arch, gamma, lr_theta):
        cfg = make_config(alpha=0.3, gamma=gamma, epochs=3, batch=5, lr_theta=lr_theta,
                          lr_t=0.3, arch=arch)
        start = init_params(arch, 5)
        shard = gen_synthetic_2d(3, 5, 0.6, 4).take(np.arange(13))
        return shard, start, cfg

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("arch", [ARCH3, ModelArch(MLP, 2, 3, (4, 2))], ids=["logreg", "mlp"])
    def test_matches_reference_bit_for_bit(self, arch, gamma):
        shard, start, cfg = self.case(arch, gamma, lr_theta=0.4)
        (theta, t), diverged = reference_update(shard, 2, start, 0.9, cfg, epoch_offset=7)
        out_params, out_t = local_update(shard, 2, start, 0.9, cfg, epoch_offset=7)
        assert diverged is None
        assert out_params.values.tobytes() == theta.tobytes()
        assert out_t == t
        assert not np.array_equal(theta, start.values)

    def test_divergence_matches_reference(self):
        shard, start, cfg = self.case(ModelArch(MLP, 2, 3, (4, 2)), 0.3, lr_theta=1e150)
        result, epoch = reference_update(shard, 2, start, 0.9, cfg, epoch_offset=7)
        assert result is None
        with pytest.raises(DivergenceError) as info:
            local_update(shard, 2, start, 0.9, cfg, epoch_offset=7)
        assert (info.value.user_id, info.value.epoch) == (2, epoch)


def mixed_users(lengths=(13, 13, 7, 13, 7)):
    """Users with distinct rows and two shard lengths; batches of 5 leave short last
    batches of 3 and 2 rows."""
    pool = gen_synthetic_2d(3, 20, 0.6, 4)
    rows = np.random.default_rng(8).permutation(len(pool))
    users, start = [], 0
    for n in lengths:
        users.append(pool.take(rows[start : start + n]))
        start += n
    return users


ARCHS = pytest.mark.parametrize("arch", [ARCH3, ModelArch(MLP, 2, 3, (4, 2))],
                                ids=["logreg", "mlp"])


class TestStackedUpdates:
    """Rounds relay updates stacked on one another, each with the bytes of the
    selected user's reference step loop from the last broadcast: the channel names
    every user in turn, or user 2 (7 rows, a short last batch) every round."""

    @pytest.mark.parametrize("repeated_user", [None, 2])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    @ARCHS
    def test_round_matches_reference_bit_for_bit(self, arch, gamma, repeated_user):
        cfg = make_config(alpha=0.3, gamma=gamma, epochs=3, batch=5, lr_theta=0.4,
                          lr_t=0.3, arch=arch)
        users = mixed_users()
        script = (list(range(len(users))) if repeated_user is None
                  else [repeated_user] * len(users))
        channel = ScriptedChannel(script)
        state = GlobalState(3, init_params(arch, 5), 0.9, users, RunHistory())
        for selected in script:
            start, epoch_offset = state.theta_global, (state.round - 1) * cfg.local_epochs
            (theta, t), diverged = reference_update(users[selected], selected, start,
                                                    state.t_global, cfg, epoch_offset)
            run_round(state, channel, cfg)
            assert diverged is None
            assert state.theta_global.values.tobytes() == theta.tobytes()
            assert state.t_global == t
            assert state.history.rounds[-1].selected_user == selected
            assert not np.array_equal(theta, start.values)


def eager_run(users, weights, cfg):
    """An independent eager engine: the channel's relay, then each user's
    reference step loop from the relayed pair, one user after another.

    Returns the selections, and per round the relayed t and the loss of the
    relayed theta on the selected user's shard, and the last relayed theta."""
    channel = ram_channel(weights, cfg)
    theta0 = init_params(cfg.arch, cfg.seeds.init)
    pairs = [(theta0.values, INITIAL_THRESHOLD)] * len(users)
    selections, thresholds, losses = [], [], []
    for r in range(cfg.global_rounds):
        selected = channel.relay(len(users))
        theta_g, t_g = pairs[selected]
        data = users[selected]
        selections.append(selected)
        thresholds.append(t_g)
        losses.append(cross_entropy(forward(ModelParams(cfg.arch, theta_g), data.features),
                                    data.labels))
        pairs = []
        for user_id, user in enumerate(users):
            pair, diverged = reference_update(user, user_id, ModelParams(cfg.arch, theta_g), t_g,
                                              cfg, r * cfg.local_epochs)
            assert diverged is None
            pairs.append(pair)
    return selections, thresholds, losses, theta_g


class TestWholeRunReplay:
    """40 rounds of train() against the eager engine, compared in bytes, which
    a relative tolerance would not: it also catches one-ulp changes."""

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    @ARCHS
    def test_forty_rounds_match_bit_for_bit(self, arch, gamma):
        cfg = make_config(alpha=0.3, gamma=gamma, rounds=40, epochs=2, batch=5,
                          lr_theta=0.2, lr_t=0.05, arch=arch)
        users = mixed_users()
        weights = [0.3, 0.25, 0.2, 0.15, 0.1]
        state, history = train(users, ram_channel(weights, cfg), cfg)
        selections, thresholds, losses, theta = eager_run(users, weights, cfg)
        assert history.selections() == selections
        assert [r.t_global for r in history.rounds] == thresholds
        assert [r.train_loss_selected for r in history.rounds] == losses
        assert state.theta_global.values.tobytes() == theta.tobytes()


class TestRunRound:
    def test_single_user_reduces_to_centralized(self):
        data = gen_synthetic_2d(3, 30, 0.4, 1)
        cfg = make_config()
        state, history = train([data], ram_channel([1.0], cfg), cfg)
        assert all(rec.selected_user == 0 for rec in history.rounds)

    def test_point_mass_always_relays_that_user(self):
        shards, _ = fig_fixture()
        cfg = make_config(rounds=10)
        state, history = train(shards, ram_channel([0.0, 0.0, 1.0], cfg), cfg)
        assert all(rec.selected_user == 2 for rec in history.rounds)

    def test_broadcast_fidelity_under_zero_steps(self):
        # With zero learning rates every relayed pair is bit-equal to the
        # initial pair, proving each update started from the broadcast.
        shards, _ = fig_fixture()
        cfg = make_config(lr_theta=0.0, lr_t=0.0, rounds=4)
        theta0 = init_params(ARCH3, cfg.seeds.init)
        channel = ram_channel([0.5, 0.4, 0.1], cfg)
        state, _ = train(shards, channel, replace(cfg, global_rounds=0))
        for _ in range(cfg.global_rounds):
            run_round(state, channel, cfg)
            assert state.theta_global.values.tobytes() == theta0.values.tobytes()
            assert state.t_global == INITIAL_THRESHOLD

    def test_relay_reads_the_rows_the_last_round_wrote(self):
        # Round 1 relays the initial pair; every later round relays the selected
        # user's update from the previous round's broadcast.
        shards, _ = fig_fixture()
        cfg = make_config(rounds=4)
        channel = RecordingChannel([2, 0, 1, 0])
        state, _ = train(shards, channel, replace(cfg, global_rounds=0))
        theta0 = init_params(ARCH3, cfg.seeds.init)
        expected = theta0.values.tobytes(), INITIAL_THRESHOLD
        for r, selected in enumerate([2, 0, 1, 0]):
            broadcast = state.theta_global, state.t_global
            run_round(state, channel, cfg)
            if r > 0:
                params, t = local_update(state.users[selected], selected, *broadcast, cfg,
                                         (r - 1) * cfg.local_epochs)
                expected = params.values.tobytes(), t
            assert (state.theta_global.values.tobytes(), state.t_global) == expected
            assert type(state.t_global) is float
            assert state.history.rounds[-1].selected_user == selected
        assert channel.asked == [3] * 4
        assert state.theta_global.values.tobytes() != theta0.values.tobytes()

    def test_diverged_round_leaves_the_state(self):
        shards, _ = fig_fixture()
        cfg = make_config(rounds=2)
        state, _ = train(shards, ScriptedChannel([2, 0]), cfg)
        theta, t = state.theta_global.values.copy(), state.t_global
        rounds = list(state.history.rounds)
        with pytest.raises(DivergenceError) as info:
            run_round(state, ScriptedChannel([2]), replace(cfg, lr_theta=1e308))
        assert (info.value.round_index, info.value.user_id) == (2, 2)
        assert info.value.history is state.history
        assert state.round == 2
        assert state.theta_global.values.tobytes() == theta.tobytes()
        assert state.t_global == t
        assert state.history.rounds == rounds

    def test_only_the_relayed_update_is_computed(self, monkeypatch):
        updated = []
        real = ramfed.training.local_update

        def counting(shard, user_id, *args):
            updated.append(user_id)
            return real(shard, user_id, *args)

        monkeypatch.setattr(ramfed.training, "local_update", counting)
        shards, _ = fig_fixture()
        _, history = train(shards, ScriptedChannel([2, 0, 1, 1, 0]), make_config(rounds=5))
        assert updated == history.selections()[1:] == [0, 1, 1, 0]

    def test_bit_identical_history_across_runs(self):
        shards, _ = fig_fixture()
        cfg = make_config(rounds=15)
        _, h1 = train(shards, ram_channel([0.5, 0.4, 0.1], cfg), cfg)
        _, h2 = train(shards, ram_channel([0.5, 0.4, 0.1], cfg), cfg)
        assert h1.selections() == h2.selections()
        for a, b in zip(h1.rounds, h2.rounds):
            assert a.t_global == b.t_global
            assert a.train_loss_selected == b.train_loss_selected


class TestTrain:
    def test_zero_rounds(self):
        shards, _ = fig_fixture()
        cfg = make_config(rounds=0)
        state, history = train(shards, ram_channel([0.5, 0.4, 0.1], cfg), cfg)
        assert history.rounds == []
        theta0 = init_params(ARCH3, cfg.seeds.init)
        assert np.array_equal(state.theta_global.values, theta0.values)

    def test_shard_count_checked(self):
        shards, _ = fig_fixture()
        cfg = make_config()
        with pytest.raises(ValueError):
            train(shards, ram_channel([0.25] * 4, cfg), cfg)

    def test_gamma_one_matches_reference_fedavg(self):
        # Independent risk-neutral reference: plain SGD on the batch loss,
        # sharing the relay draws and batch order with the engine.
        shards, _ = fig_fixture()
        cfg = make_config(alpha=1.0, gamma=1.0, rounds=30, epochs=2)
        weights = np.array([0.5, 0.4, 0.1])

        state, history = train(shards, ram_channel(weights, cfg), cfg)

        thetas = [init_params(ARCH3, cfg.seeds.init).values.copy() for _ in shards]
        rng = np.random.default_rng(cfg.seeds.ram)
        cum = np.cumsum(weights / weights.sum())
        final_global = None
        for n in range(cfg.global_rounds):
            sel = min(int(np.searchsorted(cum, rng.random(), side="right")), 2)
            broadcast = thetas[sel].copy()
            final_global = broadcast
            for i, shard in enumerate(shards):
                th = broadcast.copy()
                seed = user_shuffle_seed(cfg.seeds.shuffle, i)
                for h in range(cfg.local_epochs):
                    for b in batches(shard, cfg.batch_size, seed, n * cfg.local_epochs + h):
                        _, grad = loss_and_grad(ModelParams(ARCH3, th), b)
                        th -= cfg.lr_theta * grad
                thetas[i] = th

        diff = np.abs(state.theta_global.values - final_global).max()
        assert diff <= 1e-12
        assert state.t_global == 0.0

    def test_labels_checked_before_any_relay(self):
        shards, _ = fig_fixture()
        labels = shards[2].labels.copy()
        labels[0] = ARCH3.num_classes
        bad = Dataset(shards[2].features, labels, ARCH3.num_classes + 1)
        channel = ScriptedChannel([0])
        with pytest.raises(ValueError, match="labels"):
            train([shards[0], shards[1], bad], channel, make_config())
        assert channel.calls == 0

    def test_feature_width_checked_before_any_relay(self):
        shards, _ = fig_fixture()
        wide = Dataset(np.hstack([shards[1].features, shards[1].features]), shards[1].labels,
                       ARCH3.num_classes)
        channel = RecordingChannel([0])
        with pytest.raises(ValueError, match="feature matrix"):
            train([shards[0], wide, shards[2]], channel, make_config())
        assert channel.asked == []

    def test_labels_checked_once_per_shard_per_run(self, monkeypatch):
        checked = []
        monkeypatch.setattr(ramfed.training, "check_labels",
                            lambda labels, arch: checked.append(len(labels)))
        shards, _ = fig_fixture()
        train(shards, ScriptedChannel([0, 1, 2]), make_config(rounds=4))
        assert checked == [len(shard) for shard in shards]

    def test_divergence_error_carries_context_and_history(self):
        shards, _ = fig_fixture()
        cfg = make_config(lr_theta=1e308, rounds=5)
        with pytest.raises(DivergenceError) as exc_info:
            train(shards, ram_channel([0.5, 0.4, 0.1], cfg), cfg)
        err = exc_info.value
        assert err.round_index >= 1
        assert 0 <= err.user_id < 3
        assert err.history is not None
        assert "round" in str(err) and "user" in str(err)


class TestEvaluate:
    def test_constant_predictor(self):
        arch = ModelArch(LOGREG, 2, 3)
        values = np.zeros(arch.num_params)
        values[-3] = 10.0  # bias pushes class 0
        test = gen_synthetic_2d(3, 40, 0.4, 2)
        metrics = evaluate(ModelParams(arch, values), test)
        np.testing.assert_allclose(metrics.per_class_acc, [1.0, 0.0, 0.0])

    def test_perfect_predictor_on_tight_blobs(self):
        shards, test = fig_fixture(spread=0.1)
        cfg = make_config(rounds=60)
        state, _ = train(shards, ram_channel([0.4, 0.4, 0.2], cfg), cfg)
        metrics = evaluate(state.theta_global, test)
        assert metrics.overall_acc == 1.0
        np.testing.assert_allclose(metrics.per_class_acc, 1.0)

    def test_uniform_labels_against_fixed_predictor(self):
        # Uniformly random labels against any fixed predictor: accuracy is
        # 1/C up to Monte Carlo error. Frozen at this seed.
        rng = np.random.default_rng(123)
        features = rng.standard_normal((10_000, 2))
        labels = rng.integers(0, 10, size=10_000)
        test = Dataset(features, labels, 10)
        arch = ModelArch(LOGREG, 2, 10)
        metrics = evaluate(init_params(arch, 0), test)
        assert abs(metrics.overall_acc - 0.1) <= 0.01

    def test_absent_class_reported_as_nan(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0]])
        test = Dataset(features, np.array([0, 1]), num_classes=3)
        metrics = evaluate(init_params(ModelArch(LOGREG, 2, 3), 1), test)
        assert np.isnan(metrics.per_class_acc[2])


class TestChannelOpacity:
    def test_training_source_never_reads_weights(self):
        source = inspect.getsource(ramfed.training)
        assert ".weights" not in source
        assert "selection_weights" not in source
        assert "cum_weights" not in source

    def test_training_holds_nothing_from_the_channel_module(self):
        held = [name for name, value in vars(ramfed.training).items()
                if value is ramfed.channel
                or getattr(value, "__module__", None) == ramfed.channel.__name__]
        assert held == []

    def test_relay_only_stand_in_drives_training(self):
        shards, _ = fig_fixture()
        cfg = make_config(rounds=6)
        channel = ScriptedChannel([0, 1, 2])
        state, history = train(shards, channel, cfg)
        assert history.selections() == [0, 1, 2, 0, 1, 2]
        assert channel.calls == 6


class TestDiagnostics:
    def test_selection_frequencies(self):
        shards, _ = fig_fixture()
        cfg = make_config(rounds=10)
        _, history = train(shards, ScriptedChannel([0, 0, 1, 2, 0]), cfg)
        freq = selection_frequencies(history, 3)
        np.testing.assert_allclose(freq, [0.6, 0.2, 0.2])

    def test_equalization_tendency_across_seeds(self):
        # Risk-aware training should shrink the spread of per-user losses
        # relative to the risk-neutral run, on average over seeds.
        def final_loss_std(alpha, gamma, seed):
            data = gen_synthetic_2d(3, 90, 1.0, seed)
            shards = partition_heterogeneous(data, PartitionSpec(3, 67, 67, seed=seed + 1))
            cfg = make_config(alpha=alpha, gamma=gamma, rounds=150, epochs=2,
                              batch=90, lr_theta=0.01, lr_t=0.001,
                              seeds=(seed, seed + 1, seed + 2))
            state, _ = train(shards, ram_channel([0.5, 0.4, 0.1], cfg), cfg)
            losses = [shard_loss(state.theta_global, s) for s in state.users]
            return float(np.std(losses))

        seeds = range(10)
        risk_stds = [final_loss_std(0.1, 0.1, s) for s in seeds]
        neutral_stds = [final_loss_std(1.0, 1.0, s) for s in seeds]
        assert np.mean(risk_stds) < np.mean(neutral_stds)
