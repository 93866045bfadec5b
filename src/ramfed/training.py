"""Federated round engine: relay, broadcast, local SGD on the composite loss.

Each round the channel relays one user's (theta, t) pair, the pair becomes
the global state, and every user then runs H local epochs of joint
(theta, t) SGD starting from that broadcast. The risk-neutral baseline is
the gamma = 1 special case of the same loop; no separate code path exists.

This module never reads the channel's selection weights. It drives any
object exposing ``relay(candidates) -> (index, candidate)``, which is what
keeps the selection distribution invisible to the training path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import RandomAccessChannel, make_ram
from .data import Dataset, batch_indices
from .models import (ModelParams, _loss_and_grad_into, check_labels, cross_entropy, forward,
                     init_params, split_layers)
from .risk import RiskConfig, composite_grads

INITIAL_THRESHOLD = 0.0  # below ln C, so the hinge is active from the start


class DivergenceError(RuntimeError):
    """A step's loss or parameters went non-finite; carries where, plus the partial history."""

    def __init__(self, round_index: int, user_id: int, epoch: int):
        super().__init__()
        self.round_index = round_index
        self.user_id = user_id
        self.epoch = epoch
        self.history: "RunHistory | None" = None

    def __str__(self) -> str:
        return (
            f"non-finite loss or parameters at round {self.round_index}, "
            f"user {self.user_id}, epoch {self.epoch}"
        )


@dataclass(frozen=True)
class Seeds:
    """Independent streams: model init, channel selection, batch shuffling."""

    init: int = 0
    ram: int = 1
    shuffle: int = 2

    def __post_init__(self):
        for name in ("init", "ram", "shuffle"):
            if getattr(self, name) < 0:
                raise ValueError(f"seed {name} must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    arch: ModelArch
    global_rounds: int
    local_epochs: int
    lr_theta: float
    lr_t: float
    risk: RiskConfig
    seeds: Seeds
    batch_size: int = 64

    def __post_init__(self):
        if self.global_rounds < 0:
            raise ValueError("global_rounds must be >= 0")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("lr_theta", "lr_t"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass
class UserShard:
    """One user's private data and its current local (theta, t)."""

    user_id: int
    data: Dataset
    params: ModelParams
    t_local: float


@dataclass
class RoundRecord:
    round: int
    selected_user: int
    t_global: float
    train_loss_selected: float


@dataclass
class EvalRecord:
    round: int
    overall_acc: float
    per_class_acc: np.ndarray
    global_t: float
    selection_freq: np.ndarray


@dataclass
class RunHistory:
    rounds: list[RoundRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)

    def selections(self) -> list[int]:
        return [r.selected_user for r in self.rounds]


@dataclass
class GlobalState:
    round: int
    theta_global: ModelParams
    t_global: float
    users: list[UserShard]
    history: RunHistory


@dataclass
class Metrics:
    overall_acc: float
    per_class_acc: np.ndarray  # NaN for classes absent from the test set


def user_shuffle_seed(shuffle_seed: int, user_id: int) -> int:
    """Stable per-user batching seed derived from the run-level seed."""
    return int(np.random.SeedSequence([shuffle_seed, user_id]).generate_state(1)[0])


def local_update(shard: UserShard, theta_in: ModelParams, t_in: float,
                 cfg: TrainConfig, epoch_offset: int = 0) -> tuple[ModelParams, float]:
    """H local epochs of joint (theta, t) SGD from the broadcast pair.

    Both gradients of a step are evaluated at the same pre-step point, so
    theta and t move simultaneously. Deterministic given the config seeds;
    ``epoch_offset`` keys the shuffle so batch order differs across rounds.
    The broadcast (by the copy) and the shard's labels are validated once;
    each step runs on raw arrays, with layer views made here, and checks the
    batch loss, t and theta for finiteness, the run's one divergence check,
    so NumPy's overflow and invalid-value warnings are silenced here.
    """
    params = theta_in.copy()
    theta = params.values
    t = t_in
    xs, ys = shard.data.features, shard.data.labels
    check_labels(ys, params.arch)
    layers = split_layers(params.arch, theta)
    grad = np.empty(theta.size)
    grad_layers = split_layers(params.arch, grad)
    seed = user_shuffle_seed(cfg.seeds.shuffle, shard.user_id)
    batch_size = min(cfg.batch_size, len(ys))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.local_epochs):
            for idx in batch_indices(len(ys), batch_size, seed, epoch_offset + epoch):
                f = _loss_and_grad_into(layers, grad_layers, xs[idx], ys[idx])
                grad_theta, grad_t = composite_grads(f, grad, t, cfg.risk)
                theta -= cfg.lr_theta * grad_theta
                t -= cfg.lr_t * grad_t
                if not (np.isfinite(f) and np.isfinite(t) and np.all(np.isfinite(theta))):
                    raise DivergenceError(-1, shard.user_id, epoch)
    return params, t


def shard_loss(params: ModelParams, data: Dataset) -> float:
    """Mean cross-entropy of a model over a full shard."""
    return cross_entropy(forward(params, data.features), data.labels)


def evaluate(params: ModelParams, test: Dataset) -> Metrics:
    """Overall and per-class argmax accuracy; absent classes report NaN."""
    predictions = forward(params, test.features).argmax(axis=1)
    correct = predictions == test.labels
    per_class = np.full(test.num_classes, np.nan)
    for c in range(test.num_classes):
        mask = test.labels == c
        if mask.any():
            per_class[c] = float(correct[mask].mean())
    return Metrics(float(correct.mean()), per_class)


def run_round(state: GlobalState, channel, cfg: TrainConfig) -> GlobalState:
    """One global round: relay, broadcast, local updates, log.

    Selection happens before the round's local updates, over the pairs the
    users forwarded at the end of the previous round. Each user's update is
    a pure function of its shard and the broadcast pair.
    """
    candidates = [(u.params, u.t_local) for u in state.users]
    selected, (theta_g, t_g) = channel.relay(candidates)
    state.theta_global = theta_g
    state.t_global = t_g
    train_loss = shard_loss(theta_g, state.users[selected].data)

    epoch_offset = state.round * cfg.local_epochs
    try:
        results = [local_update(u, theta_g, t_g, cfg, epoch_offset) for u in state.users]
    except DivergenceError as err:
        err.round_index = state.round + 1
        err.history = state.history
        raise
    for user, (params, t) in zip(state.users, results):
        user.params = params
        user.t_local = t

    state.round += 1
    state.history.rounds.append(
        RoundRecord(state.round, selected, t_g, train_loss)
    )
    return state


def selection_frequencies(history: RunHistory, num_users: int) -> np.ndarray:
    counts = np.bincount(history.selections(), minlength=num_users).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def train(datasets: list[Dataset], ram_weights, cfg: TrainConfig,
          eval_data: Dataset | None = None, eval_every: int = 0) -> tuple[GlobalState, RunHistory]:
    """Run the full round loop over pre-partitioned user datasets.

    ``ram_weights`` is either a raw weight vector (a channel is built from
    it with the dedicated selection seed) or any object already exposing
    ``relay``; K is ``len(datasets)``, and a relay over weights for another K
    raises ValueError. Every user starts from the identical (theta, t) pair.
    The returned history is a pure function of (datasets, ram_weights, cfg).
    """
    if hasattr(ram_weights, "relay"):
        channel = ram_weights
    else:
        channel = RandomAccessChannel(make_ram(ram_weights), cfg.seeds.ram)

    theta0 = init_params(cfg.arch, cfg.seeds.init)
    users = [
        UserShard(i, ds, theta0.copy(), INITIAL_THRESHOLD)
        for i, ds in enumerate(datasets)
    ]
    state = GlobalState(0, theta0.copy(), INITIAL_THRESHOLD, users, RunHistory())

    for _ in range(cfg.global_rounds):
        run_round(state, channel, cfg)
        due = eval_every > 0 and state.round % eval_every == 0
        final = state.round == cfg.global_rounds
        if eval_data is not None and (due or final):
            metrics = evaluate(state.theta_global, eval_data)
            state.history.evals.append(
                EvalRecord(
                    round=state.round,
                    overall_acc=metrics.overall_acc,
                    per_class_acc=metrics.per_class_acc,
                    global_t=state.t_global,
                    selection_freq=selection_frequencies(state.history, len(datasets)),
                )
            )
    return state, state.history
