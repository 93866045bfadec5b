"""Federated round engine: relay, broadcast, local SGD on the composite loss.

Each round the channel relays one user's (theta, t) pair and the pair
becomes the global pair. Every user's candidate is H local epochs of joint
(theta, t) SGD from the last broadcast, but only the relayed one is
computed: the channel names the user that gets through without looking at
any candidate, so the others would be discarded unread. Round 1 relays the
initial pair. The risk-neutral baseline is the gamma = 1 special case of
the same loop; no separate code path exists.

This module never sees the channel's selection weights, nor imports the
channel module: :func:`train` is handed any object exposing
``relay(num_candidates) -> index``, which is what keeps the selection
distribution invisible to the training path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, batch_indices
from .models import (ModelParams, _loss_and_grad_into, check_features, check_labels,
                     cross_entropy, forward, init_params, split_layers)
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
    """``theta_global``/``t_global``: the last relayed pair, the broadcast the next
    relayed update starts from."""

    round: int
    theta_global: ModelParams
    t_global: float
    users: list[Dataset]  # user i's private shard
    history: RunHistory


@dataclass
class Metrics:
    overall_acc: float
    per_class_acc: np.ndarray  # NaN for classes absent from the test set


@functools.lru_cache(maxsize=4096)
def user_shuffle_seed(shuffle_seed: int, user_id: int) -> int:
    """Stable per-user batching seed derived from the run-level seed, cached."""
    return int(np.random.SeedSequence([shuffle_seed, user_id]).generate_state(1)[0])


def local_update(shard: Dataset, user_id: int, theta_in: ModelParams, t_in: float,
                 cfg: TrainConfig, epoch_offset: int = 0) -> tuple[ModelParams, float]:
    """H local epochs of joint (theta, t) SGD on one shard from the broadcast pair.

    Both gradients of a step are evaluated at the same pre-step point, so theta and t
    move simultaneously; ``epoch_offset`` keys the shuffle so batch order differs across
    rounds. Each step checks the batch loss, t and theta, the run's one divergence check,
    so NumPy's overflow and invalid-value warnings are silenced here; DivergenceError
    names ``user_id`` and its first bad local epoch. Features and labels are
    :func:`train`'s to check.
    """
    arch = theta_in.arch
    theta, t = theta_in.values.copy(), float(t_in)
    grad = np.empty_like(theta)
    layers, grad_layers = split_layers(arch, theta), split_layers(arch, grad)
    xs, ys = shard.features, shard.labels
    seed = user_shuffle_seed(cfg.seeds.shuffle, user_id)
    batch_size = min(cfg.batch_size, len(ys))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.local_epochs):
            for idx in batch_indices(len(ys), batch_size, seed, epoch_offset + epoch):
                f = _loss_and_grad_into(layers, grad_layers, xs[idx], ys[idx])
                # Scaled in place in the gradient buffer: no temporary per step.
                grad_theta, grad_t = composite_grads(f, grad, t, cfg.risk, out=grad)
                grad_theta *= cfg.lr_theta
                theta -= grad_theta
                t -= cfg.lr_t * grad_t
                if not (np.isfinite(f) and np.isfinite(t) and np.isfinite(theta).all()):
                    raise DivergenceError(-1, user_id, epoch)
    return ModelParams(arch, theta), float(t)


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
    """One global round: the channel names the user that gets through, that user's
    pair becomes the broadcast, and the round is logged.

    Round 1 relays the initial pair. Every later round relays the selected user's
    local update from the last broadcast, computed after the channel has named the
    user. A diverged update leaves the state and the history as they were; its error
    names the round whose broadcast the update started from.
    """
    selected = channel.relay(len(state.users))
    shard = state.users[selected]
    theta_g, t_g = state.theta_global, state.t_global
    if state.round > 0:
        try:
            theta_g, t_g = local_update(shard, selected, theta_g, t_g, cfg,
                                        (state.round - 1) * cfg.local_epochs)
        except DivergenceError as err:
            err.round_index = state.round
            err.history = state.history
            raise
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing loss is logged as is
        train_loss = shard_loss(theta_g, shard)

    state.theta_global, state.t_global = theta_g, t_g
    state.round += 1
    state.history.rounds.append(RoundRecord(state.round, selected, t_g, train_loss))
    return state


def selection_frequencies(history: RunHistory, num_users: int) -> np.ndarray:
    counts = np.bincount(history.selections(), minlength=num_users).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def train(datasets: list[Dataset], channel, cfg: TrainConfig,
          eval_data: Dataset | None = None, eval_every: int = 0) -> tuple[GlobalState, RunHistory]:
    """Run the full round loop over pre-partitioned user datasets.

    ``channel`` is any object with ``relay(num_candidates) -> index``, asked each
    round which of the K = ``len(datasets)`` users gets through. Each shard's
    features and labels are checked against ``cfg.arch`` once, before the first relay.
    Every user starts from the identical (theta, t) pair. The history is a
    pure function of (datasets, the channel's relays, cfg).
    """
    for data in datasets:
        check_features(data.features, cfg.arch)
        check_labels(data.labels, cfg.arch)
    state = GlobalState(0, init_params(cfg.arch, cfg.seeds.init), INITIAL_THRESHOLD,
                        list(datasets), RunHistory())

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
