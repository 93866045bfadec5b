"""Federated round engine: relay, broadcast, local SGD on the composite loss.

Each round the channel relays one user's (theta, t) pair, the pair becomes
the global state, and every user then runs H local epochs of joint
(theta, t) SGD starting from that broadcast, as one stacked NumPy
computation per shard length, with the bytes of each update run alone. The
risk-neutral baseline is the gamma = 1 special case of the same loop; no
separate code path exists.

This module never reads the channel's selection weights. It drives any
object exposing ``relay(candidates) -> (index, candidate)``, which is what
keeps the selection distribution invisible to the training path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import RandomAccessChannel, make_ram
from .data import Dataset, batch_indices
from .models import (ModelParams, _loss_and_grad_into, check_labels, cross_entropy, forward,
                     init_params, split_layers)
from .risk import RiskConfig, composite_grads

INITIAL_THRESHOLD = 0.0  # below ln C, so the hinge is active from the start
# Theta entries per stack, at most. Stacking saves per-step call overhead; the MNIST-shaped MLP
# (50,890 parameters) ran no faster as one stack of 10 users, and peak RSS rose by up to 1%.
STACK_FLOATS = 1 << 16


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


@functools.lru_cache(maxsize=4096)
def user_shuffle_seed(shuffle_seed: int, user_id: int) -> int:
    """Stable per-user batching seed derived from the run-level seed, cached."""
    return int(np.random.SeedSequence([shuffle_seed, user_id]).generate_state(1)[0])


def local_updates(shards: list[UserShard], theta_in: ModelParams, t_in: float,
                  cfg: TrainConfig, epoch_offset: int = 0) -> list[tuple[ModelParams, float]]:
    """H local epochs of joint (theta, t) SGD for every shard, from one broadcast pair.

    Both gradients of a step are evaluated at the same pre-step point, so
    theta and t move simultaneously; ``epoch_offset`` keys the shuffle so
    batch order differs across rounds. Shards of one length run as one stack,
    theta (S, P) and t (S,); each step gathers every shard's own batch into one
    reused (S, B, d) buffer (``mode="clip"`` only skips np.take's buffering: a
    permutation's indices are in range). Each step checks every batch loss, t
    and theta row, the run's one divergence check, so NumPy's overflow and
    invalid-value warnings are silenced here; DivergenceError names the first
    diverged shard in list order, at its first bad local epoch.
    """
    arch = theta_in.arch
    groups: dict[int, list[int]] = {}
    for i, shard in enumerate(shards):
        check_labels(shard.data.labels, arch)
        groups.setdefault(len(shard.data), []).append(i)
    cap = max(1, STACK_FLOATS // arch.num_params)  # users per stack
    stacks = [(n, ids[j : j + cap]) for n, ids in groups.items() for j in range(0, len(ids), cap)]
    results, diverged = [None] * len(shards), {}  # diverged: position -> first bad epoch
    for n, members in stacks:
        stack = [shards[i] for i in members]
        theta = np.repeat(theta_in.values[None, :], len(stack), axis=0)
        t = np.full(len(stack), float(t_in))
        grad = np.empty_like(theta)
        layers, grad_layers = split_layers(arch, theta), split_layers(arch, grad)
        seeds = [user_shuffle_seed(cfg.seeds.shuffle, shard.user_id) for shard in stack]
        batch_size = min(cfg.batch_size, n)
        xs = np.empty((len(stack), batch_size, stack[0].data.features.shape[1]))
        ys = np.empty((len(stack), batch_size), dtype=np.int64)
        bad_epoch = np.full(len(stack), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(cfg.local_epochs):
                chunks = [batch_indices(n, batch_size, seed, epoch_offset + epoch) for seed in seeds]
                for step in zip(*chunks):
                    rows = len(step[0])
                    for shard, idx, x, y in zip(stack, step, xs, ys):
                        np.take(shard.data.features, idx, axis=0, out=x[:rows], mode="clip")
                        np.take(shard.data.labels, idx, out=y[:rows], mode="clip")
                    f = _loss_and_grad_into(layers, grad_layers, xs[:, :rows], ys[:, :rows])
                    # Scaled in place in the gradient buffer: no (S, P) temporary per step.
                    grad_theta, grad_t = composite_grads(f, grad, t, cfg.risk, out=grad)
                    grad_theta *= cfg.lr_theta
                    theta -= grad_theta
                    t -= cfg.lr_t * grad_t
                    ok = np.isfinite(f) & np.isfinite(t) & np.isfinite(theta).all(axis=1)
                    bad_epoch[~ok & (bad_epoch < 0)] = epoch
        for row, i in enumerate(members):
            if bad_epoch[row] >= 0:
                diverged[i] = int(bad_epoch[row])
            else:
                results[i] = (ModelParams(arch, theta[row]), float(t[row]))
    if diverged:
        first = min(diverged)
        raise DivergenceError(-1, shards[first].user_id, diverged[first])
    return results


def local_update(shard: UserShard, theta_in: ModelParams, t_in: float,
                 cfg: TrainConfig, epoch_offset: int = 0) -> tuple[ModelParams, float]:
    """One shard's H local epochs from the broadcast pair; see :func:`local_updates`."""
    return local_updates([shard], theta_in, t_in, cfg, epoch_offset)[0]


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

    try:
        results = local_updates(state.users, theta_g, t_g, cfg, state.round * cfg.local_epochs)
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
