"""Single-relay erasure channel with fixed, training-invisible weights.

One user survives each round, drawn iid from a fixed distribution. The
training loop talks to :class:`RandomAccessChannel` through ``relay`` only,
which takes the number of candidates and returns the index that gets
through: the channel never sees what the users would send, and the weights
stay on this side of the interface so no server-side code path can
condition on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risk import check_probs

GEOMETRIC = "geometric"
TAIL_THREE = "tail_three"

# Selection probabilities of the three rarest users in the skewed benchmark
# splits; the head of the distribution shares the remaining mass.
TAIL_THREE_PROBS = (0.0107, 0.0078, 0.0053)


@dataclass(frozen=True)
class RamDistribution:
    """Normalized user-selection weights: a vector :func:`~ramfed.risk.check_probs` accepts."""

    weights: np.ndarray

    def __post_init__(self):
        w = check_probs(np.array(self.weights, dtype=np.float64), "weights")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def num_users(self) -> int:
        return self.weights.size


def make_ram(raw_weights) -> RamDistribution:
    """Normalize raw weights; :class:`RamDistribution` checks the result."""
    raw = np.asarray(raw_weights, dtype=np.float64)
    total = float(raw.sum())
    if not (np.isfinite(raw).all() and total > 0):
        raise ValueError("weights must be finite with a positive sum")
    return RamDistribution(raw / total)


def sample(ram: RamDistribution, rng: np.random.Generator) -> int:
    """One inverse-CDF draw over cumulative weights in index order."""
    cum = np.cumsum(ram.weights)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, ram.num_users - 1)


def relay(ram: RamDistribution, rng: np.random.Generator, num_candidates: int) -> int:
    """The index of the one candidate that gets through; the draw never reads the candidates."""
    if num_candidates != ram.num_users:
        raise ValueError(f"expected {ram.num_users} candidates, got {num_candidates}")
    return sample(ram, rng)


def skewed_weights(num_users: int, kind: str, param: float) -> np.ndarray:
    """Raw (unnormalized sums allowed) weight recipes for skewed selection.

    geometric:  weight_i proportional to param**i, param in (0, 1).
    tail_three: the last three users get exactly TAIL_THREE_PROBS; the rest
                share the remainder along a geometric profile with ratio
                ``param`` in (0, 1].
    """
    if num_users < 2:
        raise ValueError("num_users must be >= 2")
    if kind == GEOMETRIC:
        if not 0 < param < 1:
            raise ValueError("geometric ratio must be in (0, 1)")
        return param ** np.arange(num_users, dtype=np.float64)
    if kind == TAIL_THREE:
        if num_users < 4:
            raise ValueError("tail_three needs at least 4 users")
        if not 0 < param <= 1:
            raise ValueError("tail_three head ratio must be in (0, 1]")
        tail = np.asarray(TAIL_THREE_PROBS)
        head = param ** np.arange(num_users - 3, dtype=np.float64)
        head *= (1.0 - tail.sum()) / head.sum()
        return np.concatenate([head, tail])
    raise ValueError(f"unknown skew kind {kind!r}")


class RandomAccessChannel:
    """Owns the distribution and a dedicated selection rng stream.

    The stream is separate from data-shuffling streams, so the selection
    sequence does not depend on batching configuration.
    """

    def __init__(self, ram: RamDistribution, seed: int):
        self._ram = ram
        self._rng = np.random.default_rng(seed)

    def relay(self, num_candidates: int) -> int:
        return relay(self._ram, self._rng, num_candidates)
