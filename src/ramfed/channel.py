"""Single-relay erasure channel with fixed, training-invisible weights.

One user survives each round, drawn iid from a fixed distribution. The
training loop talks to :class:`RandomAccessChannel` through ``relay`` only,
which takes the number of candidates and returns the index that gets
through: the channel never sees what the users would send, and the weights
stay on this side of the interface so no server-side code path can
condition on them.
"""

from __future__ import annotations

import numpy as np

from .risk import check_probs

EXPLICIT = "explicit"
GEOMETRIC = "geometric"
TAIL_THREE = "tail_three"

# Selection probabilities of the three rarest users in the skewed benchmark
# splits; the head of the distribution shares the remaining mass.
TAIL_THREE_PROBS = (0.0107, 0.0078, 0.0053)


def selection_weights(kind: str, num_users: int, param: float = 0.9, weights=()) -> np.ndarray:
    """The normalized selection weights of a recipe, a vector ``check_probs`` accepts.

    explicit:   ``weights``, one per user, finite with a positive sum.
    geometric:  weight_i proportional to param**i, param in (0, 1).
    tail_three: the last three users get exactly TAIL_THREE_PROBS; the rest
                share the remainder along a geometric profile with ratio
                ``param`` in (0, 1].
    """
    if kind == EXPLICIT:
        raw = np.asarray(weights, dtype=np.float64)
        if raw.size != num_users:
            raise ValueError(f"weights has {raw.size} entries for {num_users} users")
        if not (np.isfinite(raw).all() and raw.sum() > 0):
            raise ValueError("weights must be finite with a positive sum")
    elif kind == GEOMETRIC:
        if num_users < 2:
            raise ValueError(f"kind = geometric needs num_users >= 2, got {num_users}")
        if not 0 < param < 1:
            raise ValueError(f"param = {param}: geometric needs it in (0, 1)")
        raw = param ** np.arange(num_users, dtype=np.float64)
    elif kind == TAIL_THREE:
        if num_users < 4:
            raise ValueError(f"kind = tail_three needs num_users >= 4, got {num_users}")
        if not 0 < param <= 1:
            raise ValueError(f"param = {param}: tail_three needs it in (0, 1]")
        tail = np.asarray(TAIL_THREE_PROBS)
        head = param ** np.arange(num_users - 3, dtype=np.float64)
        head *= (1.0 - tail.sum()) / head.sum()
        raw = np.concatenate([head, tail])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return check_probs(raw / float(raw.sum()), "weights")


def relay(cum_weights: np.ndarray, rng: np.random.Generator, num_candidates: int) -> int:
    """The index of the one candidate that gets through; the draw never reads the candidates.

    One inverse-CDF draw over cumulative weights in index order. A draw past
    a total that rounding left short of 1 goes to the last user of positive
    weight, so a zero-weight user is never relayed.
    """
    if num_candidates != cum_weights.size:
        raise ValueError(f"expected {cum_weights.size} candidates, got {num_candidates}")
    idx = int(np.searchsorted(cum_weights, rng.random(), side="right"))
    if idx == cum_weights.size:
        idx = int(np.searchsorted(cum_weights, cum_weights[-1], side="left"))
    return idx


class RandomAccessChannel:
    """Owns the cumulative selection weights and a dedicated selection rng stream.

    The stream is separate from data-shuffling streams, so the selection
    sequence does not depend on batching configuration.
    """

    def __init__(self, weights, seed: int):
        self.cum_weights = np.cumsum(check_probs(weights, "weights"))
        self.cum_weights.setflags(write=False)
        self._rng = np.random.default_rng(seed)

    def relay(self, num_candidates: int) -> int:
        return relay(self.cum_weights, self._rng, num_candidates)
