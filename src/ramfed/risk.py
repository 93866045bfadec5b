"""Conditional value-at-risk machinery for discrete loss distributions.

Provides the exact discrete CVaR (closed form via tail accumulation), a
brute-force grid oracle over the variational threshold form, the per-user
composite objective that couples a loss value with the scalar threshold,
and its subgradients. The small-confidence limit reduces the global
objective to a weighted worst-user loss; ``max_loss_limit_check`` evaluates
that reduction directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Exhaustive-scan cutoff for the grid oracle; larger lattices use bisection
# on the slope sign, which is exact for the convex threshold objective.
_FULL_SCAN_LIMIT = 200_000


@dataclass(frozen=True)
class RiskConfig:
    """Confidence level alpha in (0, 1] and risk/neutral trade-off gamma in [0, 1].

    gamma = 1 recovers the risk-neutral objective exactly; alpha = 1 makes
    the tail average equal the mean, which also recovers it.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("probs must be a nonempty vector")
    if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ValueError("probs must be nonnegative and sum to 1")
    return probs


def _tail_average(values: np.ndarray, probs: np.ndarray, alpha: float) -> tuple[float, float]:
    """Exact upper-alpha tail average and the attaining threshold.

    Sorts descending and accumulates probability mass until alpha is
    covered; the boundary atom enters fractionally. The threshold is the
    smallest minimizer of t + E[(Z - t)_+]/alpha restricted to the support
    (ties at an exactly-exhausted atom resolve to the next support value).
    """
    order = np.argsort(-values, kind="stable")
    v = values[order]
    p = probs[order]
    cum = np.cumsum(p)
    m = int(np.searchsorted(cum, alpha, side="left"))
    if m >= v.size:
        m = v.size - 1
    below = float(cum[m - 1]) if m > 0 else 0.0
    cvar = (float(np.dot(p[:m], v[:m])) + (alpha - below) * v[m]) / alpha

    threshold = float(v[m])
    if cum[m] == alpha:
        rest = np.flatnonzero(p[m + 1 :] > 0)
        if rest.size:
            threshold = float(v[m + 1 + rest[0]])
    return cvar, threshold


def cvar_discrete(values, probs, alpha: float) -> float:
    """CVaR at level alpha of a finite distribution, exact.

    Equals the mean at alpha = 1 and the largest positive-probability value
    once alpha is at most the smallest positive probability.
    """
    values = np.asarray(values, dtype=np.float64)
    probs = _check_probs(probs)
    if values.shape != probs.shape:
        raise ValueError("values and probs must have matching length")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return _tail_average(values, probs, alpha)[0]


def threshold_objective(values, probs, alpha: float, ts) -> np.ndarray:
    """Vectorized t + E[(Z - t)_+] / alpha over an array of thresholds."""
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    excess = np.clip(values[None, :] - ts[:, None], 0.0, None)
    return ts + (excess @ probs) / alpha


def cvar_grid_oracle(values, probs, alpha: float, t_lo: float, t_hi: float,
                     step: float) -> float:
    """Minimum of the threshold objective over the lattice t_lo + k * step.

    Small lattices are scanned exhaustively. Large ones are minimized by
    bisecting on the sign of the forward difference, which finds the lattice
    minimum exactly because the objective is convex in t (a property the
    test suite verifies independently on scanned profiles).
    """
    values = np.asarray(values, dtype=np.float64)
    probs = _check_probs(probs)
    if step <= 0:
        raise ValueError("step must be positive")
    if not (t_lo <= float(values.min()) and float(values.max()) <= t_hi):
        raise ValueError("grid range must contain all values")

    num_points = int(np.floor((t_hi - t_lo) / step)) + 1

    def g(indices) -> np.ndarray:
        return threshold_objective(values, probs, alpha, t_lo + np.asarray(indices) * step)

    if num_points <= _FULL_SCAN_LIMIT:
        return float(g(np.arange(num_points)).min())

    lo, hi = 0, num_points - 2  # indices of forward differences
    while lo < hi:
        mid = (lo + hi) // 2
        g_mid, g_next = g([mid, mid + 1])
        if g_next - g_mid >= 0.0:
            hi = mid
        else:
            lo = mid + 1
    return float(min(g([lo])[0], g([num_points - 1])[0]))


def composite_loss(f: float, t: float, cfg: RiskConfig) -> float:
    """Per-user objective coupling a loss value with the threshold t."""
    hinge = max(f - t, 0.0)
    return (1.0 - cfg.gamma) * (t + hinge / cfg.alpha) + cfg.gamma * f


def composite_grads(f, grad_f: np.ndarray, t, cfg: RiskConfig, out=None):
    """Subgradients of composite_loss in (theta, t).

    The hinge indicator is 1 for f > t and 0 otherwise; at the kink f == t
    the inactive branch is chosen, a valid subgradient pinned for
    determinism. ``f`` and ``t`` may be length-S vectors with ``grad_f`` an
    (S, P) stack; ``out`` (``grad_f`` itself, say) receives grad_theta.
    """
    h = np.greater(f, t) * 1.0
    scale = (1.0 - cfg.gamma) * h / cfg.alpha + cfg.gamma
    grad_theta = np.multiply(np.expand_dims(scale, -1), grad_f, out=out)
    grad_t = (1.0 - cfg.gamma) * (1.0 - h / cfg.alpha)
    return grad_theta, grad_t


def global_risk_objective(losses, probs, cfg: RiskConfig) -> tuple[float, float]:
    """Risk-aware global objective and the CVaR-attaining threshold.

    value = (1 - gamma) * CVaR_alpha[loss] + gamma * E[loss] under the
    selection distribution.
    """
    losses = np.asarray(losses, dtype=np.float64)
    probs = _check_probs(probs)
    if losses.shape != probs.shape:
        raise ValueError("losses and probs must have matching length")
    cvar, t_star = _tail_average(losses, probs, cfg.alpha)
    mean = float(np.dot(probs, losses))
    return (1.0 - cfg.gamma) * cvar + cfg.gamma * mean, t_star


def max_loss_limit_check(losses, probs, cfg: RiskConfig) -> float:
    """Weighted worst-user loss: (1 - gamma) * max f + gamma * E[f].

    Valid only when alpha is at most the smallest positive selection
    probability, where the tail average degenerates to the maximum over the
    support. Asserts agreement with global_risk_objective to 1e-12.
    """
    losses = np.asarray(losses, dtype=np.float64)
    probs = _check_probs(probs)
    positive = probs > 0
    min_prob = float(probs[positive].min())
    if cfg.alpha > min_prob:
        raise ValueError(
            f"alpha {cfg.alpha} exceeds the smallest positive probability {min_prob}"
        )
    value = (1.0 - cfg.gamma) * float(losses[positive].max()) + cfg.gamma * float(
        np.dot(probs, losses)
    )
    objective, _ = global_risk_objective(losses, probs, cfg)
    if abs(value - objective) > 1e-12:
        raise AssertionError(
            f"max-loss limit {value} disagrees with the global objective {objective}"
        )
    return value
