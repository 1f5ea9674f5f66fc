"""Reward advantage estimators over completed episode trajectories.

All estimators take plain numpy reward/value arrays and return one
advantage per step; none of them build autodiff graphs (advantages enter
the policy loss as constants).

Conventions: for an episode of T steps, ``values`` has length T + 1 with
``values[T]`` the bootstrap (0 at terminal, including timeouts).  The
marginal-gain estimator (``mgae``) is undiscounted and uses a sliding
window of completed episodic returns as its baseline; with an empty window
the baseline is 0.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "ReturnWindow",
    "mgae",
    "gae",
    "normalize",
]


WINDOW, LAM = 10, 0.95  # mgae's baseline returns; gae's lambda


class ReturnWindow:
    """Ring buffer of the last ``WINDOW`` completed episodic returns.

    Timeout-truncated episodes contribute their partial return; in-progress
    episodes are never pushed.
    """

    def __init__(self):
        self._returns: deque = deque(maxlen=WINDOW)

    def push(self, episodic_return: float) -> None:
        self._returns.append(float(episodic_return))

    def mean(self) -> float:
        if not self._returns:
            return 0.0
        return float(np.mean(self._returns))


def mgae(rewards: np.ndarray, est_rewards: np.ndarray, baseline: float) -> np.ndarray:
    """Marginal-gain advantages: remaining true reward plus accumulated
    estimated reward, relative to the windowed return baseline.

    A_j = sum_{k=j}^{T-1} r_k + sum_{i=0}^{j} rhat_i - baseline

    Both sums count step j, the formula's literal reading; ``baseline`` is
    the abstract's sliding-window baseline, a :class:`ReturnWindow` mean.
    """
    r = np.asarray(rewards, dtype=np.float64)
    rhat = np.asarray(est_rewards, dtype=np.float64)
    if r.shape != rhat.shape:
        raise ValueError("rewards and estimated rewards must align")
    if r.size == 0:
        return np.empty(0)
    suffix = np.cumsum(r[::-1])[::-1]          # sum_{k>=j} r_k
    prefix = np.cumsum(rhat)                   # sum_{i<=j} rhat_i
    return suffix + prefix - baseline


def gae(rewards: np.ndarray, values: np.ndarray, gamma: float) -> np.ndarray:
    """Generalized advantage estimation at lambda ``LAM`` over the one-step
    TD residuals r_t + gamma V_{t+1} - V_t (Schulman et al., 2016)."""
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if v.shape[0] != r.shape[0] + 1:
        raise ValueError("values must include the bootstrap entry")
    deltas = r + gamma * v[1:] - v[:-1]
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * LAM * acc
        adv[t] = acc
    return adv


_EPS = 1e-8  # normalize's guard on the std


def normalize(adv: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rescaling (population std).

    Arrays with fewer than two entries are returned unchanged, and
    constant arrays map to zeros: their rounded mean can differ from their
    value.  The ``_EPS`` guard keeps nearly constant arrays finite.
    """
    a = np.asarray(adv, dtype=np.float64)
    if a.size < 2:
        return a.copy()
    if a.min() == a.max():
        return np.zeros_like(a)
    return (a - a.mean()) / (a.std() + _EPS)
