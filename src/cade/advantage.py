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


class ReturnWindow:
    """Ring buffer of the last ``size`` completed episodic returns.

    Timeout-truncated episodes contribute their partial return; in-progress
    episodes are never pushed.
    """

    def __init__(self, size: int = 10):
        if size < 1:
            raise ValueError("window size must be positive")
        self.size = size
        self._returns: deque = deque(maxlen=size)

    def push(self, episodic_return: float) -> None:
        self._returns.append(float(episodic_return))

    def mean(self) -> float:
        if not self._returns:
            return 0.0
        return float(np.mean(self._returns))

    def __len__(self) -> int:
        return len(self._returns)


def mgae(rewards: np.ndarray, est_rewards: np.ndarray, baseline: float,
         mode: str = "inclusive") -> np.ndarray:
    """Marginal-gain advantages: remaining true reward plus accumulated
    estimated reward, relative to the windowed return baseline.

    A_j = sum_{k=j}^{T-1} r_k + sum_{i=0}^{j} rhat_i - baseline

    ``mode`` controls the boundary step: "inclusive" counts index j in both
    sums (the literal reading), "exclusive" sums rhat over i < j so a
    perfect estimator reconstructs the episode return exactly at every j.
    """
    r = np.asarray(rewards, dtype=np.float64)
    rhat = np.asarray(est_rewards, dtype=np.float64)
    if r.shape != rhat.shape:
        raise ValueError("rewards and estimated rewards must align")
    if r.size == 0:
        return np.empty(0)
    suffix = np.cumsum(r[::-1])[::-1]          # sum_{k>=j} r_k
    prefix = np.cumsum(rhat)                   # sum_{i<=j} rhat_i
    if mode == "exclusive":
        prefix = prefix - rhat
    elif mode != "inclusive":
        raise ValueError(f"unknown mgae mode {mode!r}")
    return suffix + prefix - baseline


def gae(rewards: np.ndarray, values: np.ndarray, gamma: float,
        lam: float = 0.95) -> np.ndarray:
    """Generalized advantage estimation over the one-step TD residuals
    r_t + gamma V_{t+1} - V_t."""
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if v.shape[0] != r.shape[0] + 1:
        raise ValueError("values must include the bootstrap entry")
    deltas = r + gamma * v[1:] - v[:-1]
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
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
