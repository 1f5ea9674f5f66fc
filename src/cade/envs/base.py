"""Shared environment pieces: step results and submodular coverage gain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepResult", "marginal_gain", "integer_action", "TERMINAL_KINDS"]

TERMINAL_KINDS = ("none", "minor", "severe", "timeout")


@dataclass
class StepResult:
    """One transition: patch-grid observation plus scalar outcomes.

    ``reward`` is 1 exactly when the episode's visited set strictly grew;
    ``kind`` is "none" on non-terminal steps and names the reset reason
    otherwise (timeout carries no terminal cost of its own).
    """

    obs: np.ndarray
    reward: float
    cost: float
    terminal: bool
    kind: str

    def __post_init__(self):
        if self.kind not in TERMINAL_KINDS:
            raise ValueError(f"unknown terminal kind {self.kind!r}")
        if self.terminal == (self.kind == "none"):
            raise ValueError("terminal flag and kind disagree")


def marginal_gain(targets, visited, element) -> float:
    """Unit-gain coverage increment: 1 on a first visit to a target, else 0.

    The set function F(S) = |S ∩ targets| is monotone submodular; this is
    its marginal gain, and it equals the per-step environment reward.
    ``element`` may be None (nothing reachable this step).
    """
    if element is None:
        return 0.0
    return 1.0 if element in targets and element not in visited else 0.0


def integer_action(action, size: int) -> np.ndarray:
    """``action`` as a flat int64 array of ``size`` elements; ValueError on
    another size or a non-integer dtype, which would be truncated (float)
    or read as 0 and 1 (bool)."""
    a = np.asarray(action).ravel()
    if a.dtype.kind not in "iu" or a.size != size:
        raise ValueError(f"action {action!r} is not {size} integer(s)")
    return a.astype(np.int64, copy=False)
