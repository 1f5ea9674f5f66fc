"""Constrained submodular MDP environments."""

from .base import StepResult, marginal_gain
from .cliff import CLIFF_COUNTS, CliffCircular
from .river import RIVER_LEVELS, PlanarRiver

__all__ = [
    "StepResult",
    "marginal_gain",
    "CliffCircular",
    "CLIFF_COUNTS",
    "PlanarRiver",
    "RIVER_LEVELS",
    "make_env",
]


def make_env(name: str, level: str = "medium", timeout: int = 500, seed: int = 0):
    if name == "cliff-circular":
        return CliffCircular(level, timeout=timeout, seed=seed)
    if name == "planar-river":
        return PlanarRiver(level, timeout=timeout, seed=seed)
    raise ValueError(f"unknown environment {name!r}")
