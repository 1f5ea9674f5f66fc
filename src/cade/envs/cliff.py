"""CliffCircular: a 12x12 gridworld with a fixed 20-cell ring track and
randomly spawned cliff cells.

The agent sees an egocentric 5x5 binary hazard mask: cliff cells and
off-board cells both read 1 (walls are visible hazards), everything else 0.
The track is not observable; it sits at a fixed board location, so ring
membership must be remembered, not seen.  Immediate cost is the hazard
fraction of the 8 surrounding cells, which makes cost a pure function of
the emitted observation.  Stepping onto a cliff ends the episode with
cost 1; board edges clamp.
"""

from __future__ import annotations

import numpy as np

from .base import StepResult, integer_action, marginal_gain

__all__ = ["CliffCircular", "CLIFF_COUNTS", "ring_cells"]

CLIFF_COUNTS = {"easy": 8, "medium": 16, "hard": 24}

# (row, col) deltas: noop, up, right, down, left
MOVES = ((0, 0), (-1, 0), (0, 1), (1, 0), (0, -1))


def ring_cells() -> tuple:
    """Perimeter of the square rows/cols 3..8: a closed 20-cell ring."""
    lo, hi = 3, 8
    cells = []
    for c in range(lo, hi + 1):
        cells.append((lo, c))
    for r in range(lo + 1, hi + 1):
        cells.append((r, hi))
    for c in range(hi - 1, lo - 1, -1):
        cells.append((hi, c))
    for r in range(hi - 1, lo, -1):
        cells.append((r, lo))
    return tuple(cells)


class CliffCircular:
    """Gridworld CSMDP; rewards are one-shot per track cell (submodular)."""

    branches = (5,)
    obs_shape = (5, 5)
    size = 12  # board side

    def __init__(self, level: str = "medium", timeout: int = 500, seed: int = 0):
        if level not in CLIFF_COUNTS:
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self.n_cliffs = CLIFF_COUNTS[level]
        self.timeout = timeout
        self.track = ring_cells()
        self._track_set = frozenset(self.track)
        self._off_track = [(r, c) for r in range(self.size) for c in range(self.size)
                           if (r, c) not in self._track_set]
        self._rng = np.random.default_rng(seed)
        self._done = True
        self.cliffs: frozenset = frozenset()
        self.agent = (0, 0)
        self.visited: set = set()
        self.steps = 0
        # board padded with 2 rings of 1s so any 5x5 window is a plain slice
        self._padded = np.ones((self.size + 4, self.size + 4))

    # ---- episode control ----

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Board and start cell from ``rng``, else the constructor's stream."""
        rng = self._rng if rng is None else rng
        idx = rng.choice(len(self._off_track), size=self.n_cliffs, replace=False)
        self.cliffs = frozenset(self._off_track[i] for i in idx)
        safe = [cell for cell in self._off_track if cell not in self.cliffs]
        self.agent = safe[int(rng.integers(len(safe)))]
        self.visited = set()
        self.steps = 0
        self._done = False
        self._rebuild_board()
        return self._obs()

    def _rebuild_board(self) -> None:
        self._padded[...] = 1.0
        inner = self._padded[2:-2, 2:-2]
        inner[...] = 0.0
        for r, c in self.cliffs:
            inner[r, c] = 1.0

    def _obs(self) -> np.ndarray:
        r, c = self.agent
        return self._padded[r:r + 5, c:c + 5].copy()

    # ---- dynamics ----

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = int(integer_action(action, 1)[0])
        if not 0 <= a < 5:
            raise ValueError(f"action {a} outside Discrete(5)")
        dr, dc = MOVES[a]
        r = min(max(self.agent[0] + dr, 0), self.size - 1)
        c = min(max(self.agent[1] + dc, 0), self.size - 1)
        self.agent = (r, c)
        self.steps += 1

        reward = marginal_gain(self._track_set, self.visited, (r, c))
        if reward:
            self.visited.add((r, c))
        obs = self._obs()

        if (r, c) in self.cliffs:
            cost, terminal, kind = 1.0, True, "severe"
        else:
            window = obs[1:4, 1:4]
            cost = float(window.sum() - window[1, 1]) / 8.0
            if self.steps >= self.timeout:
                terminal, kind = True, "timeout"
            else:
                terminal, kind = False, "none"
        self._done = terminal
        return StepResult(obs, reward, cost, terminal, kind)
