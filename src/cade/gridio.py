"""Plain-text serialization of patch grids as PGM images.

PGM is P2 (ASCII) with maxval 255, cell = round(255 * value): binary grids
are stored exactly, other values to the nearest 1/255.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_pgm"]


def write_pgm(path: str, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("PGM export expects a 2-D grid with values in [0, 1]")
    levels = np.rint(grid * 255.0).astype(int)
    rows, cols = grid.shape
    lines = [f"P2\n{cols} {rows}\n255\n"]
    for r in range(rows):
        lines.append(" ".join(str(v) for v in levels[r]) + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
