"""Plain-text serialization of patch grids as PGM images.

PGM is P2 (ASCII) with maxval 255, cell = round(255 * value); the 1/255
quantization makes the round trip lossy in general but exact for binary
and 0.5-filled grids at the quantization level.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_pgm", "read_pgm"]


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


def read_pgm(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        tokens = []
        for line in fh:
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"not an ASCII PGM: {path!r}")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = np.array([int(t) for t in tokens[4:4 + rows * cols]], dtype=np.float64)
    if data.size != rows * cols:
        raise ValueError(f"truncated PGM: {path!r}")
    return data.reshape(rows, cols) / maxval
