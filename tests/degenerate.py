"""A degenerate SDM whose solve succeeds and whose warp cannot invert H."""

import numpy as np

# An offsets row on a 5x5 grid, (dcol, drow) per corner.  It moves the TL,
# TR, BR and BL corners to (row, col) = (4, 3), (2, 1), (1, 0) and (0, 0).
# The first three lie on one line, so the 8x8 solve returns a finite H that
# maps the grid onto a flat quad: det(H) is exactly 0 and the warp cannot
# invert it.
SINGULAR_OFFSETS = np.array([3.0, 4.0, -3.0, 2.0, -4.0, -3.0, 0.0, -4.0])


def singular_offsets_net(x: np.ndarray) -> np.ndarray:
    """An ``sdm_predict`` offsets net that answers every row with them."""
    return np.tile(SINGULAR_OFFSETS, (x.shape[0], 1))
