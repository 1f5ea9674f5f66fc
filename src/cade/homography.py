"""Differentiable four-point homography: solve, warp, and the Jaccard loss.

Conventions, fixed package-wide:
  * patch grids are (rows, cols) float arrays, origin top-left, cell centers
    at integer coordinates (row r, col c);
  * corner offsets are the SDM's offsets head rows, (B, 8): the (dcol,
    drow) pairs of the top-left, top-right, bottom-right and bottom-left
    corners in patch-grid units, the four-point parameterization of DeTone
    et al. (2016); only this module views them as (B, 4, 2) corners;
  * the homography H acts on homogeneous (row, col, 1) vectors, so a uniform
    offset of (2, 0) yields a pure translation with h13 = 0 and h23 = 2
    (contents move two columns);
  * ``warp`` inverse-maps destination cell centers through H^-1 and samples
    the source bilinearly; cells whose preimage leaves the source grid are
    filled with 0.5 ("unknown");
  * grids are data: they enter the taped ops as arrays, so ``warp`` is
    differentiable in H only and ``jaccard_loss`` in its prediction only.

Every function takes batches only: offsets (B, 8), H (B, 3, 3), grids
(B, r, c) and action one-hots (B, A); an input of another shape raises.
A degenerate SDM raises one error type, ``HomographyError``: for
non-finite offsets, a singular or non-finite solve, and a solved H that
cannot be inverted.

Exactness: solve and inverse each take one generic path (``np.linalg.solve``,
``np.linalg.inv``), which gives the exact identity for all-zero offsets and
exact index shifts for integer uniform offsets on the envs' grids (the
tests pin both).  Gradients use the analytic rules (d(A^-1 b) = A^-1 (db -
dA h) for the solve; the tests check it against central differences).  The
value path runs on cached per-grid constants (A's template, the warp's
mesh) and gathers the four bilinear corners in one flat index, and its
results equal the kept reference (``tests/reference_homography.py``) bit
for bit.
"""

from __future__ import annotations

import numpy as np

from .autograd import TapeError, Tensor

__all__ = [
    "HomographyError",
    "solve_homography",
    "solve_values",
    "warp",
    "warp_values",
    "jaccard_loss",
    "sdm_predict",
    "source_corners",
]


class HomographyError(RuntimeError):
    """Degenerate correspondence; carries a condition estimate when known."""


def source_corners(rows: int, cols: int) -> np.ndarray:
    """(4, 2) array of (row, col) source corners, TL, TR, BR, BL order."""
    return np.array(
        [[0.0, 0.0],
         [0.0, cols - 1.0],
         [rows - 1.0, cols - 1.0],
         [rows - 1.0, 0.0]],
        dtype=np.float64,
    )


_FILL = 0.5  # a warped cell whose preimage leaves the source grid
_CONSTANTS: dict = {}


def _constants(rows: int, cols: int):
    """Cached per-grid constants.  For the solve: the 8x8 template of A
    (source corners and constant columns; columns 6 and 7 zero), the (4, 2)
    source corners and their negatives [-u, -v].  For the warp: the (3, N)
    homogeneous mesh of cell centres, the (2, 1) last row and column, and
    the (4, 1, 1) flat steps from a cell to its 01, 10 and 11 neighbours."""
    consts = _CONSTANTS.get((rows, cols))
    if consts is None:
        src = source_corners(rows, cols)
        A = np.zeros((4, 2, 8))  # rows 2k and 2k + 1 of corner k
        A[:, 0, :2] = A[:, 1, 3:5] = src
        A[:, 0, 2] = A[:, 1, 5] = 1.0
        rr, cc = np.meshgrid(np.arange(rows, dtype=np.float64),
                             np.arange(cols, dtype=np.float64), indexing="ij")
        mesh = np.stack([rr.ravel(), cc.ravel(), np.ones(rows * cols)], axis=0)
        steps = np.array([0, 1, cols, cols + 1])[:, None, None]
        consts = _CONSTANTS[rows, cols] = (A.reshape(8, 8), src, -src, mesh,
                                           src[2][:, None], steps)
    return consts


def _assemble(offsets: np.ndarray, rows: int, cols: int):
    """Build the stacked 8x8 systems A h = b for offsets rows (B, 8): rows
    2k and 2k + 1 take corner k's destination row and column, which enter
    b and, times -u and -v, columns 6 and 7.  Non-finite offsets raise
    before the products, where inf times a zero source coordinate warns."""
    if offsets.ndim != 2 or offsets.shape[1] != 8:
        raise ValueError(f"offsets must be (B, 8) rows, got {offsets.shape}")
    if not np.isfinite(offsets).all():
        raise HomographyError("degenerate correspondence, cond=inf")
    B = offsets.shape[0]
    template, src, neg = _constants(rows, cols)[:3]
    # (B, 4, 2) destination corners (row + drow, col + dcol)
    dest = src + offsets.reshape(B, 4, 2)[:, :, ::-1]
    A = np.empty((B, 8, 8), dtype=np.float64)
    A[:] = template
    A.reshape(B, 4, 2, 8)[:, :, :, 6:] = neg[:, None, :] * dest[:, :, :, None]
    return A, dest.reshape(B, 8)


def solve_values(offsets: np.ndarray, rows: int, cols: int,
                 return_system: bool = False):
    """Numpy-only forward: (B, 8) offsets -> (B, 3, 3) homographies.

    With ``return_system`` also returns the solved (B, 8, 8) matrices A.
    """
    A, b = _assemble(offsets, rows, cols)
    H = np.empty((len(A), 9))
    h = H[:, :8]
    try:
        h[:] = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        h[:] = np.nan  # an exactly singular system
    if not np.isfinite(h).all():
        bad = ~np.isfinite(h).all(axis=1)
        # a system that overflowed has no SVD; its condition is taken as inf
        cond = max(float(np.linalg.cond(Ai)) if np.isfinite(Ai).all() else np.inf
                   for Ai in A[bad])
        raise HomographyError(f"degenerate correspondence, cond={cond:.3e}")
    H[:, 8] = 1.0
    H = H.reshape(-1, 3, 3)
    return (H, A) if return_system else H


def solve_homography(offsets: Tensor, rows: int, cols: int) -> Tensor:
    """Differentiable solve: offsets (B, 8) -> H (B, 3, 3).

    The gradient applies d(A^-1 b) = A^-1 (db - dA h).
    """
    off = offsets.values
    H, A = solve_values(off, rows, cols, return_system=True)
    h = H.reshape(-1, 9)[:, :8]
    src = source_corners(rows, cols)

    def backward(gH):
        ghat = gH.reshape(-1, 9)[:, :8]
        x = np.linalg.solve(np.transpose(A, (0, 2, 1)), ghat[:, :, None])[:, :, 0]  # dL/db
        # dL/dA = -x h^T.  A destination coordinate enters its b entry
        # directly and columns 6/7 of its A row (as -u*dest, -v*dest), so the
        # chain collapses to x * (1 + h31 u + h32 v), the projective
        # denominator at the source corner.
        r0 = np.arange(4) * 2
        w = 1.0 + h[:, 6:7] * src[None, :, 0] + h[:, 7:8] * src[None, :, 1]
        gup = x[:, r0] * w
        gvp = x[:, r0 + 1] * w
        goff = np.empty_like(off)
        goff[:, 0::2] = gvp  # dcol moves the column coordinate
        goff[:, 1::2] = gup  # drow moves the row coordinate
        return (goff,)

    return offsets.tape.record("solve_homography", H, (offsets,), backward)


def _invert(H: np.ndarray) -> np.ndarray:
    """Batch inverse; a finite but singular H (three destination corners on
    one line) raises ``HomographyError``."""
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise HomographyError(f"singular homography ({exc})") from exc


def _warp_forward(grid: np.ndarray, H: np.ndarray):
    """Shared forward for values and taped paths: (out, cache), where the
    cache carries what the gradient to H needs."""
    if grid.ndim != 3:
        raise ValueError(f"grids must be a batch (B, r, c), got {grid.shape}")
    B, rows, cols = grid.shape
    mesh, last, steps = _constants(rows, cols)[3:]
    Hinv = _invert(H)
    p = Hinv @ mesh  # (B, 3, N)
    safe = np.abs(p[:, 2]) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        # source (row, col) of each cell, (B, 2, N); -1, out of bounds,
        # where the projective denominator is not safe
        uv = np.where(safe[:, None], p[:, :2] / np.where(safe, p[:, 2], 1.0)[:, None],
                      -1.0)
    inside = (uv >= 0.0) & (uv <= last)
    inb = inside[:, 0] & inside[:, 1]
    # top-left corner of each in-bounds sample's cell, (0, 0) elsewhere;
    # floor(uv) >= 0 in bounds, so only the upper clip can bind
    ij = np.where(inb[:, None], np.minimum(np.floor(uv), last - 1.0), 0.0)
    # f[1] holds the fractions (fu, fv) and f[0] their complements
    f = np.empty((2,) + uv.shape)
    f[1] = np.where(inb[:, None], uv - ij, 0.0)
    np.subtract(1.0, f[1], out=f[0])
    # flat indices of the four bilinear corners (4, B, N): 00, 01, 10, 11
    n = rows * cols
    cell = ij.astype(np.intp)
    idx = cell[:, 0] * cols + cell[:, 1] + np.arange(0, B * n, n)[:, None] + steps
    g = grid.reshape(-1)[idx]
    # corner 2a + b weighs (1 - fu, fu)[a] times (1 - fv, fv)[b]
    t = (f[:, None, :, 0] * f[None, :, :, 1]).reshape(4, B, -1) * g
    out = np.where(inb, t[0] + t[1] + t[2] + t[3], _FILL)
    return out.reshape(B, rows, cols), (Hinv, p, inb, f, g)


def warp_values(grid: np.ndarray, H: np.ndarray):
    """Numpy-only warp of grids (B, r, c) by H (B, 3, 3).

    Returns the warped grids, 0.5 where a cell's preimage leaves the grid,
    and the boolean in-bounds ("known") mask.
    """
    out, cache = _warp_forward(np.asarray(grid, dtype=np.float64),
                               np.asarray(H, dtype=np.float64))
    return out, cache[2].reshape(out.shape)


def warp(grid: np.ndarray, H: Tensor) -> Tensor:
    """Differentiable warp of the grids (B, r, c) by ``H``, recorded with
    ``H`` as its one input; out-of-frame cells take 0.5 and pass no
    gradient."""
    out, cache = _warp_forward(grid, H.values)
    B, rows, cols = out.shape
    Hinv, p, inb, f, (g00, g01, g10, g11) = cache
    p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2]
    ofu, ofv, fu, fv = f[0, :, 0], f[0, :, 1], f[1, :, 0], f[1, :, 1]
    mesh = _constants(rows, cols)[3]

    def backward(gout):
        gb = gout.reshape(B, rows * cols)
        gb = np.where(inb, gb, 0.0)
        # to the sample positions
        dfu = gb * (ofv * (g10 - g00) + fv * (g11 - g01))
        dfv = gb * (ofu * (g01 - g00) + fu * (g11 - g10))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv2 = np.where(inb, 1.0 / np.where(inb, p2, 1.0), 0.0)
        gp0 = dfu * inv2
        gp1 = dfv * inv2
        gp2 = -(dfu * p0 + dfv * p1) * inv2 * inv2
        gp = np.stack([gp0, gp1, gp2], axis=1)  # (B, 3, N)
        gHinv = gp @ mesh.T
        gH = -np.transpose(Hinv, (0, 2, 1)) @ gHinv @ np.transpose(Hinv, (0, 2, 1))
        return (gH,)

    return H.tape.record("warp", out, (H,), backward)


def jaccard_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    """1 - soft-IoU of grids (B, r, c), averaged over the batch, against the
    array ``truth``.

    Both-empty pairs contribute exactly 0 (and zero gradient).  For grids
    valued in [0, 1] the loss lies in [0, 1].

    Recorded as one ``jaccard`` op whose backward repeats the per-op tape's
    expressions in its order: ``inter`` takes ``g / D`` and then
    ``-gden``, and each ``pred`` row takes the ``gden`` broadcast and then
    the ``inter`` broadcast times truth.
    """
    if pred.values.shape != truth.shape or pred.values.ndim != 3:
        raise TapeError(f"pred and truth must both be (B, r, c), got "
                        f"{pred.values.shape} and {truth.shape}")
    B = pred.values.shape[0]
    p = pred.values.reshape(B, -1)
    g = truth.reshape(B, -1)
    inter = (p * g).sum(axis=1)
    denom = p.sum(axis=1) + g.sum(axis=1) - inter
    empty = denom == 0.0
    nonempty = (~empty).astype(np.float64)
    D = denom + empty.astype(np.float64)
    q = inter / D
    loss = ((1.0 - q) * nonempty).mean()

    def backward(gl):
        gq = -(gl / B * nonempty)
        gden = -gq * q / D
        ginter = gq / D + -gden
        gp = gden[:, None] + ginter[:, None] * g
        return (gp.reshape(pred.values.shape),)

    return pred.tape.record("jaccard", loss, (pred,), backward)


def sdm_predict(offsets_fn, grid: np.ndarray, action_onehots: np.ndarray,
                return_mask: bool = False):
    """One value-level prediction step: warp each grid under its action.

    ``offsets_fn`` maps a (B, obs+action) batch to (B, 8) corner offsets;
    ``grid`` is (B, r, c) and ``action_onehots`` (B, A).  Returns the
    prediction; with ``return_mask`` also the known-cell mask.
    """
    if grid.ndim != 3:
        raise ValueError(f"grid must be a batch (B, r, c), got {grid.shape}")
    B, r, c = grid.shape
    x = np.concatenate([grid.reshape(B, -1), action_onehots], axis=1)
    offsets = np.asarray(offsets_fn(x), dtype=np.float64)
    out, mask = warp_values(grid, solve_values(offsets, r, c))
    return (out, mask) if return_mask else out
