"""Differentiable four-point homography: solve, warp, and the Jaccard loss.

Conventions, fixed package-wide:
  * patch grids are (rows, cols) float arrays, origin top-left, cell centers
    at integer coordinates (row r, col c);
  * corner offsets are a (4, 2) array ordered top-left, top-right,
    bottom-right, bottom-left, each pair (dcol, drow) in patch-grid units;
  * the homography H acts on homogeneous (row, col, 1) vectors, so a uniform
    offset of (2, 0) yields a pure translation with h13 = 0 and h23 = 2
    (contents move two columns);
  * ``warp`` inverse-maps destination cell centers through H^-1 and samples
    the source bilinearly; cells whose preimage leaves the source grid are
    filled with 0.5 ("unknown").

Every function takes batches only: offsets (B, 4, 2), H (B, 3, 3), grids
(B, r, c) and action one-hots (B, A); an input without the batch axis
raises.  A degenerate SDM raises one error type, ``HomographyError``: for a
singular or non-finite solve, and for a solved H that cannot be inverted.

Exactness: per-sample fast paths return the exact identity for all-zero
offsets and the exact translation matrix for uniform offsets, and ``warp``
inverts translation-form H directly, so integer shifts reproduce index
shifts bit for bit.  Gradients always use the generic analytic rules
(d(A^-1 b) = A^-1 (db - dA h) for the solve; the tests check it against
central differences).
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


def _dest_corners(offsets: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(B, 4, 2) destination corners in (row, col) from (dcol, drow) offsets."""
    src = source_corners(rows, cols)
    dest = np.empty_like(offsets)
    dest[:, :, 0] = src[None, :, 0] + offsets[:, :, 1]  # row + drow
    dest[:, :, 1] = src[None, :, 1] + offsets[:, :, 0]  # col + dcol
    return dest


def _assemble(offsets: np.ndarray, rows: int, cols: int):
    """Build the stacked 8x8 systems A h = b for a batch of offsets."""
    B = offsets.shape[0]
    src = source_corners(rows, cols)
    dest = _dest_corners(offsets, rows, cols)
    u, v = src[:, 0], src[:, 1]
    up, vp = dest[:, :, 0], dest[:, :, 1]  # (B, 4)
    A = np.zeros((B, 8, 8), dtype=np.float64)
    b = np.empty((B, 8), dtype=np.float64)
    r0 = np.arange(4) * 2
    A[:, r0, 0] = u
    A[:, r0, 1] = v
    A[:, r0, 2] = 1.0
    A[:, r0, 6] = -u * up
    A[:, r0, 7] = -v * up
    A[:, r0 + 1, 3] = u
    A[:, r0 + 1, 4] = v
    A[:, r0 + 1, 5] = 1.0
    A[:, r0 + 1, 6] = -u * vp
    A[:, r0 + 1, 7] = -v * vp
    b[:, r0] = up
    b[:, r0 + 1] = vp
    return A, b


def _exactness_overrides(H: np.ndarray, offsets: np.ndarray) -> None:
    """Overwrite solved H with exact identity/translation where offsets allow."""
    uniform = np.all(offsets == offsets[:, :1, :], axis=(1, 2))
    if not np.any(uniform):
        return
    idx = np.nonzero(uniform)[0]
    H[idx] = np.eye(3)
    H[idx, 0, 2] = offsets[idx, 0, 1]  # drow
    H[idx, 1, 2] = offsets[idx, 0, 0]  # dcol


def solve_values(offsets: np.ndarray, rows: int, cols: int,
                 return_system: bool = False):
    """Numpy-only forward: (B, 4, 2) offsets -> (B, 3, 3) homographies.

    With ``return_system`` also returns the solved (B, 8, 8) matrices A.
    """
    A, b = _assemble(offsets, rows, cols)
    try:
        h = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        h = np.full(b.shape, np.nan)  # an exactly singular system
    if not np.all(np.isfinite(h)):
        bad = ~np.all(np.isfinite(h), axis=1)
        cond = max(float(np.linalg.cond(Ai)) for Ai in A[bad])
        raise HomographyError(f"degenerate correspondence, cond={cond:.3e}")
    H = np.concatenate([h, np.ones((offsets.shape[0], 1))], axis=1).reshape(-1, 3, 3)
    _exactness_overrides(H, offsets)
    return (H, A) if return_system else H


def solve_homography(offsets: Tensor, rows: int, cols: int) -> Tensor:
    """Differentiable solve: offsets (B, 4, 2) -> H (B, 3, 3).

    The gradient applies d(A^-1 b) = A^-1 (db - dA h).
    """
    off = offsets.values
    if off.ndim != 3 or off.shape[1:] != (4, 2):
        raise TapeError(f"offsets must be (B, 4, 2), got {off.shape}")
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
        goff[:, :, 0] = gvp  # dcol moves the column coordinate
        goff[:, :, 1] = gup  # drow moves the row coordinate
        return (goff,)

    return offsets.tape.record("solve_homography", H, (offsets,), backward)


_MESH_CACHE: dict = {}


def _mesh(rows: int, cols: int) -> np.ndarray:
    key = (rows, cols)
    m = _MESH_CACHE.get(key)
    if m is None:
        rr, cc = np.meshgrid(np.arange(rows, dtype=np.float64),
                             np.arange(cols, dtype=np.float64), indexing="ij")
        m = np.stack([rr.ravel(), cc.ravel(), np.ones(rows * cols)], axis=0)
        _MESH_CACHE[key] = m
    return m


def _invert(H: np.ndarray) -> np.ndarray:
    """Batch inverse, exact for translation-form H; a finite but singular H
    (three destination corners on one line) raises ``HomographyError``."""
    eye = np.eye(3)
    # A translation-form H differs from the identity only in (0,2) and (1,2).
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = mask[1, 2] = False
    trans = np.all(H[:, mask] == eye[mask], axis=1)
    Hinv = np.empty_like(H)
    if not np.all(trans):
        try:
            Hinv[~trans] = np.linalg.inv(H[~trans])
        except np.linalg.LinAlgError as exc:
            raise HomographyError(f"singular homography ({exc})") from exc
    Hinv[trans] = eye
    Hinv[trans, 0, 2] = -H[trans, 0, 2]
    Hinv[trans, 1, 2] = -H[trans, 1, 2]
    return Hinv


def _warp_forward(grid: np.ndarray, H: np.ndarray, fill: float):
    """Shared forward for values and taped paths.

    Returns (out, cache) where cache carries what backward needs.
    """
    if grid.ndim != 3:
        raise ValueError(f"grids must be a batch (B, r, c), got {grid.shape}")
    B, rows, cols = grid.shape
    Hinv = _invert(H)
    mesh = _mesh(rows, cols)
    p = Hinv @ mesh  # (B, 3, N)
    p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2]
    safe = np.abs(p2) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        us = np.where(safe, p0 / np.where(safe, p2, 1.0), -1.0)
        vs = np.where(safe, p1 / np.where(safe, p2, 1.0), -1.0)
    inb = safe & (us >= 0.0) & (us <= rows - 1.0) & (vs >= 0.0) & (vs <= cols - 1.0)
    i0 = np.clip(np.floor(us), 0, rows - 2).astype(np.int64)
    j0 = np.clip(np.floor(vs), 0, cols - 2).astype(np.int64)
    i0[~inb] = 0
    j0[~inb] = 0
    fu = np.where(inb, us - i0, 0.0)
    fv = np.where(inb, vs - j0, 0.0)
    flat = grid.reshape(B, rows * cols)
    base = i0 * cols + j0
    g00 = np.take_along_axis(flat, base, axis=1)
    g01 = np.take_along_axis(flat, base + 1, axis=1)
    g10 = np.take_along_axis(flat, base + cols, axis=1)
    g11 = np.take_along_axis(flat, base + cols + 1, axis=1)
    w00 = (1.0 - fu) * (1.0 - fv)
    w01 = (1.0 - fu) * fv
    w10 = fu * (1.0 - fv)
    w11 = fu * fv
    out = w00 * g00 + w01 * g01 + w10 * g10 + w11 * g11
    out = np.where(inb, out, fill)
    cache = (Hinv, p0, p1, p2, inb, base, fu, fv, (g00, g01, g10, g11),
             (w00, w01, w10, w11))
    return out.reshape(B, rows, cols), cache


def warp_values(grid: np.ndarray, H: np.ndarray, fill: float = 0.5):
    """Numpy-only warp of grids (B, r, c) by H (B, 3, 3).

    Returns the warped grids and the boolean in-bounds ("known") mask.
    """
    out, cache = _warp_forward(np.asarray(grid, dtype=np.float64),
                               np.asarray(H, dtype=np.float64), fill)
    return out, cache[4].reshape(out.shape)


def warp(grid: Tensor, H: Tensor, fill: float = 0.5) -> Tensor:
    """Differentiable warp of ``grid`` by ``H`` (gradients to both inputs)."""
    if grid.tape is not H.tape:
        raise TapeError("grid and H on different tapes")
    out, cache = _warp_forward(grid.values, H.values, fill)
    B, rows, cols = out.shape
    Hinv, p0, p1, p2, inb, base, fu, fv, corners, weights = cache
    g00, g01, g10, g11 = corners
    w00, w01, w10, w11 = weights
    mesh = _mesh(rows, cols)

    def backward(gout):
        gb = gout.reshape(B, rows * cols)
        gb = np.where(inb, gb, 0.0)
        # to the source grid: scatter the bilinear weights with one
        # bincount, which sums each cell's terms in input order from 0.0,
        # as four np.add.at calls corner by corner did
        n = rows * cols
        flat = base + (np.arange(B) * n)[:, None]
        idx = np.concatenate([flat, flat + 1, flat + cols, flat + cols + 1], axis=None)
        wts = np.concatenate([gb * w00, gb * w01, gb * w10, gb * w11], axis=None)
        ggrid = np.bincount(idx, weights=wts, minlength=B * n)
        # to the sample positions
        dfu = gb * ((1.0 - fv) * (g10 - g00) + fv * (g11 - g01))
        dfv = gb * ((1.0 - fu) * (g01 - g00) + fu * (g11 - g10))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv2 = np.where(inb, 1.0 / np.where(inb, p2, 1.0), 0.0)
        gp0 = dfu * inv2
        gp1 = dfv * inv2
        gp2 = -(dfu * p0 + dfv * p1) * inv2 * inv2
        gp = np.stack([gp0, gp1, gp2], axis=1)  # (B, 3, N)
        gHinv = gp @ mesh.T
        gH = -np.transpose(Hinv, (0, 2, 1)) @ gHinv @ np.transpose(Hinv, (0, 2, 1))
        return ggrid.reshape(B, rows, cols), gH

    return grid.tape.record("warp", out, (grid, H), backward)


def jaccard_loss(pred: Tensor, truth: Tensor) -> Tensor:
    """1 - soft-IoU of grids (B, r, c), averaged over the batch.

    Both-empty pairs contribute exactly 0 (and zero gradient).  For grids
    valued in [0, 1] the loss lies in [0, 1].
    """
    if pred.values.shape != truth.values.shape or pred.values.ndim != 3:
        raise TapeError(f"pred and truth must both be (B, r, c), got "
                        f"{pred.values.shape} and {truth.values.shape}")
    B = pred.values.shape[0]
    p = pred.reshape(B, -1)
    g = truth.reshape(B, -1)
    inter = (p * g).sum(axis=1)
    denom = p.sum(axis=1) + g.sum(axis=1) - inter
    empty = denom.values == 0.0
    nonempty = pred.tape.const((~empty).astype(np.float64))
    guard = pred.tape.const(empty.astype(np.float64))
    loss = (1.0 - inter / (denom + guard)) * nonempty
    return loss.mean()


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
    offsets = np.asarray(offsets_fn(x), dtype=np.float64).reshape(B, 4, 2)
    out, mask = warp_values(grid, solve_values(offsets, r, c))
    return (out, mask) if return_mask else out
