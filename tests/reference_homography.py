"""Value-level homography path as it was before the lean rewrite: the
reference that ``cade.homography`` is checked against bit for bit.

``source_corners`` builds the source corners that ``cade.homography``
caches, and ``_assemble`` rebuilds them each call and fills every column
of A by fancy indexing; ``_warp_forward`` gathers the four bilinear
corners with four ``take_along_axis`` calls.  ``warp_vjp`` is the taped warp's backward on
that forward, so gradients are pinned as well as values.  Offsets are
the offsets head's (B, 8) rows, (dcol, drow) per corner, as in
``cade.homography``.
"""

import numpy as np

from cade.homography import HomographyError


def source_corners(rows, cols):
    """(4, 2) array of (row, col) source corners, TL, TR, BR, BL order."""
    return np.array(
        [[0.0, 0.0],
         [0.0, cols - 1.0],
         [rows - 1.0, cols - 1.0],
         [rows - 1.0, 0.0]],
        dtype=np.float64,
    )


def _dest_corners(offsets, rows, cols):
    src = source_corners(rows, cols)
    offsets = offsets.reshape(-1, 4, 2)
    dest = np.empty_like(offsets)
    dest[:, :, 0] = src[None, :, 0] + offsets[:, :, 1]  # row + drow
    dest[:, :, 1] = src[None, :, 1] + offsets[:, :, 0]  # col + dcol
    return dest


def _assemble(offsets, rows, cols):
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


def solve_values(offsets, rows, cols, return_system=False):
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
    return (H, A) if return_system else H


def _mesh(rows, cols):
    rr, cc = np.meshgrid(np.arange(rows, dtype=np.float64),
                         np.arange(cols, dtype=np.float64), indexing="ij")
    return np.stack([rr.ravel(), cc.ravel(), np.ones(rows * cols)], axis=0)


def _invert(H):
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise HomographyError(f"singular homography ({exc})") from exc


def _warp_forward(grid, H, fill):
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
    cache = (Hinv, p0, p1, p2, inb, fu, fv, (g00, g01, g10, g11))
    return out.reshape(B, rows, cols), cache


def warp_values(grid, H, fill=0.5):
    out, cache = _warp_forward(np.asarray(grid, dtype=np.float64),
                               np.asarray(H, dtype=np.float64), fill)
    return out, cache[4].reshape(out.shape)


def warp_vjp(grid, H, gout, fill=0.5):
    """Gradient of the taped warp to H for an upstream ``gout``; the grids
    are data and take none."""
    out, cache = _warp_forward(grid, H, fill)
    B, rows, cols = out.shape
    Hinv, p0, p1, p2, inb, fu, fv, (g00, g01, g10, g11) = cache
    gb = gout.reshape(B, rows * cols)
    gb = np.where(inb, gb, 0.0)
    dfu = gb * ((1.0 - fv) * (g10 - g00) + fv * (g11 - g01))
    dfv = gb * ((1.0 - fu) * (g01 - g00) + fu * (g11 - g10))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where(inb, 1.0 / np.where(inb, p2, 1.0), 0.0)
    gp0 = dfu * inv2
    gp1 = dfv * inv2
    gp2 = -(dfu * p0 + dfv * p1) * inv2 * inv2
    gp = np.stack([gp0, gp1, gp2], axis=1)  # (B, 3, N)
    gHinv = gp @ _mesh(rows, cols).T
    return -np.transpose(Hinv, (0, 2, 1)) @ gHinv @ np.transpose(Hinv, (0, 2, 1))


def sdm_predict(offsets_fn, grid, action_onehots, return_mask=False):
    B, r, c = grid.shape
    x = np.concatenate([grid.reshape(B, -1), action_onehots], axis=1)
    offsets = np.asarray(offsets_fn(x), dtype=np.float64)
    out, mask = warp_values(grid, solve_values(offsets, r, c))
    return (out, mask) if return_mask else out
