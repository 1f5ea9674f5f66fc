"""PlanarRiver: a drone-over-river CSMDP on the ground plane.

A Catmull-Rom spline on z = 0 defines the river centerline; water is the
band within half the river width of the spline.  The agent is a pinhole
camera with one fixed setting (a square image of ``IMAGE_SIZE`` = 128
pixels a side, 90 degree FOV, pitch ``PITCH`` = -30 degrees) whose binary
water image is patchified, ``PATCH`` = 8 pixels a side, into the 16x16
observation grid.  Rewards are one-shot per spline segment; leaving the
river volume is a severe reset, flying against the current direction a
minor one.  The immediate cost in live states is a band penalty on the
observed water fraction, a stand-in for shaped water-coverage costs.

The scene is a single plane seen through a pinhole, so consecutive
observations are related by exact homographies; only patch quantization
and newly revealed terrain are unpredictable.

The centerline is queried through a :class:`CenterlineIndex`, numpy only,
built once per spline: the exact nearest of the spline's dense points to
each query point, with the bits of a ``cKDTree`` over the same points.  Its
distance is the ``sqrt`` of the least ``dx * dx + dy * dy``, of points at
exactly that distance the lowest row wins, and a bounded query misses,
with ``inf`` and the row ``len(data)``, unless that square lies below the
bound's square.

``render_river_mask(pose, raster)`` returns, bit for bit, the patch grid
of one nearest-point query per pixel ground hit, while computing few of
those hits and querying few of them.  Each spline gets a distance raster,
built once when the env installs it and the renderer's only source of the
centerline: a lattice of 0.5-unit cells over the centerline's bounding box
padded by w/2 plus a cell.  Each holds the distance ``d0``
from a point ``c0`` and the nearest centerline point ``q0``: ``c0`` is the
cell's centre near the water's edge, and elsewhere the centre of its 2-unit
block, whose one query decides all of it.  The distance is 1-Lipschitz,
so a hit ``p`` is water when ``|p - q0|`` is below w/2 and dry when ``d0 -
|p - c0|`` is above it; a patch whose corner rays
hit the ground is the convex quad of its corner hits, and the same bounds
at the quad's centroid, widened by its radius, decide all of it.  Every
decision clears w/2 by a slack of 1e-9 relative to the distances, far above
their rounding.  A patch left open is water once its certain water pixels
are more than half of it and dry once they can no longer be; only the
undecided pixels of the patches still open are queried, bounded one ulp
above w/2 so that a hit at exactly w/2 still counts as water.

``tests/test_envs.py`` keeps scipy's ``cKDTree`` as the independent
reference.  It compares the index with one, distances and rows, on the
raster and frame queries of seeded flights, on points off the index's
lattice and on bounds within an ulp of a distance.  It compares the grid
with the per-pixel reference of ``tests/reference_render.py``: over 2,100
frames of seeded flights (with patches of exactly 32 and 33 water pixels,
the majority's threshold), over hypothesis-drawn views, and over one-point
rivers that make each bound tight to two ulps on a ``cKDTree`` and on one
whose distances stray by 1e-12, where a bound without its slack decides
wrongly.  It also pins the rows each frame and each raster query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base import StepResult, integer_action, marginal_gain

__all__ = [
    "CenterlineIndex",
    "PlanarRiver",
    "RiverLevel",
    "RIVER_LEVELS",
    "build_spline",
    "render_river_mask",
    "distance_raster",
    "band_penalty",
    "nearest_segment",
]


@dataclass(frozen=True)
class RiverLevel:
    n_ctrl: int       # control points; more points, more bends
    amplitude: float  # lateral excursion per bend


RIVER_LEVELS = {
    "easy": RiverLevel(5, 5.0),
    "medium": RiverLevel(7, 9.0),
    "hard": RiverLevel(9, 13.0),
}


# ---------------------------------------------------------------------------
# spline geometry

def _catmull_rom(p0, p1, p2, p3, t: float) -> np.ndarray:
    t2, t3 = t * t, t * t * t
    return 0.5 * ((2.0 * p1) + (-p0 + p2) * t
                  + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2
                  + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3)


def _sample_catmull_rom(ctrl: np.ndarray, n_segments: int) -> np.ndarray:
    """Uniform Catmull-Rom through ``ctrl`` with clamped ends; (n+1, 2) points."""
    ext = np.vstack([ctrl[:1], ctrl, ctrl[-1:]])
    spans = len(ctrl) - 1
    pts = np.empty((n_segments + 1, 2))
    for j in range(n_segments + 1):
        s = spans * j / n_segments
        k = min(int(s), spans - 1)
        pts[j] = _catmull_rom(ext[k], ext[k + 1], ext[k + 2], ext[k + 3], s - k)
    return pts


def _is_simple(pts: np.ndarray) -> bool:
    """True when no two non-adjacent segments of the polyline cross properly.

    Segments i and j (j >= i + 2) cross when each one's endpoints lie
    strictly on opposite sides of the other; touching or collinear pairs do
    not count.  The orientation of r about p->q is the sign of
    ``(q0-p0)*(r1-p1) - (q1-p1)*(r0-p0)``, evaluated for all pairs at once.
    """
    i, j = np.triu_indices(len(pts) - 1, k=2)
    a, b, c, d = pts[i], pts[i + 1], pts[j], pts[j + 1]

    def orient(p, q, r):
        return np.sign((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
                       - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))

    crossed = ((orient(a, b, c) * orient(a, b, d) < 0)
               & (orient(c, d, a) * orient(c, d, b) < 0))
    return not crossed.any()


N_SEGMENTS = 40  # segments of every centerline
SPACING = 14.0  # x distance between consecutive control points
DENSE_PER_SEGMENT = 20  # dense points per segment that the index holds


def build_spline(rng: np.random.Generator, n_ctrl: int, amplitude: float) -> np.ndarray:
    """Simple (non-self-intersecting) centerline polyline of ``N_SEGMENTS``."""
    for _ in range(100):
        ys = [0.0]
        sign = float(rng.choice([-1.0, 1.0]))
        for _ in range(n_ctrl - 1):
            ys.append(ys[-1] + sign * float(rng.uniform(0.3, 1.0)) * amplitude)
            sign = -sign
        ctrl = np.stack([np.arange(n_ctrl) * SPACING, np.array(ys)], axis=1)
        pts = _sample_catmull_rom(ctrl, N_SEGMENTS)
        if _is_simple(pts):
            return pts
    raise RuntimeError("failed to draw a simple spline")


def _dense_points(pts: np.ndarray) -> np.ndarray:
    a, b = pts[:-1], pts[1:]
    ts = np.linspace(0.0, 1.0, DENSE_PER_SEGMENT, endpoint=False)
    dense = (a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
    return np.concatenate([dense, pts[-1:]], axis=0)


def nearest_segment(p, pts: np.ndarray) -> tuple[float, int]:
    """Exact distance from a ground point to the polyline and the nearest
    segment index."""
    p = np.asarray(p, dtype=np.float64)
    a, b = pts[:-1], pts[1:]
    ab = b - a
    t = np.clip(((p - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.sqrt(((p - proj) ** 2).sum(axis=1))
    i = int(np.argmin(d))
    return float(d[i]), i


def _wrap(angle: float) -> float:
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# camera

IMAGE_SIZE = 128  # pixels a side of the square image
PATCH = 8  # pixels a side of an observation patch
PITCH = -np.pi / 6.0  # the camera looks 30 degrees down


class _PatchOffsets(NamedTuple):
    """Pixel offsets by patch.

    ``u`` holds the u of a patch's pixels, row-major within the patch, for
    each patch column and ``v`` their v for each patch row, both (n, PATCH
    * PATCH); ``corner_u`` and ``corner_v`` hold the four corner pixels of
    every patch, (n * n, 4), row-major over the patch grid.
    """

    u: np.ndarray
    v: np.ndarray
    corner_u: np.ndarray
    corner_v: np.ndarray


def _camera_tables() -> tuple[tuple[np.ndarray, np.ndarray], _PatchOffsets]:
    """The tangent offsets u of every pixel column and v of every pixel
    row, and the same offsets by patch, all read-only."""
    half = (IMAGE_SIZE - 1) / 2.0
    j = np.arange(IMAGE_SIZE)
    u = (j - half) / (IMAGE_SIZE / 2.0)       # right, in tan units (90 FOV)
    v = (half - j) / (IMAGE_SIZE / 2.0)       # up
    pixels = (u, v)
    n = IMAGE_SIZE // PATCH
    u, v = u.reshape(n, PATCH), v.reshape(n, PATCH)
    r, c = np.indices((PATCH, PATCH)).reshape(2, -1)
    # (patch row, patch column, top/bottom, left/right)
    corners = (n, n, 2, 2)
    patches = _PatchOffsets(
        u[:, c], v[:, r],
        np.broadcast_to(u[None, :, None, [0, -1]], corners).reshape(n * n, 4),
        np.broadcast_to(v[:, None, [0, -1], None], corners).reshape(n * n, 4))
    for a in (*pixels, *patches):
        a.flags.writeable = False
    return pixels, patches


# built once and shared by every frame, so no caller may write into them
_PIXEL_OFFSETS, _PATCH_OFFSETS = _camera_tables()


RASTER_CELL = 0.5  # side of a distance-raster cell, in ground units
BLOCK = 4  # cells per side of a raster block, whose centre is queried first


LATTICE = BLOCK * RASTER_CELL  # side of a cell of the centerline index
PRUNE_MARGIN = 1e-6  # absolute slack on the index's segment pruning
# points per pass of a query: the temporaries of a longer pass come fresh
# from the system at every call, and faulting their pages in cost more than
# the arithmetic on them
QUERY_CHUNK = 256
_PAIR = np.arange(2)[:, None]  # the offsets of a segment's two candidate rows


class CenterlineIndex:
    """Exact nearest dense centerline point of the polyline ``pts``.

    ``data`` holds the dense points of :func:`_dense_points`, ``mins`` and
    ``maxes`` their bounding box.  ``query(x, distance_upper_bound=inf)``
    takes points (N, 2) and returns their distances and the rows of their
    nearest dense points, with the bits of a ``cKDTree`` over ``data``:

    * the distance is the ``sqrt`` of the smallest ``dx * dx + dy * dy``;
    * of points at exactly the same distance the lowest row wins;
    * where the smallest squared distance is not below
      ``distance_upper_bound ** 2`` the query misses, and returns ``inf``
      and the row ``len(data)``.

    The dense points of segment k are the rows kD .. kD + D, D =
    ``DENSE_PER_SEGMENT``, equally spaced along it, so with t the clipped
    projection of a query onto the segment only rows ``floor(D t)`` and the
    next can be its nearest.  Which segments can hold the nearest point
    comes from a lattice of ``LATTICE`` cells over the bounding box padded
    by ``pad``, from a corner at a multiple of ``LATTICE``, and a ring of
    border cells around it that reach to infinity.  Every point of a cell
    lies within the cell's farthest-corner distance of each segment's start
    point, so within the least of those, the cell's bound, of its nearest
    point.  A segment whose bounding box is farther than the bound (plus
    ``PRUNE_MARGIN``, far above rounding) from the cell cannot hold it.  One
    table, built once, keeps each cell's range of segments from the first
    that can to the last; it lists at least the segment the bound comes
    from, and every query, bounded or not, reads it.  A query pads every
    point's range to the widest one of its call, and past the last segment
    repeats it.  A segment in a range that cannot hold the nearest point is
    strictly farther, so it never wins or ties, and a bounded query misses
    exactly where the nearest point is not below its bound.
    """

    def __init__(self, pts: np.ndarray, pad: float):
        self.data = _dense_points(pts)
        x, y = self.data.T
        self.mins = np.array([x.min(), y.min()])
        self.maxes = np.array([x.max(), y.max()])
        self._z = self.data.view(np.complex128)[:, 0]
        a, b = pts[:-1], pts[1:]
        ab = b - a
        n_seg = len(ab)
        # per segment, as complex numbers: conj(g) and h + i * its first row,
        # where D t = q . g - h for a query q; repeated past the last segment
        g = ab * (DENSE_PER_SEGMENT / (ab * ab).sum(axis=1))[:, None]
        params = np.stack([g[:, 0] - 1j * g[:, 1],
                           (a * g).sum(axis=1) + 1j * DENSE_PER_SEGMENT * np.arange(n_seg)])
        self._proj, self._offset = params[:, np.minimum(np.arange(2 * n_seg), n_seg - 1)]
        lo = np.floor((self.mins - pad) / LATTICE) * LATTICE
        n = np.ceil((self.maxes + pad - lo) / LATTICE).astype(int)

        def extent(k):
            # (segments, cells along axis k, the border ones included): each
            # start point's squared farthest distance and each segment
            # box's squared gap
            edges = np.concatenate([[-np.inf], lo[k] + np.arange(n[k] + 1) * LATTICE,
                                    [np.inf]])
            left, right, s = edges[:-1], edges[1:], a[:, k, None]
            far = np.maximum(s - left, right - s)
            gap = np.maximum(np.minimum(a[:, k], b[:, k])[:, None] - right,
                             left - np.maximum(a[:, k], b[:, k])[:, None])
            gap = np.maximum(gap, 0.0)
            return far * far, gap * gap

        (fx, gx), (fy, gy) = extent(0), extent(1)
        bound = np.sqrt((fx[:, :, None] + fy[:, None, :]).min(axis=0)) + PRUNE_MARGIN
        listed = gx[:, :, None] + gy[:, None, :] <= bound * bound  # (segments, columns, rows)
        first = listed.argmax(axis=0)
        width = n_seg - listed[::-1].argmax(axis=0) - first
        self._slots = np.arange(n_seg)[:, None]
        # a query looks a point up in a unit cell, which spares it a scaling:
        # (column, row) of the unit lattice from lo - 1, LATTICE unit cells a
        # side to a lattice cell and one to a border cell, each unit cell's
        # (first, width) repeated from its lattice cell's
        rx, ry = (np.r_[1, np.full(m, int(LATTICE)), 1] for m in n)
        self._first, self._width = (v.repeat(rx, axis=0).repeat(ry, axis=1).ravel()
                                    for v in (first, width))
        self._lo, self._cells = lo - 1.0, tuple(n * int(LATTICE) + 2)

    def query(self, x, distance_upper_bound: float = np.inf):
        """(distances, rows) of the nearest dense points of the points
        ``x`` (N, 2), under the contract above."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if len(x) <= QUERY_CHUNK:
            return self._query(x, distance_upper_bound)
        parts = [self._query(x[i:i + QUERY_CHUNK], distance_upper_bound)
                 for i in range(0, len(x), QUERY_CHUNK)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _query(self, x, distance_upper_bound):
        # truncation is floor on the unit lattice, and clipping sends every
        # point below it to the border cell, as floor would
        ij = (x - self._lo).astype(np.intp)
        cell = np.ravel_multi_index(ij.T, self._cells, mode="clip")
        width = np.maximum.reduce(self._width[cell], initial=1)
        segs = self._first[cell] + self._slots[:width]
        z = x.view(np.complex128)[:, 0]
        offset = self._offset[segs]
        t = (z * self._proj[segs]).real - offset.real
        np.maximum(t, 0.0, out=t)
        np.minimum(t, DENSE_PER_SEGMENT - 1, out=t)
        t += offset.imag
        # (segment, pair) major, so rows ascend and argmin takes the lowest tie
        rows = (t.astype(np.intp)[:, None] + _PAIR).reshape(2 * width, -1)
        diff = self._z[rows]
        np.subtract(z, diff, out=diff)
        sq = diff.view(np.float64)
        np.square(sq, out=sq)
        d2 = sq[:, 0::2] + sq[:, 1::2]  # dx * dx + dy * dy
        # the flat position of each column's least
        k = d2.argmin(axis=0) * len(x) + np.arange(len(x))
        best = d2.ravel()[k]
        found = best < distance_upper_bound * distance_upper_bound
        return (np.where(found, np.sqrt(best), np.inf),
                np.where(found, rows.ravel()[k], len(self.data)))


class DistanceRaster(NamedTuple):
    """Distances to the centerline on a square lattice, one triple a cell.

    The cells are ``RASTER_CELL`` squares, ``nx`` by ``ny`` of them from
    the corner ``(x0, y0)``, a multiple of ``BLOCK * RASTER_CELL``.
    ``cells`` is (5, ny * nx), row-major over the lattice: a point ``c0``'s
    distance ``d0`` as ``tree`` reports it, and the nearest point ``q0``
    (each its x and y), then ``c0`` (its x and y).  ``c0`` is the cell's
    centre, or the centre of its block of ``BLOCK`` x ``BLOCK`` cells where
    that block's query alone settles every point of the block.
    """

    tree: object  # a CenterlineIndex, or anything with its query contract
    half: float  # half the river width the lattice is padded for
    x0: float
    y0: float
    nx: int
    ny: int
    cells: np.ndarray


def distance_raster(tree, w: float) -> DistanceRaster:
    """The raster of ``tree`` over the points' bounding box padded by w/2 +
    ``RASTER_CELL``, so that a point off it is farther than w/2 from every
    point.  ``tree`` is a :class:`CenterlineIndex`, or any object with its
    ``query``, ``data``, ``mins`` and ``maxes`` (the tests pass a
    ``cKDTree``); the cells hold its distances and nearest points as it
    reports them.

    Each block is queried at its centre ``C`` first.  Where ``|d(C) - w/2|``
    exceeds the block's half-diagonal ``r``, the bounds at ``C`` with
    radius ``r`` already find every point of the block dry, or every point
    water, but for their slack, so its cells take that query; the cells of
    the other blocks, those the water's edge can cross, are each queried at
    their own centre.
    """
    h, half = RASTER_CELL, w / 2.0
    side = BLOCK * h
    lo = np.floor((tree.mins - (half + h)) / side) * side
    nbx, nby = np.ceil((tree.maxes + (half + h) - lo) / side).astype(int)

    def query(size, ix, iy):
        c0 = lo[:, None] + (np.stack([ix, iy]) + 0.5) * size
        d0, nearest = tree.query(c0.T)
        return np.vstack([d0, tree.data[nearest].T, c0])

    bx, by = np.meshgrid(np.arange(nbx), np.arange(nby))
    blocks = query(side, bx.ravel(), by.ravel())
    iy, ix = np.divmod(np.arange(nbx * nby * BLOCK * BLOCK), nbx * BLOCK)
    block = iy // BLOCK * nbx + ix // BLOCK
    cells = blocks[:, block]
    edge = np.abs(blocks[0] - half) <= side / np.sqrt(2.0)
    fine = np.flatnonzero(edge[block])
    cells[:, fine] = query(h, ix[fine], iy[fine])
    return DistanceRaster(tree, half, float(lo[0]), float(lo[1]),
                          int(nbx * BLOCK), int(nby * BLOCK), cells)


def _raster_cell(raster: DistanceRaster, x, y):
    """(on the raster, cell index) of the points (x, y): the cell each lies
    in, or for one off the raster the nearest cell of its edge."""
    fx, fy = (x - raster.x0) / RASTER_CELL, (y - raster.y0) / RASTER_CELL
    inside = (fx >= 0.0) & (fx < raster.nx) & (fy >= 0.0) & (fy < raster.ny)
    return inside, (np.clip(fy, 0, raster.ny - 1).astype(np.intp) * raster.nx
                    + np.clip(fx, 0, raster.nx - 1).astype(np.intp))


def _raster_bounds(raster: DistanceRaster, x, y, radius=0.0):
    """(wet, dry, on the raster) for the points (x, y): wet where every
    point within ``radius`` of one is certainly within w/2 of the
    centerline, dry where every such point is certainly beyond it, both by
    the bounds of its cell, which hold for any cell."""
    inside, cell = _raster_cell(raster, x, y)
    d0, qx, qy, cx, cy = raster.cells[:, cell]
    to_c = np.sqrt((x - cx) ** 2 + (y - cy) ** 2) + radius
    to_q = np.sqrt((x - qx) ** 2 + (y - qy) ** 2) + radius
    slack = 1e-9 * (1.0 + d0 + to_c)
    return to_q < raster.half - slack, d0 - to_c > raster.half + slack, inside


def render_river_mask(pose, raster: DistanceRaster) -> np.ndarray:
    """Patch grid of the water seen from ``pose`` = (x, y, z, yaw).

    The camera is fixed: ``IMAGE_SIZE`` pixels a side, ``PATCH``-pixel
    patches, pitch ``PITCH``.  Each pixel ray is intersected with the
    ground plane; a hit whose nearest dense centerline point, as the
    raster's ``tree`` reports it, lies within w/2 = ``raster.half`` is
    water, rays at or above the horizon are not, and a patch is water when
    more than half of its pixels are.  The tree is the env's
    :class:`CenterlineIndex`, or any object with its ``query``, ``data``,
    ``mins`` and ``maxes`` and their contract (the tests pass a
    ``cKDTree``): a bounded query finds a point only below the bound.

    The result equals one ``tree.query`` per hit pixel, patch for patch,
    yet most hits are never computed and few are queried.  ``d``, the
    distance to the nearest point, is 1-Lipschitz.  A raster cell holds
    ``d0 = d(c0)`` at a point ``c0`` and the nearest point ``q0``.
    Every decision clears w/2 by a slack ``s`` of 1e-9 times one plus the
    distances it adds up, orders of magnitude above the rounding it must
    absorb:

    * a hit ``p`` is water if ``|p - q0| < w/2 - s``: ``q0`` is a
      centerline point, so ``d(p) <= |p - q0|``.  It is dry if ``d0 - |p -
      c0| > w/2 + s``, by the Lipschitz bound.  ``s = 1e-9 (1 + d0 + |p -
      c0|)`` absorbs the rounding of the distances, ``|p - q0|``'s too
      since ``|p - q0| <= d0 + |p - c0|``, and a tree whose distances
      stray from the exact ones by far more than its own rounding.  The
      bounds hold for any cell; the cell that ``p`` lies in makes them
      tight to within ``|p - c0|``: at most 0.36 near the water's edge,
      where ``c0`` is the cell's centre;
    * a patch is decided from its four corner pixels.  ``right[2] == 0``,
      so ``dz`` depends on the pixel row alone, and monotonically: if the
      corner rays hit the ground, so does every ray of the patch, and no
      vanishing line crosses it.  The ground map is then projective on
      the patch, so it takes the pixel rectangle to the convex quad of the
      corner hits, and every pixel hit lies in that quad.  With ``c`` the
      corners' centroid and ``R`` its largest distance to a corner, no hit
      is farther than ``R`` from ``c`` (a convex function peaks at a
      vertex).  So the two bounds at ``c``, widened by ``R``, decide the
      patch: it is water if ``|c - q0| + R < w/2 - s`` and dry if ``d0 -
      |c - c0| - R > w/2 + s``, ``s = 1e-9 (1 + d0 + |c - c0| + R)``; a
      centroid off the raster takes the nearest cell of its edge.  Besides
      the rounding of the distances, ``s`` absorbs how far a computed hit
      can stray from the quad of the computed corners: a row's computed
      ``dz`` is the exact ``dz`` of a row moved by a few ulps, the same row
      for its corners and its other pixels, so a hit strays by a few ulps
      of the patch's longest ray ``t |d|``, while ``R`` is at least a
      thirty-second of it: the corners of the farthest row lie ``t * 7/64``
      apart (8x8 patches of 128 pixels), and ``|d| <= sqrt(3)``;
    * before that, a patch whose four corner hits all lie more than ``w/2
      + s`` beyond one side of the points' bounding box (below ``x0``,
      above ``x1``, or likewise in y), ``s = 1e-9 (1 + R + |c_x| +
      |c_y|)``, is dry: its hits lie in the quad, beyond that side by more
      than w/2, and so farther than w/2 from every point.  ``s`` absorbs
      how far a computed hit strays from the quad, a few ulps of ``t |d|``
      as above, and the rounding of coordinates of size up to ``|c| + R``;
    * in the patches left, the hits are computed with the same elementwise
      expressions as one pixel at a time, so they have the same bits.  A
      hit off the raster lies more than w/2 + ``RASTER_CELL`` beyond the
      points' bounding box, and is dry; the others are decided by their own
      cell.  A patch is water once its certain water pixels are more than
      half of it, and dry once they can no longer be, with its undecided
      pixels counted as water.  Only the undecided pixels of the patches
      still open are queried, with ``distance_upper_bound = nextafter(w/2,
      inf)``: the bound is strict, so a hit at exactly w/2 is still found,
      and every hit beyond it comes back as ``inf``, dry.
    """
    tree, half = raster.tree, raster.half
    x, y, z, yaw = (float(q) for q in pose)
    cp, sp = np.cos(PITCH), np.sin(PITCH)
    cy, sy = np.cos(yaw), np.sin(yaw)
    fwd = np.array([cp * cy, cp * sy, sp])
    right = np.array([sy, -cy, 0.0])
    up = np.array([-cy * sp, -sy * sp, cp])

    def ground(u, v):
        # ray directions, one component at a time in the operation order of
        # fwd + u * right + v * up, and ground hits: elementwise, so a hit
        # pixel gets the bits of the per-pixel expressions -z / dz[hit] and
        # x + t * dx[hit]; the other pixels are never read
        dx, dy, dz = (fwd[k] + u * right[k] + v * up[k] for k in range(3))
        hit = dz < -1e-12
        t = -z / np.where(hit, dz, -1.0)
        return hit, x + t * dx, y + t * dy

    n, majority = IMAGE_SIZE // PATCH, PATCH * PATCH / 2.0
    grid = np.zeros(n * n)
    hit, gx, gy = ground(_PATCH_OFFSETS.corner_u, _PATCH_OFFSETS.corner_v)
    open_ = hit.any(axis=1)  # a patch whose corner rows miss has no hit
    full = np.flatnonzero(hit.all(axis=1))
    gx, gy = gx[full], gy[full]
    cx, cy = gx.mean(axis=1), gy.mean(axis=1)
    radius = np.sqrt(((gx - cx[:, None]) ** 2 + (gy - cy[:, None]) ** 2).max(axis=1))
    # corners all beyond one side of the points' bounding box padded by w/2
    # leave the whole quad there: the patch is dry without a lookup
    (x0, y0), (x1, y1) = tree.mins, tree.maxes
    pad = half + 1e-9 * (1.0 + radius + np.abs(cx) + np.abs(cy))
    beyond = ((gx.max(axis=1) < x0 - pad) | (gx.min(axis=1) > x1 + pad)
              | (gy.max(axis=1) < y0 - pad) | (gy.min(axis=1) > y1 + pad))
    open_[full[beyond]] = False
    keep = ~beyond
    full = full[keep]
    wet, dry, _ = _raster_bounds(raster, cx[keep], cy[keep], radius[keep])
    grid[full[wet]] = 1.0
    open_[full] = ~wet & ~dry

    rows = np.flatnonzero(open_)
    hit, gx, gy = ground(_PATCH_OFFSETS.u[rows % n], _PATCH_OFFSETS.v[rows // n])
    wet, dry, inside = _raster_bounds(raster, gx, gy)
    hit &= inside
    wet &= hit
    ask = hit & ~wet & ~dry
    count = wet.sum(axis=1)
    ask &= ((count <= majority) & (count + ask.sum(axis=1) > majority))[:, None]
    dist, _ = tree.query(np.stack([gx[ask], gy[ask]], axis=1),
                         distance_upper_bound=np.nextafter(half, np.inf))
    wet[ask] = dist <= half
    grid[rows] = wet.sum(axis=1) > majority
    return grid.reshape(n, n)


def band_penalty(phi: float) -> float:
    """0 inside the water-fraction band [0.15, 0.75], linear ramp to 1 at
    phi = 0 or 1."""
    lo, hi = 0.15, 0.75
    if phi < lo:
        return (lo - phi) / lo
    if phi > hi:
        return (phi - hi) / (1.0 - hi)
    return 0.0


# ---------------------------------------------------------------------------
# environment

class PlanarRiver:
    """Camera-over-spline CSMDP with MultiDiscrete (3,3,3,3) actions.

    Branches map {0,1,2} to {-1,0,+1} times the step size, in order:
    vertical translation, yaw rotation, forward, strafe (heading frame,
    rotation applied before translation).

    Every ``reset`` draws a new spline and builds its
    :class:`CenterlineIndex`, its lattice padded like the raster, and its
    :func:`distance_raster`, which the env owns and renders each frame of
    the episode with.  No river loads scipy.
    """

    branches = (3, 3, 3, 3)
    obs_shape = (IMAGE_SIZE // PATCH,) * 2
    STEP_XY = 0.5
    STEP_Z = 0.5
    STEP_YAW = np.pi / 12.0   # 15 degrees
    W = 6.0                   # full river width; water within W/2
    D_MAX = 6.0
    Z_RANGE = (2.0, 12.0)

    def __init__(self, level: str = "medium", timeout: int = 500, seed: int = 0):
        if level not in RIVER_LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self.timeout = timeout
        self._rng = np.random.default_rng(seed)
        self._done = True
        self._segments = frozenset(range(N_SEGMENTS))
        self.pts = None
        self.visited: set = set()
        self.steps = 0
        self.x = self.y = self.z = self.yaw = 0.0

    # ---- episode control ----

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Spline and pose from ``rng``, else the constructor's stream."""
        rng = self._rng if rng is None else rng
        lvl = RIVER_LEVELS[self.level]
        self._install_spline(build_spline(rng, lvl.n_ctrl, lvl.amplitude))
        k = int(rng.integers(3))
        base = self.pts[k] + float(rng.uniform()) * (self.pts[k + 1] - self.pts[k])
        tangent = self._angles[k]
        normal = np.array([-np.sin(tangent), np.cos(tangent)])
        lateral = float(rng.uniform(-self.W / 4.0, self.W / 4.0))
        self.x, self.y = base + lateral * normal
        self.z = float(rng.uniform(4.0, 8.0))
        self.yaw = _wrap(tangent + float(rng.uniform(-np.pi / 6.0, np.pi / 6.0)))
        # the home segment never pays out: standing still earns nothing
        dist, seg = nearest_segment((self.x, self.y), self.pts)
        self.visited = {seg} if dist <= self.W / 2.0 else set()
        self.steps = 0
        self._done = False
        return self._render()

    def _install_spline(self, pts: np.ndarray) -> None:
        self.pts = pts
        diffs = pts[1:] - pts[:-1]
        self._angles = np.arctan2(diffs[:, 1], diffs[:, 0])
        index = CenterlineIndex(pts, self.W / 2.0 + RASTER_CELL)
        self._raster = distance_raster(index, self.W)

    def _render(self) -> np.ndarray:
        return render_river_mask((self.x, self.y, self.z, self.yaw), self._raster)

    # ---- dynamics ----

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = integer_action(action, 4)
        if a.min() < 0 or a.max() > 2:
            raise ValueError(f"action {action!r} outside MultiDiscrete (3,3,3,3)")
        d = a - 1
        self.z += self.STEP_Z * d[0]
        self.yaw = _wrap(self.yaw + self.STEP_YAW * d[1])
        cy, sy = np.cos(self.yaw), np.sin(self.yaw)
        self.x += self.STEP_XY * (d[2] * cy + d[3] * sy)
        self.y += self.STEP_XY * (d[2] * sy - d[3] * cy)
        self.steps += 1

        dist, seg = nearest_segment((self.x, self.y), self.pts)
        obs = self._render()
        if dist > self.D_MAX or not self.Z_RANGE[0] <= self.z <= self.Z_RANGE[1]:
            self._done = True
            return StepResult(obs, 0.0, 1.0, True, "severe")
        if abs(_wrap(self.yaw - self._angles[seg])) > np.pi / 2.0:
            self._done = True
            return StepResult(obs, 0.0, 0.5, True, "minor")

        element = seg if dist <= self.W / 2.0 else None
        reward = marginal_gain(self._segments, self.visited, element)
        if reward:
            self.visited.add(seg)
        cost = band_penalty(float(obs.mean()))
        if self.steps >= self.timeout:
            self._done = True
            return StepResult(obs, reward, cost, True, "timeout")
        return StepResult(obs, reward, cost, False, "none")
