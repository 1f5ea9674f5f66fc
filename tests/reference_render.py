"""Per-pixel river renderer: the reference the patch-level renderer is checked against.

Every pixel ray below the horizon is intersected with the ground plane and
its hit is sent to one nearest-neighbour query; water is a hit within w/2
of the dense centerline points.  Its water pixels, counted by ``patchify``,
give the patch grid ``render_river_mask`` must return, bit for bit.  The
camera is the env's fixed one: the pixel offsets are formed here from its
image size, and the pitch is stated here again.
"""

import numpy as np
from scipy.spatial import cKDTree

from cade.envs.river import IMAGE_SIZE, _dense_points

PITCH = -np.pi / 6.0  # 30 degrees down


def pixel_offsets():
    """The tangent offsets of the 90 degree view: u (right) of every pixel
    column and v (up) of every pixel row, each (IMAGE_SIZE,)."""
    half = (IMAGE_SIZE - 1) / 2.0
    j = np.arange(IMAGE_SIZE)
    return (j - half) / (IMAGE_SIZE / 2.0), (half - j) / (IMAGE_SIZE / 2.0)


def patchify(mask: np.ndarray, patch: int = 8) -> np.ndarray:
    """Binary patch grid: 1 where water pixels strictly exceed half the patch."""
    n = mask.shape[0] // patch
    counts = mask.reshape(n, patch, n, patch).sum(axis=(1, 3))
    return (counts > patch * patch / 2.0).astype(np.float64)


def ray_directions(yaw):
    """The ray direction of every pixel, (row, column, xyz), at heading ``yaw``."""
    cp, sp = np.cos(PITCH), np.sin(PITCH)
    cy, sy = np.cos(yaw), np.sin(yaw)
    fwd = np.array([cp * cy, cp * sy, sp])
    right = np.array([sy, -cy, 0.0])
    up = np.array([-cy * sp, -sy * sp, cp])
    u, v = np.meshgrid(*pixel_offsets())
    return (fwd[None, None, :] + u[..., None] * right[None, None, :]
            + v[..., None] * up[None, None, :])


def ground_hits(pose):
    """Pixel rays of ``pose``: (hit mask, ground x of the hits, ground y of the hits)."""
    x, y, z, yaw = (float(q) for q in pose)
    d = ray_directions(yaw)
    dz = d[..., 2]
    hit = dz < -1e-12
    t = -z / dz[hit]
    gx = x + t * d[..., 0][hit]
    gy = y + t * d[..., 1][hit]
    return hit, gx, gy


def reference_water_pixels(pose, tree, w: float = 6.0) -> np.ndarray:
    """Boolean water image, one tree query per hit pixel.

    The queries are bounded at w, twice the decision radius: a hit within
    w/2 gets its exact distance, and a hit beyond w comes back inf, so
    every decision is the unbounded query's.
    """
    hit, gx, gy = ground_hits(pose)
    water = np.zeros(hit.shape, dtype=bool)
    if hit.any():
        dist, _ = tree.query(np.stack([gx, gy], axis=1), distance_upper_bound=w)
        water[hit] = dist <= w / 2.0
    return water


def reference_render(pose, pts) -> np.ndarray:
    """Patchified water mask of the river along the centerline ``pts``."""
    tree = cKDTree(_dense_points(np.asarray(pts, dtype=np.float64)))
    return patchify(reference_water_pixels(pose, tree))
