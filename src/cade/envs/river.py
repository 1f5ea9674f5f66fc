"""PlanarRiver: a drone-over-river CSMDP on the ground plane.

A Catmull-Rom spline on z = 0 defines the river centerline; water is the
band within half the river width of the spline.  The agent is a pinhole
camera (square image, 90 degree FOV, pitch fixed at -30 degrees) whose
binary water image is patchified into the 16x16 observation grid.  Rewards
are one-shot per spline segment; leaving the river volume is a severe
reset, flying against the current direction a minor one.  The immediate
cost in live states is a band penalty on the observed water fraction, a
stand-in for shaped water-coverage costs.

The scene is a single plane seen through a pinhole, so consecutive
observations are related by exact homographies; only patch quantization
and newly revealed terrain are unpredictable.

``render_river_mask`` returns, bit for bit, the grid of one nearest-point
query per pixel ground hit, without making most of those queries.  A patch
whose pixels all hit the ground is decided whole from one query at the
centroid of its hits: the distance to the nearest point is 1-Lipschitz, so
the centroid's distance plus or minus the patch's ground radius bounds
every pixel's, and a decision needs the bound clear of w/2 by a slack of
1e-9 relative to the distances, far above their rounding.  Of the pixels
left, hits beyond the centerline's bounding box padded by w/2 are dry; the
rest are queried with an upper bound one ulp above w/2, so that a hit at
exactly w/2 still counts as water.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .base import StepResult, marginal_gain

__all__ = [
    "PlanarRiver",
    "RiverLevel",
    "RIVER_LEVELS",
    "build_spline",
    "render_river_mask",
    "patchify",
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


def build_spline(rng: np.random.Generator, n_ctrl: int, amplitude: float,
                 n_segments: int = 40, spacing: float = 14.0) -> np.ndarray:
    """Simple (non-self-intersecting) centerline polyline of ``n_segments``."""
    for _ in range(100):
        ys = [0.0]
        sign = float(rng.choice([-1.0, 1.0]))
        for _ in range(n_ctrl - 1):
            ys.append(ys[-1] + sign * float(rng.uniform(0.3, 1.0)) * amplitude)
            sign = -sign
        ctrl = np.stack([np.arange(n_ctrl) * spacing, np.array(ys)], axis=1)
        pts = _sample_catmull_rom(ctrl, n_segments)
        if _is_simple(pts):
            return pts
    raise RuntimeError("failed to draw a simple spline")


def _dense_points(pts: np.ndarray, per_segment: int = 20) -> np.ndarray:
    a, b = pts[:-1], pts[1:]
    ts = np.linspace(0.0, 1.0, per_segment, endpoint=False)
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

_PIXEL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pixel_offsets(image_size: int) -> tuple[np.ndarray, np.ndarray]:
    got = _PIXEL_CACHE.get(image_size)
    if got is None:
        half = (image_size - 1) / 2.0
        j = np.arange(image_size)
        u = (j - half) / (image_size / 2.0)       # right, in tan units (90 FOV)
        v = (half - j) / (image_size / 2.0)       # up
        got = tuple(np.meshgrid(u, v))
        _PIXEL_CACHE[image_size] = got
    return got


def patchify(mask: np.ndarray, patch: int = 8) -> np.ndarray:
    """Binary patch grid: 1 where water pixels strictly exceed half the patch."""
    n = mask.shape[0] // patch
    counts = mask.reshape(n, patch, n, patch).sum(axis=(1, 3))
    return (counts > patch * patch / 2.0).astype(np.float64)


def render_river_mask(pose, pts: np.ndarray | None = None, w: float = 6.0,
                      image_size: int = 128, patch: int = 8,
                      pitch: float = -np.pi / 6.0, tree=None) -> np.ndarray:
    """Patchified water mask seen from ``pose`` = (x, y, z, yaw).

    Each pixel ray is intersected with the ground plane; a hit whose
    nearest dense centerline point ``tree`` reports within w/2 is water,
    rays at or above the horizon are not.  ``tree`` is built from ``pts``
    when not given; it needs ``query``, ``mins`` and ``maxes`` as on a
    ``cKDTree``.

    The result equals one ``tree.query`` per hit pixel, pixel for pixel,
    while most pixels are never queried:

    * a patch whose pixels all hit the ground is decided from one query at
      the centroid ``c`` of its hits, with ``R`` the largest distance from
      ``c`` to a hit: the distance to the nearest point is 1-Lipschitz, so
      ``d(c) + R < w/2 - s`` makes every pixel water and
      ``d(c) - R > w/2 + s`` every pixel dry.  The slack
      ``s = 1e-9 * (1 + d(c) + R)`` exceeds the rounding of the computed
      distances (a few ulps of ``d(c) + R``) by orders of magnitude;
    * of the remaining hits, those outside the points' bounding box padded
      by w/2 are dry without a query;
    * the rest are queried with ``distance_upper_bound =
      nextafter(w/2, inf)``: the bound is strict, so a hit at exactly w/2
      is still found, and every hit beyond it comes back as ``inf``, dry.
    """
    if tree is None:
        if pts is None:
            raise ValueError("render_river_mask needs the river centerline: "
                             "pass pts or tree")
        tree = cKDTree(_dense_points(np.asarray(pts, dtype=np.float64)))
    return patchify(_water_pixels(pose, tree, w, image_size, patch, pitch), patch)


def _water_pixels(pose, tree, w: float, image_size: int, patch: int,
                  pitch: float) -> np.ndarray:
    """Boolean (image_size, image_size) water image of ``render_river_mask``."""
    x, y, z, yaw = (float(q) for q in pose)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    fwd = np.array([cp * cy, cp * sy, sp])
    right = np.array([sy, -cy, 0.0])
    up = np.array([-cy * sp, -sy * sp, cp])
    u, v = _pixel_offsets(image_size)
    # ray directions, one component at a time in the operation order of
    # fwd + u * right + v * up, and ground hits: elementwise, so a hit
    # pixel gets the bits of the per-pixel expressions -z / dz[hit] and
    # x + t * dx[hit]; the other pixels are never read
    dx, dy, dz = (fwd[k] + u * right[k] + v * up[k] for k in range(3))
    hit = dz < -1e-12
    t = -z / np.where(hit, dz, -1.0)

    n = image_size // patch
    m = patch * patch

    def by_patch(a):  # (image_size, image_size) -> (patch index, pixel of patch)
        return a.reshape(n, patch, n, patch).swapaxes(1, 2).reshape(n * n, m)

    hits, gx, gy = by_patch(hit), by_patch(x + t * dx), by_patch(y + t * dy)
    half = w / 2.0
    water = np.zeros((n * n, m), dtype=bool)
    open_ = ~hits.all(axis=1)
    full = np.flatnonzero(~open_)
    if full.size:
        mx, my = gx[full].mean(axis=1), gy[full].mean(axis=1)
        radius = np.sqrt(((gx[full] - mx[:, None]) ** 2
                          + (gy[full] - my[:, None]) ** 2).max(axis=1))
        dc, _ = tree.query(np.stack([mx, my], axis=1))
        slack = 1e-9 * (1.0 + dc + radius)
        wet = dc + radius < half - slack
        water[full[wet]] = True
        open_[full] = ~wet & ~(dc - radius > half + slack)

    ask = np.flatnonzero(hits & open_[:, None])
    qx, qy = gx.flat[ask], gy.flat[ask]
    # a coordinate more than w/2 outside the points' bounding box puts a hit
    # farther than w/2 from all of them, in floating point too: the tree's
    # distance is never below the same coordinate difference
    (x0, y0), (x1, y1) = tree.mins, tree.maxes
    near = ((x0 - qx <= half) & (qx - x1 <= half)
            & (y0 - qy <= half) & (qy - y1 <= half))
    dist, _ = tree.query(np.stack([qx[near], qy[near]], axis=1),
                         distance_upper_bound=np.nextafter(half, np.inf))
    water.flat[ask[near]] = dist <= half
    return water.reshape(n, n, patch, patch).swapaxes(1, 2).reshape(image_size, image_size)


def band_penalty(phi: float, lo: float = 0.15, hi: float = 0.75) -> float:
    """0 inside the water-fraction band, linear ramp to 1 at phi = 0 or 1."""
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
    """

    branches = (3, 3, 3, 3)
    obs_shape = (16, 16)
    STEP_XY = 0.5
    STEP_Z = 0.5
    STEP_YAW = np.pi / 12.0   # 15 degrees
    W = 6.0                   # full river width; water within W/2
    D_MAX = 6.0
    Z_RANGE = (2.0, 12.0)
    N_SEGMENTS = 40

    def __init__(self, level: str = "medium", timeout: int = 500, seed: int = 0):
        if level not in RIVER_LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self.timeout = timeout
        self._rng = np.random.default_rng(seed)
        self._done = True
        self._segments = frozenset(range(self.N_SEGMENTS))
        self.pts = None
        self.visited: set = set()
        self.steps = 0
        self.x = self.y = self.z = self.yaw = 0.0

    # ---- episode control ----

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        rng = self._rng
        lvl = RIVER_LEVELS[self.level]
        self._install_spline(build_spline(rng, lvl.n_ctrl, lvl.amplitude,
                                          self.N_SEGMENTS))
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
        self._tree = cKDTree(_dense_points(pts))

    def _render(self) -> np.ndarray:
        return render_river_mask((self.x, self.y, self.z, self.yaw),
                                 w=self.W, tree=self._tree)

    # ---- dynamics ----

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = np.asarray(action, dtype=np.int64).ravel()
        if a.shape != (4,) or a.min() < 0 or a.max() > 2:
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
