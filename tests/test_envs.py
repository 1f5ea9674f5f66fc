"""Environment contracts: ring/cliff gridworld, river camera world, I/O."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import cade
from cade.envs import river
from cade.envs import CLIFF_COUNTS, CliffCircular, PlanarRiver, StepResult, make_env
from cade.envs.base import marginal_gain
from cade.envs.cliff import MOVES, ring_cells
from cade.envs.river import (
    RASTER_CELL,
    RIVER_LEVELS,
    CenterlineIndex,
    _dense_points,
    _is_simple,
    _sample_catmull_rom,
    band_penalty,
    build_spline,
    distance_raster,
    nearest_segment,
    render_river_mask,
)
from reference_render import ground_hits, patchify, reference_render, reference_water_pixels

ACTION_OF = {delta: i for i, delta in enumerate(MOVES)}


W = PlanarRiver.W


def straight_pts(n=40, spacing=2.5, x0=-20.0):
    xs = x0 + spacing * np.arange(n + 1)
    return np.stack([xs, np.zeros(n + 1)], axis=1)


def raster_of(pts, w=W):
    """The distance raster an env installs for the centerline ``pts``."""
    return distance_raster(cKDTree(_dense_points(pts)), w)


def force_layout(env: CliffCircular, cliffs, agent) -> None:
    """Pin the hazard layout and agent cell of a cliff board."""
    env.cliffs = frozenset(cliffs)
    env.agent = tuple(agent)
    env.visited = set()
    env.steps = 0
    env._done = False
    env._rebuild_board()


def force_spline(env: PlanarRiver, pts: np.ndarray) -> None:
    """Pin the centerline of a reset river; the caller sets the pose."""
    env._install_spline(np.asarray(pts, dtype=np.float64))
    env.visited = set()
    env.steps = 0
    env._done = False


# ---------------------------------------------------------------------------
# submodular gain

def test_marginal_gain_submodularity_exhaustive():
    universe = list(range(6))
    targets = frozenset(range(4))
    # assign each element to neither / S2 only / both; S1 subset of S2 by design
    for assignment in itertools.product(range(3), repeat=len(universe)):
        s1 = {e for e, a in zip(universe, assignment) if a == 2}
        s2 = {e for e, a in zip(universe, assignment) if a >= 1}
        for s in universe:
            assert marginal_gain(targets, s1, s) >= marginal_gain(targets, s2, s)


def test_marginal_gain_values():
    assert marginal_gain({1, 2}, set(), 1) == 1.0
    assert marginal_gain({1, 2}, {1}, 1) == 0.0
    assert marginal_gain({1, 2}, set(), 5) == 0.0
    assert marginal_gain({1, 2}, set(), None) == 0.0


def test_step_result_validates_kind():
    obs = np.zeros((5, 5))
    with pytest.raises(ValueError):
        StepResult(obs, 0.0, 0.0, True, "oops")
    with pytest.raises(ValueError):
        StepResult(obs, 0.0, 0.0, True, "none")
    with pytest.raises(ValueError):
        StepResult(obs, 0.0, 0.0, False, "severe")


# ---------------------------------------------------------------------------
# CliffCircular

def test_ring_is_a_closed_20_cell_loop():
    ring = ring_cells()
    assert len(ring) == len(set(ring)) == 20
    for i, (r, c) in enumerate(ring):
        nr, nc = ring[(i + 1) % 20]
        assert abs(nr - r) + abs(nc - c) == 1  # consecutive cells are adjacent


def test_reset_is_seed_deterministic():
    a = CliffCircular("medium", seed=3)
    b = CliffCircular("medium", seed=3)
    np.testing.assert_array_equal(a.reset(), b.reset())
    assert a.cliffs == b.cliffs and a.agent == b.agent


def test_cliff_counts_increase_with_level():
    counts = [CLIFF_COUNTS[lv] for lv in ("easy", "medium", "hard")]
    assert counts == [8, 16, 24]
    for lv, n in CLIFF_COUNTS.items():
        env = CliffCircular(lv, seed=1)
        env.reset()
        assert len(env.cliffs) == n


def test_spawn_is_safe_and_off_track():
    for seed in range(20):
        env = CliffCircular("hard", seed=seed)
        env.reset()
        assert env.agent not in env.cliffs
        assert env.agent not in set(env.track)
        assert not env.cliffs & set(env.track)
        assert env.visited == set()


def test_observation_marks_cliffs_and_walls():
    env = CliffCircular("easy")
    force_layout(env, cliffs=[(1, 1)], agent=(0, 0))
    obs = env._obs()
    assert obs.shape == (5, 5)
    assert np.all(obs[:2, :] == 1.0)  # rows above the board
    assert np.all(obs[:, :2] == 1.0)  # columns left of the board
    assert obs[2, 2] == 0.0           # agent cell
    assert obs[3, 3] == 1.0           # the cliff at (1, 1)
    assert obs[2, 3] == 0.0 and obs[3, 2] == 0.0


def test_edge_moves_clamp_in_place():
    env = CliffCircular("easy")
    force_layout(env, cliffs=[], agent=(0, 0))
    env.step(1)  # up
    assert env.agent == (0, 0)
    env.step(4)  # left
    assert env.agent == (0, 0)
    env.step(3)  # down
    assert env.agent == (1, 0)


def test_track_reward_is_one_shot():
    env = CliffCircular("easy")
    force_layout(env, cliffs=[], agent=(2, 3))
    first = env.step(3)   # onto ring cell (3, 3)
    assert first.reward == 1.0
    second = env.step(3)  # onto ring cell (4, 3)
    assert second.reward == 1.0
    assert env.step(1).reward == 0.0  # back to visited (3, 3)
    assert env.step(0).reward == 0.0  # noop on a visited cell
    assert env.visited == {(3, 3), (4, 3)}


def test_known_neighborhood_cost():
    env = CliffCircular("easy")
    force_layout(env, cliffs=[(5, 6), (6, 5)], agent=(6, 6))
    # two hazards among the 8 neighbors of (6, 6) after a noop
    assert env.step(0).cost == pytest.approx(0.25)


def test_stepping_on_cliff_is_severe():
    env = CliffCircular("easy")
    force_layout(env, cliffs=[(6, 7)], agent=(6, 6))
    res = env.step(2)  # right, onto the cliff
    assert (res.cost, res.terminal, res.kind) == (1.0, True, "severe")
    assert res.obs[2, 2] == 1.0
    with pytest.raises(RuntimeError):
        env.step(0)


def test_timeout_keeps_neighborhood_cost():
    env = CliffCircular("easy", timeout=3)
    force_layout(env, cliffs=[(5, 6)], agent=(6, 6))
    env.step(0)
    env.step(0)
    res = env.step(0)
    assert res.terminal and res.kind == "timeout"
    assert res.cost == pytest.approx(1.0 / 8.0)


def cost_oracle(obs: np.ndarray) -> float:
    """Recompute immediate cost from the emitted observation alone."""
    if obs[2, 2] == 1.0:
        return 1.0
    total = sum(obs[2 + dr, 2 + dc]
                for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0))
    return total / 8.0


def test_cost_is_a_function_of_the_observation():
    rng = np.random.default_rng(0)
    env = CliffCircular("hard", seed=5)
    env.reset()
    for _ in range(3000):
        res = env.step(int(rng.integers(5)))
        assert res.cost == pytest.approx(cost_oracle(res.obs), abs=0.0)
        if res.terminal:
            env.reset()


def ring_walk(env: CliffCircular):
    """BFS to the ring through safe cells, then one full lap; action list."""
    ring = env.track
    ring_set = set(ring)
    start = env.agent
    prev = {start: None}
    frontier = [start]
    goal = None
    while frontier and goal is None:
        nxt = []
        for cell in frontier:
            if cell in ring_set:
                goal = cell
                break
            for dr, dc in MOVES[1:]:
                r, c = cell[0] + dr, cell[1] + dc
                if 0 <= r < env.size and 0 <= c < env.size \
                        and (r, c) not in prev and (r, c) not in env.cliffs:
                    prev[(r, c)] = cell
                    nxt.append((r, c))
        frontier = nxt
    assert goal is not None, "no safe path to the ring for this seed"
    path = [goal]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    k = ring.index(goal)
    path.extend(ring[(k + i) % 20] for i in range(1, 20))
    return [ACTION_OF[(b[0] - a[0], b[1] - a[1])] for a, b in zip(path, path[1:])]


def test_full_coverage_returns_twenty():
    env = CliffCircular("easy", seed=2)
    env.reset()
    total = 0.0
    for action in ring_walk(env):
        res = env.step(action)
        total += res.reward
        assert not res.terminal
    assert total == 20.0
    assert env.visited == set(env.track)
    # everything is visited now; one more lap earns nothing
    assert env.step(0).reward == 0.0


def test_invalid_actions_are_rejected():
    env = CliffCircular("easy", seed=0)
    env.reset()
    with pytest.raises(ValueError):
        env.step(7)


@pytest.mark.parametrize("action", [
    [1, 4],                   # two moves: the first was taken
    0.7,                      # truncated to a noop
    True,                     # read as 1, up
    np.array([1.0]),          # an integral float is still a float
], ids=["two-moves", "float", "bool", "float-array"])
def test_cliff_rejects_malformed_actions(action):
    env = CliffCircular("easy", seed=0)
    force_layout(env, cliffs=[], agent=(6, 6))
    with pytest.raises(ValueError, match="integer"):
        env.step(action)
    assert env.agent == (6, 6) and env.steps == 0


def test_episode_determinism_full_rollout():
    actions = np.random.default_rng(8).integers(5, size=60)
    traces = []
    for _ in range(2):
        env = CliffCircular("medium", seed=11)
        env.reset()
        trace = []
        for a in actions:
            res = env.step(int(a))
            trace.append((res.obs.tobytes(), res.reward, res.cost, res.kind))
            if res.terminal:
                env.reset()
        traces.append(trace)
    assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# PlanarRiver

def test_spline_levels_are_simple_40_segment_polylines():
    for level, cfg in RIVER_LEVELS.items():
        for seed in range(3):
            pts = build_spline(np.random.default_rng(seed), cfg.n_ctrl, cfg.amplitude)
            assert pts.shape == (41, 2)
            assert _is_simple(pts)


def _proper_intersect(a, b, c, d) -> bool:
    def orient(p, q, r):
        return np.sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    return (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0)


def reference_is_simple(pts: np.ndarray) -> bool:
    """The pairwise loop ``_is_simple`` replaced, kept as its reference."""
    n = len(pts) - 1
    for i in range(n):
        for j in range(i + 2, n):
            if _proper_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                return False
    return True


@pytest.mark.parametrize("pts,simple", [
    ([(0, 0), (2, 2), (2, 0), (0, 2)], False),                  # X crossing
    ([(0, 0), (4, 0), (4, 2), (2, 2), (2, -1)], False),         # first x last
    ([(0, 0), (2, 0), (2, 1), (1, 0)], True),                   # endpoint on a segment
    ([(0, 0), (1, 0), (1, 1), (0, 0)], True),                   # closes on its start
    ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 0), (3, 0)], True),   # collinear overlap
    ([(0, 0), (1, 0), (2, 0), (3, 0)], True),                   # straight
    ([(0, 0), (1, 1)], True),
    ([(0, 0)], True),
])
def test_is_simple_on_hand_made_polylines(pts, simple):
    pts = np.asarray(pts, dtype=np.float64)
    assert _is_simple(pts) is simple
    assert reference_is_simple(pts) is simple


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
             min_size=2, max_size=14),
    st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
             min_size=2, max_size=30)))
def test_is_simple_matches_the_pairwise_loop(pts):
    """Small integer grids make many touching and collinear pairs."""
    pts = np.asarray(pts, dtype=np.float64)
    assert _is_simple(pts) == reference_is_simple(pts)


def test_is_simple_matches_the_pairwise_loop_on_splines():
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(300):
        # random control points give looping, self-crossing splines too
        ctrl = rng.normal(size=(int(rng.integers(3, 10)), 2)) * rng.uniform(1, 60)
        pts = _sample_catmull_rom(ctrl, 40)
        simple = _is_simple(pts)
        assert simple == reference_is_simple(pts)
        outcomes.add(simple)
    assert outcomes == {True, False}


def test_build_spline_draws_what_the_pairwise_loop_drew(monkeypatch):
    draws = []
    for check in (_is_simple, reference_is_simple):
        monkeypatch.setattr(river, "_is_simple", check)
        draws.append([build_spline(np.random.default_rng(seed), cfg.n_ctrl,
                                   cfg.amplitude).tobytes()
                      for cfg in RIVER_LEVELS.values() for seed in range(20)])
    assert draws[0] == draws[1]


def test_river_reset_determinism():
    a, b = PlanarRiver("medium", seed=4), PlanarRiver("medium", seed=4)
    np.testing.assert_array_equal(a.reset(), b.reset())
    assert (a.x, a.y, a.z, a.yaw) == (b.x, b.y, b.z, b.yaw)
    np.testing.assert_array_equal(a.pts, b.pts)


@pytest.mark.parametrize("cls", [CliffCircular, PlanarRiver])
def test_reset_draws_from_the_given_stream_alone(cls):
    # an episode's stream decides its reset whatever the constructor seed
    # and earlier resets, and leaves the constructor's stream untouched
    a, b, plain = cls("medium", seed=4), cls("medium", seed=5), cls("medium", seed=4)
    b.reset()
    np.testing.assert_array_equal(a.reset(np.random.default_rng(9)),
                                  b.reset(np.random.default_rng(9)))
    np.testing.assert_array_equal(a.reset(), plain.reset())


def test_spawn_is_safe_and_marks_home_segment():
    for seed in range(5):
        env = PlanarRiver("easy", seed=seed)
        env.reset()
        dist, seg = nearest_segment((env.x, env.y), env.pts)
        assert dist <= env.W / 2.0
        assert env.Z_RANGE[0] <= env.z <= env.Z_RANGE[1]
        assert env.visited == {seg}


def test_noop_keeps_pose_and_earns_nothing():
    env = PlanarRiver("medium", seed=1)
    env.reset()
    pose = (env.x, env.y, env.z, env.yaw)
    res = env.step([1, 1, 1, 1])
    assert (env.x, env.y, env.z, env.yaw) == pose
    assert res.reward == 0.0 and not res.terminal


def test_action_branches_move_the_pose():
    env = PlanarRiver("medium", seed=2)
    env.reset()
    force_spline(env, straight_pts())
    env.x, env.y, env.z, env.yaw = 0.0, 0.0, 6.0, 0.0
    env.visited = {nearest_segment((0.0, 0.0), env.pts)[1]}
    env.step([2, 1, 1, 1])
    assert env.z == pytest.approx(6.5)
    env.step([1, 2, 1, 1])
    assert env.yaw == pytest.approx(np.pi / 12.0)
    env.yaw = 0.0
    env.step([1, 1, 2, 1])
    assert (env.x, env.y) == (pytest.approx(0.5), pytest.approx(0.0))
    env.step([1, 1, 1, 2])  # strafe right = -y at yaw 0
    assert (env.x, env.y) == (pytest.approx(0.5), pytest.approx(-0.5))


def test_forward_flight_collects_each_segment_once():
    env = PlanarRiver("easy", seed=3)
    env.reset()
    force_spline(env, straight_pts())
    env.x, env.y, env.z, env.yaw = 0.0, 0.0, 6.0, 0.0
    env.visited = {nearest_segment((0.0, 0.0), env.pts)[1]}
    seen = set(env.visited)
    total = 0.0
    for _ in range(60):
        res = env.step([1, 1, 2, 1])
        assert not res.terminal
        dist, seg = nearest_segment((env.x, env.y), env.pts)
        expected = 1.0 if dist <= env.W / 2 and seg not in seen else 0.0
        assert res.reward == expected
        seen.add(seg)
        total += res.reward
    assert total == 60 * 0.5 / 2.5  # one new 2.5 m segment per 5 half-meter steps


def test_yaw_flip_is_a_minor_reset():
    env = PlanarRiver("medium", seed=5)
    env.reset()
    env.yaw = env.yaw + np.pi
    res = env.step([1, 1, 1, 1])
    assert (res.cost, res.terminal, res.kind) == (0.5, True, "minor")
    with pytest.raises(RuntimeError):
        env.step([1, 1, 1, 1])


def test_leaving_the_volume_is_severe():
    env = PlanarRiver("medium", seed=6)
    env.reset()
    env.z = 12.3
    res = env.step([1, 1, 1, 1])
    assert (res.cost, res.terminal, res.kind) == (1.0, True, "severe")

    env = PlanarRiver("medium", seed=6)
    env.reset()
    force_spline(env, straight_pts())
    env.x, env.y, env.z, env.yaw = 0.0, 10.0, 6.0, 0.0
    res = env.step([1, 1, 1, 1])
    assert (res.cost, res.terminal, res.kind) == (1.0, True, "severe")


def test_band_penalty_shape():
    assert band_penalty(0.0) == 1.0
    assert band_penalty(0.075) == pytest.approx(0.5)
    assert band_penalty(0.15) == 0.0
    assert band_penalty(0.45) == 0.0
    assert band_penalty(0.75) == 0.0
    assert band_penalty(0.875) == pytest.approx(0.5)
    assert band_penalty(1.0) == 1.0


def test_live_cost_is_band_penalty_of_observation():
    rng = np.random.default_rng(9)
    env = PlanarRiver("medium", seed=9)
    env.reset()
    for _ in range(40):
        res = env.step(rng.integers(3, size=4))
        if res.terminal:
            env.reset()
            continue
        assert res.cost == pytest.approx(band_penalty(float(res.obs.mean())), abs=0.0)


def test_render_symmetry_over_straight_river():
    grid = render_river_mask((10.0, 0.0, 8.0, 0.0), raster_of(straight_pts()))
    assert grid.shape == (16, 16)
    np.testing.assert_array_equal(grid, grid[:, ::-1])
    assert grid[:, 7].sum() == grid[:, 8].sum() > 0


def test_render_far_from_water_is_empty():
    grid = render_river_mask((10.0, 1000.0, 8.0, 0.0), raster_of(straight_pts()))
    assert not grid.any()


def test_render_pose_continuity():
    raster = raster_of(straight_pts())
    a = render_river_mask((3.0, 1.0, 7.0, 0.3), raster)
    b = render_river_mask((3.0 + 1e-12, 1.0 - 1e-12, 7.0, 0.3 + 1e-12), raster)
    np.testing.assert_array_equal(a, b)


# ---- the patch-level renderer equals the per-pixel reference --------------

def assert_renders_like_reference(pose, tree, w=W):
    """The patch grid of one query per hit pixel."""
    ref = patchify(reference_water_pixels(pose, tree, w))
    np.testing.assert_array_equal(render_river_mask(pose, distance_raster(tree, w)), ref)


SPLINES = {"straight": straight_pts()}
for _i, (_name, _lvl) in enumerate(RIVER_LEVELS.items()):
    SPLINES[_name] = build_spline(np.random.default_rng(_i), _lvl.n_ctrl, _lvl.amplitude)
TREES = {name: cKDTree(_dense_points(pts)) for name, pts in SPLINES.items()}


@st.composite
def river_views(draw):
    """(spline name, pose): over the river, on a bank or far from it."""
    name = draw(st.sampled_from(sorted(SPLINES)))
    pts = SPLINES[name]
    k = draw(st.integers(0, len(pts) - 2))
    base = pts[k] + draw(st.floats(0.0, 1.0)) * (pts[k + 1] - pts[k])
    along = (pts[k + 1] - pts[k]) / np.linalg.norm(pts[k + 1] - pts[k])
    normal = np.array([-along[1], along[0]])
    side = draw(st.sampled_from([-1.0, 1.0]))
    where = draw(st.sampled_from(["river", "bank", "far"]))
    if where == "river":
        offset = draw(st.floats(-W, W))
    elif where == "bank":
        offset = side * (W / 2.0 + draw(st.sampled_from([-1e-6, 0.0, 1e-6])))
    else:
        offset = side * draw(st.floats(20.0, 2000.0))
    x, y = base + offset * normal
    return name, (x, y, draw(st.floats(0.5, 14.0)), draw(st.floats(-np.pi, np.pi)))


@settings(max_examples=150, deadline=None)
@given(river_views())
def test_render_matches_per_pixel_reference(view):
    name, pose = view
    assert_renders_like_reference(pose, TREES[name])


@pytest.mark.parametrize("level", sorted(RIVER_LEVELS))
def test_render_matches_reference_over_seeded_episodes(level):
    """700 frames a level, 2,100 in all, of random flights from reset.  The
    reference is independent of the env's index: a cKDTree over the dense
    points of the spline in force, built again whenever a reset draws a new
    one.  The frames hold patches of exactly 32 and of exactly 33 water
    pixels, so the strict majority is compared at its threshold."""
    rng = np.random.default_rng(11)
    env = PlanarRiver(level, seed=3)
    obs = env.reset()
    pts = tree = None
    at_threshold = np.zeros(2, dtype=int)
    for _ in range(700):
        if env.pts is not pts:
            pts = env.pts
            tree = cKDTree(_dense_points(pts))
        pose = (env.x, env.y, env.z, env.yaw)
        ref = reference_water_pixels(pose, tree)
        np.testing.assert_array_equal(obs, patchify(ref))
        counts = ref.reshape(16, 8, 16, 8).sum(axis=(1, 3))
        at_threshold += (counts == 32).sum(), (counts == 33).sum()
        res = env.step(rng.integers(3, size=4))
        obs = env.reset() if res.terminal else res.obs
    assert at_threshold.min() >= 50


def test_two_rivers_stepped_alternately_render_like_the_reference():
    """Each env owns the raster of its own spline and rebuilds it at every
    reset: two envs on different seeds, stepped in turn in one process,
    each render like the reference built from their own centerline."""
    rng = np.random.default_rng(2)
    envs = [PlanarRiver("medium", timeout=12, seed=seed) for seed in (4, 5)]
    obs = [env.reset() for env in envs]
    resets = [0, 0]
    for _ in range(60):
        assert not np.array_equal(envs[0].pts, envs[1].pts)
        for i, env in enumerate(envs):
            pose = (env.x, env.y, env.z, env.yaw)
            np.testing.assert_array_equal(obs[i], reference_render(pose, env.pts))
            res = env.step(rng.integers(3, size=4))
            if res.terminal:
                resets[i] += 1
            obs[i] = env.reset() if res.terminal else res.obs
    assert min(resets) >= 3


def test_distance_raster_queries_the_edge_cells_and_the_settled_blocks():
    """The lattice covers the points' bounding box padded by w/2 +
    RASTER_CELL from a corner at a multiple of the block's side.  A block
    whose centre's distance is farther from w/2 than its half-diagonal
    gives its cells that query; every other cell holds the query at its own
    centre.  Every point of a cell is looked up in it."""
    h, tree = river.RASTER_CELL, TREES["hard"]
    side, half = river.BLOCK * h, W / 2.0
    raster = distance_raster(tree, W)
    d0, qx, qy, cx, cy = raster.cells
    assert (raster.x0 / side).is_integer() and (raster.y0 / side).is_integer()
    lo, hi = (raster.x0, raster.y0), (raster.x0 + raster.nx * h, raster.y0 + raster.ny * h)
    assert np.all(lo <= tree.mins - (half + h)) and np.all(hi >= tree.maxes + half + h)
    iy, ix = np.divmod(np.arange(raster.nx * raster.ny), raster.nx)
    own = np.stack([raster.x0 + (ix + 0.5) * h, raster.y0 + (iy + 0.5) * h])
    block = np.stack([raster.x0 + (ix // river.BLOCK + 0.5) * side,
                      raster.y0 + (iy // river.BLOCK + 0.5) * side])
    settled = np.abs(tree.query(block.T)[0] - half) > side / np.sqrt(2.0)
    assert 0 < settled.mean() < 1
    np.testing.assert_array_equal(np.stack([cx, cy]), np.where(settled, block, own))
    dist, nearest = tree.query(np.stack([cx, cy], axis=1))
    np.testing.assert_array_equal(d0, dist)
    np.testing.assert_array_equal(np.stack([qx, qy], axis=1), tree.data[nearest])
    for dx, dy in itertools.product((-0.49 * h, 0.0, 0.49 * h), repeat=2):
        inside, cell = river._raster_cell(raster, own[0] + dx, own[1] + dy)
        assert inside.all()
        np.testing.assert_array_equal(cell, np.arange(len(cx)))
    # off the raster: the nearest cell of its edge
    inside, cell = river._raster_cell(raster, np.array([lo[0] - 5.0, hi[0] + 5.0]),
                                      np.array([hi[1] + 5.0, lo[1] - 5.0]))
    assert not inside.any()
    np.testing.assert_array_equal(cell, [(raster.ny - 1) * raster.nx, raster.nx - 1])


class StretchedTree:
    """A cKDTree whose distances come back 1e-12 relative too long: rounding
    far beyond cKDTree's own, yet far inside the renderer's 1e-9 slack.  A
    bounded query still reports every distance at or beyond its bound as
    inf."""

    def __init__(self, tree):
        self.tree, self.data, self.mins, self.maxes = tree, tree.data, tree.mins, tree.maxes

    def query(self, x, distance_upper_bound=np.inf):
        dist, nearest = self.tree.query(x)
        dist = dist * (1.0 + 1e-12)
        return np.where(dist < distance_upper_bound, dist, np.inf), nearest


def tight_rivers(point, edge):
    """One-point rivers at ``point``, with w/2 within two ulps of ``edge``,
    for a cKDTree and a StretchedTree; ``edge`` is a function of the tree."""
    for tree in (cKDTree(point[None, :]), StretchedTree(cKDTree(point[None, :]))):
        at = edge(tree)
        below, above = np.nextafter(at, 0.0), np.nextafter(at, np.inf)
        for half in (np.nextafter(below, 0.0), below, at, above,
                     np.nextafter(above, np.inf)):
            yield tree, 2.0 * half


def distance(tree, p):
    return tree.query(p[None, :])[0][0]


def raster_point(point, w, x):
    """The point ``c0`` whose query decides ``x`` on the raster of a
    one-point river at ``point``."""
    raster = distance_raster(cKDTree(point[None, :]), w)
    return raster.cells[3:, river._raster_cell(raster, *x)[1]]


def thirty_third(pix, k, e):
    """A point on the ray from pixel hit ``pix[k]`` along ``e`` that has
    exactly 32 of the patch's other hits nearer than ``pix[k]``, and every
    one of them clear of its distance; None where the ray has none."""
    t = np.geomspace(1e-2, 2.0, 400)[:, None] * np.ptp(pix, axis=0).max()
    points = pix[k] + t * e
    others = np.delete(pix, k, axis=0)
    gap = np.linalg.norm(others[None] - points[:, None], axis=2) - t
    found = np.flatnonzero(((gap < 0).sum(axis=1) == 32)
                           & (np.abs(gap).min(axis=1) > 1e-6 * t[:, 0]))
    return points[found[0]] if len(found) else None


@pytest.mark.parametrize("pose", [(3.0, 1.0, 7.0, 0.3), (-4.0, 2.5, 2.5, -2.0)])
def test_render_matches_reference_where_the_patch_bound_is_tight(pose):
    """Each bound of the renderer made tight: a one-point river placed so
    that a bound equals w/2, with w/2 within two ulps of it.  Only the
    slack then stands between a decision and the reference's answer.  The
    stretched tree's distances stray from the renderer's own by far more
    than rounding, so a bound without its slack decides wrongly there.

    * the pixel bounds, where they decide the grid: the river point lies on
      a ray from a pixel ``p`` such that ``p`` is its patch's 33rd nearest
      hit, and w/2 is ``d(p)``, so the patch holds 32 or 33 water pixels as
      ``p`` is dry or water.  Along ``p - c0``, ``c0`` the centre of
      ``p``'s cell, both ``|p - q0|`` and ``d0 - |p - c0|`` equal ``d(p)``;
      across it only ``|p - q0|`` does;
    * the corner quad of a patch, centroid ``c`` and farthest corner ``f``:
      the point before ``c`` on the ray from ``f`` through it, with w/2 the
      water bound ``|c - q0| + R``; and the point past ``c`` on the ray from
      ``c0`` through it, with w/2 the dry bound ``d0 - |c - c0| - R``.  A
      quad decides all 64 pixels, of which a slip of its slack could only
      misjudge those within rounding of w/2: too few to move a majority,
      so these cases check the grid but catch no missing slack."""
    h = river.RASTER_CELL
    hit, gx, gy = ground_hits(pose)
    ground = np.full((128, 128, 2), np.nan)
    ground[hit] = np.stack([gx, gy], axis=1)
    decided = dry_quads = 0
    for patch_index in range(64, 256, 12):  # patch rows 4..15 hit the ground
        row, col = divmod(patch_index, 16)
        pix = ground[8 * row:8 * row + 8, 8 * col:8 * col + 8].reshape(64, 2)
        for k in range(64):
            p = pix[k]
            c0 = (np.floor(p / h) + 0.5) * h
            along = (p - c0) / np.linalg.norm(p - c0)
            across = np.array([-along[1], along[0]])
            points = [thirty_third(pix, k, e) for e in (along, across)]
            if all(q is not None for q in points):
                break
        else:
            continue
        decided += 1
        # at the water's edge a cell holds the query at its own centre
        w = 2.0 * np.linalg.norm(p - points[0])
        np.testing.assert_array_equal(raster_point(points[0], w, p), c0)
        for point in points:
            for tree, w in tight_rivers(point, lambda tree: distance(tree, p)):
                assert_renders_like_reference(pose, tree, w=w)
        quad = pix[[0, 7, 56, 63]]
        c = quad.mean(axis=0)
        far = quad[np.argmax(np.linalg.norm(quad - c, axis=1))]
        R = np.linalg.norm(far - c)
        point = c - 2.0 * (far - c) / R
        for tree, w in tight_rivers(point, lambda tree: np.linalg.norm(c - point) + R):
            assert_renders_like_reference(pose, tree, w=w)
        # d(c) = 1 + R = d0 - |c - c0|, so w/2 = 1: where c's block is
        # settled the raster holds the block's query, and the bound is loose
        c0 = (np.floor(c / h) + 0.5) * h
        point = c + (1.0 + R) * (c - c0) / np.linalg.norm(c - c0)
        if R < h and np.array_equal(raster_point(point, 2.0, c), c0):
            dry_quads += 1
            for tree, w in tight_rivers(point, lambda tree: (
                    distance(tree, c0) - np.linalg.norm(c - c0) - R)):
                assert_renders_like_reference(pose, tree, w=w)
    assert decided >= 12 and dry_quads >= 1


class CountingTree:
    """Forwards to a cKDTree and counts the rows of each query."""

    def __init__(self, tree):
        self.tree, self.data, self.mins, self.maxes = tree, tree.data, tree.mins, tree.maxes
        self.rows = []

    def query(self, x, **kwargs):
        self.rows.append(len(x))
        return self.tree.query(x, **kwargs)


def test_render_queries_most_pixels_by_patch():
    """Over mid-river, looking downstream: one query per hit pixel would
    make 12,928.  The raster of the spline, 240 x 52 cells, takes one query
    at the centres of its 780 blocks, then one at the centres of the 3,040
    cells of the 190 blocks the water's edge can cross.  A frame drawn from
    it then queries 41 pixels."""
    pts = SPLINES["hard"]
    dx, dy = pts[31] - pts[30]
    pose = (pts[30][0], pts[30][1], 8.0, np.arctan2(dy, dx))
    tree = CountingTree(cKDTree(_dense_points(pts)))
    raster = distance_raster(tree, W)
    assert tree.rows == [780, 3040]
    tree.rows.clear()
    grid = render_river_mask(pose, raster)
    np.testing.assert_array_equal(grid, reference_render(pose, pts))
    assert tree.rows == [41]


# ---- the centerline index answers like a cKDTree ---------------------------

PAD = W / 2.0 + RASTER_CELL  # the lattice padding an env builds its index with
INDEXES = {name: CenterlineIndex(pts, PAD) for name, pts in SPLINES.items()}


def assert_queries_equal(index, tree, x, bound=np.inf):
    """Distances and rows both, bit for bit."""
    got = index.query(x, distance_upper_bound=bound)
    want = tree.query(x, distance_upper_bound=bound)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    return got


class RecordingIndex(CenterlineIndex):
    """A centerline index that keeps its polyline and every query it answers."""

    def __init__(self, pts, pad):
        super().__init__(pts, pad)
        self.pts, self.calls = pts, []

    def query(self, x, distance_upper_bound=np.inf):
        out = super().query(x, distance_upper_bound=distance_upper_bound)
        self.calls.append((np.array(x), distance_upper_bound, out))
        return out


@pytest.mark.parametrize("level", sorted(RIVER_LEVELS))
def test_index_answers_the_queries_of_seeded_flights_like_a_kdtree(level, monkeypatch):
    """Every raster query of every reset and every frame's bounded query
    of random flights, answered as a cKDTree over the dense points does."""
    indexes = []

    def recording(pts, pad):
        indexes.append(RecordingIndex(pts, pad))
        return indexes[-1]

    monkeypatch.setattr(river, "CenterlineIndex", recording)
    rng = np.random.default_rng(5)
    env = PlanarRiver(level, seed=6)
    env.reset()
    for _ in range(300):
        if env.step(rng.integers(3, size=4)).terminal:
            env.reset()
    kinds = np.zeros(3, dtype=int)  # raster queries, frame queries, frame misses
    for index in indexes:
        tree = cKDTree(_dense_points(index.pts))
        for x, bound, (dist, nearest) in index.calls:
            want = tree.query(x, distance_upper_bound=bound)
            np.testing.assert_array_equal(dist, want[0])
            np.testing.assert_array_equal(nearest, want[1])
            framed = bound < np.inf
            kinds += not framed, framed, np.isinf(dist).sum()
    assert len(indexes) >= 3 and kinds[0] == 2 * len(indexes)
    assert kinds[1] >= 200 and kinds[2] >= 100


def test_index_answers_points_off_its_lattice_like_a_kdtree():
    """20,000 points a spline, up to 30 units beyond the dense points'
    bounding box: most of them off the lattice, whose border cells hold
    every segment."""
    rng = np.random.default_rng(8)
    for name, index in INDEXES.items():
        x = rng.uniform(index.mins - 30.0, index.maxes + 30.0, size=(20_000, 2))
        off = ((x < index.mins - PAD - river.LATTICE)
               | (x > index.maxes + PAD + river.LATTICE)).any(axis=1)
        assert 0.3 < off.mean() < 0.9
        for bound in (np.inf, W / 2.0):
            assert_queries_equal(index, TREES[name], x, bound)


def test_index_bounds_a_query_strictly_like_a_kdtree():
    """A bounded query finds a point only when its squared distance is
    below the squared bound: checked at points exactly w/2 from the dense
    points of the straight river and one ulp either side, and at each
    raster centre of the hard river bounded by its own distance, with
    bounds of w/2 (or that distance) and one ulp either side."""
    half = W / 2.0
    dense = INDEXES["straight"].data
    ys = [np.nextafter(half, 0.0), half, np.nextafter(half, np.inf)]
    x = np.concatenate([dense + [0.0, y] for y in ys])
    for i, bound in enumerate(ys):
        dist, _ = assert_queries_equal(INDEXES["straight"], TREES["straight"], x, bound)
        # the points of ys below the bound are found, those at it are not
        assert np.isfinite(dist).sum() == i * len(dense)
    cells = distance_raster(TREES["hard"], W).cells
    for d0, cx, cy in cells[[0, 3, 4], ::97].T:
        for bound in (np.nextafter(d0, 0.0), d0, np.nextafter(d0, np.inf)):
            assert_queries_equal(INDEXES["hard"], TREES["hard"], np.array([[cx, cy]]), bound)


def test_index_answers_an_empty_query_like_a_kdtree():
    for bound in (np.inf, W / 2.0):
        dist, nearest = assert_queries_equal(INDEXES["medium"], TREES["medium"],
                                             np.empty((0, 2)), bound)
        assert dist.shape == nearest.shape == (0,)


def test_index_breaks_exact_ties_by_the_lowest_row():
    """Far above the midpoint of two neighbouring dense points of the
    straight river both squared distances round to the same value."""
    dense, index = INDEXES["straight"].data, INDEXES["straight"]
    rows = np.arange(0, len(dense) - 1, 37)
    x = np.stack([(dense[rows, 0] + dense[rows + 1, 0]) / 2.0, np.full(len(rows), 1e3)],
                 axis=1)

    def d2(row):
        dx, dy = x[:, 0] - dense[row, 0], x[:, 1] - dense[row, 1]
        return dx * dx + dy * dy

    np.testing.assert_array_equal(d2(rows), d2(rows + 1))
    np.testing.assert_array_equal(index.query(x)[1], rows)


@pytest.mark.parametrize("name", sorted(SPLINES))
def test_index_rasters_like_a_kdtree(name):
    got, want = distance_raster(INDEXES[name], W), distance_raster(TREES[name], W)
    assert got[1:6] == want[1:6]
    np.testing.assert_array_equal(got.cells, want.cells)


def test_index_keeps_the_render_query_counts():
    """The pins of ``test_render_queries_most_pixels_by_patch`` hold with
    the index an env builds: 780 block and 3,040 cell queries, then 41
    pixels."""
    pts = SPLINES["hard"]
    dx, dy = pts[31] - pts[30]
    pose = (pts[30][0], pts[30][1], 8.0, np.arctan2(dy, dx))
    tree = CountingTree(INDEXES["hard"])
    raster = distance_raster(tree, W)
    assert tree.rows == [780, 3040]
    tree.rows.clear()
    grid = render_river_mask(pose, raster)
    np.testing.assert_array_equal(grid, reference_render(pose, pts))
    assert tree.rows == [41]


def test_render_caches_are_read_only():
    """Every frame shares them: a caller that wrote into one would change
    all later renders."""
    for shared in (*river._PIXEL_OFFSETS, *river._PATCH_OFFSETS):
        with pytest.raises(ValueError, match="read-only"):
            shared[...] = 0


def test_patchify_majority_threshold_is_strict():
    """The reference's patch rule: more than half of the patch."""
    mask = np.zeros((16, 16), dtype=bool)
    mask.reshape(2, 8, 2, 8)[0, :, 0, :].flat[:33] = True
    assert patchify(mask).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    mask.reshape(2, 8, 2, 8)[0, :, 0, :].flat[32] = False  # now 32 of 64
    assert not patchify(mask).any()


def test_river_timeout_kind():
    env = PlanarRiver("easy", timeout=2, seed=7)
    env.reset()
    env.step([1, 1, 1, 1])
    res = env.step([1, 1, 1, 1])
    assert res.terminal and res.kind == "timeout"


def test_river_rejects_bad_actions():
    env = PlanarRiver("easy", seed=0)
    env.reset()
    with pytest.raises(ValueError):
        env.step([3, 1, 1, 1])
    with pytest.raises(ValueError):
        env.step([1, 1, 1])


@pytest.mark.parametrize("action", [
    [1.9, 1.2, 2.7, 0.5],      # truncated to [1, 1, 2, 0]
    [True, False, True, True],
], ids=["float", "bool"])
def test_river_rejects_malformed_actions(action):
    env = PlanarRiver("easy", seed=0)
    env.reset()
    pose = (env.x, env.y, env.z, env.yaw)
    with pytest.raises(ValueError, match="integer"):
        env.step(action)
    assert (env.x, env.y, env.z, env.yaw) == pose and env.steps == 0


def test_make_env_dispatch():
    assert isinstance(make_env("cliff-circular", "easy"), CliffCircular)
    assert isinstance(make_env("planar-river", "hard"), PlanarRiver)
    with pytest.raises(ValueError):
        make_env("mountain")


def test_no_run_loads_scipy(tmp_path):
    # in a fresh interpreter: the package, both envs, a river's reset and
    # step, and one short river training iteration leave scipy unloaded
    code = "\n".join([
        "import sys",
        "import cade.cli",
        "from cade.config import RunConfig",
        "from cade.envs import make_env",
        "from cade.trainer import train",
        "make_env('cliff-circular').reset()",
        "river = make_env('planar-river')",
        "river.reset()",
        "river.step([1, 1, 2, 1])",
        "train(RunConfig(env='planar-river', step_budget=1, timeout=5,"
        " hidden_dim=16, head_width=8), sys.argv[1])",
        "assert 'scipy' not in sys.modules, 'a run loaded scipy'",
    ])
    src = str(Path(cade.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], check=True,
                   env={**os.environ, "PYTHONPATH": path})
