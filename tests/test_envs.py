"""Environment contracts: ring/cliff gridworld, river camera world, I/O."""

import itertools

import numpy as np
import pytest

from cade.envs import CLIFF_COUNTS, CliffCircular, PlanarRiver, StepResult, make_env
from cade.envs.base import marginal_gain
from cade.envs.cliff import MOVES, ring_cells
from cade.envs.river import (
    RIVER_LEVELS,
    _is_simple,
    band_penalty,
    build_spline,
    nearest_segment,
    patchify,
    render_river_mask,
)
from cade.gridio import read_pgm, write_pgm

ACTION_OF = {delta: i for i, delta in enumerate(MOVES)}


def straight_pts(n=40, spacing=2.5, x0=-20.0):
    xs = x0 + spacing * np.arange(n + 1)
    return np.stack([xs, np.zeros(n + 1)], axis=1)


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
    env._force_layout(cliffs=[(1, 1)], agent=(0, 0))
    obs = env._obs()
    assert obs.shape == (5, 5)
    assert np.all(obs[:2, :] == 1.0)  # rows above the board
    assert np.all(obs[:, :2] == 1.0)  # columns left of the board
    assert obs[2, 2] == 0.0           # agent cell
    assert obs[3, 3] == 1.0           # the cliff at (1, 1)
    assert obs[2, 3] == 0.0 and obs[3, 2] == 0.0


def test_edge_moves_clamp_in_place():
    env = CliffCircular("easy")
    env._force_layout(cliffs=[], agent=(0, 0))
    env.step(1)  # up
    assert env.agent == (0, 0)
    env.step(4)  # left
    assert env.agent == (0, 0)
    env.step(3)  # down
    assert env.agent == (1, 0)


def test_track_reward_is_one_shot():
    env = CliffCircular("easy")
    env._force_layout(cliffs=[], agent=(2, 3))
    first = env.step(3)   # onto ring cell (3, 3)
    assert first.reward == 1.0
    second = env.step(3)  # onto ring cell (4, 3)
    assert second.reward == 1.0
    assert env.step(1).reward == 0.0  # back to visited (3, 3)
    assert env.step(0).reward == 0.0  # noop on a visited cell
    assert env.visited == {(3, 3), (4, 3)}


def test_known_neighborhood_cost():
    env = CliffCircular("easy")
    env._force_layout(cliffs=[(5, 6), (6, 5)], agent=(6, 6))
    # two hazards among the 8 neighbors of (6, 6) after a noop
    assert env.step(0).cost == pytest.approx(0.25)


def test_stepping_on_cliff_is_severe():
    env = CliffCircular("easy")
    env._force_layout(cliffs=[(6, 7)], agent=(6, 6))
    res = env.step(2)  # right, onto the cliff
    assert (res.cost, res.terminal, res.kind) == (1.0, True, "severe")
    assert res.obs[2, 2] == 1.0
    with pytest.raises(RuntimeError):
        env.step(0)


def test_timeout_keeps_neighborhood_cost():
    env = CliffCircular("easy", timeout=3)
    env._force_layout(cliffs=[(5, 6)], agent=(6, 6))
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


def test_river_reset_determinism():
    a, b = PlanarRiver("medium", seed=4), PlanarRiver("medium", seed=4)
    np.testing.assert_array_equal(a.reset(), b.reset())
    assert (a.x, a.y, a.z, a.yaw) == (b.x, b.y, b.z, b.yaw)
    np.testing.assert_array_equal(a.pts, b.pts)


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
    env._force_spline(straight_pts())
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
    env._force_spline(straight_pts())
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
    env._force_spline(straight_pts())
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
    grid = render_river_mask((10.0, 0.0, 8.0, 0.0), pts=straight_pts())
    assert grid.shape == (16, 16)
    np.testing.assert_array_equal(grid, grid[:, ::-1])
    assert grid[:, 7].sum() == grid[:, 8].sum() > 0


def test_render_far_from_water_is_empty():
    grid = render_river_mask((10.0, 1000.0, 8.0, 0.0), pts=straight_pts())
    assert not grid.any()


def test_render_pose_continuity():
    pts = straight_pts()
    a = render_river_mask((3.0, 1.0, 7.0, 0.3), pts=pts)
    b = render_river_mask((3.0 + 1e-12, 1.0 - 1e-12, 7.0, 0.3 + 1e-12), pts=pts)
    np.testing.assert_array_equal(a, b)


def test_patchify_majority_threshold_is_strict():
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


def test_make_env_dispatch():
    assert isinstance(make_env("cliff-circular", "easy"), CliffCircular)
    assert isinstance(make_env("planar-river", "hard"), PlanarRiver)
    with pytest.raises(ValueError):
        make_env("mountain")


# ---------------------------------------------------------------------------
# grid and episode I/O

def test_pgm_round_trip_binary_exact(tmp_path):
    grid = (np.random.default_rng(0).random((5, 5)) > 0.5).astype(float)
    path = str(tmp_path / "g.pgm")
    write_pgm(path, grid)
    np.testing.assert_array_equal(read_pgm(path), grid)


def test_pgm_round_trip_within_quantization(tmp_path):
    grid = np.random.default_rng(1).random((7, 4))
    path = str(tmp_path / "g.pgm")
    write_pgm(path, grid)
    assert np.abs(read_pgm(path) - grid).max() <= 0.5 / 255 + 1e-12


def test_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(str(tmp_path / "bad.pgm"), np.full((2, 2), 1.5))
