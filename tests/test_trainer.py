"""Training-loop wiring: collection integrity, update ordering, determinism."""

import copy
import csv
import inspect
import itertools
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import cade
from cade.advantage import ReturnWindow, gae, mgae
from cade import advantage, focops, safety
from cade import nets as nets_module
from cade.checkpoint import load_params
from cade.config import (CostAdvSection, LagrangeSection, RunConfig,
                         SafetySection)
from cade.envs import make_env
from cade.homography import HomographyError
from degenerate import SINGULAR_OFFSETS
from taped_gru import cell, rel_err, trunk_replay_recomputed
import taped_mlp
import taped_ops
from cade.nets import (CadeNets, NetConfig, Adam, action_onehot, gru_step_np,
                       log_softmax_np, mlp_np, onehot_rows, row_product)
from cade import trainer
from cade.focops import squash_cost
from cade.trainer import (EVAL, INIT, METRIC_COLUMNS, STAGES, TRAIN,
                          EpisodeBuffer, TrainerError, code_hash,
                          collect_episode, episode_streams, evaluate,
                          init_state, iterate, read_metrics_csv, run_nets,
                          summarize, train, write_metrics_csv)
from cade.trainer import (_actor_update, _mse_update, _reward_advantage,
                          _trunk_inputs)


def small_cfg(**overrides):
    base = dict(env="cliff-circular", level="medium", timeout=30,
                step_budget=60, hidden_dim=16, head_width=8,
                normalize_adv=False)
    base.update(overrides)
    return RunConfig(**base)


def fold(cfg, iterations):
    """The state after ``iterations`` calls of ``iterate`` from
    ``init_state``, on a fresh env: the state of ``train`` at that point."""
    state = init_state(cfg)
    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    for _ in range(iterations):
        iterate(state, cfg, env, lambda stage: None)
    return state


def init_rng(seed):
    """The stream ``train`` draws the initial parameters from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(INIT,)))


def fresh_setup(seed=3, hidden=16, width=8, env_name="cliff-circular"):
    """An env, nets as ``train`` initializes them, and the streams of
    training episodes 0, 1, 2, ... of ``seed``, in turn."""
    env = make_env(env_name, "medium", timeout=30)
    obs_dim = int(np.prod(env.obs_shape))
    nets = CadeNets(NetConfig(obs_dim, tuple(env.branches), hidden, width),
                    init_rng(seed))
    streams = (episode_streams(seed, TRAIN, k) for k in itertools.count())
    return streams, env, nets


def collect_one(streams, env, nets):
    return collect_episode(nets, env, next(streams), None, 0.99)


def reward_head(nets, hiddens, act):
    """The reward head on the rows (hiddens, act): MGAE's estimates with
    one-hot action rows, the critic's values with zero rows."""
    return mlp_np(nets.params["reward"],
                  np.concatenate([hiddens, act], axis=1))[:, 0]


def assert_behavior_policy_is_the_rollouts(nets, buf):
    """The actor stage's behavior policy, formed from the recorded hidden
    rows in one product, has the rollout's bits: the actor head's logits
    equal each step's :meth:`actor_logits_np`, and the executed action's
    log-prob, summed over the branches of that table, equals the per-step
    computation on each step's 1-D logits, summed from 0.0."""
    branches = nets.cfg.branches
    logits = mlp_np(nets.params["actor"], buf.hiddens)
    lp = taped_mlp.behavior_log_probs(logits, branches, buf.actions)
    offs = np.cumsum((0,) + branches[:-1]).tolist()
    for t in range(len(buf)):
        step = nets.actor_logits_np(buf.hiddens[t:t + 1])
        assert step.tobytes() == logits[t].tobytes(), t
        want = 0.0
        for off, n, a in zip(offs, branches, buf.actions[t].tolist()):
            want += float(log_softmax_np(step[off:off + n])[a])
        assert np.float64(want).tobytes() == lp[t].tobytes(), t


def snapshot(nets):
    return {h: {k: v.copy() for k, v in p.items()}
            for h, p in nets.params.items()}


def heads_equal(a, b, head):
    return all(np.array_equal(a[head][k], b[head][k]) for k in a[head])


# -- seeds and hashing -------------------------------------------------------


def test_episode_streams_never_alias():
    # the first draw of the init stream and of every stream of training
    # and evaluation episodes 0-2, over seeds 0-3: all distinct, so no
    # episode replays another's draws or the initial parameters'
    draws = {}
    for seed in range(4):
        draws[seed, "init"] = init_rng(seed).random()
        for job, k in itertools.product((TRAIN, EVAL), range(3)):
            for name, rng in episode_streams(seed, job, k)._asdict().items():
                draws[seed, job, k, name] = rng.random()
    assert len(draws) == 4 * (1 + 2 * 3 * 4)
    assert len(set(draws.values())) == len(draws)
    # a stream is a function of (seed, job, k) alone
    assert episode_streams(2, EVAL, 1).screen.random() == \
        draws[2, EVAL, 1, "screen"]


def test_code_hash_is_stable_sha1():
    h = code_hash()
    assert h == code_hash()
    assert len(h) == 40 and int(h, 16) >= 0


# -- episode collection ------------------------------------------------------


def test_collect_episode_alignment_and_replay():
    streams, env, nets = fresh_setup()
    buf = collect_one(streams, env, nets)
    T = len(buf)
    assert T >= 1
    assert buf.fired == 0
    assert np.array_equal(buf.next_obs[:-1], buf.obs[1:])
    act_dim = nets.cfg.act_dim
    onehots = onehot_rows(nets.cfg.branches, buf.actions)
    xs = _trunk_inputs(nets.cfg.branches, buf)
    assert np.all(xs[0, -act_dim:] == 0.0)
    assert np.array_equal(xs[1:, -act_dim:], onehots[:-1])

    for t in range(T):
        expect = action_onehot(nets.cfg.branches, buf.actions[t])
        assert np.array_equal(onehots[t:t + 1], expect)
    assert_behavior_policy_is_the_rollouts(nets, buf)

    # recorded hidden rows replay bitwise from the raw trunk step
    h = nets.initial_hidden()
    for t in range(T):
        h, _ = cell(nets.params["trunk"], xs[t:t + 1], h)
        assert np.array_equal(h, buf.hiddens[t:t + 1])
    assert buf.hiddens.shape == (T, nets.cfg.hidden_dim)


def test_episode_buffer_records_no_head_output():
    # the stages read every head on the recorded hidden rows
    assert [f.name for f in fields(EpisodeBuffer)] == [
        "obs", "next_obs", "actions", "hiddens", "gates", "rewards", "costs",
        "fired"]


@pytest.mark.parametrize("screened", [False, True], ids=["screen-off", "screen-fires"])
@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_behavior_policy_from_hidden_rows_equals_the_rollout(env_name, screened):
    # with the screen firing, the executed action is often a substitute,
    # priced under the same collection-time policy
    streams, env, nets = fresh_setup(seed=4, env_name=env_name)
    screen = (SafetySection(horizon=3, threshold=0.05, activation_fraction=0.0)
              if screened else None)
    bufs = [collect_episode(nets, env, next(streams), screen, 0.99)
            for _ in range(3)]
    assert (sum(b.fired for b in bufs) > 0) == screened
    for buf in bufs:
        assert_behavior_policy_is_the_rollouts(nets, buf)


@pytest.mark.parametrize("screened", [False, True], ids=["screen-off", "screen-fires"])
@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_episode_reward_estimates_equal_the_per_step_products(env_name, screened):
    """The reward stage's one product over an episode's (hidden, executed
    action) rows gives the bits of one product per step at the rollout's
    hidden rows, with the screen off and with it firing: MGAE's estimates
    price the executed actions, not the proposals."""
    streams, env, nets = fresh_setup(seed=4, env_name=env_name)
    screen = (SafetySection(horizon=3, threshold=0.05, activation_fraction=0.0)
              if screened else None)
    bufs = [collect_episode(nets, env, next(streams), screen, 0.99)
            for _ in range(3)]
    assert (sum(b.fired for b in bufs) > 0) == screened
    cfg = small_cfg(adv="mgae")
    window = ReturnWindow()
    for buf in bufs:
        per_step = np.concatenate([
            reward_head(nets, buf.hiddens[t:t + 1],
                        action_onehot(nets.cfg.branches, buf.actions[t]))
            for t in range(len(buf))])
        want = mgae(buf.rewards, per_step, window.mean())
        adv, _, _ = _reward_advantage(nets, [buf], cfg, window)
        np.testing.assert_array_equal(adv, want)


def test_batch_is_the_episodes_end_to_end():
    streams, env, nets = fresh_setup(seed=2)
    bufs = [collect_one(streams, env, nets) for _ in range(3)]
    batch = EpisodeBuffer.concat(bufs)
    assert len(batch) == sum(len(b) for b in bufs)
    for name in ("obs", "actions", "hiddens", "gates", "costs"):
        want = np.concatenate([getattr(b, name) for b in bufs])
        assert getattr(batch, name).tobytes() == want.tobytes(), name
    assert batch.fired == 0


def test_a_lone_episode_is_its_own_batch():
    # one episode is batched as itself, not copied; two are every field
    # end to end
    streams, env, nets = fresh_setup(seed=2)
    bufs = [collect_one(streams, env, nets) for _ in range(2)]
    assert EpisodeBuffer.concat(bufs[:1]) is bufs[0]
    batch = EpisodeBuffer.concat(bufs)
    for f in fields(EpisodeBuffer):
        parts = [getattr(b, f.name) for b in bufs]
        want = sum(parts) if f.name == "fired" else np.concatenate(parts)
        assert np.array_equal(getattr(batch, f.name), want), f.name


def test_screen_overrides_are_recorded_consistently():
    # a tiny threshold makes every candidate look unsafe, so the screen
    # fires each step and frequently swaps in a cheaper-looking action
    scfg = SafetySection(horizon=1, threshold=0.01, activation_fraction=0.0)

    def rollout(enabled, episodes=3):
        streams, env, nets = fresh_setup(seed=5)
        use = scfg if enabled else None
        bufs = [collect_episode(nets, env, next(streams), use, 0.99)
                for _ in range(episodes)]
        return bufs, nets

    bufs_off, _ = rollout(False)
    bufs_on, nets = rollout(True)

    for buf in bufs_on:
        assert buf.fired == len(buf)
        assert_behavior_policy_is_the_rollouts(nets, buf)

    acts_off = np.concatenate([b.actions[:, 0] for b in bufs_off])
    acts_on = np.concatenate([b.actions[:, 0] for b in bufs_on])
    n = min(len(acts_off), len(acts_on))
    assert np.any(acts_off[:n] != acts_on[:n])  # the screen changed behavior


# -- advantage and target wiring --------------------------------------------


def test_reward_advantage_matches_estimator_modules():
    streams, env, nets = fresh_setup(seed=9)
    buf = collect_one(streams, env, nets)
    r = buf.rewards
    gamma = 0.99
    values = np.append(reward_head(nets, buf.hiddens,
                                   np.zeros((len(buf), nets.cfg.act_dim))), 0.0)

    cfg = small_cfg(adv="gae", gamma=gamma)
    got_adv, _, got_tgt = _reward_advantage(nets, [buf], cfg, ReturnWindow())
    assert np.array_equal(got_adv, gae(r, values, gamma))
    assert np.array_equal(got_tgt, r + gamma * values[1:])


def test_mgae_uses_window_mean_then_pushes():
    streams, env, nets = fresh_setup(seed=4)
    buf1 = collect_one(streams, env, nets)
    buf2 = collect_one(streams, env, nets)
    cfg = small_cfg(adv="mgae")
    window = ReturnWindow()

    def estimates(buf):
        return reward_head(nets, buf.hiddens,
                           onehot_rows(nets.cfg.branches, buf.actions))

    adv1, _, tgt1 = _reward_advantage(nets, [buf1], cfg, window)
    assert np.array_equal(adv1, mgae(buf1.rewards, estimates(buf1), 0.0))
    assert np.array_equal(tgt1, buf1.rewards)
    assert window.mean() == float(buf1.rewards.sum())

    adv2, _, _ = _reward_advantage(nets, [buf2], cfg, window)
    assert np.array_equal(adv2, mgae(buf2.rewards, estimates(buf2),
                                     float(buf1.rewards.sum())))


def test_raw_mgae_baseline_is_the_mean_of_the_earlier_returns(monkeypatch):
    # normalization off, as in the estimator study: episode i of a batch
    # takes as its baseline the mean of the returns of the (at most
    # window) episodes before it, 0 for the first, computed here by hand.
    # Short cliff episodes from fresh nets often earn nothing, so each
    # takes rewards of its own, and the baselines differ
    streams, env, nets = fresh_setup(seed=4)
    rng = np.random.default_rng(1)
    bufs = [collect_one(streams, env, nets) for _ in range(6)]
    bufs = [replace(b, rewards=rng.standard_normal(len(b))) for b in bufs]
    returns = [float(b.rewards.sum()) for b in bufs]
    cfg = small_cfg(adv="mgae", normalize_adv=False)
    monkeypatch.setattr(advantage, "WINDOW", 3)  # six episodes overflow it
    got, _, _ = _reward_advantage(nets, bufs, cfg, ReturnWindow())
    want = []
    for i, b in enumerate(bufs):
        earlier = returns[max(0, i - 3):i]
        baseline = sum(earlier) / len(earlier) if earlier else 0.0
        est = reward_head(nets, b.hiddens, onehot_rows(nets.cfg.branches, b.actions))
        want.append(mgae(b.rewards, est, baseline))
    np.testing.assert_allclose(got, np.concatenate(want), rtol=0, atol=1e-12)


@pytest.mark.parametrize("adv", ["mgae", "gae"])
def test_reward_regression_rows_and_targets_are_the_batch_rows(adv):
    """The rows and targets the reward stage regresses equal, byte for
    byte, those formed from the whole batch: (hidden, executed action) rows
    and the rewards for MGAE, (hidden, zero action) rows and
    r + gamma V(next) per episode for the critic.  Two episodes, the screen
    firing."""
    streams, env, nets = fresh_setup(seed=4)
    screen = SafetySection(horizon=3, threshold=0.05, activation_fraction=0.0)
    bufs = [collect_episode(nets, env, next(streams), screen, 0.99)
            for _ in range(2)]
    assert all(b.fired > 0 for b in bufs)
    batch = EpisodeBuffer.concat(bufs)
    cfg = small_cfg(adv=adv)
    _, rows, targets = _reward_advantage(nets, bufs, cfg, ReturnWindow())
    onehots = onehot_rows(nets.cfg.branches, batch.actions)
    if adv == "mgae":
        want_rows = np.concatenate([batch.hiddens, onehots], axis=1)
        want_targets = batch.rewards
    else:
        want_rows = np.concatenate([batch.hiddens, np.zeros_like(onehots)],
                                   axis=1)
        want_targets = []
        for b in bufs:
            values = np.append(reward_head(
                nets, b.hiddens, np.zeros((len(b), nets.cfg.act_dim))), 0.0)
            want_targets.append(b.rewards + cfg.gamma * values[1:])
        want_targets = np.concatenate(want_targets)
    want_targets = np.asarray(want_targets, dtype=np.float64)
    assert rows.shape == want_rows.shape and rows.flags.c_contiguous
    assert rows.tobytes() == want_rows.tobytes()
    assert targets.dtype == want_targets.dtype
    assert targets.tobytes() == want_targets.tobytes()


def test_reward_update_touches_only_the_reward_head():
    streams, env, nets = fresh_setup(seed=6)
    buf = collect_one(streams, env, nets)
    before = snapshot(nets)
    _, rows, targets = _reward_advantage(nets, [buf], small_cfg(),
                                         ReturnWindow())
    _mse_update(Adam(nets.params["reward"]), rows, targets)
    after = snapshot(nets)
    assert not heads_equal(before, after, "reward")
    for head in ("trunk", "actor", "cost", "sdm"):
        assert heads_equal(before, after, head)


def head_update_tapes(monkeypatch, batch, nets, base=nets_module.Tape):
    """The ops, ``Tape.ops()``, of each tape the SDM, cost and reward
    updates record, each a ``base``."""
    tapes = []

    class RecordingTape(base):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(nets_module, "Tape", RecordingTape)
    branches = nets.cfg.branches
    opts = {h: Adam(nets.params[h]) for h in ("sdm", "cost", "reward")}
    trainer._sdm_update(batch, branches, opts["sdm"])
    trainer._cost_update(batch, opts["cost"])
    rows = np.concatenate([batch.hiddens, onehot_rows(branches, batch.actions)],
                          axis=1)
    _mse_update(opts["reward"], rows, batch.rewards)
    return [tape.ops() for tape in tapes]


def test_head_updates_record_only_named_ops(monkeypatch):
    streams, env, nets = fresh_setup(seed=6)
    tapes = head_update_tapes(monkeypatch, collect_one(streams, env, nets),
                              nets)
    # the offsets head's (B, 8) rows enter the solve as they are
    assert [[kind for kind, _, _ in ops] for ops in tapes] == [
        ["mlp", "solve_homography", "warp", "jaccard"], ["mlp", "mse"],
        ["mlp", "mse"]]
    # the observations are data: the warp's one input is the solve, and
    # the Jaccard loss's one input is the warp
    sdm = tapes[0]
    assert [inputs for _, _, inputs in sdm[1:]] == [
        (sdm[0][1],), (sdm[1][1],), (sdm[2][1],)]


def test_head_updates_match_the_per_op_mse_bitwise(monkeypatch):
    streams, env, nets = fresh_setup(seed=6)
    buf = collect_one(streams, env, nets)
    ref_nets = copy.deepcopy(nets)
    head_update_tapes(monkeypatch, buf, nets)
    monkeypatch.setattr(trainer, "mse_loss", taped_mlp.mse)
    monkeypatch.setattr(trainer, "mlp_taped", taped_mlp.mlp_taped)
    head_update_tapes(monkeypatch, buf, ref_nets, taped_ops.Tape)
    for head in ("cost", "reward"):
        for k, v in nets.params[head].items():
            assert v.tobytes() == ref_nets.params[head][k].tobytes(), (head, k)


def test_actor_update_touches_trunk_and_actor_only():
    streams, env, nets = fresh_setup(seed=6)
    buf = collect_one(streams, env, nets)
    a_r = np.linspace(-1.0, 1.0, len(buf))
    before = snapshot(nets)
    opts = {h: Adam(nets.params[h]) for h in ("trunk", "actor")}
    loss, kl = _actor_update(nets, [buf], buf, a_r, None, 0.0, opts)
    after = snapshot(nets)
    assert np.isfinite(loss) and kl >= 0.0
    assert not heads_equal(before, after, "trunk")
    assert not heads_equal(before, after, "actor")
    for head in ("reward", "cost", "sdm"):
        assert heads_equal(before, after, head)


@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_collected_gates_equal_a_value_replay_bitwise(env_name):
    # the gates the rollout records are those a replay of the same inputs
    # computes, so the actor update can record them in place of a forward;
    # the KL replay forms the trunk's input side and the actor's logits for
    # all rows at once, with the rollout's bits
    streams, env, nets = fresh_setup(seed=4, env_name=env_name)
    bufs = [collect_one(streams, env, nets) for _ in range(2)]
    x_seqs = [_trunk_inputs(nets.cfg.branches, b) for b in bufs]
    logits = trainer._replay_logits_np(nets, x_seqs)
    p = nets.params["trunk"]
    hs, gates = [], []  # the reference replay, one cell step a row
    for xs in x_seqs:
        h = nets.initial_hidden()
        for x in xs:
            h, g = gru_step_np(p, row_product(x[None], p["W"]) + p["b"], h)
            hs.append(h)
            gates.append(np.concatenate(g))
    hs = np.concatenate(hs)
    batch = EpisodeBuffer.concat(bufs)
    assert batch.gates.shape == (len(hs), 4, 16)
    assert batch.gates.tobytes() == np.asarray(gates).tobytes()
    assert batch.hiddens.tobytes() == hs.tobytes()
    np.testing.assert_array_equal(logits,
                                  mlp_np(nets.params["actor"], batch.hiddens))


def actor_update_result(nets, bufs, a_r):
    """Parameters, loss and KL of one ``_actor_update`` on a copy of nets;
    the update steps only trunk and actor."""
    nets = copy.deepcopy(nets)
    opts = {h: Adam(nets.params[h]) for h in ("trunk", "actor")}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nets_module, "LR", 3e-3)
        loss, kl = _actor_update(nets, bufs, EpisodeBuffer.concat(bufs), a_r,
                                 None, 0.0, opts)
    return nets.flat_params(), loss, kl


@pytest.mark.parametrize("episodes", [1, 2])
@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_actor_update_on_recorded_gates_equals_recomputed_forward(
        monkeypatch, env_name, episodes):
    # the update records the rollout's gates; the reference runs a forward
    # and sums the gradients step by step, where the op sums them in
    # row-block products.  Adam divides by sqrt(v) + eps, so a gradient
    # rounding d moves a parameter by up to lr * d / eps, about 3e-11 at
    # these sizes.
    # 32 hidden units: cliff's trunk has fewer inputs than units, river's more
    streams, env, nets = fresh_setup(seed=9, hidden=32, env_name=env_name)
    bufs = [collect_one(streams, env, nets) for _ in range(episodes)]
    a_r = np.random.default_rng(2).standard_normal(sum(len(b) for b in bufs))
    params, loss, kl = actor_update_result(nets, bufs, a_r)
    monkeypatch.setattr(trainer, "trunk_replay_taped",
                        lambda p, tape, x_seqs, hs, gates:
                        trunk_replay_recomputed(p, tape, x_seqs))
    ref_params, ref_loss, ref_kl = actor_update_result(nets, bufs, a_r)
    for k, v in params.items():
        assert rel_err(v, ref_params[k]) <= 1e-10, k
    assert rel_err(np.float64(loss), np.float64(ref_loss)) <= 1e-10
    assert rel_err(np.float64(kl), np.float64(ref_kl)) <= 1e-10


def test_one_iteration_runs_two_cells_per_step(tmp_path, monkeypatch):
    # one cell per step in the rollout and one in the KL replay; the taped
    # replay records the rollout's gates instead of running a third
    calls, steps = [], []
    real_cell, real_collect = nets_module.gru_step_np, trainer.collect_episode

    def cell(*args):
        calls.append(1)
        return real_cell(*args)

    def collect(*args, **kwargs):
        buf = real_collect(*args, **kwargs)
        steps.append(len(buf))
        return buf

    monkeypatch.setattr(nets_module, "gru_step_np", cell)
    monkeypatch.setattr(trainer, "gru_step_np", cell)
    monkeypatch.setattr(trainer, "collect_episode", collect)
    state = train(small_cfg(step_budget=1), tmp_path / "run")
    assert len(state.rows) == 1 and len(steps) == 1 and steps[0] > 1
    assert len(calls) == 2 * steps[0]


# -- the loop ----------------------------------------------------------------


def test_stage_order_with_constraint(tmp_path):
    calls = []
    cfg = small_cfg(step_budget=40, lagrange=LagrangeSection(enabled=True))
    state = train(cfg, tmp_path / "run", instrument=calls.append)
    n = len(state.rows)
    assert n >= 1
    assert calls == list(STAGES) * n


def test_stage_order_without_constraint(tmp_path):
    calls = []
    cfg = small_cfg(step_budget=40)
    state = train(cfg, tmp_path / "run", instrument=calls.append)
    expected = [s for s in STAGES if s not in ("lagrange", "cost_advantage")]
    assert calls == expected * len(state.rows)


def test_batched_iteration_collects_before_updating(tmp_path):
    # k episodes enter one update pass: k collects, then each stage once
    calls = []
    cfg = small_cfg(step_budget=90, episodes_per_iter=3,
                    lagrange=LagrangeSection(enabled=True))
    state = train(cfg, tmp_path / "run", instrument=calls.append)
    per_iter = ["collect"] * 3 + [s for s in STAGES if s != "collect"]
    assert calls == per_iter * len(state.rows)
    for row in state.rows:
        assert np.isfinite(row["ep_reward"]) and np.isfinite(row["kl"])


def test_zero_budget_writes_init_only(tmp_path):
    # the final checkpoint of a run that never updates holds the initial
    # networks, which run_nets rebuilds from the config
    cfg = small_cfg(step_budget=0)
    state = train(cfg, tmp_path / "run", instrument=None)
    assert state.rows == []
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == ["ckpt-final.npz", "manifest.json", "metrics.csv"]
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert lines == [",".join(METRIC_COLUMNS)]
    saved = load_params(tmp_path / "run" / "ckpt-final.npz")
    init = run_nets(cfg).flat_params()
    assert list(saved) == list(init)
    for name, v in init.items():
        assert saved[name].tobytes() == v.tobytes(), name


def test_metrics_schema_and_repr_round_trip(tmp_path):
    cfg = small_cfg(step_budget=50)
    state = train(cfg, tmp_path / "run")
    with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(state.rows) >= 1
    for got, want in zip(rows, state.rows):
        assert tuple(got) == METRIC_COLUMNS
        assert int(got["iteration"]) == want["iteration"]
        for col in METRIC_COLUMNS[1:]:
            assert float(got[col]) == want[col]  # repr() is lossless
        assert got["override_rate"] == "0.0"
    # the manifest is provenance alone; ckpt-final.npz marks the run finished
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert list(manifest) == ["config", "code_hash", "started"]
    assert manifest["config"] == cfg.to_dict()
    assert manifest["config"]["seed"] == cfg.seed
    assert manifest["code_hash"] == code_hash()
    assert manifest["started"] and (tmp_path / "run" / "ckpt-final.npz").exists()


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = small_cfg(step_budget=50, lagrange=LagrangeSection(enabled=True))
    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    metrics_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    metrics_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert metrics_a == metrics_b
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    for man in (man_a, man_b):
        man.pop("started")
    assert man_a == man_b


def test_final_checkpoint_is_the_only_one_and_reloads(tmp_path):
    cfg = small_cfg(step_budget=60)
    state = train(cfg, tmp_path / "run")
    assert len(state.rows) >= 3
    assert sorted(f.name for f in (tmp_path / "run").iterdir()) == [
        "ckpt-final.npz", "manifest.json", "metrics.csv"]
    from cade.experiments import load_trained_nets
    one = load_trained_nets(cfg, tmp_path / "run")
    two = load_trained_nets(cfg, tmp_path / "run")
    assert all(heads_equal(one.params, two.params, h) for h in CadeNets.HEADS)
    assert not heads_equal(run_nets(cfg).params, one.params, "actor")


NAN = float("nan")
# the heads that iteration 3 steps before each stage runs
STEPPED_BEFORE = {"sdm": (), "cost_estimator": ("sdm",),
                  "reward_estimator": ("sdm", "cost"),
                  "actor": ("sdm", "cost", "reward")}


def poisoned_args(poison):
    """The loss of ``poison``'s arguments."""
    return lambda real, *args: real(*poison(*args))


def inf_gradient(real, *args):
    """The loss kept, with an inf gradient."""
    out = real(*args)
    return out.tape.record("poison", out.values, (out,), lambda g: (g * np.inf,))


NAN_LOSS, INF_GRADIENT = r"loss \(nan\)", r"gradient \(norm (inf|nan)\)"
STAGE_LOSSES = [("jaccard_loss", "sdm"), ("mse_loss", "cost_estimator"),
                ("mse_loss", "reward_estimator"), ("policy_loss", "actor")]


@pytest.mark.parametrize("loss,stage,poison,message", [
    ("jaccard_loss", "sdm",
     poisoned_args(lambda pred, truth: (pred, truth * NAN)), NAN_LOSS),
    ("mse_loss", "cost_estimator",
     poisoned_args(lambda out, targets: (out, targets * NAN)), NAN_LOSS),
    ("mse_loss", "reward_estimator",
     poisoned_args(lambda out, targets: (out, targets * NAN)), NAN_LOSS),
    ("policy_loss", "actor",  # the reward advantage a_r
     poisoned_args(lambda logits, *rest: (logits, *rest[:2], rest[2] * NAN, *rest[3:])),
     NAN_LOSS),
    *[(loss, stage, inf_gradient, INF_GRADIENT) for loss, stage in STAGE_LOSSES],
], ids=[stage for _, stage in STAGE_LOSSES]
    + [f"{stage}-gradient" for _, stage in STAGE_LOSSES])
def test_non_finite_loss_aborts_with_diagnostic(loss, stage, poison, message,
                                                tmp_path, monkeypatch):
    # the stage's loss turns NaN at iteration 3, or its gradient inf: it
    # raises before any of the stage's optimizers steps, so its heads, and
    # the heads of the stages after it, are in the snapshot as iteration 2
    # left them
    cfg = small_cfg(step_budget=400)
    prev = fold(cfg, 2).nets.flat_params()
    notes = []
    real = getattr(trainer, loss)

    def poisoned(*args):
        if notes[-1] == stage and notes.count("sdm") == 3:
            return poison(real, *args)
        return real(*args)

    monkeypatch.setattr(trainer, loss, poisoned)
    # inf times a zero gradient is NaN, which numpy would warn of
    with np.errstate(invalid="ignore"), pytest.raises(TrainerError, match=(
            f"^{stage} stage failed at iteration 3: ValueError: non-finite "
            f"{message}; diagnostic snapshot saved to "
            f"{re.escape(str(tmp_path / 'run' / 'diagnostic.npz'))}$")):
        train(cfg, tmp_path / "run", instrument=notes.append)
    run = tmp_path / "run"
    diag = load_params(run / "diagnostic.npz")
    assert diag.keys() == prev.keys()
    for key in diag:
        assert np.all(np.isfinite(diag[key])), key
        stepped = key.split(".")[0] in STEPPED_BEFORE[stage]
        assert np.array_equal(diag[key], prev[key]) != stepped, key
    lines = (run / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def test_a_near_deterministic_policy_trains(tmp_path, monkeypatch):
    # the actor's bias puts one action 800 above the others, so the other
    # probabilities underflow to 0; the actor stage divides by none of them
    # and the run finishes with every metric finite
    real = trainer.run_nets

    def peaked(cfg):
        nets = real(cfg)
        nets.params["actor"]["b2"][0, 1] += 800.0
        return nets

    monkeypatch.setattr(trainer, "run_nets", peaked)
    train(small_cfg(step_budget=200), tmp_path / "run")
    with open(tmp_path / "run" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(np.isfinite(float(v)) for row in rows for v in row.values())


def test_non_finite_head_loss_aborts_before_stepping(tmp_path, monkeypatch):
    # the third SDM loss turns NaN: the head must not take that step, so
    # the snapshot holds the weights that iteration 2 left
    cfg = small_cfg(step_budget=400)
    prev = fold(cfg, 2).nets.flat_params()
    calls = []
    real = trainer.jaccard_loss

    def poisoned(pred, truth):
        calls.append(None)
        if len(calls) == 3:
            truth = truth * float("nan")
        return real(pred, truth)

    monkeypatch.setattr(trainer, "jaccard_loss", poisoned)
    with pytest.raises(TrainerError, match="sdm stage failed at iteration 3"):
        train(cfg, tmp_path / "run")
    diag = load_params(tmp_path / "run" / "diagnostic.npz")
    assert diag.keys() == prev.keys()
    for name in diag:
        assert np.all(np.isfinite(diag[name])), name
        assert np.array_equal(diag[name], prev[name]), name


def poison_sdm_loss(monkeypatch):
    """Every SDM loss of ``train`` turns NaN."""
    real = trainer.jaccard_loss
    monkeypatch.setattr(trainer, "jaccard_loss", lambda pred, truth: real(
        pred, truth * NAN))


def test_clean_rerun_after_a_failed_run_keeps_no_diagnostic(tmp_path,
                                                           monkeypatch):
    # a failed run leaves its diagnostic; a clean rerun into the same
    # directory leaves only its own end state
    run = tmp_path / "run"
    with monkeypatch.context() as m:
        poison_sdm_loss(m)
        with pytest.raises(TrainerError, match="sdm stage failed"):
            train(small_cfg(), run)
    assert (run / "diagnostic.npz").exists()
    train(small_cfg(), run)
    assert sorted(f.name for f in run.iterdir()) == [
        "ckpt-final.npz", "manifest.json", "metrics.csv"]


def test_failed_rerun_after_a_clean_run_keeps_no_earlier_checkpoint(
        tmp_path, monkeypatch):
    # a clean run's ckpt-final.npz, beside a periodic checkpoint that older
    # versions wrote; a rerun into the same directory that fails at its
    # first iteration leaves neither, so no ckpt-final.npz stands beside
    # the failed run's metrics.csv
    run = tmp_path / "run"
    train(small_cfg(), run)
    assert (run / "ckpt-final.npz").exists()
    (run / "ckpt-000001.npz").write_bytes(b"stale")
    poison_sdm_loss(monkeypatch)
    with pytest.raises(TrainerError, match="sdm stage failed at iteration 1"):
        train(small_cfg(), run)
    assert sorted(f.name for f in run.iterdir()) == [
        "diagnostic.npz", "manifest.json", "metrics.csv"]


def fail_on_call(real, n, error):
    """``real`` with its ``n``-th call raising ``error``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise error
        return real(*args, **kwargs)

    return wrapped


def singular_on_call(real, n):
    """``real`` whose ``n``-th call solves offsets that make H singular."""
    calls = []

    def wrapped(offsets, rows, cols):
        calls.append(None)
        if len(calls) == n:
            offsets = offsets.tape.const(np.broadcast_to(
                SINGULAR_OFFSETS, offsets.values.shape).copy())
        return real(offsets, rows, cols)

    return wrapped


@pytest.mark.parametrize("failure,reason", [
    (lambda real: fail_on_call(real, 2, HomographyError(
        "degenerate correspondence, cond=inf")), "degenerate correspondence"),
    (lambda real: singular_on_call(real, 2), "singular homography"),
], ids=["HomographyError", "singular-H"])
def test_sdm_solve_failure_aborts_with_diagnostic(failure, reason, tmp_path,
                                                  monkeypatch):
    # the second iteration's SDM update fails: the first one's row survives;
    # "singular-H" solves a finite H that the warp cannot invert
    monkeypatch.setattr(trainer, "solve_homography",
                        failure(trainer.solve_homography))
    cfg = small_cfg(step_budget=60)
    with pytest.raises(TrainerError, match="sdm stage failed at iteration 2: "
                                           f"HomographyError: {reason}"):
        train(cfg, tmp_path / "run")
    run = tmp_path / "run"
    assert (run / "diagnostic.npz").exists()
    lines = (run / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == ["1"]


@pytest.mark.parametrize("module,stage,overrides", [
    # at threshold 0.5 the cost head's bound can reach it: the screen runs
    (safety, "collect", dict(safety=SafetySection(mode="train", threshold=0.5,
                                                  activation_fraction=0.0))),
    (focops, "cost_advantage", dict(lagrange=LagrangeSection(enabled=True))),
])
def test_sdm_predict_failure_aborts_its_stage(module, stage, overrides,
                                              tmp_path, monkeypatch):
    monkeypatch.setattr(module, "sdm_predict", fail_on_call(
        module.sdm_predict, 1, HomographyError("degenerate correspondence")))
    with pytest.raises(TrainerError, match=f"{stage} stage failed at iteration 1"):
        train(small_cfg(step_budget=40, **overrides), tmp_path / "run")
    assert (tmp_path / "run" / "diagnostic.npz").exists()


def test_non_finite_logits_in_collect_abort_with_diagnostic(tmp_path,
                                                             monkeypatch):
    # the actor's output bias turns NaN before the 150th step: sampling
    # raises inside collect, and the run ends through the stage runner
    notes, poisoned = [], []
    real = trainer.cade_forward

    def poisoning(nets, *args):
        poisoned.append(notes.count("sdm") + 1)  # the current iteration
        if len(poisoned) == 150:
            nets.params["actor"]["b2"][...] = np.nan
        return real(nets, *args)

    monkeypatch.setattr(trainer, "cade_forward", poisoning)
    cfg = small_cfg(step_budget=300)
    run = tmp_path / "run"
    with pytest.raises(TrainerError) as err:
        train(cfg, run, instrument=notes.append)
    k = poisoned[149]
    assert k > 1 and len(poisoned) == 150
    assert str(err.value) == (f"collect stage failed at iteration {k}: "
                              "ValueError: non-finite logits; diagnostic "
                              f"snapshot saved to {run / 'diagnostic.npz'}")
    assert np.isnan(load_params(run / "diagnostic.npz")["actor.b2"]).all()
    lines = (run / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == \
        [str(i) for i in range(1, k)]
    assert len(read_metrics_csv(run / "metrics.csv")) == k - 1


def spy(monkeypatch, name):
    """Record the bound arguments of every call to ``trainer.<name>``."""
    real = getattr(trainer, name)
    signature = inspect.signature(real)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, name, recorded)
    return calls


def test_screen_discounts_with_the_run_gamma(tmp_path, monkeypatch):
    # one proposal rollout per call, so the screen's proposed cost is the
    # same imagined rollout that a horizon-3 cost advantage at gamma 0.5
    # prices from a copy of the screen's stream
    real = trainer.screen_action
    checked = []

    def checking(nets, obs, hidden, proposed, rng, **kwargs):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        decision = real(nets, obs, hidden, proposed, rng, **kwargs)
        want = trainer.cost_advantage(nets, obs[None], proposed[None],
                                      hidden, replay,
                                      CostAdvSection(horizon=3), 0.5)
        assert squash_cost(decision.proposed_cost) == want[0]
        checked.append(decision)
        return decision

    monkeypatch.setattr(trainer, "screen_action", checking)
    monkeypatch.setattr(safety, "SAMPLES", 1)
    cfg = small_cfg(step_budget=40, gamma=0.5,
                    safety=SafetySection(mode="train", horizon=3,
                                         activation_fraction=0.0))
    train(cfg, tmp_path / "run")
    assert len(checked) >= cfg.step_budget  # one call per env step


def test_every_setting_reaches_the_runtime(tmp_path, monkeypatch):
    cfg = small_cfg(
        step_budget=40, gamma=0.9,
        lagrange=LagrangeSection(enabled=True, budget=0.5),
        cost_adv=CostAdvSection(horizon=2),
        safety=SafetySection(mode="train", horizon=2, threshold=0.5,
                             activation_fraction=0.0))
    defaults = RunConfig()
    assert cfg.gamma != defaults.gamma
    for name in ("lagrange", "cost_adv", "safety"):
        ours, theirs = asdict(getattr(cfg, name)), asdict(getattr(defaults, name))
        assert all(ours[k] != theirs[k] for k in ours), name

    calls = {name: spy(monkeypatch, name) for name in
             ("screen_action", "cost_advantage", "lagrange_update")}
    train(cfg, tmp_path / "run")
    assert all(calls.values())
    for call in calls["screen_action"]:
        assert call["cfg"] == cfg.safety and call["gamma"] == cfg.gamma
    for call in calls["cost_advantage"]:
        assert call["cfg"] == cfg.cost_adv and call["gamma"] == cfg.gamma
    for call in calls["lagrange_update"]:
        assert call["budget"] == cfg.lagrange.budget


@pytest.mark.parametrize("adv", ["gae"])
def test_critic_estimators_train_without_error(adv, tmp_path):
    cfg = small_cfg(adv=adv, step_budget=30)
    state = train(cfg, tmp_path / adv)
    assert all(np.isfinite(row["loss_r"]) for row in state.rows)


# Lagrange on, an imagined cost-advantage tail and a screen that fires from
# step 0, two episodes a batch; and a river run; a seed other than 0, so a
# key that drops the seed shows
REBUILT_RUNS = {
    "cliff-guarded": small_cfg(
        seed=3, gamma=0.9, episodes_per_iter=2,
        lagrange=LagrangeSection(enabled=True),
        cost_adv=CostAdvSection(horizon=2),
        safety=SafetySection(mode="train", horizon=3, threshold=0.3,
                             activation_fraction=0.0)),
    "river": small_cfg(env="planar-river", seed=3, episodes_per_iter=2,
                       lagrange=LagrangeSection(enabled=True, budget=0.0)),
}


@pytest.mark.parametrize("name", list(REBUILT_RUNS))
def test_a_single_episode_rebuilds_from_its_checkpoint_and_key(
        name, tmp_path, monkeypatch):
    """Episode k of a run, collected alone on a fresh env from the
    parameters in force (folded from ``init_state``), the streams of
    (seed, k) and the screen it ran with, gives the buffer the run
    recorded, field for field."""
    cfg = REBUILT_RUNS[name]
    recorded = []  # (screen, buffer) of every collected episode
    real_collect = trainer.collect_episode

    def collect(nets, env, streams, screen, gamma):
        buf = real_collect(nets, env, streams, screen, gamma)
        recorded.append((screen, buf))
        return buf

    monkeypatch.setattr(trainer, "collect_episode", collect)
    train(cfg, tmp_path)
    monkeypatch.undo()
    n = len(recorded)
    assert n >= 4
    if cfg.safety.mode == "train":
        assert sum(buf.fired for _, buf in recorded) > 0
    for k in (0, n // 2, n - 1):
        screen, want = recorded[k]
        assert screen is cfg.safety.for_phase("train")  # active from step 0
        done = k // cfg.episodes_per_iter  # iterations updated before k
        nets = fold(cfg, done).nets
        env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
        got = real_collect(nets, env, episode_streams(cfg.seed, TRAIN, k),
                           screen, cfg.gamma)
        for f in fields(EpisodeBuffer):
            np.testing.assert_array_equal(getattr(got, f.name),
                                          getattr(want, f.name),
                                          err_msg=f"episode {k}: {f.name}")


# cliff; Lagrange with a horizon-3 imagined cost-advantage tail and a screen
# that fires from step 0, two episodes a batch; and river, two episodes a batch
FOLDED_RUNS = {
    "cliff": small_cfg(step_budget=120),
    "cliff-guarded-h3": small_cfg(
        gamma=0.9, episodes_per_iter=2, lagrange=LagrangeSection(enabled=True),
        cost_adv=CostAdvSection(horizon=3),
        safety=SafetySection(mode="train", horizon=3, threshold=0.3,
                             activation_fraction=0.0)),
    "river": small_cfg(env="planar-river", step_budget=150, episodes_per_iter=2,
                       lagrange=LagrangeSection(enabled=True, budget=0.0)),
}


def assert_same_run(state, run_dir, tmp_path):
    """``state``'s rows are the run's, in ``metrics.csv``'s bytes and read
    back, and its networks are ``ckpt-final.npz``'s, bit for bit."""
    write_metrics_csv(tmp_path / "folded.csv", state.rows)
    assert ((tmp_path / "folded.csv").read_bytes()
            == (run_dir / "metrics.csv").read_bytes())
    assert json.dumps(state.rows) == json.dumps(read_metrics_csv(run_dir / "metrics.csv"))
    final = load_params(run_dir / "ckpt-final.npz")
    params = state.nets.flat_params()
    assert final.keys() == params.keys()
    for key in final:
        assert final[key].tobytes() == params[key].tobytes(), key


@pytest.mark.parametrize("name", list(FOLDED_RUNS))
def test_iterate_folded_by_hand_is_train(name, tmp_path):
    # the same rows, parameters and stage notes as train, and iterate
    # returns the row it appends
    cfg = FOLDED_RUNS[name]
    train_notes, notes = [], []
    train(cfg, tmp_path / "run", instrument=train_notes.append)
    state = init_state(cfg)
    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    while state.total < cfg.step_budget:
        row = iterate(state, cfg, env, notes.append)
        assert row is state.rows[-1] and row["iteration"] == state.it
    assert state.it >= 3 and notes == train_notes
    if cfg.safety.mode == "train":
        assert any(row["override_rate"] > 0 for row in state.rows)
    assert_same_run(state, tmp_path / "run", tmp_path)


@pytest.mark.parametrize("name", ["cliff", "river"])
def test_read_metrics_csv_gives_the_returned_rows_bit_for_bit(name, tmp_path):
    # the rows a study reads back are the ones train returned: each
    # iteration an int, each float with its bits
    state = train(FOLDED_RUNS[name], tmp_path)
    got = read_metrics_csv(tmp_path / "metrics.csv")
    assert len(got) == len(state.rows) >= 3
    for g, w in zip(got, state.rows):
        assert list(g) == list(w) == list(METRIC_COLUMNS)
        assert type(g["iteration"]) is int and g["iteration"] == w["iteration"]
        for col in METRIC_COLUMNS[1:]:
            assert np.float64(g[col]).tobytes() == np.float64(w[col]).tobytes(), col


@pytest.mark.parametrize("name", list(FOLDED_RUNS))
def test_a_copied_state_continues_as_the_uninterrupted_run(name, tmp_path):
    # a deep copy of the state after iteration 1, a middle one, the one
    # before the last and the last, continued on a fresh env, ends with the
    # rows and parameters of the run that was not interrupted
    cfg = FOLDED_RUNS[name]
    train(cfg, tmp_path / "run")
    state = init_state(cfg)
    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    copies = []
    while state.total < cfg.step_budget:
        iterate(state, cfg, env, lambda stage: None)
        copies.append(copy.deepcopy(state))
    n = len(copies)
    assert n >= 3
    for it in sorted({1, n // 2, n - 1, n}):
        resumed = copies[it - 1]
        assert resumed.it == it
        env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
        while resumed.total < cfg.step_budget:
            iterate(resumed, cfg, env, lambda stage: None)
        assert_same_run(resumed, tmp_path / "run", tmp_path)


# -- evaluation --------------------------------------------------------------


def test_evaluate_rows_and_summary():
    streams, env, nets = fresh_setup(seed=8)
    rows = evaluate(nets, env, 5, 8, None, 0.99)
    assert [row["episode"] for row in rows] == list(range(5))
    for row in rows:
        assert row["override_rate"] == 0.0
        assert row["steps"] >= 1
    stats = summarize(rows)
    r = np.array([row["reward"] for row in rows])
    c = np.array([row["cost"] for row in rows])
    assert stats["episodes"] == 5
    assert stats["reward_mean"] == pytest.approx(r.mean())
    assert stats["reward_std"] == pytest.approx(r.std())
    assert stats["cost_mean"] == pytest.approx(c.mean())
    assert stats["cost_std"] == pytest.approx(c.std())
    assert stats["override_rate_mean"] == 0.0
    with pytest.raises(ValueError, match="no episodes"):
        summarize([])


def _copying_bind(tape, params):
    """The reference bind: each leaf holds a copy of its parameter."""
    return {k: tape.leaf(v.copy(order="K"))
            for k, v in params.items()}


_ADAM_STEP = Adam.step


def _stepped_gradients(monkeypatch, nets, bufs):
    """Every gradient dict that Adam receives in two SDM, cost and reward
    updates and one actor update of ``bufs``, each array copied in its
    layout."""
    grads = []

    def recording(opt, g):
        grads.append({k: v.copy(order="K") for k, v in g.items()})
        return _ADAM_STEP(opt, g)

    monkeypatch.setattr(Adam, "step", recording)
    monkeypatch.setattr(nets_module, "LR", 1e-2)
    batch = EpisodeBuffer.concat(bufs)
    branches = nets.cfg.branches
    opts = {h: Adam(nets.params[h]) for h in CadeNets.HEADS}
    rows = np.concatenate([batch.hiddens, onehot_rows(branches, batch.actions)],
                          axis=1)
    for _ in range(2):
        trainer._sdm_update(batch, branches, opts["sdm"])
        trainer._cost_update(batch, opts["cost"])
        _mse_update(opts["reward"], rows, batch.rewards)
    a_r = np.linspace(-1.0, 1.0, len(batch))
    _actor_update(nets, bufs, batch, a_r, None, 0.0, opts)
    return grads


@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_bind_without_copies_gives_the_copying_gradients_bitwise(
        monkeypatch, env_name):
    # 32 hidden units; each head's second update binds parameters the first
    # stepped in place
    streams, env, nets = fresh_setup(seed=5, hidden=32, env_name=env_name)
    bufs = [collect_one(streams, env, nets) for _ in range(2)]
    tape = nets_module.Tape()
    for k, leaf in nets_module.bind(tape, nets.params["trunk"]).items():
        assert leaf.values is nets.params["trunk"][k]
    ref_nets = copy.deepcopy(nets)
    grads = _stepped_gradients(monkeypatch, nets, bufs)
    monkeypatch.setattr(nets_module, "bind", _copying_bind)
    ref_grads = _stepped_gradients(monkeypatch, ref_nets, bufs)
    assert len(grads) == len(ref_grads) == 2 * 3 + 2
    for got, want in zip(grads, ref_grads):
        assert got.keys() == want.keys()
        for k in got:
            assert got[k].strides == want[k].strides, k
            assert got[k].tobytes(order="A") == want[k].tobytes(order="A"), k
    for head in CadeNets.HEADS:
        for k, v in nets.params[head].items():
            assert v.tobytes(order="A") == ref_nets.params[head][k].tobytes(order="A")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the package sets its heap policy on glibc only")
def test_a_steady_river_iteration_takes_no_fresh_pages():
    # in a fresh interpreter, so no other test's heap is counted: after
    # five warm-up iterations the next twenty fault in fewer than two pages
    # an env step (about 34 when glibc trims the heap top after each stage)
    code = "\n".join([
        "import resource",
        "from cade.config import RunConfig",
        "from cade.envs import make_env",
        "from cade.trainer import init_state, iterate",
        "cfg = RunConfig(env='planar-river', step_budget=10**6)",
        "env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)",
        "state = init_state(cfg)",
        "for _ in range(5):",
        "    iterate(state, cfg, env, lambda stage: None)",
        "steps, faults = state.total, resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "for _ in range(20):",
        "    iterate(state, cfg, env, lambda stage: None)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, state.total - steps)",
    ])
    src = str(Path(cade.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}).stdout
    faults, steps = map(int, out.split())
    assert steps > 0 and faults < 2 * steps, f"{faults} minor faults over {steps} env steps"
