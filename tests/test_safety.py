"""Screening contracts: gating, trigger condition, replacement choice."""

import math
from dataclasses import fields
from functools import partial
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cade import safety, trainer
from cade.autograd import stable_sigmoid
from cade.config import (ConfigError, CostAdvSection, LagrangeSection,
                         RunConfig, SafetySection)
from cade.envs import CliffCircular, make_env
from cade.focops import cost_advantage, squash_cost
from cade.homography import HomographyError, sdm_predict
from cade.nets import (CadeNets, NetConfig, action_onehot, cade_forward,
                       sample_action)
from cade.safety import screen_action
from cade.trainer import EVAL, TRAIN, episode_streams, evaluate, train
from reference_screen import reference_screen_action

ACTIVE = SafetySection(threshold=1.0)
GAMMA = 0.99


class _Stub:
    """Identity-warp dynamics; cost keyed on the predicted grid mean.

    ``shift_actions`` lists first-branch actions whose imagined step slides
    the whole grid out of frame (every cell becomes the 0.5 fill).
    """

    def __init__(self, cost=None, shift_actions=()):
        self.cfg = SimpleNamespace(branches=(5,), obs_dim=25)
        self._cost = cost
        self._shift = set(shift_actions)

    def sdm_offsets_flat(self, x):
        out = np.zeros((x.shape[0], 8))
        acts = np.argmax(x[:, -5:], axis=1)
        for r, a in enumerate(acts):
            if int(a) in self._shift:
                out[r] = 100.0  # uniform corner offset: pure translation
        return out

    def cost_np(self, rows):
        if self._cost is not None:
            return np.full(rows.shape[0], self._cost)
        return rows.mean(axis=1)

    def actor_logits_np(self, hidden):
        return np.zeros(5)

    def trunk_step_np(self, obs_flat, prev_onehot, hidden):
        return hidden, None


GRID = np.zeros((5, 5))
HID = np.zeros((8, 1))


def test_config_validation():
    for name, bad in (("horizon", 0), ("threshold", 0.0),
                      ("activation_fraction", 1.5)):
        with pytest.raises(ConfigError, match=rf"safety\.{name}"):
            RunConfig(safety=SafetySection(**{name: bad})).validate()


def _late_screen_run(tmp_path, monkeypatch):
    """A small cliff run whose screen activates halfway through the step
    budget, at a threshold so low that a screened step fires: the config,
    the run's end state and, per episode, the steps collected before it, the
    screen calls made in it and its buffer."""
    episodes = []
    collect, screen = trainer.collect_episode, trainer.screen_action

    def collecting(*args):
        episodes.append([sum(len(buf) for _, _, buf in episodes), 0, None])
        episodes[-1][2] = collect(*args)
        return episodes[-1][2]

    def screening(*args, **kwargs):
        episodes[-1][1] += 1
        return screen(*args, **kwargs)

    monkeypatch.setattr(trainer, "collect_episode", collecting)
    monkeypatch.setattr(trainer, "screen_action", screening)
    cfg = RunConfig(step_budget=200, timeout=30, hidden_dim=16, head_width=8,
                    safety=SafetySection(mode="train", threshold=1e-6,
                                         activation_fraction=0.5))
    return cfg, train(cfg, tmp_path / "run"), episodes


def test_screen_sleeps_before_activation_and_when_disabled(tmp_path,
                                                           monkeypatch):
    # train screens no step of an episode that starts before the
    # activation point, and every step of one that starts at it or later
    cfg, _, episodes = _late_screen_run(tmp_path, monkeypatch)
    active = [start / cfg.step_budget >= 0.5 for start, _, _ in episodes]
    assert any(active) and not all(active)
    assert [calls for _, calls, _ in episodes] == [
        len(buf) if on else 0 for on, (_, _, buf) in zip(active, episodes)]

    # a disabled screen is None, and then it is never called
    def called(*args, **kwargs):
        raise AssertionError("the screen ran while off")

    monkeypatch.setattr(trainer, "screen_action", called)
    nets = _tiny_nets()
    nets.params["cost"]["b2"][...] = 50.0  # would fire on every step
    env = CliffCircular("easy", timeout=30, seed=10)
    rows = evaluate(nets, env, 2, 8, None, GAMMA)
    assert all(r["override_rate"] == 0.0 for r in rows)


def test_cheap_proposal_passes_through_bitwise():
    rng = np.random.default_rng(1)
    proposed = np.array([3])
    d = screen_action(_Stub(cost=0.2), GRID, HID, proposed, rng,
                      SafetySection(threshold=0.5), GAMMA, {})
    assert not d.fired
    np.testing.assert_array_equal(d.action, proposed)
    assert d.proposed_cost == pytest.approx(0.2)


def test_always_unsafe_estimator_fires_every_step_costs_tie():
    rng = np.random.default_rng(2)
    stub = _Stub(cost=1.0)
    for _ in range(50):
        proposed = np.array([int(rng.integers(5))])
        d = screen_action(stub, GRID, HID, proposed, rng, ACTIVE, GAMMA, {})
        assert d.fired
        assert d.chosen_cost <= d.proposed_cost
        # every candidate ties at cost 1; the proposal wins the tie
        np.testing.assert_array_equal(d.action, proposed)


def test_fires_and_swaps_to_a_cheap_alternative():
    # proposed action 0 slides the view away (all-unknown, cost 0.5);
    # anything else keeps the empty grid (cost 0)
    stub = _Stub(shift_actions=[0])
    rng = np.random.default_rng(3)
    d = screen_action(stub, GRID, HID, np.array([0]), rng,
                      SafetySection(threshold=0.4), GAMMA, {})
    assert d.fired
    assert d.action[0] != 0
    assert d.proposed_cost == pytest.approx(0.5)
    assert d.chosen_cost == 0.0


def test_keeps_proposal_when_alternatives_are_worse():
    # proposed action 2 stays in frame (cost 0 < everything shifted to 0.5)
    # but a tiny threshold still trips the screen
    stub = _Stub(shift_actions=[0, 1, 3, 4])
    rng = np.random.default_rng(4)
    d = screen_action(stub, GRID, HID, np.array([2]), rng,
                      SafetySection(threshold=1e-9), GAMMA, {})
    assert not d.fired or d.action[0] == 2
    # cost 0 >= 1e-9 is false, so the screen actually never fires here;
    # force it with a floor cost instead
    stub2 = _Stub(shift_actions=[0, 1, 3, 4])
    stub2.cost_np = lambda rows: rows.mean(axis=1) + 0.3
    d2 = screen_action(stub2, GRID, HID, np.array([2]), rng,
                       SafetySection(threshold=0.25), GAMMA, {})
    assert d2.fired
    assert d2.action[0] == 2
    assert d2.chosen_cost == d2.proposed_cost == pytest.approx(0.3)


def test_two_step_horizon_accumulates_discounted_costs():
    stub = _Stub(cost=0.5)
    rng = np.random.default_rng(5)
    cfg = SafetySection(threshold=0.9, horizon=2)
    d = screen_action(stub, GRID, HID, np.array([1]), rng, cfg, 0.9, {})
    assert d.fired  # 0.5 + 0.9 * 0.5 = 0.95 >= 0.9
    assert d.proposed_cost == pytest.approx(0.95)


def test_one_safe_rollout_keeps_the_proposal(monkeypatch):
    # the proposal keeps the grid (cost 0), and a continuation that
    # samples action 0 or 1 slides it out of frame (cost 0.5): the
    # proposal's ten two-step rollouts cost 0 or 0.99 * 0.5, on both sides
    # of the threshold.  The screen fires only when every rollout meets it
    totals = []
    real = safety.imagine_cost

    def recording(*args):
        totals.append(real(*args))
        return totals[-1]

    monkeypatch.setattr(safety, "imagine_cost", recording)
    d = screen_action(_Stub(shift_actions=[0, 1]), GRID, HID, np.array([2]),
                      np.random.default_rng(0),
                      SafetySection(horizon=2, threshold=0.4),
                      GAMMA, {})
    assert len(totals) == 10 and min(totals) < 0.4 <= max(totals)
    assert not d.fired
    np.testing.assert_array_equal(d.action, [2])


def test_screen_is_deterministic_given_the_stream():
    stub = _Stub(cost=1.0)
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(6)
        outs.append(screen_action(stub, GRID, HID, np.array([4]), rng,
                                  ACTIVE, GAMMA, {}))
    assert outs[0] == outs[1]


def _tiny_nets(seed=0, branches=(5,)):
    return CadeNets(NetConfig(25, branches, hidden_dim=16, head_width=8),
                    np.random.default_rng(seed))


def test_overlay_with_silent_cost_head_matches_plain_eval():
    rows = []
    for cfg in (None, SafetySection(threshold=0.5)):
        nets = _tiny_nets()
        nets.params["cost"]["b2"][...] = -50.0  # head output ~ 0, never fires
        env = CliffCircular("easy", timeout=40, seed=9)
        rows.append(evaluate(nets, env, 3, 7, cfg, GAMMA))
    assert rows[0] == rows[1]
    assert all(r["override_rate"] == 0.0 for r in rows[1])


def test_overlay_with_saturated_cost_head_fires_every_step():
    nets = _tiny_nets()
    nets.params["cost"]["b2"][...] = 50.0  # head output ~ 1, always fires
    env = CliffCircular("easy", timeout=30, seed=10)
    cfg = SafetySection(threshold=0.5)
    rows = evaluate(nets, env, 2, 8, cfg, GAMMA)
    assert all(r["override_rate"] == 1.0 for r in rows)


def test_overlay_rate_zero_before_activation(tmp_path, monkeypatch):
    # one episode an iteration: each row's override rate is its episode's,
    # zero before the activation point, and the screen fires after it
    cfg, state, episodes = _late_screen_run(tmp_path, monkeypatch)
    rates = [row["override_rate"] for row in state.rows]
    assert rates == [buf.fired / len(buf) for _, _, buf in episodes]
    assert all(rate == 0.0 for rate, (start, _, _) in zip(rates, episodes)
               if start / cfg.step_budget < 0.5)
    assert rates[-1] > 0.0


def _stepwise_evaluate(nets, env, episodes, seed, cfg, gamma):
    """The screened evaluation loop ``evaluate`` replaced, kept as its
    reference: reward and cost summed as each step arrives, episode k on
    the streams of eval episode k of ``seed``."""
    rows = []
    for ep in range(episodes):
        streams = episode_streams(seed, EVAL, ep)
        obs, hidden = env.reset(streams.env), nets.initial_hidden()
        prev = np.zeros((1, nets.cfg.act_dim))
        reward = cost = 0.0
        fired = steps = 0
        while True:
            action, hidden, _ = cade_forward(nets, obs, prev, hidden,
                                             streams.policy)
            if cfg is not None:
                d = screen_action(nets, obs, hidden, action, streams.screen,
                                  cfg, gamma, {})
                action = d.action
                fired += int(d.fired)
            res = env.step(int(action[0]))
            reward += res.reward
            cost += res.cost
            steps += 1
            obs = res.obs
            prev = action_onehot(nets.cfg.branches, action)
            if res.terminal:
                break
        rows.append({"episode": ep, "reward": reward, "cost": cost,
                     "steps": steps, "override_rate": fired / steps})
    return rows


@pytest.mark.parametrize("enabled,horizon,cost_bias", [
    (False, 1, None),   # screen off
    (True, 1, None),    # fires on some steps
    (True, 3, 50.0),    # fires on every step, three-step rollouts
])
def test_evaluate_matches_the_stepwise_loop(enabled, horizon, cost_bias,
                                           monkeypatch):
    monkeypatch.setattr(safety, "SAMPLES", 3)
    cfg = SafetySection(horizon=horizon, threshold=0.5) if enabled else None
    rows = []
    for run in (evaluate, _stepwise_evaluate):
        nets = _tiny_nets(4)
        if cost_bias is not None:
            nets.params["cost"]["b2"][...] = cost_bias
        env = CliffCircular("easy", timeout=30, seed=12)
        rows.append(run(nets, env, 3, 13, cfg, GAMMA))
    assert rows[0] == rows[1]
    assert [type(r["reward"]) for r in rows[0]] == [float] * 3


def test_screen_and_cost_advantage_price_a_rollout_alike(monkeypatch):
    monkeypatch.setattr(safety, "SAMPLES", 1)
    nets = _tiny_nets(3)
    grid = np.random.default_rng(4).random((5, 5))
    hidden = np.random.default_rng(5).uniform(-0.5, 0.5, (1, 16))
    cfg = SafetySection(horizon=3, activation_fraction=0.0)
    for a in range(5):
        action = np.array([a])
        one_step = cost_advantage(nets, grid[None], action[None], None, None,
                                  CostAdvSection(), GAMMA)[0]
        for seed in range(4):
            decision = screen_action(nets, grid, hidden, action,
                                     np.random.default_rng(seed), cfg,
                                     GAMMA, {})
            adv = cost_advantage(nets, grid[None], action[None], hidden,
                                 np.random.default_rng(seed),
                                 CostAdvSection(horizon=3), GAMMA)
            assert squash_cost(decision.proposed_cost) == adv[0]
            assert adv[0] != one_step


def screen_per_call(*args):
    """``screen_action`` with a memo of its own: its first steps last for
    this call only."""
    return screen_action(*args, {})


def _screen_outcome(screen, nets, grid, hidden, proposed, rng, cfg, gamma):
    """A screen call's decision, or the type of the error it raised."""
    try:
        return screen(nets, grid, hidden, proposed, rng, cfg, gamma)
    except HomographyError as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(net_seed=st.integers(0, 7),
       branches=st.sampled_from([(5,), (3, 3)]),
       cost_bias=st.sampled_from([-2.0, 0.0, 2.0, 50.0]),
       threshold=st.one_of(st.just(0.01), st.floats(0.05, 2.5),
                           st.just(50.0)),
       horizon=st.integers(1, 3),
       samples=st.integers(1, 10),
       gamma=st.sampled_from([0.99, 0.9]),
       data_seed=st.integers(0, 2**32 - 1),
       rng_seed=st.integers(0, 2**32 - 1))
def test_screen_matches_the_per_sample_reference(net_seed, branches, cost_bias,
                                                 threshold, horizon, samples,
                                                 gamma, data_seed, rng_seed):
    """Pricing each distinct first action once changes no decision, cost
    or draw: fields and rng state equal the per-sample screen bitwise."""
    nets = _tiny_nets(net_seed, branches)
    nets.params["cost"]["b2"][...] = cost_bias
    data = np.random.default_rng(data_seed)
    grid = data.random((5, 5))
    hidden = data.uniform(-0.5, 0.5, (1, 16))
    proposed = np.array([data.integers(n) for n in branches])
    cfg = SafetySection(horizon=horizon, threshold=threshold)
    outs, states = [], []
    for screen in (screen_per_call,
                   partial(reference_screen_action, samples=samples)):
        rng = np.random.default_rng(rng_seed)
        with patch.object(safety, "SAMPLES", samples):
            outs.append(_screen_outcome(screen, nets, grid, hidden, proposed,
                                        rng, cfg, gamma))
        states.append(rng.bit_generator.state)
    new, ref = outs
    assert states[0] == states[1]
    if isinstance(ref, type):
        assert new is ref
        return
    np.testing.assert_array_equal(new.action, ref.action)
    assert new.action.dtype == ref.action.dtype
    assert new.fired == ref.fired
    assert new.proposed_cost == ref.proposed_cost
    assert new.chosen_cost == ref.chosen_cost


@pytest.mark.parametrize("samples", [1, 10])
@pytest.mark.parametrize("cost_bias,fires", [(-50.0, False), (50.0, True)],
                         ids=["silent", "fires"])
def test_horizon_one_screen_matches_the_per_sample_reference(samples, cost_bias,
                                                             fires, monkeypatch):
    """At horizon 1 the proposal is priced once, not once per sample; the
    decision, its costs and the rng stream equal the reference's."""
    monkeypatch.setattr(safety, "SAMPLES", samples)
    for seed in range(6):
        nets = _tiny_nets(seed)
        nets.params["cost"]["b2"][...] = cost_bias
        data = np.random.default_rng(seed + 40)
        grid = data.random((5, 5))
        hidden = data.uniform(-0.5, 0.5, (1, 16))
        cfg = SafetySection(horizon=1, threshold=0.5)
        outs, states = [], []
        for screen in (screen_per_call,
                       partial(reference_screen_action, samples=samples)):
            rng = np.random.default_rng(seed)
            outs.append(screen(nets, grid, hidden, np.array([seed % 5]), rng,
                               cfg, GAMMA))
            states.append(rng.bit_generator.state)
        new, ref = outs
        assert new.fired is ref.fired is fires
        assert states[0] == states[1]
        np.testing.assert_array_equal(new.action, ref.action)
        assert new.action.dtype == ref.action.dtype
        assert (new.proposed_cost, new.chosen_cost) == \
            (ref.proposed_cost, ref.chosen_cost)


def _counting_warps(monkeypatch):
    """Count the screen's warps through the ``cade.safety`` binding."""
    calls = []
    warp = safety.sdm_predict

    def counted(*args, **kwargs):
        calls.append(args[2].tobytes())
        return warp(*args, **kwargs)

    monkeypatch.setattr(safety, "sdm_predict", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_screen_warps_each_distinct_first_action_once(seed, monkeypatch):
    calls = _counting_warps(monkeypatch)
    nets = _tiny_nets(seed)
    data = np.random.default_rng(seed + 20)
    grid = data.random((5, 5))
    hidden = data.uniform(-0.5, 0.5, (1, 16))
    proposed = np.array([seed % 5])

    # silent cost head, horizon 1: ten identical samples, one warp
    nets.params["cost"]["b2"][...] = -50.0
    cfg = SafetySection(threshold=0.5)
    d = screen_action(nets, grid, hidden, proposed,
                      np.random.default_rng(seed), cfg, GAMMA, {})
    assert not d.fired and len(calls) == 1

    # horizon 3 without firing: one shared first warp, then two per sample
    calls.clear()
    d = screen_action(nets, grid, hidden, proposed,
                      np.random.default_rng(seed),
                      SafetySection(horizon=3, threshold=0.5),
                      GAMMA, {})
    assert not d.fired and len(calls) == 1 + safety.SAMPLES * 2

    # saturated cost head, horizon 1: the proposal's warp, then one per
    # distinct candidate that is not the proposal; at horizon 1 the
    # candidate draws are the call's only draws, so a replay finds them
    nets.params["cost"]["b2"][...] = 50.0
    calls.clear()
    rng = np.random.default_rng(seed)
    d = screen_action(nets, grid, hidden, proposed, rng, cfg, GAMMA, {})
    replay = np.random.default_rng(seed)
    logits = nets.actor_logits_np(hidden)
    alts = {sample_action(logits, (5,), replay).tobytes()
            for _ in range(safety.SAMPLES)}
    assert d.fired and len(set(calls)) == len(calls)
    assert rng.bit_generator.state == replay.bit_generator.state
    assert len(calls) == 1 + len(alts - {proposed.astype(np.int64).tobytes()})
    assert len(calls) < 1 + safety.SAMPLES


def _screened_episodes(monkeypatch, env_name, cfg, cost_bias, per_call):
    """Two collected episodes and two evaluated ones under the screen,
    with every decision and the final states of the collected episodes'
    streams.  ``per_call`` swaps the episode memo for a fresh dict per
    call, so each call keeps its first steps to itself."""
    decisions = []

    def screen(*args, **kwargs):
        decision = screen_action(*args, **(dict(kwargs, memo={}) if per_call
                                           else kwargs))
        decisions.append(decision)
        return decision

    monkeypatch.setattr(trainer, "screen_action", screen)
    env = make_env(env_name, "easy", timeout=25, seed=14)
    nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              hidden_dim=16, head_width=8),
                    np.random.default_rng(15))
    # None: the bias 1 - sum|w2| puts the cost head's bound at logit 1, so
    # the screen runs at threshold 0.5, while these episodes' costs, whose
    # tanh units read sum h w2 below sum|w2| - 1, stay below it
    w2 = nets.params["cost"]["w2"]
    nets.params["cost"]["b2"][...] = (1.0 - np.abs(w2).sum() if cost_bias is None
                                      else cost_bias)
    streams = [episode_streams(16, TRAIN, k) for k in range(2)]
    bufs = [trainer.collect_episode(nets, env, s, cfg, GAMMA) for s in streams]
    rows = evaluate(nets, make_env(env_name, "easy", timeout=25, seed=19), 2,
                    18, cfg, GAMMA)
    states = [rng.bit_generator.state for s in streams for rng in s]
    return bufs, rows, decisions, states


@pytest.mark.parametrize("horizon,cost_bias,fires", [
    (1, None, False), (1, 50.0, True), (3, 50.0, True),
], ids=["h1-silent", "h1-fires", "h3-fires"])
@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_episode_memo_matches_the_per_call_screen_bitwise(
        monkeypatch, env_name, horizon, cost_bias, fires):
    """The episode-wide first-step memo changes no buffer, row, decision
    or draw; on the cliff, where observations repeat, it saves warps."""
    monkeypatch.setattr(safety, "SAMPLES", 4)
    cfg = SafetySection(horizon=horizon, threshold=0.5)
    calls = _counting_warps(monkeypatch)
    runs, warps = [], []
    for per_call in (False, True):
        calls.clear()
        runs.append(_screened_episodes(monkeypatch, env_name, cfg, cost_bias,
                                       per_call))
        warps.append(len(calls))
    (bufs, rows, decisions, states), (ref_bufs, ref_rows, ref_decisions,
                                      ref_states) = runs
    assert states == ref_states
    assert rows == ref_rows
    for buf, ref in zip(bufs, ref_bufs, strict=True):
        assert buf.fired == ref.fired
        for f in fields(buf):
            if f.name != "fired":
                got, want = getattr(buf, f.name), getattr(ref, f.name)
                assert got.dtype == want.dtype, f.name
                np.testing.assert_array_equal(got, want, err_msg=f.name)
    assert len(decisions) == len(ref_decisions) == sum(map(len, bufs)) + sum(
        r["steps"] for r in rows)
    for d, ref in zip(decisions, ref_decisions):
        assert d.fired is ref.fired is fires
        np.testing.assert_array_equal(d.action, ref.action)
        assert (d.proposed_cost, d.chosen_cost) == \
            (ref.proposed_cost, ref.chosen_cost)
    assert warps[0] <= warps[1]
    if env_name == "cliff-circular":  # observations repeat only here
        assert warps[0] < warps[1]


@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_a_bounded_memo_changes_no_byte(monkeypatch, env_name):
    """A firing episode whose memo is cleared at a bound of 3 entries
    records the unbounded episode's buffer byte for byte, and its memo
    never holds more than 3."""
    sizes = []

    class SizedMemo(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    memo = SizedMemo()  # the episode's, in place of collect_episode's
    screen = trainer.screen_action
    monkeypatch.setattr(trainer, "screen_action",
                        lambda *args, **kwargs: screen(*args,
                                                       **dict(kwargs, memo=memo)))
    monkeypatch.setattr(safety, "SAMPLES", 4)
    cfg = SafetySection(horizon=3, threshold=0.5)

    def episode(bound):
        """A firing episode under ``bound`` and its memo's largest size."""
        monkeypatch.setattr(safety, "MEMO_ENTRIES", bound)
        memo.clear()
        sizes.clear()
        env = make_env(env_name, "easy", timeout=25, seed=14)
        nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)),
                                  tuple(env.branches), hidden_dim=16,
                                  head_width=8), np.random.default_rng(15))
        nets.params["cost"]["b2"][...] = 50.0  # fires on every step
        buf = trainer.collect_episode(nets, env, episode_streams(16, TRAIN, 0),
                                      cfg, GAMMA)
        return buf, max(sizes)

    unbounded, peak = episode(safety.MEMO_ENTRIES)
    bounded, bounded_peak = episode(3)
    assert peak > 3 and bounded_peak <= 3
    assert bounded.fired == unbounded.fired == len(unbounded)
    for f in fields(bounded):
        if f.name != "fired":
            got, want = getattr(bounded, f.name), getattr(unbounded, f.name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name


def test_train_warps_each_distinct_first_step_once_per_episode(tmp_path,
                                                               monkeypatch):
    """A guarded cliff run (Lagrange, the screen from step 0, horizon 1,
    live but never firing) warps once per distinct (observation, proposal)
    pair of each episode.  A memo lost between calls warps more; one keyed on the
    action alone, or kept across episodes, warps less."""
    calls = _counting_warps(monkeypatch)
    episodes = []  # per episode: the screen's warp count and its pairs
    collect, screen = trainer.collect_episode, trainer.screen_action

    def collecting(*args, **kwargs):
        episodes.append([len(calls), []])
        buf = collect(*args, **kwargs)
        episodes[-1][0] = len(calls) - episodes[-1][0]
        return buf

    def screening(nets, obs, hidden, proposed, *rest, **kwargs):
        decision = screen(nets, obs, hidden, proposed, *rest, **kwargs)
        assert not decision.fired  # so the proposal is the only first action
        episodes[-1][1].append((np.asarray(obs, dtype=np.float64).tobytes(),
                                proposed.tobytes()))
        return decision

    monkeypatch.setattr(trainer, "collect_episode", collecting)
    monkeypatch.setattr(trainer, "screen_action", screening)
    # at 0.99 the cost head's bound, about sigmoid(6.4), can reach the
    # threshold, so the screen runs, yet no cost does
    cfg = RunConfig(seed=2, step_budget=600, lagrange=LagrangeSection(enabled=True),
                    safety=SafetySection(mode="train", activation_fraction=0.0,
                                         threshold=0.99))
    train(cfg, tmp_path / "run")
    assert len(episodes) > 1
    assert [n for n, _ in episodes] == [len(set(pairs)) for _, pairs in episodes]
    # the run repeats pairs within an episode, repeats a proposal from
    # other observations, and repeats pairs across episodes
    assert sum(len(pairs) for _, pairs in episodes) > len(calls)
    assert any(len({a for _, a in pairs}) < len(set(pairs)) for _, pairs in episodes)
    assert sum(len(set(pairs)) for _, pairs in episodes) > len(
        set().union(*(pairs for _, pairs in episodes)))


# ---------------------------------------------------------------------------
# the certificate: a screen that cannot fire is not run


def _head_nets(width, seed=0):
    """Tiny networks on 3 x 4 grids whose cost head is ``width`` wide."""
    return CadeNets(NetConfig(12, (5,), hidden_dim=4, head_width=width),
                    np.random.default_rng(seed))


def _align(nets):
    """Pin every tanh unit the cost head's output reads at the sign of its
    weight, on every grid: each pre-activation is then the bound's sum."""
    p = nets.params["cost"]
    p["w1"][...] = 0.0
    p["b1"][...] = np.where(p["w2"].T < 0, -50.0, 50.0)


def _discounted(cost, horizon, gamma):
    """``horizon`` steps each priced ``cost``, summed in imagine_cost's order."""
    total = cost
    for step in range(1, horizon):
        total += gamma ** step * cost
    return total


def _fires(nets, grid, cfg, gamma):
    return screen_action(nets, grid, nets.initial_hidden(), np.array([0]),
                         np.random.default_rng(0), cfg, gamma, {}).fired


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_inert_verdict_leaves_every_total_below_the_threshold(data):
    """Whenever ``can_fire`` says no, every cost the real head prices, on
    drawn [0, 1] grids and on their warps, discounts to a total below the
    threshold, and the real screen fires on none of those grids."""
    width = data.draw(st.integers(1, 8), "width")
    nets = _head_nets(width, data.draw(st.integers(0, 3), "net seed"))
    p = nets.params["cost"]
    p["w2"][...] = np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0), min_size=width, max_size=width), "w2"))[:, None]
    if data.draw(st.booleans(), "aligned"):
        _align(nets)
    else:
        p["w0"] *= data.draw(st.floats(0.1, 100.0), "input scale")
    reach = float(np.abs(p["w2"]).sum())
    # a bound of 36-38 puts threshold 1.0 at the sigmoid's saturation
    p["b2"][...] = data.draw(st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(36.0, 38.0).map(lambda top: top - reach)), "b2")
    horizon = data.draw(st.integers(1, 3), "horizon")
    gamma = data.draw(st.floats(0.5, 1.0), "gamma")
    grids = np.array(data.draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
        min_size=1, max_size=3), "grids")).reshape(-1, 3, 4)
    warped = [sdm_predict(nets.sdm_offsets_flat, grid[None],
                          action_onehot((5,), np.array([a])))[0]
              for grid in grids for a in range(5)]
    seen = np.concatenate([grids, warped])
    highest = _discounted(
        float(nets.cost_np(seen.reshape(len(seen), -1)).max()), horizon, gamma)
    threshold = data.draw(st.one_of(
        st.just(highest), st.just(1.0), st.floats(0.5 * highest, 1.5 * highest),
        st.floats(0.01, 3.0)).filter(lambda t: t > 0.0), "threshold")
    cfg = SafetySection(horizon=horizon, threshold=threshold)
    if not safety.can_fire(nets, cfg, gamma):
        assert highest < threshold
        with patch.object(safety, "SAMPLES", 2):
            assert not any(_fires(nets, grid, cfg, gamma) for grid in seen)


def _edge_of_saturation():
    """Networks whose cost head's own sum of its 64 units, pinned at +1,
    rounds above the correctly rounded sum, with the least bias at which
    that sum prices a grid 1.0: a bound without its margin misses it."""
    for seed in range(100):
        nets = _head_nets(64, seed)
        p = nets.params["cost"]
        p["w2"][...] = np.random.default_rng(seed).uniform(0.0, 2.0 ** 25,
                                                            (64, 1))
        _align(nets)
        w = p["w2"][:, 0]
        if np.add.reduce(w[None], axis=1)[0] > math.fsum(w):  # row_product's sum
            break
    row = np.zeros((1, 12))

    def cost(b2):
        p["b2"][...] = b2
        return nets.cost_np(row)[0]

    lo, hi = 36.0 - math.fsum(w), 38.0 - math.fsum(w)  # cost(lo) < 1 = cost(hi)
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (lo, mid) if cost(mid) == 1.0 else (mid, hi)
    p["b2"][...] = hi
    assert stable_sigmoid(hi + math.fsum(w)) < 1.0  # the margin is needed
    return nets


def _sigmoid_descent():
    """Networks whose one-unit cost head prices every grid at z, an even
    float in [-1, -0.5) whose rounded sigmoid exceeds that of the next
    float up, reached as z + 2**-54, a tie that rounds to z: a bound
    without its slack lands on the next float and misses the cost."""
    z = -np.random.default_rng(0).uniform(0.5, 1.0, 100_000)
    z = z[(z.view(np.int64) % 2 == 0)
          & (stable_sigmoid(z) > stable_sigmoid(np.nextafter(z, 0.0)))][0]
    nets = _head_nets(1)
    nets.params["cost"]["w2"][...] = 2.0 ** -54
    nets.params["cost"]["b2"][...] = z
    _align(nets)
    return nets


def _constant_head(w2, b2):
    nets = _head_nets(8)
    nets.params["cost"]["w2"][...] = w2
    nets.params["cost"]["b2"][...] = b2
    _align(nets)
    return nets


@pytest.mark.parametrize("case,horizon,gamma", [
    ("abs", 1, GAMMA), ("discount", 3, 0.9), ("saturation", 1, GAMMA),
    ("margin", 1, GAMMA), ("slack", 1, GAMMA)])
def test_can_fire_wherever_the_screen_fires(case, horizon, gamma, monkeypatch):
    """Each part of the bound is needed: in each case the real screen
    fires on a grid, at a threshold equal to its total, and ``can_fire``
    says so.  "abs": units at -1 read by negative weights; "discount": a
    three-step total that only the discounted sum reaches; "saturation": a
    cost of exactly 1.0; "margin": a head whose own rounding lifts a
    grid's cost to 1.0 where the correctly rounded bound stays below it;
    "slack": a cost that the sigmoid of the next float up misses."""
    nets = {"abs": lambda: _constant_head(-1.0, 0.0),
            "discount": lambda: _constant_head(0.0, 1.0),
            "saturation": lambda: _constant_head(0.5, 40.0),
            "margin": _edge_of_saturation,
            "slack": _sigmoid_descent}[case]()
    grid = np.zeros((3, 4))
    cost = float(nets.cost_np(grid.reshape(1, -1))[0])
    monkeypatch.setattr(safety, "SAMPLES", 2)
    cfg = SafetySection(horizon=horizon,
                        threshold=_discounted(cost, horizon, gamma))
    assert (cost == 1.0) is (case in ("saturation", "margin"))
    assert _fires(nets, grid, cfg, gamma)
    assert safety.can_fire(nets, cfg, gamma)


def test_a_fresh_run_proves_the_default_screen_inert():
    """At the defaults (threshold 1.0, horizon 1) both envs' initial cost
    heads cannot reach the threshold; a lower threshold or a longer
    horizon can be reached, and then the screen runs."""
    for env in ("cliff-circular", "planar-river"):
        nets = trainer.run_nets(RunConfig(env=env))
        assert not safety.can_fire(nets, SafetySection(), GAMMA)
        assert safety.can_fire(nets, SafetySection(threshold=0.9), GAMMA)
        assert safety.can_fire(nets, SafetySection(horizon=2), GAMMA)


@pytest.mark.parametrize("horizon", [1, 3])
@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_an_inert_screen_skipped_changes_no_byte(monkeypatch, env_name,
                                                 horizon):
    """Two collected and two evaluated episodes under a screen that
    ``can_fire`` proves inert, run once as shipped and once with the
    certificate forced to True: the same buffers, rows and env, policy and
    imagine stream states; only the forced run calls the screen."""
    monkeypatch.setattr(safety, "SAMPLES", 3)
    cfg = SafetySection(horizon=horizon, threshold=1.0)
    calls, made = [], []
    screen, make_streams = trainer.screen_action, trainer.episode_streams

    def screening(*args, **kwargs):
        calls.append(1)
        return screen(*args, **kwargs)

    def streams_of(*args):
        made.append(make_streams(*args))
        return made[-1]

    monkeypatch.setattr(trainer, "screen_action", screening)
    monkeypatch.setattr(trainer, "episode_streams", streams_of)
    runs = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(trainer, "can_fire", lambda *args: True)
        calls.clear()
        made.clear()
        env = make_env(env_name, "easy", timeout=25, seed=14)
        nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)),
                                  tuple(env.branches), hidden_dim=16,
                                  head_width=8), np.random.default_rng(15))
        # the bound is sigmoid(-2) ~ 0.12 a step, below 1.0 at horizon 3 too
        p = nets.params["cost"]
        p["b2"][...] = -np.abs(p["w2"]).sum() - 2.0
        assert not safety.can_fire(nets, cfg, GAMMA)
        bufs = [trainer.collect_episode(nets, env, streams_of(16, TRAIN, k),
                                        cfg, GAMMA) for k in range(2)]
        rows = evaluate(nets, make_env(env_name, "easy", timeout=25, seed=19),
                        2, 18, cfg, GAMMA)
        states = [rng.bit_generator.state for s in made
                  for rng in (s.env, s.policy, s.imagine)]
        runs.append((bufs, rows, states, len(calls)))
    (bufs, rows, states, n), (ref_bufs, ref_rows, ref_states, ref_n) = runs
    assert n == 0 and ref_n == sum(map(len, bufs)) + sum(r["steps"] for r in rows)
    assert len(states) == 3 * 4 and states == ref_states
    assert rows == ref_rows
    for buf, ref in zip(bufs, ref_bufs, strict=True):
        assert buf.fired == ref.fired == 0
        for f in fields(buf):
            if f.name != "fired":
                got, want = getattr(buf, f.name), getattr(ref, f.name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
