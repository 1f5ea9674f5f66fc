"""Constrained-update contracts: dual dynamics, policy gradient, cost advantage."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cade.autograd import Tape
from cade import focops
from cade.config import CostAdvSection, LagrangeSection
from cade.focops import (
    BETA_MAX,
    SURROGATE_COEF,
    categorical_kl,
    cost_advantage,
    lagrange_update,
    policy_loss,
    squash_cost,
)
from cade.nets import CadeNets, NetConfig, log_softmax_np
import taped_mlp
import taped_ops
from fdcheck import grad_check

# frozen transform values of the squash sigmoid(8 (a - 0.5))
GAMMA = 0.99
SIG_PLUS4 = 0.9820137900379085   # squash(1.0) = 1/(1+e^-4)
SIG_MINUS4 = 0.01798620996209156  # squash(0.0) = 1/(1+e^4)


# ---------------------------------------------------------------------------
# dual variable

BUDGET = LagrangeSection().budget


def test_lagrange_zero_violation_is_a_fixed_point():
    assert lagrange_update(0.7, BUDGET, BUDGET) == 0.7


def test_lagrange_overspend_raises_beta_to_the_cap():
    beta = 0.0
    for _ in range(400):
        nxt = lagrange_update(beta, 2.5, BUDGET)  # budget 1, steady violation
        assert nxt > beta or beta == BETA_MAX
        beta = nxt
    assert beta == BETA_MAX == 2.0


def test_lagrange_underspend_floors_at_zero():
    assert lagrange_update(0.0, 0.0, BUDGET) == 0.0
    assert lagrange_update(0.005, 0.0, BUDGET) == 0.0


def test_lagrange_steps_by_the_dual_rate_up_to_the_clamp(monkeypatch):
    # both constants are read at each call
    monkeypatch.setattr(focops, "DUAL_LR", 0.5)
    monkeypatch.setattr(focops, "BETA_MAX", 1.5)
    assert lagrange_update(0.0, 3.0, 1.0) == 1.0
    assert lagrange_update(1.0, 3.0, 1.0) == 1.5
    assert lagrange_update(1.0, 0.0, 1.5) == 0.25


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40))
def test_lagrange_stays_clamped_under_any_cost_sequence(costs):
    beta = 0.0
    for c in costs:
        beta = lagrange_update(beta, c, BUDGET)
        assert 0.0 <= beta <= BETA_MAX


def test_lagrange_rejects_bad_state_and_cost():
    # beta outside [0, BETA_MAX] comes back clamped; a negative cost raises
    assert lagrange_update(3.0, BUDGET, BUDGET) == BETA_MAX
    assert lagrange_update(-0.1, BUDGET, BUDGET) == 0.0
    with pytest.raises(ValueError):
        lagrange_update(0.0, -1.0, BUDGET)


# ---------------------------------------------------------------------------
# cost advantage

def test_squash_frozen_values():
    assert squash_cost(0.5) == 0.5
    assert squash_cost(1.0) == pytest.approx(SIG_PLUS4, rel=1e-13)
    assert squash_cost(0.0) == pytest.approx(SIG_MINUS4, rel=1e-13)
    # independent evaluation path
    assert squash_cost(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), rel=1e-14)
    assert squash_cost(0.0) == pytest.approx(1.0 / (1.0 + math.exp(4.0)), rel=1e-14)


def test_squash_is_monotone():
    xs = np.linspace(-3.0, 3.0, 101)
    ys = squash_cost(xs)
    assert np.all(np.diff(ys) > 0)
    assert np.all((ys > 0) & (ys < 1))


def one_step(nets, grids, actions):
    """The default horizon-1 cost advantage, which needs no state or rng."""
    return cost_advantage(nets, grids, actions, None, None, CostAdvSection(),
                          GAMMA)


class _StubNets:
    """Identity-warp dynamics with a pinned or observation-dependent cost."""

    def __init__(self, branches=(5,), cost=None):
        self.cfg = SimpleNamespace(branches=branches)
        self._cost = cost

    def sdm_offsets_flat(self, x):
        return np.zeros((x.shape[0], 8))

    def cost_np(self, rows):
        if self._cost is not None:
            return np.full(rows.shape[0], self._cost)
        return rows.mean(axis=1)


def test_cost_advantage_frozen_endpoints_through_the_stack():
    grids = np.random.default_rng(0).random((6, 5, 5))
    actions = np.random.default_rng(1).integers(5, size=(6, 1))
    hot, cold, mid = (one_step(_StubNets(cost=c), grids, actions)
                      for c in (1.0, 0.0, 0.5))
    np.testing.assert_allclose(hot, SIG_PLUS4, rtol=1e-13)
    np.testing.assert_allclose(cold, SIG_MINUS4, rtol=1e-13)
    assert np.all(mid == 0.5)


def test_cost_advantage_preserves_orderings():
    # identity warp + mean-valued cost: denser observations cost more
    grids = np.stack([np.full((5, 5), v) for v in (0.1, 0.9, 0.4, 0.6)])
    actions = np.zeros((4, 1), dtype=int)
    out = one_step(_StubNets(), grids, actions)
    assert list(np.argsort(out)) == [0, 2, 3, 1]


def test_cost_advantage_on_real_nets_is_bounded_and_deterministic():
    rng = np.random.default_rng(3)
    nets = CadeNets(NetConfig(25, (5,), hidden_dim=16, head_width=8), rng)
    grids = np.random.default_rng(4).random((7, 5, 5))
    actions = np.random.default_rng(5).integers(5, size=(7, 1))
    a = one_step(nets, grids, actions)
    b = one_step(nets, grids, actions)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7,) and np.all((a > 0) & (a < 1))


def test_cost_advantage_two_step_rollout_discounts():
    rng = np.random.default_rng(6)
    nets = CadeNets(NetConfig(25, (5,), hidden_dim=16, head_width=8), rng)
    grids = np.random.default_rng(7).random((4, 5, 5))
    actions = np.random.default_rng(8).integers(5, size=(4, 1))
    hiddens = np.random.default_rng(9).uniform(-0.5, 0.5, (4, 16))
    a, b = (cost_advantage(nets, grids, actions, hiddens,
                           np.random.default_rng(42),
                           CostAdvSection(horizon=2), 0.9) for _ in range(2))
    np.testing.assert_array_equal(a, b)
    one = one_step(nets, grids, actions)
    assert not np.array_equal(a, one)  # the imagined tail moved the estimate


# ---------------------------------------------------------------------------
# per-step KL

def test_categorical_kl_zero_at_identity():
    logits = np.random.default_rng(0).normal(size=(9, 5))
    np.testing.assert_array_equal(categorical_kl(logits, logits, (5,)), 0.0)


def test_categorical_kl_matches_closed_form():
    new = np.zeros((1, 2))          # uniform
    old = np.array([[1.0, 0.0]])
    expected = math.log((1.0 + math.e) / 2.0) - 0.5
    got = categorical_kl(new, old, (2,))
    assert got[0] == pytest.approx(expected, rel=1e-13)


def test_categorical_kl_can_round_below_zero():
    # logits 1e-12 apart: the closed-form KL can round just below zero
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(30, 5))
    kls = [categorical_kl(logits + 1e-12 * rng.normal(size=logits.shape),
                          logits, (5,)).mean() for _ in range(20)]
    assert min(kls) < 0.0


def test_categorical_kl_adds_over_branches():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    c, d = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    joint = categorical_kl(np.hstack([a, c]), np.hstack([b, d]), (3, 4))
    parts = categorical_kl(a, b, (3,)) + categorical_kl(c, d, (4,))
    np.testing.assert_allclose(joint, parts, rtol=1e-12)
    assert np.all(joint >= 0)


# ---------------------------------------------------------------------------
# policy loss

def _np_twin(logits, branches, actions, adv):
    """Value-level replica of the trajectory loss for finite differencing:
    -coef * mean(adv * log pi(a | h)), the log-probs summed over branches."""
    lp = np.zeros(len(logits))
    for i, (s, n) in enumerate(zip(np.cumsum((0,) + branches[:-1]), branches)):
        lp += log_softmax_np(logits[:, s:s + n])[np.arange(len(logits)),
                                                 actions[:, i]]
    return float(-SURROGATE_COEF * (adv * lp).mean())


def _build_case(seed, T=11, branches=(3, 4)):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(T, sum(branches)))
    actions = np.stack([rng.integers(n, size=T) for n in branches], axis=1)
    a_r = rng.normal(size=T)
    a_c = rng.uniform(0.1, 0.9, size=T)
    return logits, actions, a_r, a_c


def _logits_grad(loss_fn, tape, logits, *args):
    leaf = tape.leaf(logits.copy())
    loss = loss_fn(leaf, *args)
    tape.backward(loss)
    return loss.values, leaf.grad


@pytest.mark.parametrize("adv", ["reward", "cost", "zero"])
@pytest.mark.parametrize("T", [1, 7, 64])
@pytest.mark.parametrize("branches", [(5,), (3, 3, 3, 3)], ids=str)
def test_policy_step_at_pi_k_is_the_score_function_gradient(branches, T, adv):
    # the loss is -coef * mean(A * log pi(a | h)) and its gradient
    # -coef / T * A_t * (onehot(a_t) - softmax) per branch: FOCOPS's at pi_k,
    # where its KL and the KL's gradient vanish and every ratio is 1; zero
    # advantages leave no gradient at all
    rng = np.random.default_rng(T + len(branches))
    logits = rng.normal(size=(T, sum(branches)))
    actions = np.stack([rng.integers(n, size=T) for n in branches], axis=1)
    a_r = np.zeros(T) if adv == "zero" else rng.normal(size=T)
    a_c = rng.uniform(0.1, 0.9, size=T) if adv == "cost" else None
    beta = 0.7 if adv == "cost" else 0.0
    value, grad = _logits_grad(policy_loss, Tape(), logits, branches, actions,
                               a_r, a_c, beta)
    A = a_r - beta * a_c if beta else a_r
    assert value == pytest.approx(_np_twin(logits, branches, actions, A),
                                  rel=1e-12, abs=1e-15)
    expected = np.zeros_like(logits)
    for i, (off, n) in enumerate(zip(np.cumsum((0,) + branches[:-1]), branches)):
        score = -np.exp(log_softmax_np(logits[:, off:off + n]))
        score[np.arange(T), actions[:, i]] += 1.0
        expected[:, off:off + n] = -SURROGATE_COEF / T * A[:, None] * score
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)
    # FOCOPS's per-op loss at pi_k takes the same step; its KL's gradient
    # there is a rounding residue, about 1e-16 a logit
    _, focops_grad = _logits_grad(taped_mlp.policy_loss, taped_ops.Tape(),
                                  logits, logits, branches, actions, a_r, a_c,
                                  beta)
    np.testing.assert_allclose(grad, focops_grad, rtol=1e-12, atol=1e-15)


def test_policy_loss_beta_zero_ignores_cost_channel_bitwise():
    logits, actions, a_r, a_c = _build_case(4)
    results = [_logits_grad(policy_loss, Tape(), logits, (3, 4), actions, a_r,
                            cost, 0.0)
               for cost in (a_c, None)]
    assert results[0][0] == results[1][0]
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_policy_step_lowers_costly_actions_more_with_beta():
    # no reward advantage and positive costs: a descent step lowers every
    # taken action's log-prob, the more the larger beta; at beta 0 the step
    # is zero
    logits, actions, _, a_c = _build_case(5)
    T = len(logits)

    def taken(x):
        return sum(log_softmax_np(x[:, s:s + n])[np.arange(T), actions[:, i]]
                   for i, (s, n) in enumerate(((0, 3), (3, 4))))

    drops = []
    for beta in (0.0, 0.5, 1.0, 2.0):
        _, grad = _logits_grad(policy_loss, Tape(), logits, (3, 4), actions,
                               np.zeros(T), a_c, beta)
        drops.append(taken(logits) - taken(logits - 10.0 * grad))
    assert np.all(drops[0] == 0.0) and np.all(drops[1] > 0)
    assert np.all(drops[1] < drops[2]) and np.all(drops[2] < drops[3])


def test_policy_loss_positive_beta_requires_cost_advantage():
    logits, actions, a_r, _ = _build_case(6)
    leaf = Tape().leaf(logits.copy())
    with pytest.raises(ValueError):
        policy_loss(leaf, (3, 4), actions, a_r, None, 1.0)


def test_policy_loss_matches_value_twin():
    logits, actions, a_r, a_c = _build_case(7)
    loss = policy_loss(Tape().leaf(logits.copy()),
                       (3, 4), actions, a_r, a_c, 0.7)
    twin = _np_twin(logits, (3, 4), actions, a_r - 0.7 * a_c)
    assert loss.values == pytest.approx(twin, rel=1e-12)
    # with zero advantages the loss is zero
    loss = policy_loss(Tape().leaf(logits.copy()),
                       (3, 4), actions, np.zeros(len(logits)), None, 0.0)
    assert loss.values == 0.0


def test_policy_loss_finite_difference_gradient():
    logits, actions, a_r, a_c = _build_case(8, T=6)
    _, analytic = _logits_grad(policy_loss, Tape(), logits, (3, 4), actions,
                               a_r, a_c, 0.4)
    adv = a_r - 0.4 * a_c
    num = np.zeros_like(logits)
    eps = 1e-6
    for idx in np.ndindex(*logits.shape):
        bump = logits.copy()
        bump[idx] += eps
        hi = _np_twin(bump, (3, 4), actions, adv)
        bump[idx] -= 2 * eps
        lo = _np_twin(bump, (3, 4), actions, adv)
        num[idx] = (hi - lo) / (2 * eps)
    err = np.abs(analytic - num) / np.maximum(1.0, np.abs(num))
    assert err.max() < 1e-8


@pytest.mark.parametrize("action", [1, 0])
def test_policy_op_is_finite_on_a_near_deterministic_policy(action):
    # the untaken probabilities underflow to 0 (exp(-800)); the loss and
    # its gradient never divide by them
    logits = np.array([[0.0, 800.0, 1.0]])
    value, grad = _logits_grad(policy_loss, Tape(), logits, (3,),
                               np.array([[action]]), np.array([1.0]), None,
                               0.0)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert value == pytest.approx(-0.015 * (-800.0 if action == 0 else 0.0))


@pytest.mark.parametrize("branches", [(5,), (3, 3, 3, 3)], ids=str)
def test_policy_op_gradient_passes_grad_check(branches):
    logits, actions, a_r, a_c = _build_case(9, T=5, branches=branches)
    assert grad_check(lambda x: policy_loss(x, branches, actions, a_r, a_c,
                                            0.4),
                      logits) < 1e-6
