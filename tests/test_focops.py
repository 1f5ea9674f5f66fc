"""Constrained-update contracts: dual dynamics, trust region, cost advantage."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cade.autograd import Tape
from cade.config import CostAdvSection, LagrangeSection, TrustSection
from cade.focops import (
    categorical_kl,
    cost_advantage,
    kl_early_stop,
    lagrange_update,
    policy_loss,
    squash_cost,
)
from cade.nets import CadeNets, NetConfig, log_softmax_np
import taped_mlp
import taped_ops
from fdcheck import grad_check

# frozen transform values at k=8, c_b=0.5
K, C_B = 8.0, 0.5
GAMMA = 0.99
SIG_PLUS4 = 0.9820137900379085   # squash(1.0) = 1/(1+e^-4)
SIG_MINUS4 = 0.01798620996209156  # squash(0.0) = 1/(1+e^4)


# ---------------------------------------------------------------------------
# dual variable

LAG = LagrangeSection()


def test_lagrange_zero_violation_is_a_fixed_point():
    assert lagrange_update(0.7, LAG.budget, LAG) == 0.7


def test_lagrange_overspend_raises_beta_to_the_cap():
    beta = 0.0
    for _ in range(400):
        nxt = lagrange_update(beta, 2.5, LAG)  # budget 1, steady violation
        assert nxt > beta or beta == LAG.beta_max
        beta = nxt
    assert beta == LAG.beta_max == 2.0


def test_lagrange_underspend_floors_at_zero():
    assert lagrange_update(0.0, 0.0, LAG) == 0.0
    assert lagrange_update(0.005, 0.0, LAG) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40))
def test_lagrange_stays_clamped_under_any_cost_sequence(costs):
    beta = 0.0
    for c in costs:
        beta = lagrange_update(beta, c, LAG)
        assert 0.0 <= beta <= LAG.beta_max


def test_lagrange_rejects_bad_state_and_cost():
    # beta outside [0, beta_max] comes back clamped; a negative cost raises
    assert lagrange_update(3.0, LAG.budget, LAG) == LAG.beta_max
    assert lagrange_update(-0.1, LAG.budget, LAG) == 0.0
    with pytest.raises(ValueError):
        lagrange_update(0.0, -1.0, LAG)


# ---------------------------------------------------------------------------
# early stop

def test_early_stop_boundary_is_strict():
    assert not kl_early_stop(0.0, 0.02)
    assert not kl_early_stop(0.02, 0.02)
    assert kl_early_stop(0.04, 0.02)
    # logits 1e-12 apart: the closed-form KL can round just below zero
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(30, 5))
    kls = [categorical_kl(logits + 1e-12 * rng.normal(size=logits.shape),
                          logits, (5,)).mean() for _ in range(20)]
    assert min(kls) < 0.0
    assert not kl_early_stop(min(kls), 0.02)


# ---------------------------------------------------------------------------
# cost advantage

def test_squash_frozen_values():
    assert squash_cost(0.5, K, C_B) == 0.5
    assert squash_cost(1.0, K, C_B) == pytest.approx(SIG_PLUS4, rel=1e-13)
    assert squash_cost(0.0, K, C_B) == pytest.approx(SIG_MINUS4, rel=1e-13)
    # independent evaluation path
    assert squash_cost(1.0, K, C_B) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), rel=1e-14)
    assert squash_cost(0.0, K, C_B) == pytest.approx(1.0 / (1.0 + math.exp(4.0)), rel=1e-14)


def test_squash_is_monotone():
    xs = np.linspace(-3.0, 3.0, 101)
    ys = squash_cost(xs, K, C_B)
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

def _np_twin(logits, logits_old, branches, actions, behavior_lp, adv, cfg):
    """Value-level replica of the trajectory loss for finite differencing."""
    starts = np.cumsum((0,) + branches[:-1])
    log_new = np.concatenate([log_softmax_np(logits[:, s:s + n])
                              for s, n in zip(starts, branches)], axis=1)
    log_old = np.concatenate([log_softmax_np(logits_old[:, s:s + n])
                              for s, n in zip(starts, branches)], axis=1)
    lp = np.zeros(len(logits))
    for i, (s, n) in enumerate(zip(starts, branches)):
        lp += log_new[np.arange(len(logits)), s + actions[:, i]]
    ratio = np.exp(lp - behavior_lp)
    kl = (np.exp(log_new) * (log_new - log_old)).sum(axis=1)
    mask = (kl <= cfg.kl_mask).astype(float)
    term = kl - cfg.surrogate_coef * ratio * adv
    return float((term * mask).sum() / max(1.0, mask.sum()))


def _build_case(seed, T=11, branches=(3, 4)):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(T, sum(branches)))
    old = logits + 0.3 * rng.normal(size=logits.shape)
    actions = np.stack([rng.integers(n, size=T) for n in branches], axis=1)
    starts = np.cumsum((0,) + branches[:-1])
    log_old = np.concatenate([log_softmax_np(old[:, s:s + n])
                              for s, n in zip(starts, branches)], axis=1)
    behavior = np.zeros(T)
    for i, (s, n) in enumerate(zip(starts, branches)):
        behavior += log_old[np.arange(T), s + actions[:, i]]
    a_r = rng.normal(size=T)
    a_c = rng.uniform(0.1, 0.9, size=T)
    return logits, old, actions, behavior, a_r, a_c


def test_policy_loss_gradient_vanishes_at_identity():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(8, 5))
    actions = rng.integers(5, size=(8, 1))
    behavior = log_softmax_np(logits)[np.arange(8), actions[:, 0]]
    tape = Tape()
    leaf = tape.leaf(logits.copy(), requires_grad=True)
    loss, info = policy_loss(leaf, logits, (5,), actions, behavior,
                             np.zeros(8), None, 0.0, TrustSection())
    tape.backward(loss)
    assert abs(loss.values) < 1e-14
    assert info["kl"] < 1e-14
    assert np.abs(leaf.grad).max() < 1e-12


def test_policy_loss_all_masked_is_inert():
    logits, old, actions, behavior, a_r, a_c = _build_case(3)
    tape = Tape()
    leaf = tape.leaf(logits.copy(), requires_grad=True)
    cfg = TrustSection(kl_mask=1e-12)  # everything trips the mask
    loss, info = policy_loss(leaf, old, (3, 4), actions, behavior,
                             a_r, a_c, 0.5, cfg)
    assert loss.values == 0.0
    assert info["masked_steps"] == len(logits)
    tape.backward(loss)
    np.testing.assert_array_equal(leaf.grad, 0.0)


def test_policy_loss_beta_zero_ignores_cost_channel_bitwise():
    logits, old, actions, behavior, a_r, a_c = _build_case(4)
    results = []
    for cost in (a_c, None):
        tape = Tape()
        leaf = tape.leaf(logits.copy(), requires_grad=True)
        loss, _ = policy_loss(leaf, old, (3, 4), actions, behavior,
                              a_r, cost, 0.0, TrustSection(kl_mask=10.0))
        tape.backward(loss)
        results.append((loss.values, leaf.grad))
    assert results[0][0] == results[1][0]
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_policy_loss_grows_with_beta_when_costs_positive():
    logits, old, actions, behavior, a_r, a_c = _build_case(5)
    vals = []
    for beta in (0.0, 0.5, 1.0, 2.0):
        tape = Tape()
        leaf = tape.leaf(logits.copy(), requires_grad=True)
        loss, _ = policy_loss(leaf, old, (3, 4), actions, behavior,
                              a_r, a_c, beta, TrustSection(kl_mask=10.0))
        vals.append(loss.values)
    assert vals == sorted(vals) and vals[0] < vals[-1]


def test_policy_loss_requires_behavior_log_probs():
    logits, old, actions, _, a_r, a_c = _build_case(6)
    tape = Tape()
    leaf = tape.leaf(logits.copy(), requires_grad=True)
    with pytest.raises(ValueError):
        policy_loss(leaf, old, (3, 4), actions, np.zeros(len(logits)),
                    a_r, None, 1.0, TrustSection())


def test_policy_loss_matches_value_twin_and_numpy_kl():
    logits, old, actions, behavior, a_r, a_c = _build_case(7)
    cfg = TrustSection(kl_mask=0.05, surrogate_coef=0.015)
    tape = Tape()
    leaf = tape.leaf(logits.copy(), requires_grad=True)
    loss, info = policy_loss(leaf, old, (3, 4), actions, behavior,
                             a_r, a_c, 0.7, cfg)
    twin = _np_twin(logits, old, (3, 4), actions, behavior,
                    a_r - 0.7 * a_c, cfg)
    assert loss.values == pytest.approx(twin, rel=1e-12)
    kl = categorical_kl(logits, old, (3, 4))
    assert info["kl"] == pytest.approx(float(kl.mean()), rel=1e-12)


def test_policy_loss_finite_difference_gradient():
    logits, old, actions, behavior, a_r, a_c = _build_case(8, T=6)
    cfg = TrustSection(kl_mask=1e6)  # keep the gate away from the FD path
    tape = Tape()
    leaf = tape.leaf(logits.copy(), requires_grad=True)
    loss, _ = policy_loss(leaf, old, (3, 4), actions, behavior,
                          a_r, a_c, 0.4, cfg)
    tape.backward(loss)
    analytic = leaf.grad
    adv = a_r - 0.4 * a_c
    num = np.zeros_like(logits)
    eps = 1e-6
    for idx in np.ndindex(*logits.shape):
        bump = logits.copy()
        bump[idx] += eps
        hi = _np_twin(bump, old, (3, 4), actions, behavior, adv, cfg)
        bump[idx] -= 2 * eps
        lo = _np_twin(bump, old, (3, 4), actions, behavior, adv, cfg)
        num[idx] = (hi - lo) / (2 * eps)
    err = np.abs(analytic - num) / np.maximum(1.0, np.abs(num))
    assert err.max() < 1e-8


def policy_run(loss_fn, tape, case, branches, beta, kl_mask, scale=1.0):
    """Loss bytes, logits-gradient bytes and info of one loss and backward;
    a ``scale`` other than one multiplies the loss on the tests' tape."""
    logits, old, actions, behavior, a_r, a_c = case
    leaf = tape.leaf(logits, requires_grad=True)
    loss, info = loss_fn(leaf, old, branches, actions, behavior, a_r,
                         a_c if beta else None, beta,
                         TrustSection(kl_mask=kl_mask, surrogate_coef=0.015))
    if scale != 1.0:
        loss = loss * scale
    tape.backward(loss)
    return np.asarray(loss.values).tobytes(), leaf.grad.tobytes(), info


@pytest.mark.parametrize("T", [1, 2, 7, 64])
@pytest.mark.parametrize("branches", [(5,), (3, 3, 3, 3), (2, 4), (3, 4)],
                         ids=str)
def test_policy_op_matches_per_op_reference_bitwise(branches, T):
    case = _build_case(T + len(branches), T=T, branches=branches)
    kl = categorical_kl(case[0], case[1], branches)
    for beta in (0.0, 0.7):
        # a mask that keeps some steps (all of them at T = 1), none, all
        for kl_mask in (float(np.median(kl)), -1.0, 1e9):
            fused = policy_run(policy_loss, Tape(), case, branches, beta,
                               kl_mask)
            ref = policy_run(taped_mlp.policy_loss, taped_ops.Tape(), case,
                             branches, beta, kl_mask)
            assert fused == ref, (beta, kl_mask)
            # a negative upstream gradient gives masked steps signed zeros,
            # which only full-array adds turn positive, as the tape's do
            fused, ref = (policy_run(fn, taped_ops.Tape(), case, branches,
                                     beta, kl_mask, scale=-0.5)
                          for fn in (policy_loss, taped_mlp.policy_loss))
            assert fused == ref, (beta, kl_mask, "negative")


@pytest.mark.parametrize("branches", [(5,), (3, 3, 3, 3)], ids=str)
def test_policy_op_gradient_passes_grad_check(branches):
    logits, old, actions, behavior, a_r, a_c = _build_case(9, T=5,
                                                           branches=branches)
    cfg = TrustSection(kl_mask=1e6)  # keep the gate away from the probes
    assert grad_check(lambda x: policy_loss(x, old, branches, actions,
                                            behavior, a_r, a_c, 0.4, cfg)[0],
                      logits) < 1e-6
