"""Estimator tests against direct-summation brute-force oracles.

The oracles below implement each estimator's definition with plain nested
loops and no shared code with the module, so agreement is meaningful.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cade import advantage
from cade.advantage import ReturnWindow, gae, mgae, normalize

RNG = np.random.default_rng(414213)


# ---- brute-force oracles ----------------------------------------------------


def oracle_mgae(r, rhat, baseline):
    T = len(r)
    out = np.empty(T)
    for j in range(T):
        forward = sum(r[k] for k in range(j, T))
        backward = sum(rhat[i] for i in range(0, j + 1))
        out[j] = forward + backward - baseline
    return out


def oracle_td(r, v, gamma):
    return np.array([r[t] + gamma * v[t + 1] - v[t] for t in range(len(r))])


def oracle_gae(r, v, gamma, lam):
    T = len(r)
    deltas = oracle_td(r, v, gamma)
    out = np.empty(T)
    for t in range(T):
        out[t] = sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, T))
    return out


def random_trajectory(max_len=20):
    T = int(RNG.integers(1, max_len + 1))
    r = RNG.normal(size=T)
    v = RNG.normal(size=T + 1)
    return r, v


# ---- oracle agreement -------------------------------------------------------


def gae_at(lam, r, v, gamma):
    """``gae`` with its ``LAM`` set to ``lam`` for the call."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(advantage, "LAM", lam)
        return gae(r, v, gamma)


def test_all_estimators_match_oracles():
    for _ in range(200):
        r, v = random_trajectory()
        gamma = float(RNG.uniform(0.8, 1.0))
        lam = float(RNG.uniform(0.0, 1.0))
        rhat = RNG.normal(size=len(r))
        baseline = float(RNG.normal())
        assert np.max(np.abs(mgae(r, rhat, baseline) -
                             oracle_mgae(r, rhat, baseline))) < 1e-10
        assert np.max(np.abs(gae_at(0.0, r, v, gamma) - oracle_td(r, v, gamma))) < 1e-10
        assert np.max(np.abs(gae_at(lam, r, v, gamma) - oracle_gae(r, v, gamma, lam))) < 1e-10
        assert np.max(np.abs(gae(r, v, gamma) -
                             oracle_gae(r, v, gamma, advantage.LAM))) < 1e-10


def test_gae_zero_lambda_is_td_bitwise():
    # at lam = 0 each step adds an exact zero to its TD residual
    for _ in range(50):
        r, v = random_trajectory()
        gamma = float(RNG.uniform(0.8, 1.0))
        assert np.array_equal(gae_at(0.0, r, v, gamma), r + gamma * v[1:] - v[:-1])


# ---- frozen hand examples ---------------------------------------------------


def test_mgae_hand_example_inclusive():
    # rewards [1, 0, 1], perfect estimator, window mean 2:
    # A_1 = (0 + 1) + (1 + 0) - 2 = 0.
    r = np.array([1.0, 0.0, 1.0])
    adv = mgae(r, r, 2.0)
    assert adv[1] == 0.0
    np.testing.assert_array_equal(adv, [2.0 + 1.0 - 2.0, 0.0, 1.0 + 2.0 - 2.0])


def test_gae_hand_example():
    assert advantage.LAM == 0.95
    adv = gae(np.array([1.0, 1.0]), np.array([0.5, 0.5, 0.0]), 0.9)
    np.testing.assert_allclose(adv, [1.3775, 0.5], atol=1e-12)


def test_normalize_hand_example():
    out = normalize(np.array([0.0, 2.0, 4.0]))
    np.testing.assert_allclose(out, [-1.22474487, 0.0, 1.22474487], atol=1e-6)


def test_normalize_edge_cases():
    single = normalize(np.array([3.7]))
    np.testing.assert_array_equal(single, [3.7])
    np.testing.assert_array_equal(normalize(np.empty(0)), np.empty(0))
    const = normalize(np.full(5, 2.5))
    np.testing.assert_array_equal(const, np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=30),
       st.floats(-5, 5), st.floats(-5, 5))
def test_mgae_baseline_shift_property(rewards, base, delta):
    r = np.array(rewards)
    a1 = mgae(r, r * 0.5, base)
    a2 = mgae(r, r * 0.5, base + delta)
    np.testing.assert_allclose(a1 - a2, delta, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=30))
@example(vals=[0.0, 6.103515625e-05])
def test_normalize_is_zero_mean_unit_scale(vals):
    out = normalize(np.array(vals))
    assert abs(out.mean()) < 1e-7
    std = np.std(vals)
    if std > 1e-6:
        # the eps guard (1e-8) scales the result by std / (std + eps)
        assert abs(out.std() - std / (std + 1e-8)) < 1e-4


# ---- return window ----------------------------------------------------------


def test_return_window_mean_and_capacity():
    assert advantage.WINDOW == 10
    w = ReturnWindow()
    assert w.mean() == 0.0  # cold start
    for i in range(15):
        w.push(float(i))
    # the last ten returns: all fifteen would average 7.0
    assert w.mean() == pytest.approx(np.mean(range(5, 15)))
    # 5..14 are symmetric, so their median is their mean; 0, 0, 3 is not
    w = ReturnWindow()
    for r in (0.0, 0.0, 3.0):
        w.push(r)
    assert w.mean() == 1.0

