"""Execution-time action screening through imagined rollouts.

The screen prices the policy's proposed action by rolling the learned
dynamics and cost estimator forward a short horizon.  Only when every
sampled continuation of the proposed action meets the cost threshold does
it intervene, swapping in the cheapest candidate first action.  It runs
inside ``trainer.collect_episode``, which serves both training (where
``trainer.iterate`` passes it to the episodes of the later part of the run)
and evaluation at inference.  It returns no log-prob: the actor stage
prices a substitute under the collection-time policy, as any action.

``imagine_cost`` carries an imagined rollout past its first warp; the
screen and ``focops.cost_advantage`` both use it, so the two price a
continuation the same way.

The first imagined step draws nothing, so the screen warps and prices
each distinct first step once per episode: ``collect_episode`` keeps one
memo per episode and passes it to every ``screen_action`` call.  An entry,
keyed by the observation's and the first action's bytes, holds the
action's one-hot row, the first warp and its cost.  An episode adds at
most one entry per distinct (observation, first action) pair it prices,
so at most ``1 + SAMPLES`` a step, and the memo is dropped when the
episode ends; no head is trained while it lives.  A memo that holds
``MEMO_ENTRIES`` is cleared before its next insert, which changes no
result, and bounds a firing river episode, whose poses never repeat.
Continuations are never memoized, since they draw from the policy.

A screen that cannot fire is not run: :func:`can_fire` bounds the cost
head's output over every grid, and ``collect_episode`` asks it once an
episode.  When even that bound's discounted total stays below the
threshold, no call could fire, so the episode drops the screen and keeps
every decision; the screen's stream feeds nothing else.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .autograd import stable_sigmoid
from .config import SafetySection
from .homography import sdm_predict
from .nets import CadeNets, action_onehot, cade_forward, sample_action

__all__ = [
    "ScreenDecision",
    "can_fire",
    "screen_action",
    "imagine_cost",
]

# above cliff's 720 distinct first steps (144 agent cells times 5 actions)
MEMO_ENTRIES = 1024

SAMPLES = 10  # a call's rollouts of the proposal, and its candidates if it fires

# widening of the cost head's pre-activation bound in the sigmoid's
# argument: the rounded sigmoid need not rise with it (see can_fire)
SIGMOID_SLACK = 1e-9


@dataclass(frozen=True)
class ScreenDecision:
    """Outcome of one screening call: the action taken, whether the screen
    replaced the proposal, and the imagined costs of the proposal and of
    the action taken.  The actor stage prices the action taken under the
    collection-time policy, substitute or not."""

    action: np.ndarray
    fired: bool
    proposed_cost: float
    chosen_cost: float


def imagine_cost(nets, grid: np.ndarray, hidden: np.ndarray,
                 onehot: np.ndarray, total: float, rng: np.random.Generator,
                 horizon: int, gamma: float) -> float:
    """Continue an imagined rollout after its first warp; returns the total.

    ``grid`` is the first predicted observation as a batch of one
    (1, r, c), reached by the action with one-hot row ``onehot`` (1, A)
    from the state whose trunk output is the row ``hidden`` (1, H), and
    ``total`` is the discounted cost priced so far.  Each deeper step takes
    a rollout's policy step, :func:`cade_forward`, on the imagined
    observation, warps by the sampled action, and adds ``gamma**step``
    times the predicted cost to ``total``.
    """
    for step in range(1, horizon):
        action, hidden, _ = cade_forward(nets, grid, onehot, hidden, rng)
        onehot = action_onehot(nets.cfg.branches, action)
        grid = sdm_predict(nets.sdm_offsets_flat, grid, onehot)
        total += gamma ** step * float(nets.cost_np(grid.reshape(1, -1))[0])
    return total


def can_fire(nets: CadeNets, cfg: SafetySection, gamma: float) -> bool:
    """Whether :func:`screen_action` can fire under the current cost head.

    False proves that no call fires, on any observation, warp or draw,
    while the heads stay as they are: every call would return the proposal,
    unfired.  The bound is computed in floating point so that it stays at
    or above every value the screen computes:

    - The cost head's output unit reads tanh units h in [-1, 1], so its
      pre-activation b2 + sum h w2 is at most b2 + sum |w2| on every grid.
      Each product has |fl(h w)| <= |w|, since rounding is monotone and
      |w| is a float.  Summed over the n = len(w2) units in any order,
      fused multiply-adds included, |fl(sum h w)| <= (1 + g_n) sum |w|,
      with g_n = n u / (1 - n u) and u = 2**-53 (Higham, "Accuracy and
      Stability of Numerical Algorithms", 2002, sec. 3.1).
    - ``fsum`` rounds sum |w| once; times 1 + 4 (n + 2) u, rounded, it is
      at least (1 + g_n) sum |w|.  Adding b2 is monotone, so ``top`` is
      at least every pre-activation the head computes.
    - ``stable_sigmoid`` is not monotone under rounding: on z < 0,
      e / (1 + e) can fall by an ulp as z rises by one (about 1% of
      neighbouring pairs in (-2, -0.7) do), and exp need not be monotone
      either.  ``SIGMOID_SLACK`` lifts the argument by about 1e-9.  On
      z >= 0, 1 / (1 + exp(-z)) then stays ordered for any exp within
      1e-10 relative; on z < 0 the sigmoid rises by a relative 4e-10, far
      above its rounding.  Below the smallest normal float exp's error is
      absolute, so the bound is floored there.
    - The discounted total is built as :func:`imagine_cost` builds it,
      with the same ``gamma ** step`` factors; multiplying by gamma >= 0
      and adding are monotone, so it bounds every rollout's total.

    The screen fires only when a proposal's totals reach ``cfg.threshold``;
    NaN costs reach nothing, here or there.
    """
    p = nets.params["cost"]
    w = np.abs(p["w2"][:, 0])
    reach = math.fsum(w) * (1.0 + 4 * (w.size + 2) * 2.0 ** -53)
    top = float(p["b2"][0, 0]) + reach + SIGMOID_SLACK
    cost = total = max(float(stable_sigmoid(top)), sys.float_info.min)
    for step in range(1, cfg.horizon):
        total += gamma ** step * cost
    return total >= cfg.threshold


def screen_action(nets: CadeNets, obs_grid: np.ndarray, hidden: np.ndarray,
                  proposed: np.ndarray, rng: np.random.Generator,
                  cfg: SafetySection, gamma: float, memo: dict) -> ScreenDecision:
    """Screen one proposed action against the imagined cost threshold.

    Fires only when all ``SAMPLES`` rollouts that start with the
    proposed action cost at least ``cfg.threshold``; each rollout's cost
    is discounted by ``gamma`` per imagined step.  The replacement is the
    cheapest first action among policy-sampled candidates: the pool holds
    ``(cost, index, action)`` with the proposal at index 0, and ties go to
    the lowest index, so the chosen imagined cost never exceeds the
    proposed one.  Every call screens: ``trainer.iterate`` passes the screen
    from ``cfg.activation_fraction`` on, and ``collect_episode`` drops it
    for an episode whose screen ``can_fire`` proves inert.

    The first imagined step draws nothing: its warp and price depend only
    on the observation, the first action and the SDM and cost heads.
    ``memo`` maps (observation bytes, first-action bytes) to that step's
    one-hot row, first warp (1, r, c) and cost, so a first step is warped
    and priced once for as long as the caller keeps the memo and the heads
    stay fixed; see the module docstring.  A call adds at most ``1 +
    SAMPLES`` entries, one per distinct first action it prices, and
    clears a memo that holds ``MEMO_ENTRIES`` before an insert.  Every
    continuation and every draw runs as without the memo.
    """
    proposed = np.asarray(proposed)
    grid = np.asarray(obs_grid, dtype=np.float64)[None]
    obs_key = grid.tobytes()

    def price(first):
        """Discounted predicted cost of one imagined trajectory from
        ``first``; its one-hot row and first warp come from the memo."""
        key = (obs_key, first.tobytes())
        entry = memo.get(key)
        if entry is None:
            if len(memo) >= MEMO_ENTRIES:
                memo.clear()
            onehot = action_onehot(nets.cfg.branches, first)
            cur = sdm_predict(nets.sdm_offsets_flat, grid, onehot)
            entry = memo[key] = (onehot, cur,
                                 float(nets.cost_np(cur.reshape(1, -1))[0]))
        onehot, cur, total = entry
        return imagine_cost(nets, cur, hidden, onehot, total, rng,
                            cfg.horizon, gamma)

    prop_costs = [price(proposed) for _ in range(SAMPLES)]
    best_prop = min(prop_costs)
    if not all(c >= cfg.threshold for c in prop_costs):
        return ScreenDecision(proposed, False, best_prop, best_prop)
    logits = nets.actor_logits_np(hidden)
    pool = [(best_prop, 0, proposed)]
    for i in range(SAMPLES):
        alt = sample_action(logits, nets.cfg.branches, rng)
        pool.append((price(alt), i + 1, alt))
    cost, _, action = min(pool, key=lambda entry: (entry[0], entry[1]))
    return ScreenDecision(action, True, best_prop, cost)
