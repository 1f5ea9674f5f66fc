"""Execution-time action screening through imagined rollouts.

The screen prices the policy's proposed action by rolling the learned
dynamics and cost estimator forward a short horizon.  Only when every
sampled continuation of the proposed action meets the cost threshold does
it intervene, swapping in the cheapest candidate first action.  It runs
inside ``trainer.collect_episode``, which serves both training (gated to
the later part of the run) and evaluation at inference.

``imagine_cost`` carries an imagined rollout past its first warp; the
screen and ``focops.cost_advantage`` both use it, so the two price a
continuation the same way.

The first imagined step draws nothing, so the screen warps and prices
each distinct first step once per episode: ``collect_episode`` keeps one
memo per episode and passes it to every ``screen_action`` call.  An entry,
keyed by the observation's and the first action's bytes, holds the
action's one-hot row, the first warp and its cost.  An episode adds at
most one entry per distinct (observation, first action) pair it prices,
so at most ``1 + samples`` a step, and the memo is dropped when the
episode ends; no head is trained while it lives.  Continuations are never
memoized, since they draw from the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SafetySection
from .homography import sdm_predict
from .nets import CadeNets, action_onehot, sample_action

__all__ = [
    "ScreenDecision",
    "screen_action",
    "imagine_cost",
]


@dataclass(frozen=True)
class ScreenDecision:
    """Outcome of one screening call; costs are None when the screen slept."""

    action: np.ndarray
    log_prob: float
    fired: bool
    proposed_cost: float | None
    chosen_cost: float | None


def imagine_cost(nets, grid: np.ndarray, hidden: np.ndarray,
                 onehot: np.ndarray, total: float, rng: np.random.Generator,
                 horizon: int, gamma: float) -> float:
    """Continue an imagined rollout after its first warp; returns the total.

    ``grid`` is the first predicted observation as a batch of one
    (1, r, c), reached by the action with one-hot row ``onehot`` (1, A)
    from the state whose trunk output is ``hidden``, and ``total`` is the
    discounted cost priced so far.  Each deeper step advances the trunk on
    the imagined observation, samples the next action from the policy,
    warps, and adds ``gamma**step`` times the predicted cost to ``total``.
    """
    branches = nets.cfg.branches
    h = hidden
    for step in range(1, horizon):
        h, _ = nets.trunk_step_np(grid.reshape(1, -1), onehot, h)
        action, _ = sample_action(nets.actor_logits_np(h), branches, rng)
        onehot = action_onehot(branches, action)
        grid = sdm_predict(nets.sdm_offsets_flat, grid, onehot)
        total += gamma ** step * float(nets.cost_np(grid.reshape(1, -1))[0])
    return total


def screen_action(nets: CadeNets, obs_grid: np.ndarray, hidden: np.ndarray,
                  proposed: np.ndarray, proposed_log_prob: float,
                  rng: np.random.Generator, cfg: SafetySection,
                  progress: float, gamma: float, memo: dict) -> ScreenDecision:
    """Screen one proposed action against the imagined cost threshold.

    Fires only when all ``cfg.samples`` rollouts that start with the
    proposed action cost at least ``cfg.threshold``; each rollout's cost
    is discounted by ``gamma`` per imagined step.  The replacement is the
    cheapest first action among policy-sampled candidates, with the
    proposed action kept in the pool (and winning ties), so the chosen
    imagined cost never exceeds the proposed one.  Before the activation
    point the proposal passes through untouched.

    The first imagined step draws nothing: its warp and price depend only
    on the observation, the first action and the SDM and cost heads.
    ``memo`` maps (observation bytes, first-action bytes) to that step's
    one-hot row, first warp (1, r, c) and cost, so a first step is warped
    and priced once for as long as the caller keeps the memo and the heads
    stay fixed; see the module docstring.  A call adds at most ``1 +
    cfg.samples`` entries, one per distinct first action it prices.  Every
    continuation and every draw runs as without the memo.
    """
    proposed = np.asarray(proposed)
    if progress < cfg.activation_fraction:
        return ScreenDecision(proposed, proposed_log_prob, False, None, None)
    grid = np.asarray(obs_grid, dtype=np.float64)[None]
    obs_key = grid.tobytes()

    def price(first):
        """Discounted predicted cost of one imagined trajectory from
        ``first``; its one-hot row and first warp come from the memo."""
        key = (obs_key, first.tobytes())
        entry = memo.get(key)
        if entry is None:
            onehot = action_onehot(nets.cfg.branches, first)
            cur = sdm_predict(nets.sdm_offsets_flat, grid, onehot)
            entry = memo[key] = (onehot, cur,
                                 float(nets.cost_np(cur.reshape(1, -1))[0]))
        onehot, cur, total = entry
        return imagine_cost(nets, cur, hidden, onehot, total, rng,
                            cfg.horizon, gamma)

    # at horizon 1 the samples of the proposal are one rollout that draws
    # nothing: price it once
    prop_costs = [price(proposed)
                  for _ in range(cfg.samples if cfg.horizon > 1 else 1)]
    best_prop = min(prop_costs)
    if not all(c >= cfg.threshold for c in prop_costs):
        return ScreenDecision(proposed, proposed_log_prob, False,
                              best_prop, best_prop)
    logits = nets.actor_logits_np(hidden)
    pool = [(best_prop, 0, proposed, proposed_log_prob)]
    for i in range(cfg.samples):
        alt, lp = sample_action(logits, nets.cfg.branches, rng)
        cost = price(alt)
        pool.append((cost, i + 1, alt, lp))
    cost, _, action, log_prob = min(pool, key=lambda entry: (entry[0], entry[1]))
    return ScreenDecision(action, log_prob, True, best_prop, cost)
