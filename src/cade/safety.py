"""Execution-time action screening through imagined rollouts.

The screen prices the policy's proposed action by rolling the learned
dynamics and cost estimator forward a short horizon.  Only when every
sampled continuation of the proposed action meets the cost threshold does
it intervene, swapping in the cheapest candidate first action.  It runs
inside ``trainer.collect_episode``, which serves both training (where
``trainer.train`` passes it to the episodes of the later part of the run)
and evaluation at inference.

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
episode ends; no head is trained while it lives.  A memo that holds
``MEMO_ENTRIES`` is cleared before its next insert, which changes no
result, and bounds a firing river episode, whose poses never repeat.
Continuations are never memoized, since they draw from the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SafetySection
from .homography import sdm_predict
from .nets import CadeNets, action_onehot, cade_forward, sample_action

__all__ = [
    "ScreenDecision",
    "screen_action",
    "imagine_cost",
]

# above cliff's 720 distinct first steps (144 agent cells times 5 actions)
MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class ScreenDecision:
    """Outcome of one screening call: the action taken, whether the screen
    replaced the proposal, and the imagined costs of the proposal and of
    the action taken."""

    action: np.ndarray
    log_prob: float
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
        out = cade_forward(nets, grid, onehot, hidden, rng)
        hidden, onehot = out.hidden, action_onehot(nets.cfg.branches, out.action)
        grid = sdm_predict(nets.sdm_offsets_flat, grid, onehot)
        total += gamma ** step * float(nets.cost_np(grid.reshape(1, -1))[0])
    return total


def screen_action(nets: CadeNets, obs_grid: np.ndarray, hidden: np.ndarray,
                  proposed: np.ndarray, proposed_log_prob: float,
                  rng: np.random.Generator, cfg: SafetySection,
                  gamma: float, memo: dict) -> ScreenDecision:
    """Screen one proposed action against the imagined cost threshold.

    Fires only when all ``cfg.samples`` rollouts that start with the
    proposed action cost at least ``cfg.threshold``; each rollout's cost
    is discounted by ``gamma`` per imagined step.  The replacement is the
    cheapest first action among policy-sampled candidates, with the
    proposed action kept in the pool (and winning ties), so the chosen
    imagined cost never exceeds the proposed one.  Every call screens:
    ``trainer.train`` calls it from ``cfg.activation_fraction`` on.

    The first imagined step draws nothing: its warp and price depend only
    on the observation, the first action and the SDM and cost heads.
    ``memo`` maps (observation bytes, first-action bytes) to that step's
    one-hot row, first warp (1, r, c) and cost, so a first step is warped
    and priced once for as long as the caller keeps the memo and the heads
    stay fixed; see the module docstring.  A call adds at most ``1 +
    cfg.samples`` entries, one per distinct first action it prices, and
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
