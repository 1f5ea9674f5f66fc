"""Per-sample safety screen: the reference the memoized screen is checked against.

Every one of the ``samples`` rollouts of the proposal, and every candidate,
runs its own first warp and cost-head pass, even where the first action
repeats.  This is ``safety.screen_action`` as it was before each distinct
first action was priced once per call.  Its warps go through
``cade.homography.sdm_predict``, not the ``cade.safety`` binding, so a test
that counts the screen's warps does not count these.
"""

import numpy as np

from cade.homography import sdm_predict
from cade.nets import action_onehot, sample_action
from cade.safety import ScreenDecision


def _imagine_cost(nets, grid, hidden, action, total, rng, horizon, gamma):
    branches = nets.cfg.branches
    h = hidden
    for step in range(1, horizon):
        h, _ = nets.trunk_step_np(grid.reshape(1, -1),
                                  action_onehot(branches, action), h)
        action = sample_action(nets.actor_logits_np(h), branches, rng)
        grid = sdm_predict(nets.sdm_offsets_flat, grid,
                           action_onehot(branches, action))
        total += gamma ** step * float(nets.cost_np(grid.reshape(1, -1))[0])
    return total


def _imagined_cost(nets, grid, hidden, first, rng, horizon, gamma):
    cur = sdm_predict(nets.sdm_offsets_flat, grid,
                      action_onehot(nets.cfg.branches, first))
    total = float(nets.cost_np(cur.reshape(1, -1))[0])
    return _imagine_cost(nets, cur, hidden, first, total, rng, horizon, gamma)


def reference_screen_action(nets, obs_grid, hidden, proposed, rng, cfg, gamma,
                            samples):
    proposed = np.asarray(proposed)
    grid = np.asarray(obs_grid, dtype=np.float64)[None]
    prop_costs = [_imagined_cost(nets, grid, hidden, proposed, rng,
                                 cfg.horizon, gamma)
                  for _ in range(samples)]
    best_prop = min(prop_costs)
    if not all(c >= cfg.threshold for c in prop_costs):
        return ScreenDecision(proposed, False, best_prop, best_prop)
    logits = nets.actor_logits_np(hidden)
    pool = [(best_prop, 0, proposed)]
    for i in range(samples):
        alt = sample_action(logits, nets.cfg.branches, rng)
        cost = _imagined_cost(nets, grid, hidden, alt, rng, cfg.horizon, gamma)
        pool.append((cost, i + 1, alt))
    cost, _, action = min(pool, key=lambda entry: (entry[0], entry[1]))
    return ScreenDecision(action, True, best_prop, cost)
