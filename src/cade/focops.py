"""Constrained policy update.

First-order trust-region surrogate over recorded trajectories, a clamped
dual variable tracking episodic cost violations, and a short-horizon
imagined cost advantage squashed through a sigmoid.  Everything here is
policy-representation-agnostic: logits in, scalar loss out.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, stable_sigmoid
from .config import CostAdvSection, LagrangeSection, TrustSection
from .homography import sdm_predict
from .nets import (
    CadeNets,
    log_softmax_np,
    log_softmax_taped,
    onehot_rows,
    taken_log_prob,
)
from .safety import imagine_cost

__all__ = [
    "lagrange_update",
    "kl_early_stop",
    "squash_cost",
    "cost_advantage",
    "categorical_kl",
    "policy_loss",
]


def lagrange_update(beta: float, episodic_cost: float,
                    cfg: LagrangeSection) -> float:
    """Clamped ascent on the dual: overspending raises beta, slack lowers it."""
    if episodic_cost < 0.0:
        raise ValueError("episodic cost must be non-negative")
    beta = beta - cfg.lr * (cfg.budget - float(episodic_cost))
    return min(cfg.beta_max, max(0.0, beta))


def kl_early_stop(batch_kl: float, threshold: float) -> bool:
    """True once the batch KL strictly exceeds the threshold.

    Stops further actor updates for the iteration; estimator and dynamics
    training continue regardless.
    """
    if batch_kl < 0.0:
        raise ValueError("KL must be non-negative")
    return batch_kl > threshold


def squash_cost(a_bar, k: float, c_b: float) -> np.ndarray:
    """Sigmoid transform of the raw imagined cost-to-go.

    Suppresses small predicted costs, saturates large ones; monotone, so
    action orderings under the raw cost are preserved.
    """
    return stable_sigmoid(k * (np.asarray(a_bar, dtype=np.float64) - c_b))


def cost_advantage(nets: CadeNets, grids: np.ndarray, actions: np.ndarray,
                   hiddens: np.ndarray | None, rng: np.random.Generator | None,
                   cfg: CostAdvSection, gamma: float) -> np.ndarray:
    """Imagined short-horizon discounted cost, squashed to (0, 1) per step.

    ``grids`` (T, r, c) are the emitted observations, ``actions`` (T, B) the
    actions actually taken.  Step h = 0 warps each observation under its
    recorded action and prices the predicted next observation with the cost
    estimator.  Deeper steps (``cfg.horizon > 1``) continue each step's
    rollout through ``safety.imagine_cost``, the screen's own continuation;
    they need ``hiddens`` (T, nh), the trunk's state rows aligned with the
    recorded decisions, and an ``rng``, which horizon 1 leaves unused.
    """
    grids = np.asarray(grids, dtype=np.float64)
    actions = np.atleast_2d(np.asarray(actions))
    T = grids.shape[0]
    oh = onehot_rows(nets.cfg.branches, actions)
    pred = sdm_predict(nets.sdm_offsets_flat, grids, oh)  # one batched warp
    a_bar = nets.cost_np(pred.reshape(T, -1)).astype(np.float64)

    if cfg.horizon > 1:
        if hiddens is None or rng is None:
            raise ValueError("horizon > 1 needs recurrent states and an rng")
        for t in range(T):
            a_bar[t] = imagine_cost(nets, pred[t:t + 1], hiddens[t][:, None],
                                    oh[t:t + 1], a_bar[t], rng, cfg.horizon,
                                    gamma)

    return squash_cost(a_bar, cfg.k, cfg.c_b)


def categorical_kl(logits_new: np.ndarray, logits_old: np.ndarray,
                   branches: tuple[int, ...]) -> np.ndarray:
    """Closed-form per-step KL(new || old) summed over action branches."""
    kl = np.zeros(logits_new.shape[0])
    start = 0
    for n in branches:
        ln = log_softmax_np(logits_new[:, start:start + n])
        lo = log_softmax_np(logits_old[:, start:start + n])
        kl += (np.exp(ln) * (ln - lo)).sum(axis=1)
        start += n
    return kl


def policy_loss(logits_new: Tensor, logits_old: np.ndarray,
                branches: tuple[int, ...], actions: np.ndarray,
                behavior_log_probs: np.ndarray,
                a_r: np.ndarray, a_c: np.ndarray | None,
                beta: float, cfg: TrustSection) -> tuple[Tensor, dict]:
    """Trust-region projection loss over one recorded trajectory.

    Per step: KL(pi_theta || pi_k) - coef * ratio * (A_R - beta * A_C),
    zeroed where the step's KL already exceeds the mask threshold, then
    averaged over the surviving steps.  ``logits_new`` is the taped (T, A)
    replay; ``logits_old`` and ``behavior_log_probs`` are the frozen
    snapshot's numbers recorded at collection time.
    """
    tape = logits_new.tape
    T = logits_new.values.shape[0]
    log_new = log_softmax_taped(logits_new, branches)
    lp_new = taken_log_prob(log_new, branches, np.atleast_2d(actions))
    ratio = (lp_new - tape.const(np.asarray(behavior_log_probs))).exp()

    log_old = np.concatenate(
        [log_softmax_np(logits_old[:, s:s + n])
         for s, n in zip(np.cumsum((0,) + branches[:-1]), branches)], axis=1)
    kl_entries = log_new.exp() * (log_new - tape.const(log_old))
    kl_t = kl_entries.sum(axis=1)

    mask = (kl_t.values <= cfg.kl_mask).astype(np.float64)
    adv = np.asarray(a_r, dtype=np.float64).copy()
    if beta != 0.0:
        if a_c is None:
            raise ValueError("beta > 0 needs a cost advantage")
        adv -= beta * np.asarray(a_c, dtype=np.float64)

    term = kl_t - cfg.surrogate_coef * (ratio * tape.const(adv))
    loss = (term * tape.const(mask)).sum() / max(1.0, float(mask.sum()))
    info = {
        "kl": float(kl_t.values.mean()),
        "masked_steps": int(T - mask.sum()),
        "ratio_mean": float(ratio.values.mean()),
    }
    return loss, info
