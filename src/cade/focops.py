"""Constrained policy update.

The Lagrangian policy-gradient loss over recorded trajectories, a clamped
dual variable tracking episodic cost violations, and a short-horizon
imagined cost advantage squashed through a sigmoid.  Everything here is
policy-representation-agnostic: logits in, scalar loss out.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, stable_sigmoid
from .config import CostAdvSection
from .homography import sdm_predict
from .nets import CadeNets, log_softmax_np, onehot_rows
from .safety import imagine_cost

__all__ = [
    "lagrange_update",
    "squash_cost",
    "cost_advantage",
    "categorical_kl",
    "policy_loss",
]

# the policy loss's advantage weight, FOCOPS's 1/alpha: Adam cancels its
# scale but through EPS and CLIP_NORM, so it stays 0.015 to keep the bytes
SURROGATE_COEF = 0.015
SQUASH_K, SQUASH_C_B = 8.0, 0.5  # the cost squash's slope and midpoint
DUAL_LR, BETA_MAX = 0.01, 2.0  # the dual's step and its clamp's top


def lagrange_update(beta: float, episodic_cost: float, budget: float) -> float:
    """Clamped ascent on the dual: overspending ``budget`` raises beta,
    slack lowers it, within [0, ``BETA_MAX``]."""
    if episodic_cost < 0.0:
        raise ValueError("episodic cost must be non-negative")
    beta = beta - DUAL_LR * (budget - float(episodic_cost))
    return min(BETA_MAX, max(0.0, beta))


def squash_cost(a_bar) -> np.ndarray:
    """Sigmoid transform of the raw imagined cost-to-go.

    Suppresses small predicted costs, saturates large ones; monotone, so
    action orderings under the raw cost are preserved.
    """
    a_bar = np.asarray(a_bar, dtype=np.float64)
    return stable_sigmoid(SQUASH_K * (a_bar - SQUASH_C_B))


def cost_advantage(nets: CadeNets, grids: np.ndarray, actions: np.ndarray,
                   hiddens: np.ndarray, rng: np.random.Generator,
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
        for t in range(T):
            a_bar[t] = imagine_cost(nets, pred[t:t + 1], hiddens[t:t + 1],
                                    oh[t:t + 1], a_bar[t], rng, cfg.horizon,
                                    gamma)

    return squash_cost(a_bar)


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


def policy_loss(logits: Tensor, branches: tuple[int, ...],
                actions: np.ndarray, a_r: np.ndarray, a_c: np.ndarray | None,
                beta: float) -> Tensor:
    """Policy-gradient loss over one recorded trajectory:
    -coef / T * sum_t (A_R - beta * A_C)_t * log pi(a_t | h_t), coef
    ``SURROGATE_COEF``.

    ``logits`` is the taped (T, A) replay of the actor at the collection
    states.  The actor steps once a batch, at pi_k, where FOCOPS's KL to pi_k
    vanishes and its ratio is 1 (Zhang et al., 2020), so its step is this
    loss's gradient, the score-function gradient (Williams, 1992).  A step's
    log-prob is the sum, branch by branch, of its executed action's entries
    in each branch's log-softmax.  A non-finite advantage makes the loss
    non-finite.

    Recorded as one ``policy`` op; per branch its backward is the closed
    form w_t * (onehot(a_t) - softmax), w = g * (-coef / T) * A, which
    divides by no probability.
    """
    adv = np.asarray(a_r, dtype=np.float64).copy()
    if beta != 0.0:
        if a_c is None:
            raise ValueError("beta > 0 needs a cost advantage")
        adv -= beta * np.asarray(a_c, dtype=np.float64)

    x = logits.values
    T = x.shape[0]
    rows = np.arange(T)
    acts = np.asarray(actions, dtype=np.int64).reshape(-1, len(branches)).T
    spans = list(zip(np.cumsum((0,) + branches[:-1]).tolist(), branches))
    logps = [log_softmax_np(x[:, off:off + n]) for off, n in spans]
    lp = sum(logp[rows, a] for logp, a in zip(logps, acts))
    coef = SURROGATE_COEF
    loss = -coef * (adv * lp).sum() / float(T)

    def backward(g):
        w = (g * (-coef / float(T)) * adv)[:, None]
        grad = np.empty_like(x)
        for (off, n), logp, a in zip(spans, logps, acts):
            score = -np.exp(logp)
            score[rows, a] += 1.0
            grad[:, off:off + n] = w * score
        return (grad,)

    return logits.tape.record("policy", loss, (logits,), backward)
