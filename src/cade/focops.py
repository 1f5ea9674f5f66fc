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
from .nets import CadeNets, log_softmax_np, onehot_rows
from .safety import imagine_cost

__all__ = [
    "lagrange_update",
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


def squash_cost(a_bar, k: float, c_b: float) -> np.ndarray:
    """Sigmoid transform of the raw imagined cost-to-go.

    Suppresses small predicted costs, saturates large ones; monotone, so
    action orderings under the raw cost are preserved.
    """
    return stable_sigmoid(k * (np.asarray(a_bar, dtype=np.float64) - c_b))


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
                a_r: np.ndarray, a_c: np.ndarray | None,
                beta: float, cfg: TrustSection) -> Tensor:
    """Trust-region projection loss over one recorded trajectory.

    Per step: KL(pi_theta || pi_k) - coef * ratio * (A_R - beta * A_C),
    averaged over the steps.  ``logits_new`` is the taped (T, A) replay;
    ``logits_old`` (T, A) are the collection-time policy's logits at the
    same states, pi_k.  The behavior log-prob of a step is its executed
    action's in ``logits_old``'s branch-wise log-softmax table, summed
    branch by branch in branch order.  The actor steps once a batch, at
    ``logits_new`` = pi_k, where the KL and its gradient vanish and every
    ratio is 1, so the step is the score-function gradient
    -coef / T * sum_t grad log pi(a_t | h_t) * adv_t; no per-step KL bound
    binds there.  A non-finite KL makes the loss non-finite.

    Recorded as one ``policy`` op.  The forward takes each branch's
    log-softmax as the max-shifted softmax and its log, and sums the taken
    log-probs branch by branch.  The backward repeats the per-op tape of
    those terms in its order: the mean's ``gterm``, the ratio's
    ``(-gterm * coef) * adv``, the log table's KL contributions (through
    ``log_new - log_old``, then through ``exp``), each branch's taken
    log-prob scattered as a full array, last branch first, and then per
    branch, last first, the log, the softmax and the slice into the logits.
    """
    logits = logits_new.values
    T = logits.shape[0]
    rows = np.arange(T)
    acts = np.asarray(actions, dtype=np.int64).reshape(-1, len(branches))
    spans = list(zip(np.cumsum((0,) + branches[:-1]).tolist(), branches))
    probs = []
    for off, n in spans:
        x = np.ascontiguousarray(logits[:, off:off + n])
        e = np.exp(x - x.max(axis=1, keepdims=True))
        probs.append(e / e.sum(axis=1, keepdims=True))
    L = np.concatenate([np.log(p) for p in probs], axis=1)
    cols = [off + acts[:, i] for i, (off, _) in enumerate(spans)]
    log_old = np.concatenate(
        [log_softmax_np(logits_old[:, off:off + n]) for off, n in spans], axis=1)
    lp, lp_old = L[rows, cols[0]], log_old[rows, cols[0]]
    for c in cols[1:]:
        lp = lp + L[rows, c]
        lp_old = lp_old + log_old[rows, c]
    ratio = np.exp(lp - lp_old)

    E = np.exp(L)
    dl = L - log_old
    kl_t = (E * dl).sum(axis=1)

    adv = np.asarray(a_r, dtype=np.float64).copy()
    if beta != 0.0:
        if a_c is None:
            raise ValueError("beta > 0 needs a cost advantage")
        adv -= beta * np.asarray(a_c, dtype=np.float64)

    coef = cfg.surrogate_coef
    term = kl_t - (ratio * adv) * coef
    loss = term.sum() / float(T)

    def backward(g):
        gterm = np.broadcast_to(g / float(T), (T,))
        g_ratio = (-gterm * coef) * adv
        g_kle = gterm[:, None]
        gL = g_kle * E
        gL += (g_kle * dl) * E
        g_lp = g_ratio * ratio
        for c in reversed(cols):
            taken = np.zeros_like(L)
            taken[rows, c] = g_lp
            gL += taken
        grad = None
        for (off, n), P in reversed(list(zip(spans, probs))):
            gb = np.ascontiguousarray(gL[:, off:off + n]) / P
            gb = P * (gb - (gb * P).sum(axis=1, keepdims=True))
            part = np.zeros_like(logits)
            part[:, off:off + n] = gb
            grad = part if grad is None else grad + part
        return (grad,)

    return logits_new.tape.record("policy", loss, (logits_new,), backward)
