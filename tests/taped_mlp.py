"""Per-op references for the fused ``mlp``, ``jaccard``, ``bce``, ``mse``
and ``policy`` tape ops.

Each function records the autograd ops that ``cade.nets.mlp_taped``,
``cade.homography.jaccard_loss``, ``cade.dynbench._bce_from_logits`` and
the trainer's head regression (now ``cade.nets.mse_loss``) recorded one by
one before they became single ops, so ``Tape.backward`` derives their
gradients op by op.  Those fused ops must match them bit for bit.
:func:`policy_loss` is FOCOPS's per-step loss, KL(pi_theta || pi_k) -
coef * ratio * A, as ``cade.focops.policy_loss`` once recorded it; at
``logits_old`` = the logits its gradient is the fused ``policy`` op's up
to rounding.  The references run on ``taped_ops.Tape``, whose tensors
carry the elementwise algebra that src no longer has.
"""

import numpy as np

from cade.autograd import TapeError
from cade.focops import SURROGATE_COEF
from cade.nets import log_softmax_np
from taped_ops import Tensor, concat, matmul, neg, relu, rsub, sigmoid, tanh


def mlp_taped(p: dict, x: Tensor, out_act: str | None = None) -> Tensor:
    n = len(p) // 2
    for i in range(n):
        x = matmul(x, p[f"w{i}"]) + p[f"b{i}"]
        if i < n - 1:
            x = tanh(x)
        elif out_act == "sigmoid":
            x = sigmoid(x)
    return x


def jaccard_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    """1 - soft-IoU of grids (B, r, c) against the array ``truth``,
    averaged over the batch."""
    if pred.values.shape != truth.shape or pred.values.ndim != 3:
        raise TapeError(f"pred and truth must both be (B, r, c), got "
                        f"{pred.values.shape} and {truth.shape}")
    B = pred.values.shape[0]
    p = pred.reshape(B, -1)
    g = pred.tape.const(truth).reshape(B, -1)
    inter = (p * g).sum(axis=1)
    denom = p.sum(axis=1) + g.sum(axis=1) - inter
    empty = denom.values == 0.0
    nonempty = pred.tape.const((~empty).astype(np.float64))
    guard = pred.tape.const(empty.astype(np.float64))
    loss = rsub(1.0, inter / (denom + guard)) * nonempty
    return loss.mean()


def _softplus(z: Tensor) -> Tensor:
    # max(z, 0) + log(1 + exp(-|z|)): overflow-free in both tails; the
    # reflected ``1.0 + t`` recorded ``t + 1.0``
    mag = relu(z) + relu(neg(z))
    return relu(z) + (neg(mag).exp() + 1.0).log()


def _bce_from_logits(z: Tensor, targets: np.ndarray) -> Tensor:
    return (_softplus(z) - z.tape.const(targets) * z).mean()


def mse(out: Tensor, targets: np.ndarray) -> Tensor:
    """The heads' regression loss as the trainer recorded it."""
    d = out - out.tape.const(targets)
    return (d * d).mean()


def log_softmax_taped(logits: Tensor, branches: tuple[int, ...]) -> Tensor:
    """Per-branch log-softmax of a logits batch (T, sum(branches))."""
    parts = []
    off = 0
    for n in branches:
        block = logits[:, off:off + n]
        parts.append(block.softmax(axis=1).log())
        off += n
    return parts[0] if len(parts) == 1 else concat(parts, axis=1)


def taken_log_prob(log_table: Tensor, branches: tuple[int, ...],
                   actions: np.ndarray) -> Tensor:
    """Per-step log-prob (T,) of the recorded actions (T, n_branches)."""
    actions = np.asarray(actions, dtype=np.int64).reshape(-1, len(branches))
    total = None
    off = 0
    for i, n in enumerate(branches):
        lp = log_table[:, off:off + n].gather_rows(actions[:, i])
        total = lp if total is None else total + lp
        off += n
    return total


def log_old_table(logits_old: np.ndarray, branches: tuple[int, ...]) -> np.ndarray:
    """Per-branch log-softmax of the behavior logits (T, sum(branches))."""
    return np.concatenate(
        [log_softmax_np(logits_old[:, s:s + n])
         for s, n in zip(np.cumsum((0,) + branches[:-1]), branches)], axis=1)


def behavior_log_probs(logits_old: np.ndarray, branches: tuple[int, ...],
                       actions: np.ndarray) -> np.ndarray:
    """Per-step behavior log-prob (T,) of the recorded actions: the entries
    of :func:`log_old_table`, summed branch by branch in branch order."""
    table = log_old_table(logits_old, branches)
    actions = np.asarray(actions, dtype=np.int64).reshape(-1, len(branches))
    rows = np.arange(len(actions))
    offs = np.cumsum((0,) + branches[:-1]).tolist()
    lp = table[rows, offs[0] + actions[:, 0]]
    for i, off in enumerate(offs[1:], 1):
        lp = lp + table[rows, off + actions[:, i]]
    return lp


def policy_loss(logits_new: Tensor, logits_old: np.ndarray,
                branches: tuple[int, ...], actions: np.ndarray,
                a_r: np.ndarray, a_c: np.ndarray | None,
                beta: float) -> Tensor:
    tape = logits_new.tape
    T = logits_new.values.shape[0]
    log_new = log_softmax_taped(logits_new, branches)
    lp_new = taken_log_prob(log_new, branches, np.atleast_2d(actions))
    ratio = (lp_new - tape.const(
        behavior_log_probs(logits_old, branches, actions))).exp()

    log_old = log_old_table(logits_old, branches)
    kl_entries = log_new.exp() * (log_new - tape.const(log_old))
    kl_t = kl_entries.sum(axis=1)

    adv = np.asarray(a_r, dtype=np.float64).copy()
    if beta != 0.0:
        if a_c is None:
            raise ValueError("beta > 0 needs a cost advantage")
        adv -= beta * np.asarray(a_c, dtype=np.float64)

    term = kl_t - SURROGATE_COEF * (ratio * tape.const(adv))
    return term.sum() / float(T)
