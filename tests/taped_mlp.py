"""Per-op references for the fused ``mlp``, ``jaccard`` and ``bce`` tape ops.

Each function records the autograd ops that ``cade.nets.mlp_taped``,
``cade.homography.jaccard_loss`` and ``cade.dynbench._bce_from_logits``
recorded one by one before they became single ops, so ``Tape.backward``
derives their gradients op by op.  The fused ops must match them bit for
bit.  ``Tensor`` methods that src no longer needs come from ``taped_ops``.
"""

import numpy as np

from cade.autograd import TapeError, Tensor
from taped_ops import matmul, neg, relu, rsub, sigmoid, tanh


def mlp_taped(p: dict, x: Tensor, out_act: str | None = None) -> Tensor:
    n = len(p) // 2
    for i in range(n):
        x = matmul(x, p[f"w{i}"]) + p[f"b{i}"]
        if i < n - 1:
            x = tanh(x)
        elif out_act == "sigmoid":
            x = sigmoid(x)
    return x


def jaccard_loss(pred: Tensor, truth: Tensor) -> Tensor:
    """1 - soft-IoU of grids (B, r, c), averaged over the batch."""
    if pred.values.shape != truth.values.shape or pred.values.ndim != 3:
        raise TapeError(f"pred and truth must both be (B, r, c), got "
                        f"{pred.values.shape} and {truth.values.shape}")
    B = pred.values.shape[0]
    p = pred.reshape(B, -1)
    g = truth.reshape(B, -1)
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


def _bce_from_logits(z: Tensor, targets: Tensor) -> Tensor:
    return (_softplus(z) - targets * z).mean()
