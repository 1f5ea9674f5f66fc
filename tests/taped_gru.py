"""Per-step taped GRU: the reference the fused ``gru_seq`` op is checked against.

Every cell update records its own autograd ops, so ``Tape.backward`` derives
the gradients op by op.  ``trunk_replay_per_step`` is the batch replay built
from it, as the actor update recorded it before the fused op.
"""

import numpy as np

from cade.autograd import Tape, Tensor, concat


def gru_step_taped(p: dict, x: Tensor, h: Tensor) -> Tensor:
    """Taped twin of ``cade.nets.gru_step_np``; same ops in the same order."""
    nh = h.shape[0]
    gx = p["W"] @ x + p["b"]
    gh = p["U"] @ h
    r = (gx[:nh] + gh[:nh]).sigmoid()
    z = (gx[nh:2 * nh] + gh[nh:2 * nh]).sigmoid()
    n = (gx[2 * nh:] + r * gh[2 * nh:]).tanh()
    return (1.0 - z) * n + z * h


def stack_rows(tensors: list) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor, one per row."""
    return concat([t.reshape(1, t.values.shape[0]) for t in tensors], axis=0)


def trunk_replay_per_step(p: dict, tape: Tape, x_seqs: list) -> Tensor:
    """The actor update's replay before the fused op: each (T_i, in) episode
    unrolled step by step from a zero state, the rows concatenated per
    episode and then across episodes; returns (sum T_i, hidden)."""
    nh = p["U"].shape[1]
    episodes = []
    for x_rows in x_seqs:
        h = tape.const(np.zeros((nh, 1)))
        rows = []
        for t in range(x_rows.shape[0]):
            h = gru_step_taped(p, tape.const(x_rows[t][:, None]), h)
            rows.append(h.reshape(1, nh))
        episodes.append(concat(rows, axis=0))
    return concat(episodes)
