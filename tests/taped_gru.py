"""References for the fused ``gru_seq`` op, and the forward it records.

Every cell update of the per-step taped GRU records its own autograd ops, so
``Tape.backward`` derives the gradients op by op.  ``trunk_replay_per_step``
is the batch replay built from it, as the actor update recorded it before
the fused op.  ``trunk_replay_recomputed`` is the fused op as it was before
it recorded gates computed elsewhere: it runs its own forward.
``trunk_replay`` feeds ``trunk_replay_taped`` a forward computed here.
"""

import numpy as np

from cade.autograd import Tape, Tensor, concat, stable_sigmoid
from cade.nets import gru_step_np, trunk_replay_taped


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


def gru_forward(p: dict, x_seqs: list):
    """Hidden rows (sum T_i, hidden) and per-step gates of a value-level
    replay of ``x_seqs`` under parameter arrays ``p``, each episode from
    the zero state."""
    nh = p["U"].shape[1]
    hs, gates = [], []
    for xs in x_seqs:
        h = np.zeros((nh, 1))
        for t in range(xs.shape[0]):
            h, g = gru_step_np(p, xs[t][:, None], h)
            hs.append(h[:, 0])
            gates.append(g)
    return np.array(hs).reshape(-1, nh), gates


def trunk_replay(p: dict, tape: Tape, x_seqs: list) -> Tensor:
    """``trunk_replay_taped`` over the forward of ``p``'s current values."""
    forward = gru_forward({k: t.values for k, t in p.items()}, x_seqs)
    return trunk_replay_taped(p, tape, x_seqs, *forward)


def gru_cell_recomputed(p: dict, x: np.ndarray, h: np.ndarray):
    """The cell with one sigmoid per gate: h' and (r, z, n, U_n h, 1 - z)."""
    nh = h.shape[0]
    gx = p["W"] @ x + p["b"]
    gh = p["U"] @ h
    r = stable_sigmoid(gx[:nh] + gh[:nh])
    z = stable_sigmoid(gx[nh:2 * nh] + gh[nh:2 * nh])
    ghn = gh[2 * nh:]
    n = np.tanh(gx[2 * nh:] + r * ghn)
    omz = 1.0 - z
    return omz * n + z * h, (r, z, n, ghn, omz)


def trunk_replay_recomputed(p: dict, tape: Tape, x_seqs: list) -> Tensor:
    """The ``gru_seq`` op that runs its own forward, and whose backward
    allocates each step's outer products."""
    W, U, b = p["W"], p["U"], p["b"]
    vals = {k: t.values for k, t in p.items()}
    nh = U.shape[1]
    lengths = [x.shape[0] for x in x_seqs]
    out = np.empty((sum(lengths), nh))
    steps = []  # per step: (x, h_prev, r, z, n, U_n h, 1 - z)
    for xs in x_seqs:
        h = np.zeros((nh, 1))
        for t in range(xs.shape[0]):
            x = xs[t][:, None]
            h_new, gates = gru_cell_recomputed(vals, x, h)
            out[len(steps)] = h_new[:, 0]
            steps.append((x, h, *gates))
            h = h_new

    def backward(g):
        UT = vals["U"].T
        dW = dU = db = None
        i = len(steps)
        for T in reversed(lengths):
            dh = None
            for _ in range(T):
                i -= 1
                x, h, r, z, n, ghn, omz = steps[i]
                drow = g[i][:, None]
                dh = drow if dh is None else (dh * z_next + UT @ dgh_next) + drow
                dz = dh * h - dh * n
                da_n = (dh * omz) * (1.0 - n * n)
                da_r = da_n * ghn * r * (1.0 - r)
                da_z = dz * z * omz
                dgx = np.concatenate([da_r, da_z, da_n])
                dgh = np.concatenate([da_r, da_z, da_n * r])
                if dW is None:
                    dW, dU, db = dgx * x.T, dgh * h.T, dgx
                else:
                    dW += dgx * x.T
                    dU += dgh * h.T
                    db += dgx
                z_next, dgh_next = z, dgh
        return dW, dU, db

    return tape.record("gru_seq", out, (W, U, b), backward)
