"""References for the fused ``gru_seq`` op, and the forward it records.

Every cell update of the per-step taped GRU records its own autograd ops, so
``Tape.backward`` derives the gradients op by op.  ``trunk_replay_per_step``
is the batch replay built from it, as the actor update recorded it before
the fused op.  ``trunk_replay_recomputed`` is the fused op as it was before
it recorded gates computed elsewhere: it runs its own forward.
``trunk_replay`` feeds ``trunk_replay_taped`` a forward computed here.

The per-op references run on columns and are fed the transposed
parameters (``columns``): ``W.T`` (3H, in), ``U.T`` (3H, H) and ``b.T``
(3H, 1), with x (in, 1) and h (H, 1).  Their products ``W.T @ x`` and
``U.T @ h`` are ``colmul`` ops, the nets' row product of the column's row
against the stored weight, transposed.  So the row cell's states and gates
are these references' transposed, bit for bit, and their gradients are
the op's transposed.

The op's backward forms its parameter gradients as GEMMs over all steps,
so they match these per-step references to rounding: ``rel_err`` measures
that, and ``GRAD_RTOL`` bounds it.
"""

import numpy as np

from cade.autograd import stable_sigmoid
from cade.nets import gru_step_np, row_product, trunk_replay_taped
from taped_ops import Tape, Tensor, concat, rsub, sigmoid, tanh

# bound on rel_err between the op's GEMM gradients and a per-step
# reference's; measured up to about 3 ulp (6.2e-16) on the tests' cases
GRAD_RTOL = 1e-14


def rel_err(actual: np.ndarray, desired: np.ndarray) -> float:
    """Largest absolute difference over the largest magnitude of
    ``desired``; 0.0 when both are all zeros."""
    assert actual.shape == desired.shape
    err = float(np.abs(actual - desired).max())
    return err / float(np.abs(desired).max()) if err else 0.0


def cell(p: dict, x: np.ndarray, h: np.ndarray):
    """``gru_step_np`` on input rows ``x``, with the input side ``x W + b``
    formed as ``CadeNets.trunk_step_np`` forms it."""
    return gru_step_np(p, row_product(x, p["W"]) + p["b"], h)


def columns(p: dict) -> dict:
    """The column references' parameters: each array of ``p`` transposed."""
    return {k: v.T for k, v in p.items()}


def colmul(w: Tensor, x: Tensor) -> Tensor:
    """``w @ x`` for a transposed weight ``w`` (out, in) and a column ``x``
    (in, 1), recorded as ``matmul``: its forward is ``row_product`` of
    ``x``'s row and the stored weight ``w.T``, transposed; its backward is
    ``matmul``'s."""
    wv, xv = w.values, x.values
    need_w, need_x = w.requires_grad, x.requires_grad
    return w.tape.record("matmul", row_product(xv.T, wv.T).T, (w, x), lambda g: (
        g @ xv.T if need_w else None, wv.T @ g if need_x else None))


def gru_step_taped(p: dict, x: Tensor, h: Tensor):
    """Taped twin of ``cade.nets.gru_step_np`` on columns, on the
    ``columns`` of the trunk's parameters: h' (H, 1) and the gates (r, z,
    n, U_n h), each (H, 1); same ops in the same order."""
    nh = h.shape[0]
    gx = colmul(p["W"], x) + p["b"]
    gh = colmul(p["U"], h)
    r = sigmoid(gx[:nh] + gh[:nh])
    z = sigmoid(gx[nh:2 * nh] + gh[nh:2 * nh])
    ghn = gh[2 * nh:]
    n = tanh(gx[2 * nh:] + r * ghn)
    return rsub(1.0, z) * n + z * h, (r, z, n, ghn)


def stack_rows(tensors: list) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor, one per row."""
    return concat([t.reshape(1, t.values.shape[0]) for t in tensors], axis=0)


def trunk_replay_per_step(p: dict, tape: Tape, x_seqs: list) -> Tensor:
    """The actor update's replay before the fused op, on the ``columns`` of
    the trunk's parameters: each (T_i, in) episode unrolled step by step
    from a zero state, the rows concatenated per episode and then across
    episodes; returns (sum T_i, hidden)."""
    nh = p["U"].shape[1]
    episodes = []
    for x_rows in x_seqs:
        h = tape.const(np.zeros((nh, 1)))
        rows = []
        for t in range(x_rows.shape[0]):
            h, _ = gru_step_taped(p, tape.const(x_rows[t][:, None]), h)
            rows.append(h.reshape(1, nh))
        episodes.append(concat(rows, axis=0))
    return concat(episodes)


def gru_forward(p: dict, x_seqs: list):
    """Hidden rows (sum T_i, hidden) and gate rows (sum T_i, 4, hidden) of a
    value-level replay of ``x_seqs`` under parameter arrays ``p``, each
    episode from the zero state."""
    nh = p["U"].shape[0]
    hs, gates = [], []
    for xs in x_seqs:
        h = np.zeros((1, nh))
        for t in range(xs.shape[0]):
            h, g = cell(p, xs[t:t + 1], h)
            hs.append(h)
            gates.append(np.concatenate(g))
    return np.array(hs).reshape(-1, nh), np.array(gates).reshape(-1, 4, nh)


def trunk_replay(p: dict, tape: Tape, x_seqs: list) -> Tensor:
    """``trunk_replay_taped`` over the forward of ``p``'s current values."""
    forward = gru_forward({k: t.values for k, t in p.items()}, x_seqs)
    return trunk_replay_taped(p, tape, x_seqs, *forward)


def gru_cell_recomputed(p: dict, x: np.ndarray, h: np.ndarray):
    """The cell on columns, on the ``columns`` of the trunk's parameters,
    with one sigmoid per gate: h' and (r, z, n, U_n h, 1 - z)."""
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
    """The ``gru_seq`` op that runs its own forward on columns, and whose
    backward allocates each step's outer products; it takes and returns
    the stored layout."""
    W, U, b = p["W"], p["U"], p["b"]
    vals = columns({k: t.values for k, t in p.items()})
    nh = vals["U"].shape[1]
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
        return dW.T, dU.T, db.T

    return tape.record("gru_seq", out, (W, U, b), backward)
