"""Trainable modules: recurrent trunk, actor and estimator heads, dynamics
offsets net, cost net, and the Adam optimizer (fixed betas, epsilon and clip
norm) that :func:`minimize` steps every head with.

Five parameter groups live in one :class:`CadeNets` container under the
stable names ``trunk``, ``actor``, ``reward``, ``cost``, ``sdm`` (also the
checkpoint key prefixes).  Every weight is C-ordered ``(in, out)``, every
bias a ``(1, out)`` row and every activation a row ``(B, features)``; a
rollout step is a batch of one.  Every network has two forward paths on the
same arrays, and every product on either is a :func:`row_product`, whose
rows have the bits of the same rows computed alone:

  * a value-level numpy path for environment rollouts (no tape, fast);
  * a taped path for training, one custom tape op per network: ``mlp``
    (:func:`mlp_taped`) for the heads and ``gru_seq`` for the trunk.
    Each op records a forward the value path ran: ``mlp`` the layer
    outputs of :func:`mlp_np`'s loop, ``gru_seq`` the cell's states and
    gates from the rollout or a batch replay, which agree row for row.
    ``mlp``'s backward repeats the expressions a per-op tape evaluates,
    in its order, so its gradients equal that tape's bit for bit (the
    tests keep it as a reference).  ``gru_seq``'s backward computes each
    step's gate gradients as the per-step tape does, but sums the
    parameter gradients over all steps in one GEMM each, so they match
    to rounding.  The heads' regression loss is one ``mse`` op
    (:func:`mse_loss`) on the same terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autograd import Tape, Tensor, stable_sigmoid

__all__ = [
    "NetConfig",
    "CadeNets",
    "ValueBundle",
    "Adam",
    "bind",
    "minimize",
    "cade_forward",
    "sample_action",
    "action_onehot",
    "onehot_rows",
    "semi_orthogonal",
    "mlp_params",
    "mlp_np",
    "mlp_taped",
    "mse_loss",
    "gru_params",
    "row_product",
    "gru_step_np",
    "log_softmax_np",
    "trunk_replay_taped",
    "global_norm",
]


# ---------------------------------------------------------------------------
# initialization

def semi_orthogonal(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """(out, in) matrix with orthonormal rows or columns, entries ~ 1/sqrt(in).

    QR of a Gaussian orthonormalizes the smaller dimension; the tall case is
    rescaled so entry magnitude matches the 1/sqrt(fan-in) convention.
    """
    a = rng.standard_normal((max(out_dim, in_dim), min(out_dim, in_dim)))
    q, r = np.linalg.qr(a)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0  # QR sign ambiguity
    q = q * s
    if out_dim < in_dim:
        q = q.T
    return q * np.sqrt(max(out_dim, in_dim) / in_dim)


def mlp_params(rng: np.random.Generator, sizes: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Linear stack in row convention: weights (in, out), zero biases (1, out)."""
    p: dict[str, np.ndarray] = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        p[f"w{i}"] = np.ascontiguousarray(semi_orthogonal(rng, n_out, n_in).T)
        p[f"b{i}"] = np.zeros((1, n_out))
    return p


def gru_params(rng: np.random.Generator, in_dim: int, hidden_dim: int) -> dict[str, np.ndarray]:
    """Fused gates ``W`` (in, 3H), ``U`` (H, 3H) and zero ``b`` (1, 3H),
    gate order (reset, update, candidate) along the columns."""
    W, U = (np.ascontiguousarray(np.vstack([semi_orthogonal(rng, hidden_dim, n)
                                            for _ in range(3)]).T)
            for n in (in_dim, hidden_dim))
    return {"W": W, "U": U, "b": np.zeros((1, 3 * hidden_dim))}


# ---------------------------------------------------------------------------
# forward passes

def row_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for rows ``x`` (M, in) and a C-ordered ``w`` (in, out), each
    row with the bits of the same row computed alone: one row runs as a
    two-row GEMM (numpy would send it to GEMV), and a one-column ``w`` as a
    row reduction.  That other GEMM rows do not depend on M is the running
    BLAS's contract, tested for every weight shape of :class:`CadeNets`."""
    if w.shape[1] == 1:
        return np.add.reduce(x * w[:, 0], axis=1, keepdims=True)
    if x.shape[0] == 1:
        return (x.repeat(2, axis=0) @ w)[:1]
    return x @ w


def _mlp_layers(p: dict, x: np.ndarray, out_act: str | None) -> list:
    """Each layer's output on rows ``x``, first to last; tanh hidden layers,
    optional sigmoid output."""
    n = len(p) // 2
    outs = []
    for i in range(n):
        x = row_product(x, p[f"w{i}"]) + p[f"b{i}"]
        if i < n - 1:
            x = np.tanh(x)
        elif out_act == "sigmoid":
            x = stable_sigmoid(x)
        outs.append(x)
    return outs


def mlp_np(p: dict[str, np.ndarray], x: np.ndarray, out_act: str | None = None) -> np.ndarray:
    """Rows (B, in) -> (B, out); tanh hidden layers, optional sigmoid output."""
    return _mlp_layers(p, x, out_act)[-1]


def mlp_taped(p: dict[str, Tensor], x: Tensor, out_act: str | None = None) -> Tensor:
    """:func:`mlp_np` on the tape as one ``mlp`` op.

    The op records the layer outputs of :func:`mlp_np`'s own loop, so its
    forward is the value path's by construction.  The backward runs the
    layers last to first as a per-op tape would: the activation's
    gradient, the bias gradient ``g``'s column sums as a (1, out) row,
    ``x.T @ g`` for the weight and ``g @ w.T`` for the layer input, which
    layer 0 skips when ``x`` takes no gradient.
    """
    n = len(p) // 2
    ws = [p[f"w{i}"] for i in range(n)]
    bs = [p[f"b{i}"] for i in range(n)]
    # each layer's input, then the output
    xs = [x.values, *_mlp_layers({k: t.values for k, t in p.items()},
                                 x.values, out_act)]

    def backward(g):
        grads = [None] * (2 * n)
        for i in reversed(range(n)):
            out = xs[i + 1]
            if i < n - 1:
                g = g * (1.0 - out * out)
            elif out_act == "sigmoid":
                g = g * out * (1.0 - out)
            w, b = ws[i], bs[i]
            if b.requires_grad:
                grads[2 * i + 1] = g.sum(axis=0, keepdims=True)
            if w.requires_grad:
                grads[2 * i] = xs[i].T @ g
            g = g @ w.values.T if i or x.requires_grad else None
        return (g, *grads)

    inputs = (x,) + tuple(t for pair in zip(ws, bs) for t in pair)
    return x.tape.record("mlp", xs[-1], inputs, backward)


def mse_loss(out: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error of ``out`` against constant ``targets`` of the
    same shape, as one ``mse`` op.

    The backward repeats the per-op tape of ``d = out - targets; (d *
    d).mean()``: the mean's broadcast ``g / count``, then ``d``'s two
    product contributions summed in place.
    """
    d = out.values - targets

    def backward(g):
        gm = np.broadcast_to(g / d.size, d.shape)
        gd = gm * d
        gd += gm * d
        return (gd,)

    return out.tape.record("mse", (d * d).mean(), (out,), backward)


def gru_step_np(p: dict[str, np.ndarray], gx: np.ndarray, h: np.ndarray):
    """One cell update on rows: the input side ``gx = x W + b`` (B, 3H) of
    input rows x, which a replay forms for a whole batch at once, and h
    (B, H) -> h' (B, H) and the gates ``(r, z, n, h U_n)``, each (B, H),
    that :func:`trunk_replay_taped` records.

    r = sig(x W_r + b_r + h U_r), z likewise (one sigmoid over both),
    n = tanh(x W_n + b_n + r*(h U_n)), h' = (1 - z)*n + z*h.  The tanh
    keeps h' inside (-1, 1) except when it saturates to exactly +-1.0.
    """
    nh = h.shape[1]
    gh = row_product(h, p["U"])
    rz = stable_sigmoid(gx[:, :2 * nh] + gh[:, :2 * nh])
    r, z = rz[:, :nh], rz[:, nh:]
    ghn = gh[:, 2 * nh:]
    n = np.tanh(gx[:, 2 * nh:] + r * ghn)
    return (1.0 - z) * n + z * h, (r, z, n, ghn)


def trunk_replay_taped(p: dict[str, Tensor], tape: Tape, x_seqs, hs: np.ndarray,
                       gates: np.ndarray) -> Tensor:
    """Record the GRU over a batch of episodes as one ``gru_seq`` tape op.

    ``x_seqs`` holds one (T_i, in) input matrix per episode, each starting
    from the zero state.  ``hs`` (sum T_i, H) and ``gates`` (sum T_i, 4, H:
    each step's ``(r, z, n, h U_n)`` rows) are the forward that ``p``'s
    values compute on them with :func:`gru_step_np`, the rollout's or a
    value-level replay's.  The op runs no forward; its output is ``hs``.

    The backward is BPTT on rows, episodes and steps last to first: ``dh_t
    = (dh_{t+1} z_{t+1} + dgh_{t+1} U^T) + drow_t``, the gate gradients
    written as rows of ``Gx`` and ``Gh`` (sum T_i, 3H).  The parameter
    gradients are one GEMM each: ``dW = X^T Gx``, ``dU = H_prev^T Gh``
    (``hs`` shifted down a row, zeros at each episode start), and ``db``
    ``Gx``'s column sums (1, 3H).  The gate rows are a per-step tape's, bit
    for bit; the sums over steps run in the GEMM's order, so the gradients
    match its to rounding, not bitwise.
    """
    W, U, b = p["W"], p["U"], p["b"]
    lengths = [x.shape[0] for x in x_seqs]

    def backward(g):
        UT = U.values.T
        nh = UT.shape[1]
        h_prev = np.zeros_like(hs)
        h_prev[1:] = hs[:-1]
        h_prev[np.cumsum(lengths[:-1], dtype=np.int64)] = 0.0
        gx = np.empty((len(gates), 3 * nh))
        gh = np.empty_like(gx)
        i = len(gates)
        for T in reversed(lengths):
            dh = None
            for _ in range(T):
                i -= 1
                r, z, n, ghn = gates[i]
                omz = 1.0 - z
                # dh reaches step i from step i + 1 through z * h and h U
                dh = g[i] if dh is None else (dh * z_next + gh[i + 1] @ UT) + g[i]
                dz = dh * h_prev[i] - dh * n
                da_n = (dh * omz) * (1.0 - n * n)
                dgx, dgh = gx[i], gh[i]
                np.multiply(da_n * ghn * r, 1.0 - r, out=dgx[:nh])
                np.multiply(dz * z, omz, out=dgx[nh:2 * nh])
                dgx[2 * nh:] = da_n
                dgh[:2 * nh] = dgx[:2 * nh]
                np.multiply(da_n, r, out=dgh[2 * nh:])
                z_next = z
        return (np.concatenate(x_seqs).T @ gx, h_prev.T @ gh,
                gx.sum(axis=0, keepdims=True))

    return tape.record("gru_seq", hs, (W, U, b), backward)


# ---------------------------------------------------------------------------
# categorical actions

def onehot_rows(branches: tuple[int, ...], actions) -> np.ndarray:
    """(T, sum(branches)) one-hot rows of an action matrix (T, n_branches).

    Raises ``ValueError`` when the branch count is wrong or an action lies
    outside its branch's range.
    """
    actions = np.asarray(actions, dtype=np.int64)
    T, B = len(actions), len(branches)
    if actions.size != T * B:
        raise ValueError(f"actions of shape {actions.shape} do not have {B} branches")
    actions = actions.reshape(T, B)
    bad = (actions < 0) | (actions >= np.asarray(branches))
    if bad.any():
        t, i = np.argwhere(bad)[0]
        raise ValueError(f"branch {i} action {actions[t, i]} out of range({branches[i]})")
    out = np.zeros((T, int(sum(branches))))
    off = 0
    for i, n in enumerate(branches):
        out[np.arange(T), off + actions[:, i]] = 1.0
        off += n
    return out


def action_onehot(branches: tuple[int, ...], action) -> np.ndarray:
    """(1, sum(branches)) one-hot row of one action.  The one-row case of
    :func:`onehot_rows`, with its errors, written per branch."""
    out = np.zeros((1, int(sum(branches))))
    acts = np.asarray(action, dtype=np.int64).reshape(1, -1)
    if acts.shape[1] != len(branches):
        raise ValueError(f"actions of shape {acts.shape} do not have "
                         f"{len(branches)} branches")
    off = 0
    for i, (a, n) in enumerate(zip(acts[0].tolist(), branches)):
        if not 0 <= a < n:
            raise ValueError(f"branch {i} action {a} out of range({n})")
        out[0, off + a] = 1.0
        off += n
    return out


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    # the reductions of x.max(...) and .sum(...), called without their
    # Python wrappers
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def sample_action(logits: np.ndarray, branches: tuple[int, ...],
                  rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Per-branch categorical sample; log-prob sums over branches."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if not np.logical_and.reduce(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if logits.size != sum(branches):
        raise ValueError(f"logits size {logits.size} != sum(branches) {sum(branches)}")
    action = np.empty(len(branches), dtype=np.int64)
    log_prob = 0.0
    off = 0
    for i, n in enumerate(branches):
        logp = log_softmax_np(logits[off:off + n])
        cdf = np.add.accumulate(np.exp(logp))  # np.cumsum without its wrapper
        a = min(int(cdf.searchsorted(rng.random(), side="right")), n - 1)
        action[i] = a
        log_prob += float(logp[a])
        off += n
    return action, log_prob


# ---------------------------------------------------------------------------
# the five-module container

@dataclass(frozen=True)
class NetConfig:
    obs_dim: int
    branches: tuple[int, ...]
    hidden_dim: int
    head_width: int

    @property
    def act_dim(self) -> int:
        return int(sum(self.branches))


@dataclass
class ValueBundle:
    """One rollout step: logits, sampled action, advanced hidden."""

    logits: np.ndarray       # (act_dim,)
    action: np.ndarray       # (n_branches,) int64
    log_prob: float
    hidden: np.ndarray       # (1, hidden_dim) row
    gates: tuple             # (r, z, n, h U_n) of the trunk step, each like hidden


class CadeNets:
    """Parameters of the five trainable modules, plus both forward paths.

    Initialization order is fixed (trunk, actor, reward, cost, sdm from one
    generator), so equal seeds give equal parameters.
    """

    HEADS = ("trunk", "actor", "reward", "cost", "sdm")

    def __init__(self, cfg: NetConfig, rng: np.random.Generator):
        self.cfg = cfg
        a, w, h = cfg.act_dim, cfg.head_width, cfg.hidden_dim
        self.params: dict[str, dict[str, np.ndarray]] = {
            "trunk": gru_params(rng, cfg.obs_dim + a, h),
            "actor": mlp_params(rng, (h, w, w, a)),
            "reward": mlp_params(rng, (h + a, w, w, 1)),
            "cost": mlp_params(rng, (cfg.obs_dim, w, w, 1)),
            "sdm": mlp_params(rng, (cfg.obs_dim + a, w, w, 8)),
        }

    # ---- state and parameter plumbing ----

    def initial_hidden(self) -> np.ndarray:
        return np.zeros((1, self.cfg.hidden_dim))

    def flat_params(self, heads=HEADS) -> dict[str, np.ndarray]:
        return {f"{head}.{k}": v for head in heads for k, v in self.params[head].items()}

    def save(self, path: str) -> None:
        checkpoint.save_params(path, self.flat_params())

    def load(self, path: str) -> None:
        """Copy a checkpoint's arrays into the parameters in place; a key
        or shape mismatch (a gate-major trunk, ``b`` (3H, 1)) raises
        ``ValueError``."""
        loaded = checkpoint.load_params(path)
        current = self.flat_params()
        if set(loaded) != set(current):
            raise ValueError(f"checkpoint keys do not match networks: {path!r}")
        for name, arr in loaded.items():
            if arr.shape != current[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arr.shape} != {current[name].shape}")
            current[name][...] = arr

    # ---- value-level forward (rollout path) ----

    def trunk_step_np(self, obs_flat: np.ndarray, prev_onehot: np.ndarray,
                      hidden: np.ndarray):
        """Advanced hidden row and its gates; see :func:`gru_step_np`."""
        x = np.concatenate([obs_flat, prev_onehot], axis=1)
        p = self.params["trunk"]
        return gru_step_np(p, row_product(x, p["W"]) + p["b"], hidden)

    def actor_logits_np(self, hidden: np.ndarray) -> np.ndarray:
        return mlp_np(self.params["actor"], hidden)[0]

    def cost_np(self, obs_rows: np.ndarray) -> np.ndarray:
        """Predicted cost in [0, 1] per observation row; (B, obs) -> (B,)."""
        return mlp_np(self.params["cost"], obs_rows, out_act="sigmoid")[:, 0]

    def sdm_offsets_flat(self, x: np.ndarray) -> np.ndarray:
        """(B, obs+act) -> (B, 8) raw corner offsets; the warp-predictor form."""
        return mlp_np(self.params["sdm"], x)


def cade_forward(nets: CadeNets, obs: np.ndarray, prev_onehot: np.ndarray,
                 hidden: np.ndarray, rng: np.random.Generator) -> ValueBundle:
    """One agent step: advance the trunk and sample an action.

    ``obs`` is the patch grid (flattened internally); ``prev_onehot`` is the
    (1, act_dim) one-hot row of the last executed action, zeros at the
    first step of an episode.  The reward head is not read here: training
    reads it in its reward stage, on the executed actions.
    """
    obs_flat = np.asarray(obs, dtype=np.float64).reshape(1, -1)
    if obs_flat.shape[1] != nets.cfg.obs_dim:
        raise ValueError(f"observation dim {obs_flat.shape[1]} != {nets.cfg.obs_dim}")
    h, gates = nets.trunk_step_np(obs_flat, prev_onehot, hidden)
    logits = nets.actor_logits_np(h)
    action, log_prob = sample_action(logits, nets.cfg.branches, rng)
    return ValueBundle(logits, action, log_prob, h, gates)


# ---------------------------------------------------------------------------
# optimizer

def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


BETA1, BETA2, EPS, CLIP_NORM = 0.9, 0.999, 1e-8, 10.0


def bind(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Requires-grad leaves on ``tape`` for ``params``, in their order.

    Each leaf's values are the parameter array itself, not a copy (see
    :meth:`Tape.leaf`).  No op writes to its inputs, and :func:`minimize`
    steps the parameters in place only after the backward, when the tape is
    done with them.
    """
    return {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}


def minimize(loss_of, *opts: Adam) -> float:
    """One taped step of every optimizer in ``opts``; returns the loss value.

    Binds each optimizer's parameters on one fresh tape, in order, and takes
    the scalar ``loss_of(tape, *leaves)``.  A non-finite loss raises
    ``ValueError`` before any backward or step.  A loss that no parameter
    reaches (a constant) takes no backward and no step, so Adam's moments
    cannot move the weights on a zero gradient.  Otherwise the loss is
    backpropagated once and each optimizer steps, in order.
    """
    tape = Tape()
    leaves = [bind(tape, opt.params) for opt in opts]
    loss = loss_of(tape, *leaves)
    value = float(loss.values)
    if not math.isfinite(value):
        raise ValueError(f"non-finite loss ({value!r})")
    if not loss.requires_grad:
        return value
    tape.backward(loss)
    for opt, bound in zip(opts, leaves):
        opt.step({k: t.grad for k, t in bound.items()})
    return value


class Adam:
    """Adam with bias correction and global-norm gradient clipping, at the
    fixed ``BETA1``, ``BETA2``, ``EPS`` and ``CLIP_NORM``.

    Updates the parameter arrays in place, so a :class:`CadeNets` whose
    arrays were passed here sees every step.  The optimizer owns four flat
    buffers, the moments ``m`` and ``v``, the gathered gradient ``g`` and
    the update ``u``, each with a C-ordered view per parameter built once.
    A step gathers the gradients into ``g``, rescaled when their global
    norm (summed array by array) exceeds ``CLIP_NORM``, then runs ``m = b1
    m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and ``u = lr (m / c1) /
    (sqrt(v / c2) + eps)`` once over the flat arrays, each expression in
    its written order, and subtracts ``u``'s view from each parameter.
    The ops are elementwise, so every element, whatever its array's
    layout, gets the bits of the per-array recursion.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.001):
        self.params = params
        self.lr = lr
        offs = np.cumsum([0] + [p.size for p in params.values()]).tolist()
        self._m, self._v, self._g, self._u = (np.zeros(offs[-1]) for _ in range(4))
        self.m, self.v, self._gs, self._us = (
            {k: flat[a:b].reshape(p.shape)
             for (k, p), a, b in zip(params.items(), offs, offs[1:])}
            for flat in (self._m, self._v, self._g, self._u))
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if set(grads) != set(self.params):
            raise ValueError("gradient keys do not match optimizer parameters")
        norm = global_norm(grads)
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        g, u, m, v = self._g, self._u, self._m, self._v
        for k, view in self._gs.items():
            view[...] = grads[k]
        if norm > CLIP_NORM:
            g *= CLIP_NORM / norm
        np.multiply(g, 1.0 - BETA1, out=u)
        m *= BETA1
        m += u
        np.multiply(g, 1.0 - BETA2, out=u)
        u *= g
        v *= BETA2
        v += u
        d = np.divide(v, c2, out=g)  # g is spent
        np.sqrt(d, out=d)
        d += EPS
        np.divide(m, c1, out=u)
        u *= self.lr
        u /= d
        for k, view in self._us.items():
            self.params[k] -= view
