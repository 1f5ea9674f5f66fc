"""Trainable modules: recurrent trunk, actor and estimator heads, dynamics
offsets net, cost net, and the Adam optimizer.

Five parameter groups live in one :class:`CadeNets` container under the
stable names ``trunk``, ``actor``, ``reward``, ``cost``, ``sdm`` (also the
checkpoint key prefixes).  Every network has two forward paths sharing the
same parameter arrays:

  * a value-level numpy path for environment rollouts (no tape, fast);
  * a taped path for training, built from autograd ops.

Per-step recurrent state is a column vector ``(hidden, 1)``; batched head
activations are row-major ``(T, features)``.  The GRU trunk has no per-step
taped twin: training replays whole episodes through one ``gru_seq`` tape op
(:func:`trunk_replay_taped`).  The op runs no forward of its own.  It
records the hidden states and gates that :func:`gru_step_np` already
computed under the parameters it binds, either in the rollout
(:func:`cade_forward` keeps them in its :class:`ValueBundle`) or in the
trainer's value-level replay, so rollout and replay agree bitwise.  Its
backward is hand-written BPTT that repeats the floating-point order a
per-step tape would take, so gradients are those of the per-step taped cell
(kept in the tests as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autograd import Tape, Tensor, concat, stable_sigmoid

__all__ = [
    "NetConfig",
    "CadeNets",
    "ValueBundle",
    "Adam",
    "cade_forward",
    "sample_action",
    "action_onehot",
    "onehot_rows",
    "semi_orthogonal",
    "mlp_params",
    "mlp_np",
    "mlp_taped",
    "gru_params",
    "gru_step_np",
    "log_softmax_np",
    "log_softmax_taped",
    "taken_log_prob",
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
    """Fused gate matrices, gate order (reset, update, candidate)."""
    return {
        "W": np.vstack([semi_orthogonal(rng, hidden_dim, in_dim) for _ in range(3)]),
        "U": np.vstack([semi_orthogonal(rng, hidden_dim, hidden_dim) for _ in range(3)]),
        "b": np.zeros((3 * hidden_dim, 1)),
    }


# ---------------------------------------------------------------------------
# forward passes

def mlp_np(p: dict[str, np.ndarray], x: np.ndarray, out_act: str | None = None) -> np.ndarray:
    """Rows (B, in) -> (B, out); tanh hidden layers, optional sigmoid output."""
    n = len(p) // 2
    for i in range(n):
        x = x @ p[f"w{i}"] + p[f"b{i}"]
        if i < n - 1:
            x = np.tanh(x)
        elif out_act == "sigmoid":
            x = stable_sigmoid(x)
    return x


def mlp_taped(p: dict[str, Tensor], x: Tensor, out_act: str | None = None) -> Tensor:
    n = len(p) // 2
    for i in range(n):
        x = x @ p[f"w{i}"] + p[f"b{i}"]
        if i < n - 1:
            x = x.tanh()
        elif out_act == "sigmoid":
            x = x.sigmoid()
    return x


def gru_step_np(p: dict[str, np.ndarray], x: np.ndarray, h: np.ndarray):
    """One cell update on columns: x (in, 1), h (H, 1) -> h' (H, 1) and its gates.

    r = sig(W_r x + b_r + U_r h), z likewise, n = tanh(W_n x + b_n + r*(U_n h)),
    h' = (1 - z)*n + z*h, with ``r`` and ``z`` from one elementwise sigmoid
    over both.  The tanh candidate keeps h' inside (-1, 1) except when it
    saturates to exactly +-1.0 in float64.  The gates ``(r, z, n, U_n h)``,
    each a column like ``h``, are what :func:`trunk_replay_taped` records.
    """
    nh = h.shape[0]
    gx = p["W"] @ x + p["b"]
    gh = p["U"] @ h
    rz = stable_sigmoid(gx[:2 * nh] + gh[:2 * nh])
    r, z = rz[:nh], rz[nh:]
    ghn = gh[2 * nh:]
    n = np.tanh(gx[2 * nh:] + r * ghn)
    return (1.0 - z) * n + z * h, (r, z, n, ghn)


def trunk_replay_taped(p: dict[str, Tensor], tape: Tape, x_seqs, hs: np.ndarray,
                       gates) -> Tensor:
    """Record the GRU over a batch of episodes as one ``gru_seq`` tape op.

    ``x_seqs`` holds one (T_i, in) input matrix per episode; every episode
    starts from the zero state.  ``hs`` (sum T_i, hidden) and ``gates`` (one
    ``(r, z, n, U_n h)`` of columns per step) are the forward that ``p``'s
    values compute on these inputs with :func:`gru_step_np`: the rollout's
    or a value-level replay's.  The op runs no forward; its output is
    ``hs``, in episode order.

    The backward is BPTT in the order a per-step tape walks it: episodes
    and steps last to first, ``dh_t = (dh_{t+1} z_{t+1} + U^T dgh_{t+1}) +
    drow_t``, and the parameter gradients summed one step at a time, latest
    step first.  A single GEMM over steps would sum in another order and
    round differently.
    """
    W, U, b = p["W"], p["U"], p["b"]
    lengths = [x.shape[0] for x in x_seqs]

    def backward(g):
        UT = U.values.T
        h0 = np.zeros((U.shape[1], 1))
        dW = dU = db = None
        i = len(gates)
        for xs, T in zip(reversed(x_seqs), reversed(lengths)):
            dh = None
            for t in reversed(range(T)):
                i -= 1
                x = xs[t][:, None]
                h = hs[i - 1][:, None] if t else h0
                r, z, n, ghn = gates[i]
                omz = 1.0 - z
                drow = g[i][:, None]
                # dh reaches step i from step i + 1 through z * h and U @ h
                dh = drow if dh is None else (dh * z_next + UT @ dgh_next) + drow
                dz = dh * h - dh * n
                da_n = (dh * omz) * (1.0 - n * n)
                da_r = da_n * ghn * r * (1.0 - r)
                da_z = dz * z * omz
                dgx = np.concatenate([da_r, da_z, da_n])
                dgh = np.concatenate([da_r, da_z, da_n * r])
                # outer products as broadcasts: the same exact products as
                # the tape's K=1 matmuls, formed faster, each into one
                # scratch array and summed in place
                if dW is None:
                    dW, dU, db = dgx * x.T, dgh * h.T, dgx
                    tW, tU = np.empty_like(dW), np.empty_like(dU)
                else:
                    dW += np.multiply(dgx, x.T, out=tW)
                    dU += np.multiply(dgh, h.T, out=tU)
                    db += dgx
                z_next, dgh_next = z, dgh
        return dW, dU, db

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
    """(1, sum(branches)) one-hot row of one action; ``None`` (pre-first-step)
    encodes zeros."""
    if action is None:
        return np.zeros((1, int(sum(branches))))
    return onehot_rows(branches, np.reshape(action, (1, -1)))


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sample_action(logits: np.ndarray, branches: tuple[int, ...],
                  rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Per-branch categorical sample; log-prob sums over branches."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if logits.size != sum(branches):
        raise ValueError(f"logits size {logits.size} != sum(branches) {sum(branches)}")
    action = np.empty(len(branches), dtype=np.int64)
    log_prob = 0.0
    off = 0
    for i, n in enumerate(branches):
        logp = log_softmax_np(logits[off:off + n])
        cdf = np.cumsum(np.exp(logp))
        a = min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)
        action[i] = a
        log_prob += float(logp[a])
        off += n
    return action, log_prob


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
    hidden: np.ndarray       # (hidden_dim, 1)
    gates: tuple             # (r, z, n, U_n h) of the trunk step, each like hidden


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
        return np.zeros((self.cfg.hidden_dim, 1))

    def flat_params(self, heads=HEADS) -> dict[str, np.ndarray]:
        return {f"{head}.{k}": v for head in heads for k, v in self.params[head].items()}

    def bind(self, tape: Tape, head: str) -> dict[str, Tensor]:
        """Leaf tensors for one head's parameters on ``tape``."""
        return {k: tape.leaf(v, requires_grad=True) for k, v in self.params[head].items()}

    def save(self, path: str) -> None:
        checkpoint.save_params(path, self.flat_params())

    def load(self, path: str) -> None:
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
        """Advanced hidden column and its gates; see :func:`gru_step_np`."""
        x = np.concatenate([obs_flat, prev_onehot], axis=1).T
        return gru_step_np(self.params["trunk"], x, hidden)

    def actor_logits_np(self, hidden: np.ndarray) -> np.ndarray:
        return mlp_np(self.params["actor"], hidden.T)[0]

    def reward_np(self, hidden: np.ndarray, action_row: np.ndarray) -> float:
        x = np.concatenate([hidden.T, action_row], axis=1)
        return float(mlp_np(self.params["reward"], x)[0, 0])

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
    first step of an episode.  The reward estimate is left to the caller,
    who prices the action actually executed.
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


class Adam:
    """Adam with bias correction and optional global-norm gradient clipping.

    Updates the parameter arrays in place, so a :class:`CadeNets` whose
    arrays were passed here sees every step.  :meth:`minimize` is the
    taped step of every head but the trunk and actor, which step together
    in the trainer's actor update.  Clipping rescales the whole
    gradient dict before the moment updates.  Each parameter's update runs
    in place through two temporaries (a third holds a clipped gradient),
    with the expressions ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2)
    g g`` and ``p -= lr (m / c1) / (sqrt(v / c2) + eps)`` evaluated in
    their written order, so every element gets the bits of those
    expressions and every array keeps its layout.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 clip_norm: float | None = 10.0):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.clip_norm = clip_norm
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def minimize(self, loss_of) -> float:
        """One taped step; returns the loss value.

        Binds ``self.params`` as requires-grad leaves on a fresh tape and
        takes the scalar ``loss_of(tape, leaves)``.  A finite loss is
        backpropagated and stepped; a non-finite one leaves the parameters
        and moments untouched, for the caller to abort on.
        """
        tape = Tape()
        leaves = {k: tape.leaf(v, requires_grad=True) for k, v in self.params.items()}
        loss = loss_of(tape, leaves)
        value = float(loss.values)
        if math.isfinite(value):
            tape.backward(loss)
            self.step({k: t.grad for k, t in leaves.items()})
        return value

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if set(grads) != set(self.params):
            raise ValueError("gradient keys do not match optimizer parameters")
        scale = None
        if self.clip_norm is not None:
            norm = global_norm(grads)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            if scale is not None:
                g = g * scale
            a = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += a
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v *= self.beta2
            v += a
            d = np.divide(v, c2)
            np.sqrt(d, out=d)
            d += self.eps
            np.divide(m, c1, out=a)
            a *= self.lr
            a /= d
            self.params[k] -= a
