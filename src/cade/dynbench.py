"""Dynamics-model study: warp predictor vs dense MLP vs copy-forward.

Collects random-walk transition datasets, trains each model kind on
one-step prediction, and scores recursive rollouts with patch-level IoU and
L1 curves, at the sizes ``cade.experiments.dynamics_study`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .homography import (HomographyError, jaccard_loss, sdm_predict,
                         solve_homography, warp)
from .nets import Adam, minimize, mlp_np, mlp_params, mlp_taped, onehot_rows

__all__ = [
    "DatasetError",
    "TransitionDataset",
    "DynModel",
    "MODEL_KINDS",
    "collect_dataset",
    "train_dyn",
    "rollout_eval",
    "known_cell_iou",
]

MODEL_KINDS = ("sdm", "sdm-mlp", "baseline")
BATCH = 64  # train rows a fit step


class DatasetError(RuntimeError):
    pass


@dataclass
class TransitionDataset:
    """Ordered transitions with an episode-contiguous train/test split."""

    obs: np.ndarray          # (N, r, c)
    actions: np.ndarray      # (N, n_branches) int
    next_obs: np.ndarray     # (N, r, c)
    episode_ids: np.ndarray  # (N,)
    n_train: int
    branches: tuple[int, ...]

    def __len__(self):
        return self.obs.shape[0]

    @property
    def train(self):
        return slice(0, self.n_train)

    @property
    def test(self):
        return slice(self.n_train, len(self))

    def check_chain(self) -> None:
        """Adjacent same-episode rows must hand the observation forward."""
        same = self.episode_ids[:-1] == self.episode_ids[1:]
        if not np.array_equal(self.next_obs[:-1][same], self.obs[1:][same]):
            raise DatasetError("broken transition chain inside an episode")

    def check_coverage(self) -> None:
        """Every (branch, value) pair must occur in the training rows."""
        rows = self.actions[self.train]
        missing = [(b, v) for b, n in enumerate(self.branches)
                   for v in range(n) if not np.any(rows[:, b] == v)]
        if missing:
            raise DatasetError(f"actions never triggered in train split: {missing}")


def collect_dataset(env, rng: np.random.Generator, n_train: int,
                    n_test: int) -> TransitionDataset:
    """Uniform-random rollouts until the split sizes are filled.

    The action stream comes from ``rng``; episode randomness comes from the
    env's own seeded generator, so a fixed (env seed, rng seed) pair yields
    an identical dataset.
    """
    branches = tuple(env.branches)
    need = n_train + n_test
    obs_rows, act_rows, next_rows, ep_ids = [], [], [], []
    ep = 0
    while len(obs_rows) < need:
        obs = env.reset()
        while True:
            action = rng.integers(branches if len(branches) > 1 else branches[0])
            res = env.step(action)
            obs_rows.append(obs)
            act_rows.append(np.atleast_1d(action))
            next_rows.append(res.obs)
            ep_ids.append(ep)
            obs = res.obs
            if res.terminal or len(obs_rows) >= need:
                break
        ep += 1
    ds = TransitionDataset(
        obs=np.asarray(obs_rows, dtype=np.float64),
        actions=np.asarray(act_rows, dtype=np.int64),
        next_obs=np.asarray(next_rows, dtype=np.float64),
        episode_ids=np.asarray(ep_ids, dtype=np.int64),
        n_train=n_train,
        branches=branches,
    )
    ds.check_chain()
    ds.check_coverage()
    return ds


@dataclass
class DynModel:
    """A trained one-step predictor; ``predict`` maps grids forward."""

    kind: str
    params: dict | None
    branches: tuple[int, ...]
    loss_curve: list[float] = field(default_factory=list)

    def predict(self, grids: np.ndarray, actions: np.ndarray,
                return_mask: bool = False):
        """Next grids (B, r, c) from grids (B, r, c) and actions
        (B, n_branches); with ``return_mask`` also the known-cell mask
        (warp model only)."""
        grids = np.asarray(grids, dtype=np.float64)
        if grids.ndim != 3:
            raise ValueError(f"grids must be a batch (B, r, c), got {grids.shape}")
        if return_mask and self.kind != "sdm":
            raise ValueError("known-cell masks exist only for the warp model")
        oh = onehot_rows(self.branches, actions)
        if self.kind == "baseline":
            return grids.copy()
        if self.kind == "sdm":
            return self._warp(grids, oh, return_mask)
        if self.kind == "sdm-mlp":
            x = np.concatenate([grids.reshape(grids.shape[0], -1), oh], axis=1)
            return mlp_np(self.params, x, out_act="sigmoid").reshape(grids.shape)
        raise ValueError(f"unknown model kind {self.kind!r}")

    def _warp(self, grids, onehots, return_mask):
        """``sdm_predict`` with this model; a degenerate SDM raises with
        ``snapshot`` set on the exception to the model's parameters."""
        try:
            return sdm_predict(lambda x: mlp_np(self.params, x), grids, onehots,
                               return_mask=return_mask)
        except HomographyError as exc:
            exc.snapshot = dict(self.params)
            raise


def _bce_from_logits(z: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of logits ``z`` against the array
    ``targets`` of the same shape, as one ``bce`` tape op.

    The forward is ``softplus(z) - targets * z`` with the overflow-free
    ``softplus(z) = relu(z) + log(1 + exp(-(relu(z) + relu(-z))))``.  The
    backward sums ``z``'s four contributions in the per-op tape's order:
    the ``-targets`` term, the softplus ``relu``, then the ``relu(-z)`` and
    the ``relu(z)`` branches of the magnitude.
    """
    zv, t = z.values, targets
    pos = zv > 0
    nz = -zv
    neg = nz > 0
    relu = np.where(pos, zv, 0.0)
    e = np.exp(-(relu + np.where(neg, nz, 0.0)))
    onep = e + 1.0
    loss = np.add.reduce((relu + np.log(onep)) - t * zv, axis=None) / zv.size

    def backward(g):
        gd = g / zv.size
        gmag = -(gd / onep * e)
        gz = -gd * t
        gz += gd * pos
        gz += -(gmag * neg)
        gz += gmag * pos
        return (gz,)

    return z.tape.record("bce", loss, (z,), backward)


def train_dyn(kind: str, dataset: TransitionDataset, epochs: int,
              seed: int = 0) -> DynModel:
    """Fit one model kind on the train split; records per-epoch mean loss.

    Each minibatch is one ``minimize`` step on a short tape: the ``sdm``
    loss records the offsets ``mlp`` op, the solve, the warp and the
    ``jaccard`` op; the dense ``sdm-mlp`` loss the ``mlp`` op and the
    ``bce`` op; grids and targets enter as arrays, so no op differentiates
    data.  Every op's backward repeats the per-op tape's expressions in its
    order, so the fit's bytes are those of that tape.
    A degenerate SDM raises ``HomographyError`` with ``snapshot`` set on
    the exception: the parameters as the fit left them, plus the failing
    batch's (B, 8) corner ``offsets``.  A minibatch with a non-finite loss
    or gradient raises ``ValueError`` before it steps, with ``snapshot``
    set to the parameters.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    r, c = dataset.obs.shape[1:]
    obs_dim = r * c
    act_dim = int(sum(dataset.branches))
    if kind == "baseline":
        return DynModel(kind, None, dataset.branches)

    rng = np.random.default_rng(seed)
    out_dim = 8 if kind == "sdm" else obs_dim  # corner offsets, or the grid
    params = mlp_params(rng, (obs_dim + act_dim, 64, 64, out_dim))
    opt = Adam(params)

    idx_all = np.arange(dataset.n_train)
    grids = dataset.obs[dataset.train]
    targets = dataset.next_obs[dataset.train]
    inputs = np.concatenate([grids.reshape(len(grids), -1), onehot_rows(
        dataset.branches, dataset.actions[dataset.train])], axis=1)

    def loss_of(rows):
        """The taped loss of the train rows ``rows``, for ``minimize``."""

        def sdm(tape, p):
            offsets = mlp_taped(p, tape.const(inputs[rows]))
            try:
                pred = warp(grids[rows], solve_homography(offsets, r, c))
            except HomographyError as exc:
                exc.snapshot = {**params, "offsets": offsets.values}
                raise
            return jaccard_loss(pred, targets[rows])

        def dense(tape, p):
            return _bce_from_logits(mlp_taped(p, tape.const(inputs[rows])),
                                    targets[rows].reshape(len(rows), -1))

        return sdm if kind == "sdm" else dense

    curve = []
    for _ in range(epochs):
        order = rng.permutation(idx_all)
        try:
            losses = [minimize(loss_of(order[start:start + BATCH]), opt)
                      for start in range(0, len(order), BATCH)]
        except ValueError as exc:  # a non-finite loss or gradient: no step
            exc.snapshot = dict(params)
            raise
        curve.append(float(np.mean(losses)))
    return DynModel(kind, params, dataset.branches, curve)


def _iou(pred_binary: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-sample IoU of binary grids; empty union counts as agreement."""
    p = pred_binary.reshape(pred_binary.shape[0], -1)
    t = truth.reshape(p.shape) > 0.5
    inter = (p & t).sum(axis=1)
    union = (p | t).sum(axis=1)
    return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


def rollout_eval(model: DynModel, dataset: TransitionDataset, horizon: int):
    """Recursive prediction curves over sliding test windows.

    Every test episode contributes one window per admissible start index
    (shifted one step at a time).  Raw predictions feed back into the
    model; IoU binarizes at 0.5, L1 stays on raw values.  Returns rows
    (step, iou_mean, iou_std, l1_mean, l1_std) and the skipped-episode
    count.
    """
    test = dataset.test
    ids = dataset.episode_ids[test]
    obs = dataset.obs[test]
    nxt = dataset.next_obs[test]
    acts = dataset.actions[test]
    iou_per_step = [[] for _ in range(horizon)]
    l1_per_step = [[] for _ in range(horizon)]
    skipped = 0
    for ep in np.unique(ids):
        rows = np.nonzero(ids == ep)[0]
        seq = np.concatenate([obs[rows], nxt[rows][-1:]], axis=0)
        L = len(rows)
        if L < horizon:
            skipped += 1
            continue
        starts = np.arange(L - horizon + 1)
        preds = seq[starts].copy()
        for h in range(1, horizon + 1):
            preds = model.predict(preds, acts[rows[starts + h - 1]])
            truth = seq[starts + h]
            iou_per_step[h - 1].extend(_iou(preds > 0.5, truth))
            l1_per_step[h - 1].extend(
                np.abs(preds - truth).mean(axis=(1, 2)))
    rows_out = []
    for h in range(horizon):
        iou = np.asarray(iou_per_step[h])
        l1 = np.asarray(l1_per_step[h])
        if iou.size == 0:
            raise DatasetError("no test window long enough for the horizon")
        rows_out.append({
            "step": h + 1,
            "iou_mean": float(iou.mean()), "iou_std": float(iou.std()),
            "l1_mean": float(l1.mean()), "l1_std": float(l1.std()),
        })
    return rows_out, skipped


def known_cell_iou(model: DynModel, dataset: TransitionDataset) -> float:
    """Mean 1-step IoU over cells the warp marks as known, on the test split."""
    test = dataset.test
    pred, mask = model.predict(dataset.obs[test], dataset.actions[test],
                               return_mask=True)
    return float(_iou((pred > 0.5) & mask,
                      (dataset.next_obs[test] > 0.5) & mask).mean())
