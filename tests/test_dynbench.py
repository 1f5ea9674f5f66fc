"""Dynamics-benchmark contracts: datasets, training, rollout scoring."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cade import dynbench, nets
from cade.dynbench import (
    DatasetError,
    DynModel,
    TransitionDataset,
    _bce_from_logits,
    collect_dataset,
    known_cell_iou,
    rollout_eval,
    train_dyn,
)
from cade.envs import CliffCircular
from cade.nets import mlp_np, mlp_params, mlp_taped
from cade.trainer import write_metrics_csv

import taped_mlp
from taped_ops import Tape
from fdcheck import fd_param_max_err, grad_check


def cliff_dataset(n_train=120, n_test=40, seed=0):
    env = CliffCircular("easy", timeout=200, seed=seed)
    return collect_dataset(env, np.random.default_rng(seed + 100),
                           n_train=n_train, n_test=n_test)


def test_collection_is_seed_deterministic_and_exactly_sized():
    a = cliff_dataset()
    b = cliff_dataset()
    assert len(a) == 160 and a.n_train == 120
    np.testing.assert_array_equal(a.obs, b.obs)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.next_obs, b.next_obs)
    np.testing.assert_array_equal(a.episode_ids, b.episode_ids)
    a.check_chain()
    a.check_coverage()


def test_one_episode_yields_one_transition_per_step():
    env = CliffCircular("easy", timeout=500, seed=3)
    ds = collect_dataset(env, np.random.default_rng(4), n_train=25, n_test=5)
    assert len(ds) == 30
    # rows within an episode chain the observation forward
    same = ds.episode_ids[:-1] == ds.episode_ids[1:]
    np.testing.assert_array_equal(ds.next_obs[:-1][same], ds.obs[1:][same])


def test_coverage_check_names_missing_actions():
    ds = cliff_dataset()
    ds.actions[:] = 2
    with pytest.raises(DatasetError, match=r"\(0, 0\)"):
        ds.check_coverage()


def test_chain_check_detects_tampering():
    ds = cliff_dataset()
    ds.next_obs[0] = 1.0 - ds.next_obs[0]
    if ds.episode_ids[0] == ds.episode_ids[1]:
        with pytest.raises(DatasetError):
            ds.check_chain()


def test_baseline_rollout_matches_direct_overlap_oracle():
    ds = cliff_dataset()
    model = train_dyn("baseline", ds)
    rows, _ = rollout_eval(model, ds, horizon=4)
    # recompute step-h IoU by hand: baseline carries obs_s forward unchanged
    ids = ds.episode_ids[ds.test]
    obs = ds.obs[ds.test]
    nxt = ds.next_obs[ds.test]
    for h in range(1, 5):
        vals = []
        for ep in np.unique(ids):
            rs = np.nonzero(ids == ep)[0]
            seq = np.concatenate([obs[rs], nxt[rs][-1:]], axis=0)
            if len(rs) < 4:
                continue
            for s in range(len(rs) - 4 + 1):
                p = seq[s] > 0.5
                t = seq[s + h] > 0.5
                union = (p | t).sum()
                vals.append(1.0 if union == 0 else (p & t).sum() / union)
        assert rows[h - 1]["iou_mean"] == pytest.approx(np.mean(vals), abs=1e-12)


def test_constant_world_scores_perfectly():
    obs = np.tile((np.arange(25).reshape(5, 5) % 3 == 0).astype(float), (30, 1, 1))
    ds = TransitionDataset(obs=obs, actions=np.zeros((30, 1), dtype=np.int64),
                           next_obs=obs.copy(),
                           episode_ids=np.zeros(30, dtype=np.int64),
                           n_train=15, branches=(1,))
    rows, skipped = rollout_eval(train_dyn("baseline", ds), ds, horizon=5)
    assert skipped == 0
    for row in rows:
        assert row["iou_mean"] == 1.0 and row["iou_std"] == 0.0
        assert row["l1_mean"] == 0.0


def _chained_dataset(train_lengths, test_lengths, seed=0):
    """Synthetic episodes with exact lengths; actions cycle for coverage."""
    rng = np.random.default_rng(seed)
    obs_rows, next_rows, act_rows, ep_ids = [], [], [], []
    for ep, length in enumerate(train_lengths + test_lengths):
        states = (rng.random((length + 1, 5, 5)) > 0.6).astype(float)
        obs_rows.extend(states[:-1])
        next_rows.extend(states[1:])
        act_rows.extend([[t % 3]] for t in range(length))
        ep_ids.extend([ep] * length)
    ds = TransitionDataset(
        obs=np.asarray(obs_rows), actions=np.asarray(act_rows).reshape(-1, 1),
        next_obs=np.asarray(next_rows), episode_ids=np.asarray(ep_ids),
        n_train=sum(train_lengths), branches=(3,),
    )
    ds.check_chain()
    ds.check_coverage()
    return ds


def test_short_episodes_are_skipped_and_empty_eval_errors():
    ds = _chained_dataset(train_lengths=[6], test_lengths=[3, 12])
    model = train_dyn("baseline", ds)
    rows, skipped = rollout_eval(model, ds, horizon=5)
    assert skipped == 1
    assert [r["step"] for r in rows] == [1, 2, 3, 4, 5]
    with pytest.raises(DatasetError):
        rollout_eval(model, ds, horizon=13)


def test_bce_matches_reference_and_gradients():
    rng = np.random.default_rng(0)
    z = rng.normal(scale=3.0, size=(4, 6))
    t = (rng.random((4, 6)) > 0.5).astype(float)
    tape = Tape()
    loss = _bce_from_logits(tape.const(z), t)
    sig = 1.0 / (1.0 + np.exp(-z))
    ref = -(t * np.log(sig) + (1 - t) * np.log(1 - sig)).mean()
    assert loss.values == pytest.approx(ref, rel=1e-12)

    params = mlp_params(np.random.default_rng(1), (6, 8, 4))
    x = rng.normal(size=(5, 6))
    targets = (rng.random((5, 4)) > 0.5).astype(float)
    tape = Tape()
    leaves = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
    out = _bce_from_logits(mlp_taped(leaves, tape.const(x)), targets)
    tape.backward(out)
    analytic = {k: leaf.grad for k, leaf in leaves.items()}

    def loss_np(p):
        logits = mlp_np(p, x)
        s = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-12, 1 - 1e-12)
        return float(-(targets * np.log(s) + (1 - targets) * np.log(1 - s)).mean())

    assert fd_param_max_err(loss_np, params, analytic) < 1e-6


def bce_run(loss_fn, z, targets, scale):
    tape = Tape()
    leaf = tape.leaf(z, requires_grad=True)
    loss = loss_fn(leaf, targets) * scale
    tape.backward(loss)
    return np.asarray(loss.values), leaf.grad


def bce_logits(shape, seed):
    """Logits of both signs and wide range, with exact +0.0 and -0.0 entries,
    where neither relu mask holds, beside binary targets."""
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=4.0, size=shape)
    z.ravel()[::7] = 0.0
    z.ravel()[3::11] = -0.0
    z.ravel()[5::13] *= 60.0
    return z, (rng.random(shape) > 0.5).astype(float)


@pytest.mark.parametrize("scale", [1.0, -0.3])
@pytest.mark.parametrize("shape", [(1, 25), (64, 25)])
def test_bce_op_matches_per_op_reference_bitwise(shape, scale):
    z, t = bce_logits(shape, seed=shape[0])
    loss, grad = bce_run(_bce_from_logits, z, t, scale)
    ref_loss, ref_grad = bce_run(taped_mlp._bce_from_logits, z, t, scale)
    assert loss.tobytes() == ref_loss.tobytes()
    assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()


def test_bce_op_is_one_op_on_its_logits():
    # the targets are data, an array: the op records the logits alone
    tape = Tape()
    z = tape.leaf(np.zeros((2, 3)), requires_grad=True)
    loss = _bce_from_logits(z, np.ones((2, 3)))
    assert tape.ops() == [("bce", loss.node_id, (z.node_id,))]


def test_bce_op_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.normal(scale=3.0, size=(5, 7))
    t = (rng.random((5, 7)) > 0.5).astype(float)
    assert grad_check(lambda x: _bce_from_logits(x, t), z) < 1e-6


@pytest.mark.parametrize("kind,loss", [("sdm", "jaccard_loss"),
                                       ("sdm-mlp", "_bce_from_logits")])
def test_fit_matches_per_op_reference_bitwise(kind, loss, monkeypatch):
    # a whole fit, minibatch by minibatch; 129 train rows make each
    # epoch's last minibatch one row long
    ds = cliff_dataset(n_train=129, n_test=20, seed=4)
    fused = train_dyn(kind, ds, epochs=2, seed=1)
    # the references record the algebra, which only the tests' tape has
    monkeypatch.setattr(nets, "Tape", Tape)
    monkeypatch.setattr(dynbench, "mlp_taped", taped_mlp.mlp_taped)
    monkeypatch.setattr(dynbench, loss, getattr(taped_mlp, loss))
    ref = train_dyn(kind, ds, epochs=2, seed=1)
    assert fused.loss_curve == ref.loss_curve
    assert fused.params.keys() == ref.params.keys()
    for k in fused.params:
        assert fused.params[k].tobytes() == ref.params[k].tobytes(), k


def test_sdm_fit_records_only_named_ops(monkeypatch):
    # each minibatch is one tape, and the offsets head's (B, 8) rows enter
    # the solve as they are: 70 train rows are minibatches of 64 and 6
    tapes = []

    class RecordingTape(nets.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(nets, "Tape", RecordingTape)
    train_dyn("sdm", cliff_dataset(n_train=70, n_test=20), epochs=1, seed=1)
    assert [[kind for kind, _, _ in tape.ops()] for tape in tapes] == \
        [["mlp", "solve_homography", "warp", "jaccard"]] * 2


@pytest.mark.parametrize("kind", ["sdm", "sdm-mlp"])
def test_fits_take_their_grids_and_targets_as_data(kind, monkeypatch):
    # no op takes an input that is not another op's output: the warp
    # records the solve alone, the Jaccard loss the warp, and the
    # cross-entropy the MLP, so no gradient is formed for data
    tapes = []

    class RecordingTape(nets.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(nets, "Tape", RecordingTape)
    train_dyn(kind, cliff_dataset(n_train=70, n_test=20), epochs=1, seed=1)
    assert len(tapes) == 2
    for tape in tapes:
        ops = tape.ops()
        outputs = {out: op for op, out, _ in ops}
        wiring = [(op, [outputs.get(i) for i in inputs])
                  for op, _, inputs in ops[1:]]
        assert wiring == ([("solve_homography", ["mlp"]),
                           ("warp", ["solve_homography"]),
                           ("jaccard", ["warp"])] if kind == "sdm"
                          else [("bce", ["mlp"])])


def test_training_reduces_loss_for_both_learned_kinds():
    ds = cliff_dataset(n_train=200, n_test=40, seed=7)
    for kind in ("sdm", "sdm-mlp"):
        # lr large enough that 8 short epochs show a real descent
        model = train_dyn(kind, ds, epochs=8, lr=0.01, seed=1)
        assert len(model.loss_curve) == 8
        assert model.loss_curve[-1] < model.loss_curve[0]
    base = train_dyn("baseline", ds)
    assert base.loss_curve == [] and base.params is None


def test_training_is_seed_deterministic():
    ds = cliff_dataset(n_train=100, n_test=30, seed=8)
    a = train_dyn("sdm-mlp", ds, epochs=2, seed=5)
    b = train_dyn("sdm-mlp", ds, epochs=2, seed=5)
    assert a.loss_curve == b.loss_curve
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])


def test_predict_shapes_and_mask_access():
    ds = cliff_dataset(n_train=80, n_test=20, seed=9)
    sdm = train_dyn("sdm", ds, epochs=2, seed=2)
    out = sdm.predict(ds.obs[:6], ds.actions[:6])
    assert out.shape == (6, 5, 5)
    # a batch of one; a GEMV rounds apart from the batch's GEMM
    one = sdm.predict(ds.obs[:1], ds.actions[:1])
    np.testing.assert_allclose(one, out[:1], rtol=0, atol=1e-12)
    pred, mask = sdm.predict(ds.obs[:6], ds.actions[:6], return_mask=True)
    assert mask.dtype == bool and pred.shape == mask.shape
    np.testing.assert_array_equal(pred, out)
    score = known_cell_iou(sdm, ds)
    assert 0.0 <= score <= 1.0
    with pytest.raises(ValueError, match="only for the warp model"):
        train_dyn("sdm-mlp", ds, epochs=1).predict(ds.obs[:2], ds.actions[:2],
                                                   return_mask=True)
    with pytest.raises(ValueError):
        train_dyn("latent", ds)
    # one sample without its batch axis raises, with or without the mask
    for model in (sdm, train_dyn("baseline", ds)):
        with pytest.raises(ValueError, match=r"\(B, r, c\)"):
            model.predict(ds.obs[0], ds.actions[0])
    with pytest.raises(ValueError, match=r"\(B, r, c\)"):
        sdm.predict(ds.obs[0], ds.actions[0], return_mask=True)


@pytest.mark.parametrize("kind", ["baseline", "sdm", "sdm-mlp"])
@pytest.mark.parametrize("action", [5, -1], ids=["past-end", "negative"])
def test_predict_rejects_out_of_range_actions(kind, action):
    ds = cliff_dataset(n_train=80, n_test=20, seed=9)
    model = train_dyn(kind, ds, epochs=1, seed=2)
    actions = ds.actions[:3].copy()
    actions[1, 0] = action
    with pytest.raises(ValueError, match=f"action {action} out of range"):
        model.predict(ds.obs[:3], actions)


def test_metrics_csv_is_byte_stable(tmp_path):
    # dyn_metrics.csv goes through the trainer's writer: repr floats
    rows = [{"model": "baseline", "step": 1, "iou_mean": 0.75,
             "iou_std": 0.1, "l1_mean": 1 / 3, "l1_std": 0.02}]
    columns = ("model", "step", "iou_mean", "iou_std", "l1_mean", "l1_std")
    paths = [tmp_path / f"m{i}.csv" for i in range(2)]
    for p in paths:
        write_metrics_csv(p, rows, columns)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert a == (b"model,step,iou_mean,iou_std,l1_mean,l1_std\r\n"
                 b"baseline,1,0.75,0.1," + repr(1 / 3).encode() + b",0.02\r\n")
