"""Networks: GRU trunk, heads, sampling, Adam, and the two forward paths."""

import numpy as np
import pytest

from cade import nets as nets_module
from cade import trainer
from cade.autograd import stable_sigmoid
from cade.checkpoint import load_params, save_params
from cade.config import TrustSection
from cade.envs import make_env
from cade.focops import policy_loss
from cade.nets import (
    CLIP_NORM,
    Adam,
    CadeNets,
    bind,
    NetConfig,
    action_onehot,
    cade_forward,
    global_norm,
    gru_params,
    log_softmax_np,
    minimize,
    mlp_np,
    mlp_params,
    mlp_taped,
    mse_loss,
    onehot_rows,
    row_product,
    sample_action,
    semi_orthogonal,
    trunk_replay_taped,
)
from fdcheck import fd_param_max_err, grad_check
from taped_gru import (GRAD_RTOL, cell, columns, gru_forward, gru_step_taped,
                       rel_err, trunk_replay, trunk_replay_per_step)
import taped_mlp
from taped_mlp import log_softmax_taped, taken_log_prob
from taped_ops import Tape, concat

CLIFF_CFG = NetConfig(obs_dim=25, branches=(5,), hidden_dim=16, head_width=8)
RIVER_CFG = NetConfig(obs_dim=12, branches=(3, 3, 3, 3), hidden_dim=16, head_width=8)


def small_nets(cfg=CLIFF_CFG, seed=0):
    return CadeNets(cfg, np.random.default_rng(seed))


def first_rows(cfg, acts):
    """Each step's previous-action row: zeros, then the one-hot of the
    action before it."""
    return np.vstack([np.zeros((1, cfg.act_dim))] +
                     [action_onehot(cfg.branches, a) for a in acts[:-1]])


def zero_nets(cfg=CLIFF_CFG):
    nets = small_nets(cfg)
    for head in nets.params.values():
        for arr in head.values():
            arr[...] = 0.0
    return nets


# ---------------------------------------------------------------------------
# initialization

@pytest.mark.parametrize("out_dim,in_dim", [(4, 9), (9, 4), (6, 6)])
def test_semi_orthogonal_gram_and_scale(out_dim, in_dim):
    q = semi_orthogonal(np.random.default_rng(3), out_dim, in_dim)
    assert q.shape == (out_dim, in_dim)
    # smaller-side Gram is a scaled identity; entry RMS is 1/sqrt(fan-in)
    gram = q @ q.T if out_dim <= in_dim else q.T @ q
    scale = max(out_dim, in_dim) / in_dim
    np.testing.assert_allclose(gram, scale * np.eye(min(out_dim, in_dim)), atol=1e-12)
    rms = np.sqrt((q ** 2).mean())
    assert abs(rms - 1.0 / np.sqrt(in_dim)) < 0.35 / np.sqrt(in_dim)


def test_init_is_seed_deterministic():
    a, b = small_nets(seed=7), small_nets(seed=7)
    for head in CadeNets.HEADS:
        for k in a.params[head]:
            np.testing.assert_array_equal(a.params[head][k], b.params[head][k])
    c = small_nets(seed=8)
    assert not np.array_equal(a.params["trunk"]["W"], c.params["trunk"]["W"])


def test_biases_start_at_zero():
    nets = small_nets()
    assert not nets.params["trunk"]["b"].any()
    assert not nets.params["actor"]["b0"].any()


def env_nets(env_name, hidden=128, width=64):
    """``CadeNets`` on a real env's observation and action shapes; the
    default sizes are ``RunConfig``'s."""
    env = make_env(env_name, "medium")
    cfg = NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches), hidden, width)
    return CadeNets(cfg, np.random.default_rng(0))


@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_every_parameter_is_c_ordered_and_the_trunk_is_stored_in_by_3h(
        env_name, tmp_path):
    # cliff's trunk has fewer inputs than units, river's more
    nets = env_nets(env_name)
    for name, v in nets.flat_params().items():
        assert v.flags.c_contiguous, name
        if name.split(".")[1].startswith("b"):
            assert v.shape[0] == 1, name
    n_in, h = nets.cfg.obs_dim + nets.cfg.act_dim, nets.cfg.hidden_dim
    nets.save(tmp_path / "ckpt.npz")
    saved = load_params(tmp_path / "ckpt.npz")
    assert saved["trunk.W"].shape == (n_in, 3 * h)
    assert saved["trunk.U"].shape == (h, 3 * h)
    assert saved["trunk.b"].shape == (1, 3 * h)
    # a trunk saved gate-major, W (3H, in), U (3H, H), b (3H, 1), is refused
    save_params(tmp_path / "old.npz", {k: v.T if k.startswith("trunk.") else v
                                       for k, v in saved.items()})
    with pytest.raises(ValueError, match="shape mismatch for trunk"):
        nets.load(tmp_path / "old.npz")


@pytest.mark.parametrize("hidden,width", [(128, 64), (16, 8)], ids=["default", "ci"])
@pytest.mark.parametrize("env_name", ["cliff-circular", "planar-river"])
def test_row_products_do_not_depend_on_their_batch(env_name, hidden, width):
    # the contract under row_product, on the running BLAS: for every weight
    # of the nets, at the default sizes and CI's, each row of an M-row
    # product for M = 2 to 64 has the bits of that row's product alone.
    # A BLAS whose GEMM rows depend on M fails here, naming the weight
    rng = np.random.default_rng(3)
    for name, w in env_nets(env_name, hidden, width).flat_params().items():
        if name.split(".")[1].startswith("b"):
            continue
        x = rng.standard_normal((64, w.shape[0]))
        alone = np.concatenate([row_product(x[i:i + 1], w) for i in range(64)])
        for m in range(2, 65):
            assert row_product(x[:m], w).tobytes() == alone[:m].tobytes(), (
                f"{name} {w.shape}: rows of a {m}-row product differ")


# ---------------------------------------------------------------------------
# forward-path agreement

def test_mlp_taped_matches_np():
    rng = np.random.default_rng(1)
    p = mlp_params(rng, (6, 8, 8, 3))
    x = rng.standard_normal((5, 6))
    for act in (None, "sigmoid"):
        tape = Tape()
        bound = {k: tape.leaf(v, requires_grad=True) for k, v in p.items()}
        out = mlp_taped(bound, tape.const(x), out_act=act)
        np.testing.assert_array_equal(out.values, mlp_np(p, x, out_act=act))


def mlp_run(mlp, p, x, out_act, input_grad, weights):
    """Output and gradients of ``(mlp(x) * weights).sum()`` on a fresh tape;
    the input is a requires-grad leaf when ``input_grad``."""
    tape = Tape()
    leaves = {k: tape.leaf(v, requires_grad=True) for k, v in p.items()}
    xt = tape.leaf(x, requires_grad=True) if input_grad else tape.const(x)
    out = mlp(leaves, xt, out_act)
    tape.backward((out * tape.const(weights)).sum())
    grads = {k: t.grad for k, t in leaves.items()}
    if input_grad:
        grads["x"] = xt.grad
    return out.values, grads


def assert_same_bytes(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes(), k


@pytest.mark.parametrize("input_grad", [False, True], ids=["const-x", "grad-x"])
@pytest.mark.parametrize("out_act", [None, "sigmoid"])
@pytest.mark.parametrize("rows", [1, 64])
def test_mlp_op_matches_per_op_reference_bitwise(rows, out_act, input_grad):
    rng = np.random.default_rng(rows + 3 * input_grad)
    p = mlp_params(rng, (30, 64, 64, 8))
    for k in p:
        p[k] += 0.1 * rng.standard_normal(p[k].shape)  # nonzero biases
    x = rng.standard_normal((rows, 30))
    weights = rng.standard_normal((rows, 8))
    out, grads = mlp_run(mlp_taped, p, x, out_act, input_grad, weights)
    ref_out, ref_grads = mlp_run(taped_mlp.mlp_taped, p, x, out_act,
                                 input_grad, weights)
    assert out.tobytes() == ref_out.tobytes()
    assert out.tobytes() == mlp_np(p, x, out_act).tobytes()
    assert_same_bytes(grads, ref_grads)


def test_mlp_op_records_one_op_and_skips_a_constant_input():
    rng = np.random.default_rng(4)
    p = mlp_params(rng, (6, 8, 8, 3))
    tape = Tape()
    leaves = {k: tape.leaf(v, requires_grad=True) for k, v in p.items()}
    mlp_taped(leaves, tape.const(rng.standard_normal((5, 6))))
    assert [kind for kind, _, _ in tape.ops()] == ["mlp"]
    kind, _, inputs, backward = tape._ops[-1]
    grads = backward(rng.standard_normal((5, 3)))
    assert grads[0] is None and len(grads) == len(inputs) == 7
    assert all(g is not None for g in grads[1:])


@pytest.mark.parametrize("lengths", [[1], [30, 7]], ids=str)
def test_actor_mlp_op_on_gru_seq_matches_per_op_reference_bitwise(lengths):
    # the actor path: the mlp's input is the gru_seq output, which needs
    # the input gradient for the trunk
    rng = np.random.default_rng(sum(lengths))
    trunk = gru_params(rng, 30, 32)
    actor = mlp_params(rng, (32, 16, 16, 5))
    x_seqs = [(rng.random((T, 30)) < 0.3).astype(np.float64) for T in lengths]
    weights = rng.standard_normal((sum(lengths), 5))

    def run(mlp):
        tape = Tape()
        p = {k: tape.leaf(v, requires_grad=True) for k, v in trunk.items()}
        a = {k: tape.leaf(v, requires_grad=True) for k, v in actor.items()}
        table = log_softmax_taped(mlp(a, trunk_replay(p, tape, x_seqs)), (5,))
        tape.backward((table * tape.const(weights)).sum())
        return {f"{k}{i}": t.grad for i, d in enumerate((p, a)) for k, t in d.items()}

    assert_same_bytes(run(mlp_taped), run(taped_mlp.mlp_taped))


@pytest.mark.parametrize("out_act", [None, "sigmoid"])
def test_mlp_op_gradients_match_finite_differences(out_act):
    rng = np.random.default_rng(6)
    p = mlp_params(rng, (4, 5, 5, 3))
    for k in p:
        p[k] += 0.1 * rng.standard_normal(p[k].shape)
    x = rng.standard_normal((6, 4))
    weights = rng.standard_normal((6, 3))

    def f(xt):
        tape = xt.tape
        leaves = {k: tape.leaf(v, requires_grad=True) for k, v in p.items()}
        return (mlp_taped(leaves, xt, out_act) * tape.const(weights)).sum()

    assert grad_check(f, x) < 1e-6
    _, analytic = mlp_run(mlp_taped, p, x, out_act, False, weights)
    assert fd_param_max_err(
        lambda q: float((mlp_np(q, x, out_act) * weights).sum()),
        p, analytic) < 1e-6


@pytest.mark.parametrize("in_dim,nh", [(7, 11), (30, 16)],
                         ids=["narrow-input", "wide-input"])
def test_gru_taped_matches_np_bitwise(in_dim, nh):
    # the column reference, fed the transposed parameters, forms its
    # products with the row cell's row_product: its states and gates are
    # the row cell's transposed.  Every parameter is C-ordered (in, out),
    # whether the input is narrower than the state (cliff's trunk) or
    # wider (river's).
    rng = np.random.default_rng(2)
    p = gru_params(rng, in_dim, nh)
    assert p["W"].shape == (in_dim, 3 * nh) and p["U"].shape == (nh, 3 * nh)
    assert p["b"].shape == (1, 3 * nh)
    assert all(v.flags.c_contiguous for v in p.values())
    p["b"][...] = 0.1 * rng.standard_normal(p["b"].shape)
    h = np.zeros((1, nh))
    tape = Tape()
    bound = {k: tape.leaf(v, requires_grad=True) for k, v in columns(p).items()}
    ht = tape.const(h.T)
    for _ in range(5):
        x = rng.standard_normal((1, in_dim))
        h, gates = cell(p, x, h)
        ht, taped_gates = gru_step_taped(bound, tape.const(x.T), ht)
        np.testing.assert_array_equal(h, ht.values.T)
        for g, tg in zip(gates, taped_gates, strict=True):
            np.testing.assert_array_equal(g, tg.values.T)


def test_hidden_state_stays_in_unit_interval():
    # strictly inside (-1, 1) at operating scale; never outside even when the
    # candidate tanh saturates to exactly 1.0 in float64
    rng = np.random.default_rng(3)
    p = gru_params(rng, 4, 9)
    h = np.zeros((1, 9))
    for _ in range(200):
        h, _ = cell(p, rng.standard_normal((1, 4)), h)
        assert np.all(np.abs(h) < 1.0)
    p["W"] *= 50.0
    p["U"] *= 50.0
    for _ in range(50):
        h, _ = cell(p, rng.standard_normal((1, 4)) * 10.0, h)
        assert np.all(np.abs(h) <= 1.0)


def test_gru_cell_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = gru_params(rng, 7, 11)
    xs = [rng.standard_normal((1, 7)) for _ in range(3)]
    h0 = np.zeros((1, 11))

    def loss_np(params):
        h = h0
        for x in xs:
            h, _ = cell(params, x, h)
        return float((h * h).sum())

    # the per-op reference runs on columns, on the transposed parameters
    tape = Tape()
    bound = {k: tape.leaf(v, requires_grad=True) for k, v in columns(p).items()}
    h = tape.const(h0.T)
    for x in xs:
        h, _ = gru_step_taped(bound, tape.const(x.T), h)
    tape.backward((h * h).sum())
    analytic = {k: bound[k].grad.T for k in p}
    assert fd_param_max_err(loss_np, p, analytic) < 1e-4


def test_trunk_replay_matches_rollout_bitwise():
    # two episodes in one replay: the second restarts from the zero state.
    # The value replay gives the hidden states, gates and logits of the
    # rollout, and the taped op records them unchanged.  Its logits are
    # the taped actor's forward on those rows.
    nets = small_nets(RIVER_CFG, seed=11)
    rng = np.random.default_rng(0)
    hs, gates, logits, x_seqs = [], [], [], []
    for T in (6, 4):
        obs = rng.random((T, RIVER_CFG.obs_dim))
        h, prev = nets.initial_hidden(), np.zeros((1, RIVER_CFG.act_dim))
        acts = []
        for t in range(T):
            vb = cade_forward(nets, obs[t], prev, h, rng)
            h, prev = vb.hidden, action_onehot(RIVER_CFG.branches, vb.action)
            hs.append(h)
            gates.append(np.concatenate(vb.gates))
            logits.append(vb.logits)
            acts.append(vb.action)
        prev_rows = first_rows(RIVER_CFG, acts)
        x_seqs.append(np.concatenate([obs, prev_rows], axis=1))
    replay_logits, replay_hs, replay_gates = trainer._replay_logits_np(nets, x_seqs)
    np.testing.assert_array_equal(replay_hs, np.vstack(hs))
    np.testing.assert_array_equal(np.asarray(replay_gates), np.asarray(gates))
    tape = Tape()
    stack = trunk_replay_taped(bind(tape, nets.params["trunk"]), tape, x_seqs,
                               replay_hs, replay_gates)
    np.testing.assert_array_equal(stack.values, np.vstack(hs))
    taped = mlp_taped(bind(tape, nets.params["actor"]), stack)
    np.testing.assert_array_equal(replay_logits, taped.values)
    np.testing.assert_array_equal(replay_logits, np.vstack(logits))


@pytest.mark.parametrize("name", ["W", "U", "b"])
def test_gru_seq_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(17)
    p = {k: v + 0.3 * rng.standard_normal(v.shape)
         for k, v in gru_params(rng, 4, 3).items()}
    x_seqs = [rng.standard_normal((3, 4)), rng.standard_normal((2, 4))]
    weights = rng.standard_normal((5, 3))

    def f(leaf):
        tape = leaf.tape
        bound = {k: leaf if k == name else tape.const(v) for k, v in p.items()}
        return (trunk_replay(bound, tape, x_seqs) * tape.const(weights)).sum()

    assert grad_check(f, p[name]) < 1e-6


@pytest.mark.parametrize("lengths", [[1], [2], [40], [30, 7], [1, 40, 3]], ids=str)
@pytest.mark.parametrize("in_dim", [25 + 5, 256 + 12], ids=["cliff", "river"])
def test_gru_seq_gradients_equal_per_step_reference(in_dim, lengths):
    # default trunk and actor sizes; the loss runs through the actor head
    # and a per-branch log-softmax, as the policy loss does.  The op sums
    # the trunk's gradients over steps in a GEMM: within GRAD_RTOL of the
    # per-step tape's.  A batch of at most two steps sums at most two
    # exact products (the inputs are 0 or 1, and h is zero at step 0), in
    # which order cannot matter, so there they stay bitwise.
    rng = np.random.default_rng(in_dim * 100 + sum(lengths))
    trunk = gru_params(rng, in_dim, 128)
    actor = mlp_params(rng, (128, 64, 64, 5))
    x_seqs = [(rng.random((T, in_dim)) < 0.3).astype(np.float64) for T in lengths]
    weights = rng.standard_normal((sum(lengths), 5))

    def run(replay, layout):
        tape = Tape()
        p = {k: tape.leaf(v, requires_grad=True) for k, v in layout(trunk).items()}
        a = {k: tape.leaf(v, requires_grad=True) for k, v in actor.items()}
        hs = replay(p, tape, x_seqs)
        table = log_softmax_taped(mlp_taped(a, hs), (5,))
        tape.backward((table * tape.const(weights)).sum())
        return hs.values, {k: t.grad for k, t in {**p, **a}.items()}

    fused_hs, fused = run(trunk_replay, dict)
    ref_hs, ref = run(trunk_replay_per_step, columns)
    np.testing.assert_array_equal(fused_hs, ref_hs)
    for k in ref:
        want = ref[k].T if k in trunk else ref[k]  # the column reference's
        if k in trunk and sum(lengths) > 2:
            assert rel_err(fused[k], want) <= GRAD_RTOL, k
        else:
            np.testing.assert_array_equal(fused[k], want, err_msg=k)


def actor_tape_ops(monkeypatch, lengths):
    """The op kinds of the single tape one actor epoch records."""
    tapes = []

    class RecordingTape(nets_module.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(nets_module, "Tape", RecordingTape)
    nets = small_nets(CLIFF_CFG, seed=2)
    rng = np.random.default_rng(5)
    bufs = []
    for T in lengths:
        actions = rng.integers(5, size=(T, 1))
        logits = rng.standard_normal((T, 5))
        obs = rng.random((T, 5, 5))
        buf = trainer.EpisodeBuffer(
            obs=obs, next_obs=rng.random((T, 5, 5)), actions=actions,
            logits=logits,
            log_probs=np.array([log_softmax_np(l)[a[0]] for l, a in zip(logits, actions)]),
            hiddens=None, gates=None, rewards=np.zeros(T),
            costs=np.zeros(T), fired=0)
        # the trunk's forward on these inputs, as a rollout records it
        hs, gates = gru_forward(nets.params["trunk"],
                                [trainer._trunk_inputs((5,), buf)])
        buf.hiddens, buf.gates = hs, np.asarray(gates)
        bufs.append(buf)
    opts = {h: Adam(nets.params[h]) for h in ("trunk", "actor")}
    trainer._actor_update(nets, bufs, trainer.EpisodeBuffer.concat(bufs),
                          rng.standard_normal(sum(lengths)), None,
                          0.0, TrustSection(), opts, epochs=1)
    (tape,) = tapes
    return tuple(kind for kind, _, _ in tape.ops())


def test_actor_tape_size_is_independent_of_episode_length(monkeypatch):
    # the whole batch replays as one gru_seq op, the actor head is one mlp
    # op and the loss one policy op: the tape cannot grow with T or with
    # the number of episodes
    kinds = {lengths: actor_tape_ops(monkeypatch, list(lengths))
             for lengths in [(5,), (50,), (5, 50, 1)]}
    assert set(kinds.values()) == {("gru_seq", "mlp", "policy")}, kinds


# ---------------------------------------------------------------------------
# sampling and log-probabilities

def test_zero_weights_give_uniform_discrete_policy():
    nets = zero_nets()
    vb = cade_forward(nets, np.zeros(25), np.zeros((1, 5)),
                      nets.initial_hidden(), np.random.default_rng(0))
    assert np.array_equal(vb.logits, np.zeros(5))
    probs = np.exp(log_softmax_np(vb.logits))
    assert np.all(probs == 1.0 / 5.0)
    assert np.all(vb.hidden == 0.0)


def test_zero_weights_give_half_cost_estimate():
    nets = zero_nets()
    rng = np.random.default_rng(1)
    assert np.all(nets.cost_np(rng.random((5, 25))) == 0.5)


def test_sample_action_near_deterministic_logits():
    logits = np.array([1e9, 0.0, 0.0, 0.0, 0.0])
    action, log_prob = sample_action(logits, (5,), np.random.default_rng(0))
    assert action[0] == 0
    assert abs(log_prob) < 1e-12


def test_sample_action_uniform_frequencies_within_3_sigma():
    rng = np.random.default_rng(42)
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        a, _ = sample_action(np.zeros(5), (5,), rng)
        counts[a[0]] += 1
    sigma = np.sqrt(0.2 * 0.8 / n)
    assert np.all(np.abs(counts / n - 0.2) < 3 * sigma)


def test_sample_action_multidiscrete_log_prob_sums_branches():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal(12)
    action, log_prob = sample_action(logits, (3, 3, 3, 3), rng)
    assert action.shape == (4,)
    expected = sum(float(log_softmax_np(logits[3 * i:3 * i + 3])[action[i]])
                   for i in range(4))
    assert log_prob == pytest.approx(expected, abs=1e-12)
    assert 0.0 < np.exp(log_prob) <= 1.0


def test_sample_action_rejects_non_finite_logits():
    with pytest.raises(ValueError):
        sample_action(np.array([np.nan, 0.0]), (2,), np.random.default_rng(0))


def _reference_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _reference_sample_action(logits, branches, rng):
    """``sample_action`` as it was before its conversions were cut."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if logits.size != sum(branches):
        raise ValueError(f"logits size {logits.size} != sum(branches) {sum(branches)}")
    action = np.empty(len(branches), dtype=np.int64)
    log_prob = 0.0
    off = 0
    for i, n in enumerate(branches):
        logp = _reference_log_softmax(logits[off:off + n])
        cdf = np.cumsum(np.exp(logp))
        a = min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)
        action[i] = a
        log_prob += float(logp[a])
        off += n
    return action, log_prob


SAMPLE_BRANCHES = [(5,), (3, 3, 3, 3), (2, 4, 3), (1,), (1, 2)]


@pytest.mark.parametrize("branches", SAMPLE_BRANCHES)
def test_sample_action_matches_reference_bitwise(branches):
    data = np.random.default_rng(sum(branches))
    new_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for draw in range(600):
        scale = [1e-3, 1.0, 30.0, 800.0][draw % 4]
        logits = data.standard_normal(sum(branches)) * scale
        if draw % 5 == 0:
            logits[data.integers(sum(branches))] = logits.max()  # a tie
        if draw % 7 == 0:
            logits = logits.reshape(1, -1)  # the actor head's row form
        a, lp = sample_action(logits, branches, new_rng)
        b, lq = _reference_sample_action(logits, branches, ref_rng)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.float64(lp).tobytes() == np.float64(lq).tobytes()
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("logits,branches", [
    (np.array([np.nan, 0.0]), (2,)),
    (np.array([0.0, -np.inf, 1.0]), (3,)),
    (np.array([0.0, 1.0, np.inf, 0.0]), (2, 2)),
    (np.zeros(5), (3, 3)),
    (np.zeros(6), (5,)),
], ids=["nan", "minus-inf", "inf-second-branch", "short", "long"])
def test_sample_action_errors_match_reference(logits, branches):
    outcomes = []
    for sample in (sample_action, _reference_sample_action):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError) as err:
            sample(logits, branches, rng)
        outcomes.append((str(err.value), rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


def test_log_softmax_matches_reference_bitwise():
    rng = np.random.default_rng(3)
    for shape in [(5,), (1, 5), (40, 3), (7, 12)]:
        x = rng.standard_normal(shape) * 20.0
        assert log_softmax_np(x).tobytes() == _reference_log_softmax(x).tobytes()


@pytest.mark.parametrize("branches", [(5,), (3, 3, 3, 3)])
def test_branch_probabilities_sum_to_one(branches):
    rng = np.random.default_rng(12)
    logits = rng.standard_normal(sum(branches)) * 10.0
    off = 0
    for n in branches:
        probs = np.exp(log_softmax_np(logits[off:off + n]))
        assert abs(probs.sum() - 1.0) < 1e-9
        off += n


@pytest.mark.parametrize("cfg", [CLIFF_CFG, RIVER_CFG])
def test_taped_log_probs_match_rollout(cfg):
    nets = small_nets(cfg, seed=4)
    rng = np.random.default_rng(7)
    obs = rng.random((5, cfg.obs_dim))
    h, prev = nets.initial_hidden(), np.zeros((1, cfg.act_dim))
    acts, logps = [], []
    for t in range(5):
        vb = cade_forward(nets, obs[t], prev, h, rng)
        h, prev = vb.hidden, action_onehot(cfg.branches, vb.action)
        acts.append(vb.action)
        logps.append(vb.log_prob)
    prev_rows = first_rows(cfg, acts)
    tape = Tape()
    stack = trunk_replay(bind(tape, nets.params["trunk"]), tape,
                         [np.concatenate([obs, prev_rows], axis=1)])
    logits = mlp_taped(bind(tape, nets.params["actor"]), stack)
    table = log_softmax_taped(logits, cfg.branches)
    lp = taken_log_prob(table, cfg.branches, np.vstack(acts))
    np.testing.assert_allclose(lp.values, np.array(logps), atol=1e-12)
    # the fused policy op gathers the same log-probs: every ratio is one
    _, info = policy_loss(logits, logits.values, cfg.branches, np.vstack(acts),
                          np.array(logps), np.zeros(5), None, 0.0,
                          TrustSection())
    assert info["ratio_mean"] == pytest.approx(1.0, abs=1e-12)


def test_taken_log_prob_gathers_correct_entries():
    tape = Tape()
    logits = tape.const(np.log(np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])))
    table = log_softmax_taped(logits, (3,))
    lp = taken_log_prob(table, (3,), np.array([[2], [0]]))
    np.testing.assert_allclose(np.exp(lp.values), [0.5, 0.6], atol=1e-12)


# ---------------------------------------------------------------------------
# cade_forward contract

def test_cade_forward_is_rng_deterministic():
    nets = small_nets(seed=3)
    obs = np.random.default_rng(1).random(25)
    prev_oh = action_onehot(nets.cfg.branches, 2)
    a = cade_forward(nets, obs, prev_oh, nets.initial_hidden(), np.random.default_rng(5))
    b = cade_forward(nets, obs, prev_oh, nets.initial_hidden(), np.random.default_rng(5))
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.action, b.action)
    np.testing.assert_array_equal(a.hidden, b.hidden)
    assert a.log_prob == b.log_prob


def test_first_step_independent_of_previous_episode():
    nets = small_nets(seed=6)
    rng = np.random.default_rng(2)
    obs0 = rng.random(25)
    # churn through a previous episode; state lives only in the passed hidden
    h, prev = nets.initial_hidden(), np.zeros((1, nets.cfg.act_dim))
    for _ in range(7):
        vb = cade_forward(nets, rng.random(25), prev, h, rng)
        h, prev = vb.hidden, action_onehot(nets.cfg.branches, vb.action)
    zero = np.zeros((1, nets.cfg.act_dim))
    fresh = cade_forward(nets, obs0, zero, nets.initial_hidden(),
                         np.random.default_rng(9))
    again = cade_forward(nets, obs0, zero, nets.initial_hidden(),
                         np.random.default_rng(9))
    np.testing.assert_array_equal(fresh.hidden, again.hidden)
    np.testing.assert_array_equal(fresh.logits, again.logits)
    assert fresh.log_prob == again.log_prob


def test_cade_forward_rejects_bad_obs_dim():
    nets = small_nets()
    with pytest.raises(ValueError):
        cade_forward(nets, np.zeros(24), np.zeros((1, 5)),
                     nets.initial_hidden(), np.random.default_rng(0))


def test_onehot_encoding():
    np.testing.assert_array_equal(action_onehot((5,), 3),
                                  [[0.0, 0.0, 0.0, 1.0, 0.0]])
    row = action_onehot((3, 3), [2, 0])
    np.testing.assert_array_equal(row, [[0, 0, 1, 1, 0, 0]])
    with pytest.raises(ValueError):
        action_onehot((3, 3), [3, 0])
    mat = onehot_rows((3, 3), np.array([[2, 0], [1, 1]]))
    np.testing.assert_array_equal(mat, [[0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 1, 0]])


@pytest.mark.parametrize("branches", [(5,), (3, 3, 3, 3), (2, 4, 3), (1,)])
def test_action_onehot_equals_its_onehot_rows_row_bitwise(branches):
    actions = np.stack(np.meshgrid(*[np.arange(n) for n in branches],
                                   indexing="ij"), axis=-1).reshape(-1, len(branches))
    rows = onehot_rows(branches, actions)
    for action, row in zip(actions, rows):
        forms = [action, action.astype(np.int32), action.tolist(),
                 action.reshape(1, -1)]
        if len(branches) == 1:
            forms += [int(action[0]), action[0]]
        for form in forms:
            got = action_onehot(branches, form)
            assert got.dtype == rows.dtype and got.shape == (1, rows.shape[1])
            assert got.tobytes() == row.tobytes()


# an action outside its branch would set another branch's column
BAD_ACTIONS = [
    ([3, 0, 0, 0], r"branch 0 action 3 out of range\(3\)"),
    ([-1, 0, 0, 0], r"branch 0 action -1 out of range\(3\)"),
    ([0, 0, 0, 3], r"branch 3 action 3 out of range\(3\)"),
    ([0, 0, 0], "do not have 4 branches"),
]
BAD_IDS = ["past-end", "negative", "last-branch", "branch-count"]


@pytest.mark.parametrize("action,message", BAD_ACTIONS, ids=BAD_IDS)
def test_onehot_rows_rejects_bad_actions(action, message):
    good = [0, 1, 2, 0]
    with pytest.raises(ValueError, match=message):
        onehot_rows((3, 3, 3, 3), [good, action] if len(action) == 4 else [action])


@pytest.mark.parametrize("action,message", BAD_ACTIONS, ids=BAD_IDS)
def test_action_onehot_rejects_bad_actions(action, message):
    with pytest.raises(ValueError, match=message):
        action_onehot((3, 3, 3, 3), action)


# ---------------------------------------------------------------------------
# gradient isolation between losses

def replay_losses(nets, obs, acts, rewards, adv):
    """One taped replay feeding both the policy and reward-estimator losses."""
    cfg = nets.cfg
    tape = Tape()
    trunk = bind(tape, nets.params["trunk"])
    actor = bind(tape, nets.params["actor"])
    reward = bind(tape, nets.params["reward"])
    prev_rows = first_rows(cfg, acts)
    stack = trunk_replay(trunk, tape, [np.concatenate([obs, prev_rows], axis=1)])
    logits = mlp_taped(actor, stack)
    lp = taken_log_prob(log_softmax_taped(logits, cfg.branches), cfg.branches,
                        np.vstack(acts))
    policy_loss = (lp * tape.const(-adv)).mean()
    # reward head sees the hidden state through a gradient barrier
    r_in = concat([tape.const(stack.values),
                   tape.const(onehot_rows(cfg.branches, np.vstack(acts)))], axis=1)
    diff = mlp_taped(reward, r_in)[:, 0] - tape.const(rewards)
    reward_loss = (diff * diff).mean()
    return tape, trunk, actor, reward, policy_loss, reward_loss


@pytest.fixture
def replay():
    """Builds the same replay on a fresh tape at every call."""
    nets = small_nets(seed=13)
    rng = np.random.default_rng(3)
    T = 6
    obs = rng.random((T, 25))
    acts = [np.array([rng.integers(5)]) for _ in range(T)]
    rewards, adv = rng.standard_normal(T), rng.standard_normal(T)
    return lambda: replay_losses(nets, obs, acts, rewards, adv)


def test_reward_loss_leaves_trunk_untouched(replay):
    tape, trunk, actor, reward, _, reward_loss = replay()
    tape.backward(reward_loss)
    for k, t in trunk.items():
        assert not t.grad.any(), f"trunk.{k} leaked gradient from the reward loss"
    for k, t in actor.items():
        assert not t.grad.any()
    assert any(t.grad.any() for t in reward.values())


def test_policy_loss_reaches_trunk(replay):
    tape, trunk, _, reward, policy_loss, _ = replay()
    tape.backward(policy_loss)
    assert any(t.grad.any() for t in trunk.values())
    for t in reward.values():
        assert not t.grad.any()


def test_combined_trunk_grad_equals_policy_only(replay):
    tape, trunk, _, _, policy_loss, _ = replay()
    tape.backward(policy_loss)
    policy_only = {k: t.grad for k, t in trunk.items()}
    tape, trunk, _, _, policy_loss, reward_loss = replay()
    tape.backward(policy_loss + reward_loss)
    for k, t in trunk.items():
        np.testing.assert_array_equal(t.grad, policy_only[k])


# ---------------------------------------------------------------------------
# the heads' squared error

def mse_run(loss_fn, out, targets, scale):
    """Loss and gradient bytes of ``loss_fn(out, targets)``, times ``scale``
    when that is not one, on the tests' tape."""
    tape = Tape()
    leaf = tape.leaf(out, requires_grad=True)
    loss = loss_fn(leaf, targets)
    if scale != 1.0:
        loss = loss * scale
    tape.backward(loss)
    return np.asarray(loss.values).tobytes(), leaf.grad.tobytes()


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("rows", [1, 64])
def test_mse_op_matches_per_op_reference_bitwise(rows, cols, scale):
    rng = np.random.default_rng(rows + cols)
    out, targets = rng.standard_normal((2, rows, cols))
    assert (mse_run(mse_loss, out, targets, scale)
            == mse_run(taped_mlp.mse, out, targets, scale))


def test_mse_op_records_one_op_and_passes_grad_check():
    rng = np.random.default_rng(8)
    out, targets = rng.standard_normal((2, 6, 2))
    tape = Tape()
    mse_loss(tape.leaf(out, requires_grad=True), targets)
    assert [kind for kind, _, _ in tape.ops()] == ["mse"]
    assert grad_check(lambda x: mse_loss(x, targets), out) < 1e-6


# ---------------------------------------------------------------------------
# Adam

def test_adam_single_step_sign_update():
    p = {"w": np.zeros(3)}
    g = {"w": np.array([0.5, -2.0, 3.0])}
    opt = Adam(p, lr=0.001)
    opt.step(g)
    np.testing.assert_allclose(p["w"], -0.001 * g["w"] / (np.abs(g["w"]) + 1e-8),
                               rtol=1e-12)
    np.testing.assert_allclose(p["w"], -0.001 * np.sign(g["w"]), rtol=1e-6)
    assert opt.t == 1


def test_adam_two_steps_match_reference_recursion():
    rng = np.random.default_rng(8)
    p = {"w": rng.standard_normal((2, 3))}
    ref = p["w"].copy()
    opt = Adam(p, lr=0.01)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in (1, 2):
        g = rng.standard_normal((2, 3))
        opt.step({"w": g})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p["w"], ref, rtol=1e-12)


def test_adam_global_norm_clip_equals_prescaled_gradient():
    # norm 20 is clipped to CLIP_NORM = 10: the step equals that of the
    # gradient halved, whose norm is exactly 10 and is not clipped; the
    # second, small step carries the first step's moments
    g = {"a": np.full(4, 6.0), "b": np.full(4, 8.0)}
    assert CLIP_NORM == 10.0 and global_norm(g) == 20.0
    small = {"a": np.full(4, 0.1), "b": np.full(4, -0.2)}
    p1 = {"a": np.ones(4), "b": np.ones(4)}
    p2 = {"a": np.ones(4), "b": np.ones(4)}
    opt1, opt2 = Adam(p1), Adam(p2)
    opt1.step(g)
    opt2.step({k: v * 0.5 for k, v in g.items()})
    opt1.step(small)
    opt2.step(small)
    np.testing.assert_array_equal(p1["a"], p2["a"])
    np.testing.assert_array_equal(p1["b"], p2["b"])


def test_adam_no_clip_below_threshold():
    # two steps at norms 9.9 and 0.5 follow the unclipped recursion; a clip
    # below CLIP_NORM would shrink the first step's moments
    p = {"a": np.ones(2)}
    opt = Adam(p, lr=0.01)
    ref, m, v = np.ones(2), np.zeros(2), np.zeros(2)
    for t, g in ((1, np.array([5.94, 7.92])), (2, np.array([0.3, -0.4]))):
        assert global_norm({"a": g}) < CLIP_NORM
        opt.step({"a": g})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p["a"], ref, rtol=1e-12)


def test_adam_rejects_mismatched_keys():
    opt = Adam({"a": np.zeros(2)})
    with pytest.raises(ValueError):
        opt.step({"b": np.zeros(2)})


def test_adam_updates_nets_arrays_in_place():
    nets = small_nets(seed=1)
    flat = nets.flat_params(("cost",))
    before = {k: v.copy() for k, v in flat.items()}
    opt = Adam(flat)
    opt.step({k: np.ones_like(v) for k, v in flat.items()})
    for k in flat:
        assert not np.array_equal(nets.params["cost"][k.split(".", 1)[1]], before[k])


def adam_state(opt):
    return ({k: v.copy() for k, v in opt.params.items()},
            {k: v.copy() for k, v in opt.m.items()},
            {k: v.copy() for k, v in opt.v.items()}, opt.t)


def assert_same_state(a, b):
    for x, y in zip(a[:3], b[:3]):
        assert x.keys() == y.keys()
        assert all(np.array_equal(x[k], y[k]) for k in x)
    assert a[3] == b[3]


def mse_of(x, y):
    """A loss through two MLPs in a row, as the trunk feeds the actor."""
    def loss_of(tape, first, second):
        return mse_loss(mlp_taped(second, mlp_taped(first, tape.const(x))), y)
    return loss_of


def test_adam_minimize_equals_the_manual_taped_step_bitwise():
    # two optimizers on one tape, bound and stepped in order
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((16, 6)), rng.standard_normal((16, 2))
    init = [mlp_params(rng, (6, 8, 4)), mlp_params(rng, (4, 8, 2))]
    manual = [Adam({k: v.copy() for k, v in p.items()}) for p in init]
    helped = [Adam({k: v.copy() for k, v in p.items()}) for p in init]
    loss_of = mse_of(x, y)
    for _ in range(2):
        tape = Tape()
        leaves = [{k: tape.leaf(v, requires_grad=True)
                   for k, v in opt.params.items()} for opt in manual]
        loss = loss_of(tape, *leaves)
        tape.backward(loss)
        for opt, bound in zip(manual, leaves):
            opt.step({k: t.grad for k, t in bound.items()})
        assert minimize(loss_of, *helped) == float(loss.values)
        for a, b in zip(helped, manual):
            assert_same_state(adam_state(a), adam_state(b))
    assert [opt.t for opt in helped] == [2, 2]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_adam_minimize_skips_a_non_finite_loss(bad):
    # the loss raises before any backward or step: no optimizer moves
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((16, 6)), rng.standard_normal((16, 2))
    opts = [Adam(mlp_params(rng, (6, 8, 4))), Adam(mlp_params(rng, (4, 8, 2)))]
    minimize(mse_of(x, y), *opts)  # non-zero moments
    before = [adam_state(opt) for opt in opts]
    with pytest.raises(ValueError, match="^non-finite loss"):
        minimize(mse_of(x, y * bad), *opts)
    for opt, state in zip(opts, before):
        assert_same_state(adam_state(opt), state)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bitwise(tmp_path):
    nets = small_nets(seed=21)
    path = str(tmp_path / "nets.ckpt")
    nets.save(path)
    other = small_nets(seed=22)
    other.load(path)
    for head in CadeNets.HEADS:
        for k in nets.params[head]:
            np.testing.assert_array_equal(other.params[head][k], nets.params[head][k])


def test_checkpoint_rejects_mismatched_architecture(tmp_path):
    path = str(tmp_path / "nets.ckpt")
    small_nets(CLIFF_CFG).save(path)
    with pytest.raises(ValueError):
        small_nets(RIVER_CFG).load(path)


def test_stable_sigmoid_matches_taped_op():
    # a one-unit sigmoid layer with unit weight and zero bias passes x through
    x = np.linspace(-800, 800, 101)
    tape = Tape()
    unit = {"w0": tape.leaf([[1.0]], requires_grad=True), "b0": tape.leaf([[0.0]])}
    out = mlp_taped(unit, tape.const(x[:, None]), out_act="sigmoid")
    np.testing.assert_array_equal(out.values[:, 0], stable_sigmoid(x))
    assert np.all(np.isfinite(stable_sigmoid(x)))


def adam_reference(params, state, grads, lr=0.01):
    """One Adam step by its written expressions, each result allocated."""
    m, v, t = state
    norm = global_norm(grads)
    if norm > 10.0:
        grads = {k: g * (10.0 / norm) for k, g in grads.items()}
    t += 1
    c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for k, g in grads.items():
        m[k] *= 0.9
        m[k] += (1.0 - 0.9) * g
        v[k] *= 0.999
        v[k] += (1.0 - 0.999) * g * g
        params[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
    return m, v, t


def test_adam_in_place_step_equals_the_written_expressions_bitwise():
    rng = np.random.default_rng(21)
    params = {"c": rng.standard_normal((6, 5)),
              "f": np.asfortranarray(rng.standard_normal((5, 7))),
              "b": np.zeros((1, 4))}
    assert params["f"].flags.f_contiguous and not params["f"].flags.c_contiguous
    ref = {k: v.copy(order="K") for k, v in params.items()}
    state = ({k: np.zeros_like(v) for k, v in ref.items()},
             {k: np.zeros_like(v) for k, v in ref.items()}, 0)
    opt = Adam(params, lr=0.01)
    for scale in (5.0, 0.01, 3.0):  # the first and last steps clip
        grads = {k: rng.standard_normal(v.shape) * scale for k, v in params.items()}
        grads["b"][0, 1] = 0.0
        assert (global_norm(grads) > CLIP_NORM) == (scale > 1.0)
        kept = {k: g.copy() for k, g in grads.items()}
        opt.step(grads)
        state = adam_reference(ref, state, kept)
        for k in params:
            assert params[k].tobytes(order="A") == ref[k].tobytes(order="A"), k
            assert opt.m[k].tobytes() == state[0][k].tobytes(), k
            assert opt.v[k].tobytes() == state[1][k].tobytes(), k
            np.testing.assert_array_equal(grads[k], kept[k])  # grads untouched
    assert opt.t == state[2] == 3


def test_flat_adam_equals_the_per_array_recursion_over_twenty_steps():
    """Five heads stepped in turn; every parameter and moment equals the
    written per-array recursion bitwise over 20 steps, clipped on even
    steps and not on odd ones."""
    nets = small_nets(RIVER_CFG, seed=3)
    rng = np.random.default_rng(22)
    opts = {h: Adam(nets.params[h], lr=0.01) for h in CadeNets.HEADS}
    refs = {h: ({k: v.copy(order="K") for k, v in p.items()},
                ({k: np.zeros_like(v) for k, v in p.items()},
                 {k: np.zeros_like(v) for k, v in p.items()}, 0))
            for h, p in nets.params.items()}
    for step in range(20):
        scale = 1.0 if step % 2 == 0 else 0.01
        for head, opt in opts.items():
            grads = {k: rng.standard_normal(v.shape) * scale
                     for k, v in opt.params.items()}
            assert (global_norm(grads) > CLIP_NORM) == (step % 2 == 0)
            ref, state = refs[head]
            refs[head] = ref, adam_reference(ref, state, grads)
            opt.step(grads)
            m, v, t = refs[head][1]
            assert opt.t == t == step + 1
            for k, p in opt.params.items():
                for got, want in ((p, ref[k]), (opt.m[k], m[k]), (opt.v[k], v[k])):
                    assert got.flags.f_contiguous == want.flags.f_contiguous
                    assert got.flags.c_contiguous == want.flags.c_contiguous
                    assert got.tobytes(order="A") == want.tobytes(order="A"), (head, k)
    # each head's moments are views of one flat array each
    for opt in opts.values():
        for moments in (opt.m, opt.v):
            flat = next(iter(moments.values())).base
            assert flat is not None and flat.ndim == 1
            assert all(a.base is flat for a in moments.values())


@pytest.mark.parametrize("cfg", [CLIFF_CFG, RIVER_CFG], ids=["cliff", "river"])
def test_adams_stepped_alternately_equal_adams_stepped_alone(cfg):
    """Each Adam owns its buffers: the heads' Adams stepped in turn for 20
    steps end bit for bit where each ends stepped alone, parameters and
    moments, clipped on even steps and not on odd ones."""
    def grads(head, step, params):
        rng = np.random.default_rng((CadeNets.HEADS.index(head), step))
        scale = 10.0 if step % 2 == 0 else 1e-3
        g = {k: rng.standard_normal(v.shape) * scale for k, v in params.items()}
        assert (global_norm(g) > CLIP_NORM) == (step % 2 == 0)
        return g

    runs = []
    for alternate in (True, False):
        nets = small_nets(cfg, seed=7)
        opts = {h: Adam(nets.params[h], lr=0.01) for h in CadeNets.HEADS}
        order = ([(step, h) for step in range(20) for h in CadeNets.HEADS]
                 if alternate else
                 [(step, h) for h in CadeNets.HEADS for step in range(20)])
        for step, head in order:
            opts[head].step(grads(head, step, opts[head].params))
        runs.append(opts)
    for head in CadeNets.HEADS:
        together, alone = runs[0][head], runs[1][head]
        assert together.t == alone.t == 20
        for k in together.params:
            for a, b in ((together.params[k], alone.params[k]),
                         (together.m[k], alone.m[k]), (together.v[k], alone.v[k])):
                assert a.tobytes(order="A") == b.tobytes(order="A"), (head, k)


def test_adam_step_keeps_every_array_and_its_layout():
    # a C-ordered and an F-ordered parameter, each stepped in place
    rng = np.random.default_rng(2)
    params = {"c": rng.standard_normal((6, 5)),
              "f": np.asfortranarray(rng.standard_normal((5, 7)))}

    def layout(a):
        return a.flags.c_contiguous, a.flags.f_contiguous, a.flags.writeable, a.strides

    arrays = {k: (v, layout(v)) for k, v in params.items()}
    opt = Adam(params)
    for _ in range(2):
        opt.step({k: np.ones_like(v, order="C") for k, v in params.items()})
    for k, (arr, flags) in arrays.items():
        assert params[k] is arr and layout(arr) == flags


def test_adam_steps_a_gradient_in_its_parameters_layout():
    """An F-ordered parameter stepped with C-ordered gradients ends with the
    bytes of one stepped with the same gradients F-ordered, and of a
    C-ordered copy stepped with C-ordered gradients; so do the moments.
    The third step clips."""
    rng = np.random.default_rng(4)
    init = np.asfortranarray(rng.standard_normal((9, 6)))
    sides = {"FC": init.copy(order="F"), "FF": init.copy(order="F"),
             "CC": init.copy(order="C")}
    opts = {key: Adam({"W": w}, lr=0.01) for key, w in sides.items()}
    for scale in (0.5, 1.0, 8.0, 0.2):
        g = rng.standard_normal(init.shape) * scale
        for key, opt in opts.items():
            grad = g.copy(order=key[1])
            opt.step({"W": grad})
            np.testing.assert_array_equal(grad, g)  # the caller's copy untouched
    assert sides["FC"].flags.f_contiguous and not sides["FC"].flags.c_contiguous
    fc = opts["FC"]
    for key in ("FF", "CC"):
        for got, want in ((sides["FC"], sides[key]), (fc.m["W"], opts[key].m["W"]),
                          (fc.v["W"], opts[key].v["W"])):
            assert got.tobytes() == want.tobytes(), key
