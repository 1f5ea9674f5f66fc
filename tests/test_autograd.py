"""Engine-level tests: finite-difference agreement, tape semantics, checkpoints."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cade import checkpoint
from cade.autograd import TapeError, stable_sigmoid
from cade.checkpoint import (CheckpointError, load_params, save_params,
                             write_atomic)
from fdcheck import GradCheckError, fd_param_max_err, grad_check
from taped_gru import stack_rows
from taped_ops import (Tape, _unbroadcast, concat, matmul, neg, relu, rsub,
                       sigmoid, tanh)

RNG = np.random.default_rng(20240817)


def rand(*shape):
    return RNG.normal(size=shape)


# One scalar-valued probe per primitive; grad_check supplies the oracle.
# Constants are frozen via default args so every finite-difference probe
# evaluates the same function the analytic pass differentiated.
PRIMITIVE_PROBES = {
    "add": (lambda x, c=rand(4, 3): (x + x.tape.const(c)).sum(), lambda: rand(4, 3)),
    "add_broadcast": (lambda x, c=rand(3): (x + x.tape.const(c)).sum(), lambda: rand(4, 3)),
    "sub": (lambda x, c=rand(4): (x.tape.const(c) - x).sum(), lambda: rand(4)),
    "neg": (lambda x: neg(x).sum(), lambda: rand(5)),
    "mul": (lambda x, c=rand(4, 3): (x * x.tape.const(c)).sum(), lambda: rand(4, 3)),
    "div": (lambda x, c=rand(5) + 3.0: (x / x.tape.const(c)).sum(), lambda: rand(5)),
    "div_denom": (lambda x, c=rand(5): (x.tape.const(c) / (x + 4.0)).sum(), lambda: rand(5)),
    "matmul_22": (lambda x, c=rand(3, 2): matmul(x, x.tape.const(c)).sum(), lambda: rand(4, 3)),
    "matmul_21": (lambda x, c=rand(3): matmul(x, x.tape.const(c)).sum(), lambda: rand(4, 3)),
    "matmul_12": (lambda x, c=rand(4, 3): matmul(x, x.tape.const(c)).sum(), lambda: rand(4)),
    "tanh": (lambda x: tanh(x).sum(), lambda: rand(6)),
    "sigmoid": (lambda x: sigmoid(x).sum(), lambda: rand(6)),
    "relu": (lambda x: relu(x).sum(), lambda: rand(6) + 0.05),
    "exp": (lambda x: x.exp().sum(), lambda: rand(6)),
    "log": (lambda x: x.log().sum(), lambda: rand(6) ** 2 + 0.5),
    "softmax": (lambda x, c=rand(4, 5): (x.softmax(-1) * x.tape.const(c)).sum(),
                lambda: rand(4, 5)),
    "sum_axis": (lambda x, c=rand(4): (x.sum(axis=1) * x.tape.const(c)).sum(),
                 lambda: rand(4, 3)),
    "mean": (lambda x: x.mean() * 3.0, lambda: rand(4, 3)),
    "mean_axis": (lambda x, c=rand(3): (x.mean(axis=0) * x.tape.const(c)).sum(),
                  lambda: rand(4, 3)),
    "reshape": (lambda x, c=rand(2, 6): (x.reshape(2, 6) * x.tape.const(c)).sum(),
                lambda: rand(3, 4)),
    "slice": (lambda x, c=rand(2, 2): (x[1:3, :2] * x.tape.const(c)).sum(),
              lambda: rand(4, 3)),
    "concat": (lambda x, c=rand(8, 3): (concat([x, x * 2.0], axis=0) * x.tape.const(c)).sum(),
               lambda: rand(4, 3)),
    "gather_rows": (lambda x: x.gather_rows(np.array([2, 0, 1, 2])).sum(), lambda: rand(4, 3)),
    "stack_rows": (lambda x, c=rand(2, 4): (stack_rows([x[0], x[1] * 3.0]) *
                                            x.tape.const(c)).sum(), lambda: rand(2, 4)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_PROBES))
def test_primitive_gradients(name):
    f, sample = PRIMITIVE_PROBES[name]
    for _ in range(5):
        assert grad_check(f, sample()) < 1e-6


def test_grad_check_flags_wrong_gradient():
    # A deliberately broken gradient must be caught, otherwise the whole
    # finite-difference suite proves nothing.
    def f(x):
        out = tanh(x).sum()
        return out + x.tape.const(x.values).sum() * 0.1  # analytic misses 0.1

    assert grad_check(f, rand(4)) > 1e-3


def test_backward_fills_unreachable_with_zeros():
    tape = Tape()
    used = tape.leaf(rand(3), requires_grad=True)
    unused = tape.leaf(rand(3), requires_grad=True)
    loss = (used * used).sum()
    tape.backward(loss)
    assert used.grad is not None and np.any(used.grad != 0)
    assert unused.grad is not None and np.all(unused.grad == 0)


def test_repeated_backward_accumulates():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], requires_grad=True)
    loss = (x * 3.0).sum()
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_only_leaves_get_gradients():
    tape = Tape()
    x = tape.leaf(rand(3), requires_grad=True)
    c = tape.const(rand(3))
    hidden = tanh(x * c)
    loss = hidden.sum()
    tape.backward(loss)
    assert x.grad is not None and np.any(x.grad != 0)
    assert hidden.grad is None and loss.grad is None and c.grad is None


def test_repeated_backward_accumulates_through_intermediates():
    tape = Tape()
    x = tape.leaf([0.5, -1.0], requires_grad=True)
    loss = (tanh(x) * x).sum()
    tape.backward(loss)
    once = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, once + once)


def test_leaves_never_share_a_gradient_buffer():
    # add hands both inputs the same gradient array
    tape = Tape()
    x = tape.leaf(rand(3), requires_grad=True)
    y = tape.leaf(rand(3), requires_grad=True)
    loss = (x + y).sum()
    tape.backward(loss)
    assert not np.shares_memory(x.grad, y.grad)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(y.grad, [2.0, 2.0, 2.0])


def test_mixed_tape_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf([1.0])
    b = t2.leaf([1.0])
    with pytest.raises(TapeError):
        a + b
    with pytest.raises(TapeError):
        concat([a, b])
    with pytest.raises(TapeError):
        t1.backward(b)


def test_non_scalar_loss_rejected():
    tape = Tape()
    x = tape.leaf(rand(3), requires_grad=True)
    with pytest.raises(TapeError):
        tape.backward(x * 2.0)


def test_tape_topology_inputs_before_ops():
    tape = Tape()
    x = tape.leaf(rand(4), requires_grad=True)
    y = (tanh(x) * 2.0 + sigmoid(x)).sum()
    tape.backward(y)
    for _, out_id, input_ids in tape.ops():
        assert all(i < out_id for i in input_ids)


def test_detach_blocks_gradient():
    tape = Tape()
    x = tape.leaf(rand(4), requires_grad=True)
    loss = (tape.const(x.values) * 3.0).sum() + (x * 2.0).sum()
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0)


def test_nonfinite_probe_raises():
    with np.errstate(invalid="ignore"), pytest.raises(GradCheckError):
        grad_check(lambda x: x.log().sum(), np.array([-1.0, 2.0]))


def test_nonfinite_gradient_or_probe_raises():
    # max(worst, nan) == worst: without the checks a NaN reads as agreement
    def nan_backward(x):
        return x.tape.record("nan_grad", x.values * 2.0, (x,),
                             lambda g: (np.full_like(g, np.nan),)).sum()

    with pytest.raises(GradCheckError, match="analytic"):
        grad_check(nan_backward, rand(3))
    p = {"w": rand(3)}
    with pytest.raises(GradCheckError, match="analytic"):
        fd_param_max_err(lambda q: float(q["w"].sum()), p, {"w": np.full(3, np.nan)})
    with pytest.raises(GradCheckError, match="probe"):
        fd_param_max_err(lambda q: np.nan, p, {"w": np.ones(3)})


def test_softmax_rows_sum_to_one_and_shift_invariant():
    tape = Tape()
    x = tape.leaf(rand(6, 4) * 30.0)
    s = x.softmax(-1).values
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    shifted = tape.leaf(x.values + 123.0).softmax(-1).values
    np.testing.assert_allclose(s, shifted, atol=1e-12)


@pytest.mark.parametrize("const_side", ["left", "right"])
def test_matmul_skips_the_constant_side(const_side):
    # the constant's gradient is never formed; the other side is unchanged
    tape = Tape()
    a = tape.leaf(rand(4, 3), requires_grad=const_side != "left")
    b = tape.leaf(rand(3, 2), requires_grad=const_side != "right")
    g = rand(4, 2)
    matmul(a, b)
    kind, _, _, backward = tape._ops[-1]
    assert kind == "matmul"
    ga, gb = backward(g)
    if const_side == "left":
        assert ga is None
        np.testing.assert_array_equal(gb, a.values.T @ g)
    else:
        assert gb is None
        np.testing.assert_array_equal(ga, g @ b.values.T)


def _both_sides_binary(self, kind, a, b, out_values, grad_a, grad_b):
    """The earlier elementwise rule: both gradients formed and unbroadcast,
    the constant's then discarded by ``Tape.backward``."""
    ash, bsh = a.values.shape, b.values.shape
    return self.record(kind, out_values, (a, b), lambda g: (
        _unbroadcast(np.asarray(grad_a(g)), ash),
        _unbroadcast(np.asarray(grad_b(g)), bsh)))


def _mixed_constant_loss_grads(vals):
    tape = Tape()
    x = tape.leaf(vals["x"], requires_grad=True)
    w = tape.leaf(vals["w"], requires_grad=True)
    c, t = tape.const(vals["c"]), tape.const(vals["t"])
    z = rsub(1.0, x) * w + c                     # constant left, broadcast right
    d = z / (w * w + 2.0) - t                 # constant on both sides
    e = (c - x * c) / (c * c + 1.0) + 0.5 * w  # constant-only divisor
    loss = (d * d).mean() + (e / w.exp()).sum()
    tape.backward(loss)
    return x.grad, w.grad


def test_elementwise_constants_take_no_gradient(monkeypatch):
    tape = Tape()
    z = tape.leaf(rand(4, 3), requires_grad=True)
    rsub(1.0, z)
    kind, _, _, backward = tape._ops[-1]
    assert kind == "sub"
    g = rand(4, 3)
    ga, gb = backward(g)
    assert ga is None
    np.testing.assert_array_equal(gb, -g)

    vals = {"x": rand(4, 3), "w": rand(3), "c": rand(4, 1), "t": rand(4, 3)}
    new = _mixed_constant_loss_grads(vals)
    monkeypatch.setattr(Tape, "_binary", _both_sides_binary)
    old = _mixed_constant_loss_grads(vals)
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a, b)


def two_division_sigmoid(x):
    """The earlier form of ``stable_sigmoid``, kept as its bitwise reference."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0,
                   5e-324, -5e-324, 2.2e-308, -2.2e-308, 37.0, -37.0]))
def test_stable_sigmoid_matches_two_division_form_bitwise(x):
    new, old = stable_sigmoid(x), two_division_sigmoid(x)
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(old))


# ---- checkpoint format ----------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = {
        "trunk/W": rand(7, 3),
        "trunk/b": rand(7),
        "actor/W": np.array(0.5),  # 0-d tensor
        "sdm/W": rand(2, 2, 2),
    }
    path = str(tmp_path / "w.bin")
    save_params(path, params)
    loaded = load_params(path)
    assert list(loaded) == list(params)
    for k in params:
        assert loaded[k].dtype == np.float64
        assert loaded[k].shape == np.asarray(params[k]).shape
        assert np.array_equal(loaded[k], params[k])
    # byte-stable: saving the loaded dict reproduces the file exactly
    path2 = str(tmp_path / "w2.bin")
    save_params(path2, loaded)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = str(tmp_path / "w.bin")
    save_params(path, {"a": rand(3)})
    blob = open(path, "rb").read()
    bad = str(tmp_path / "bad.bin")
    with open(bad, "wb") as fh:
        fh.write(b"NOTCKP" + blob[6:])
    with pytest.raises(CheckpointError):
        load_params(bad)
    trunc = str(tmp_path / "trunc.bin")
    with open(trunc, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(CheckpointError):
        load_params(trunc)


class _HalfWriter:
    """A file whose write stores half the bytes and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "w.bin"
    save_params(path, {"a": rand(3)})
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open",
                        lambda p, mode: _HalfWriter(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_params(path, {"a": rand(5), "b": rand(2)})
    with pytest.raises(OSError, match="no space"):
        write_atomic(tmp_path / "new.json", "{}\n")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.bin"]
    monkeypatch.undo()
    write_atomic(path, "text\n")
    assert path.read_text() == "text\n"
