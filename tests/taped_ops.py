"""Tape ops that only the tests' per-op references still record.

``cade.autograd.Tensor`` recorded these as methods before the fused
``mlp``, ``jaccard`` and ``bce`` ops left src without a caller.  Each is
the method's body, verbatim, as a function of its operands: ``matmul(a,
b)`` is ``a @ b``, ``neg(x)`` is ``-x`` and ``rsub(c, x)`` is ``c - x``.
"""

import numpy as np

from cade.autograd import TapeError, Tensor, stable_sigmoid


def matmul(a: Tensor, other) -> Tensor:
    other = a._coerce(other)
    av, bv = a.values, other.values
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise TapeError("matmul supports 1-D and 2-D operands only")
    out = av @ bv

    def grad_a(g):
        if bv.ndim == 2:
            return g @ bv.T
        return np.outer(g, bv) if av.ndim == 2 else g * bv  # 1-D dot: g scalar

    def grad_b(g):
        if av.ndim == 2:
            return av.T @ g
        return np.outer(av, g) if bv.ndim == 2 else g * av

    # a constant side takes no gradient, so its product is never formed
    need_a, need_b = a.requires_grad, other.requires_grad
    return a.tape.record("matmul", out, (a, other), lambda g: (
        grad_a(g) if need_a else None, grad_b(g) if need_b else None))


def neg(x: Tensor) -> Tensor:
    return x.tape._unary("neg", x, -x.values, lambda g: -g)


def rsub(c, x: Tensor) -> Tensor:
    return x._coerce(c).__sub__(x)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.values)
    return x.tape._unary("tanh", x, out, lambda g: g * (1.0 - out * out))


def sigmoid(x: Tensor) -> Tensor:
    out = stable_sigmoid(x.values)
    return x.tape._unary("sigmoid", x, out, lambda g: g * out * (1.0 - out))


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0
    return x.tape._unary("relu", x, np.where(mask, x.values, 0.0),
                         lambda g: g * mask)
