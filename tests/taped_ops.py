"""The elementwise ``Tensor`` algebra that only the tests' per-op references
still record.

``cade.autograd.Tensor`` carried these operators, reductions, slices,
reshape and softmax as methods until the fused ``mlp``, ``policy``,
``mse``, ``jaccard`` and ``bce`` ops, and the homography solve taking the
offsets head's (B, 8) rows, left src without a caller.  ``Tape`` here is a
``cade.autograd.Tape`` whose tensors, ``Tensor`` here, carry them again:
each method is the deleted one, verbatim, and so are ``Tape._unary``,
``Tape._binary``, ``concat`` and ``_unbroadcast``, which sums a broadcast
operand's gradient down to its shape.  Every op that src records on this
tape returns such a tensor, so a test can mix fused ops and the algebra.

The ops that were methods before the earlier fused ops are functions of
their operands: ``matmul(a, b)`` is ``a @ b``, ``neg(x)`` is ``-x`` and
``rsub(c, x)`` is ``c - x``.  ``matmul`` forms a product of two matrices
as the nets form theirs, with ``cade.nets.row_product``, so a reference's
forward has the bits of the fused op's.
"""

import numpy as np

from cade import autograd
from cade.autograd import TapeError, stable_sigmoid
from cade.nets import row_product


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Tensor(autograd.Tensor):
    """``cade.autograd.Tensor`` with the elementwise algebra."""

    __slots__ = ()

    # ---- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, autograd.Tensor):
            if other.tape is not self.tape:
                raise TapeError("operands belong to different tapes")
            return other
        return self.tape.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        return self.tape._binary("add", self, other, self.values + other.values,
                                 lambda g: g, lambda g: g)

    def __sub__(self, other):
        other = self._coerce(other)
        return self.tape._binary("sub", self, other, self.values - other.values,
                                 lambda g: g, lambda g: -g)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.values, other.values
        return self.tape._binary("mul", self, other, a * b,
                                 lambda g: g * b, lambda g: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self.values, other.values
        out = a / b
        return self.tape._binary("div", self, other, out,
                                 lambda g: g / b, lambda g: -g * out / b)

    # ---- elementwise nonlinearities --------------------------------------

    def exp(self) -> "Tensor":
        out = np.exp(self.values)
        return self.tape._unary("exp", self, out, lambda g: g * out)

    def log(self) -> "Tensor":
        x = self.values
        return self.tape._unary("log", self, np.log(x), lambda g: g / x)

    def softmax(self, axis: int = -1) -> "Tensor":
        x = self.values
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return out * (g - dot)

        return self.tape._unary("softmax", self, out, backward)

    # ---- reductions and shape ops ----------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        old = self.values.shape
        return self.tape.record("reshape", self.values.reshape(shape), (self,),
                                lambda g: (g.reshape(old),))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        x = self.values
        out = x.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return np.broadcast_to(g, x.shape).copy()
            ga = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(ga, x.shape).copy()

        return self.tape._unary("sum", self, out, backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        x = self.values
        out = x.mean(axis=axis, keepdims=keepdims)
        count = x.size if axis is None else x.size // out.size

        def backward(g):
            if axis is None:
                return np.broadcast_to(g / count, x.shape).copy()
            ga = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(ga / count, x.shape).copy()

        return self.tape._unary("mean", self, out, backward)

    def slice(self, index) -> "Tensor":
        """Static basic slice; ``index`` is an int, slice, or tuple of them."""
        x = self.values
        out = np.ascontiguousarray(x[index])

        def backward(g):
            gx = np.zeros_like(x)
            gx[index] = g
            return gx

        return self.tape._unary("slice", self, out, backward)

    def __getitem__(self, index):
        return self.slice(index)

    def gather_rows(self, idx: np.ndarray) -> "Tensor":
        """out[i] = self[i, idx[i]] for a 2-D tensor and integer index array."""
        x = self.values
        rows = np.arange(x.shape[0])
        out = x[rows, idx]

        def backward(g):
            gx = np.zeros_like(x)
            gx[rows, idx] = g
            return gx

        return self.tape._unary("gather_rows", self, out, backward)


class Tape(autograd.Tape):
    """``cade.autograd.Tape`` whose tensors carry the elementwise algebra."""

    def _new(self, values: np.ndarray, requires_grad: bool) -> Tensor:
        t = Tensor(self, values, requires_grad, self._next_id)
        self._next_id += 1
        return t

    def _unary(self, kind, a, out_values, backward):
        return self.record(kind, out_values, (a,), lambda g: (backward(g),))

    def _binary(self, kind, a, b, out_values, grad_a, grad_b):
        """Elementwise op with broadcasting; a constant operand's gradient is
        never formed or summed down to its shape."""
        ash, bsh = a.values.shape, b.values.shape
        need_a, need_b = a.requires_grad, b.requires_grad

        def bw(g):
            return (_unbroadcast(np.asarray(grad_a(g)), ash) if need_a else None,
                    _unbroadcast(np.asarray(grad_b(g)), bsh) if need_b else None)

        return self.record(kind, out_values, (a, b), bw)


def concat(tensors: list, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient."""
    if not tensors:
        raise TapeError("concat of an empty list")
    tape = tensors[0].tape
    for t in tensors:
        if t.tape is not tape:
            raise TapeError("concat across tapes")
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, sizes, axis=axis))

    return tape.record("concat", out, tuple(tensors), backward)


def matmul(a: Tensor, other) -> Tensor:
    other = a._coerce(other)
    av, bv = a.values, other.values
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise TapeError("matmul supports 1-D and 2-D operands only")
    out = row_product(av, bv) if av.ndim == bv.ndim == 2 else av @ bv

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
