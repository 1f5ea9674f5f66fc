"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every operation of one forward pass (define-by-run).
``Tape.backward(loss)`` walks the recorded ops in reverse and accumulates
gradients into ``Tensor.grad``.  The engine is deliberately small: dense
arrays only and no operator algebra.  A ``Tensor`` has no methods of its
own; every differentiable step registers itself through ``Tape.record``
as one named op with a hand-written backward: the GRU replay
(``gru_seq``), every MLP (``mlp``), the policy-gradient loss
(``policy``), the heads' squared error (``mse``), the homography solve
and grid warp, the Jaccard loss (``jaccard``) and the dense dynamics
model's cross-entropy (``bce``).

Gradient semantics:
  * every leaf (``Tape.leaf``) takes a gradient and no constant
    (``Tape.const``) ever does, so constants stop propagation;
  * after ``backward``, every leaf on the tape that is still alive has a
    grad array of its own; leaves unreachable from the loss get zeros, not
    None; intermediate results keep ``grad`` None;
  * repeated ``backward`` calls accumulate into ``grad``.

Storage: a leaf or constant holds the caller's float64 array itself, not a
copy.  No op writes to its inputs' values, and every gradient buffer is an
array of its own, never an input's values.  So ``nets.bind`` puts the
parameter arrays themselves on the tape, which is safe because
``nets.minimize`` steps them in place only after the backward has run.
A gradient's first arrival at a tensor is adopted, not copied, when the
backward made it for that input alone: as a float64 array it is
C-ordered, owns its data, is not the backward's ``g`` and is not already
a buffer of the same ``backward`` call.  Anything else (a view, ``g``
itself, one array returned for two inputs) is copied.  Later arrivals are added into
the buffer in place, so a backward must return arrays it keeps no
reference to; every op above makes fresh ones on each call.
Tensors own their tape, and the tape owns no tensor: an op record keeps
its kind, its output's id, an ``(id, requires_grad, shape)`` triple per
input and its backward, which closes over arrays and flags, never a
tensor, and the leaves that take a grad are held by weak reference (a leaf
gone before the backward is skipped).  So no tape is part of a reference
cycle, and a step's tape and the forward caches its backwards hold are
freed by reference count with the step's last tensor.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "TapeError",
    "stable_sigmoid",
]


class TapeError(RuntimeError):
    """Raised on tape misuse: mixed tapes, non-scalar loss, bad shapes."""


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic; shared by the taped op and value-level code."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tensor:
    """A node in the computation tape: float64 values plus optional grad."""

    __slots__ = ("tape", "values", "grad", "requires_grad", "node_id", "__weakref__")

    def __init__(self, tape: "Tape", values: np.ndarray, requires_grad: bool, node_id: int):
        self.tape = tape
        self.values = values
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = node_id


class Tape:
    """Ordered record of one forward pass.

    Every op appends (kind, out_id, inputs, backward_fn), ``inputs`` an
    ``(id, requires_grad, shape)`` triple per input tensor; inputs are
    always recorded before the ops that consume them, so the list is
    already a topological order and reverse iteration implements
    backpropagation.
    """

    def __init__(self):
        self._ops: list = []
        self._leaves: list = []  # weak references to the leaves that get a grad
        self._next_id = 0

    # ---- tensor creation --------------------------------------------------

    def _new(self, values: np.ndarray, requires_grad: bool) -> Tensor:
        t = Tensor(self, values, requires_grad, self._next_id)
        self._next_id += 1
        return t

    def leaf(self, values) -> Tensor:
        """A leaf that takes a gradient, holding ``values`` as float64: a
        float64 array itself, not a copy; anything else converted."""
        t = self._new(np.asarray(values, dtype=np.float64), True)
        self._leaves.append(weakref.ref(t))
        return t

    def const(self, values) -> Tensor:
        arr = np.asarray(values, dtype=np.float64)
        return self._new(arr, False)

    # ---- op recording -----------------------------------------------------

    def record(self, kind: str, out_values: np.ndarray, inputs: tuple, backward) -> Tensor:
        """Register a custom op.  ``backward(g)`` returns one grad per input
        (None for inputs that take no gradient), arrays it keeps no
        reference to, since the tape may adopt them as buffers (see the
        module docstring); it must hold no tensor, or the tape it is
        recorded on joins a reference cycle."""
        for t in inputs:
            if t.tape is not self:
                raise TapeError("input tensor belongs to a different tape")
        requires = any(t.requires_grad for t in inputs)
        out = self._new(out_values, requires)
        if requires:
            self._ops.append((kind, out.node_id,
                              tuple((t.node_id, t.requires_grad, t.values.shape)
                                    for t in inputs),
                              backward))
        return out

    def ops(self):
        """(kind, out_id, input_ids) triples, in recorded order."""
        return [(kind, out_id, tuple(node_id for node_id, _, _ in inputs))
                for kind, out_id, inputs, _ in self._ops]

    # ---- backward ----------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        if loss.tape is not self:
            raise TapeError("loss tensor belongs to a different tape")
        if loss.values.size != 1:
            raise TapeError("backward expects a scalar loss")
        # Per-call gradient buffers keep repeated backward calls additive.
        # A first arrival is adopted under a reshaped view or copied (see
        # the module docstring); `adopted` holds the ids of the adopted
        # arrays whose buffers are still in `bufs`, so no two tensors share
        # a buffer.
        bufs = {loss.node_id: np.array(1.0).reshape(loss.values.shape)}
        adopted = set()
        for kind, out_id, inputs, backward in reversed(self._ops):
            g = bufs.pop(out_id, None)
            if g is None:
                continue
            adopted.discard(id(g.base))  # the adopted array under g, if any
            grads = backward(g)
            for (node_id, requires_grad, shape), gt in zip(inputs, grads):
                if gt is None or not requires_grad:
                    continue
                gt = np.asarray(gt, dtype=np.float64)
                buf = bufs.get(node_id)
                if buf is not None:
                    buf += gt.reshape(shape)
                elif (gt.base is None and gt.flags.c_contiguous and gt is not g
                      and id(gt) not in adopted):
                    adopted.add(id(gt))
                    bufs[node_id] = gt.reshape(shape)
                else:
                    bufs[node_id] = gt.reshape(shape).copy()
        # Flush: what is left are the leaves' buffers (an op output's buffer
        # was popped when its op ran); a live leaf takes its buffer as its
        # grad or adds it, and an unreachable one gets zeros.
        for ref in self._leaves:
            t = ref()
            if t is None:
                continue
            g = bufs.get(t.node_id)
            if t.grad is None:
                t.grad = g if g is not None else np.zeros_like(t.values)
            elif g is not None:
                t.grad += g
