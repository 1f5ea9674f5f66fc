"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every operation of one forward pass (define-by-run).
``Tape.backward(loss)`` walks the recorded ops in reverse and accumulates
gradients into ``Tensor.grad``.  The engine is deliberately small: dense
arrays only and no operator algebra.  A ``Tensor`` has no methods of its
own; every differentiable step registers itself through ``Tape.record``
as one named op with a hand-written backward: the GRU replay
(``gru_seq``), every MLP (``mlp``), the policy loss (``policy``), the
heads' squared error (``mse``), the homography solve and grid warp, the
Jaccard loss (``jaccard``) and the dense dynamics model's cross-entropy
(``bce``).

Gradient semantics:
  * after ``backward``, every requires-grad leaf on the tape has a grad
    array of its own; leaves unreachable from the loss get zeros, not None;
    intermediate results keep ``grad`` None;
  * repeated ``backward`` calls accumulate into ``grad``;
  * constants (requires_grad=False) stop propagation.

Storage: a leaf or constant holds the caller's float64 array itself, not a
copy.  No op writes to its inputs' values, and every gradient buffer is an
array of its own, never an input's values.  So ``nets.bind`` puts the
parameter arrays themselves on the tape, which is safe because
``nets.minimize`` steps them in place only after the backward has run.
"""

from __future__ import annotations

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

    __slots__ = ("tape", "values", "grad", "requires_grad", "node_id")

    def __init__(self, tape: "Tape", values: np.ndarray, requires_grad: bool, node_id: int):
        self.tape = tape
        self.values = values
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = node_id

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of one forward pass.

    Every op appends (kind, output, inputs, backward_fn); inputs are always
    recorded before the ops that consume them, so the list is already a
    topological order and reverse iteration implements backpropagation.
    """

    def __init__(self):
        self._ops: list = []
        self._leaves: list = []  # requires-grad leaves, the tensors that get a grad
        self._next_id = 0

    # ---- tensor creation --------------------------------------------------

    def _new(self, values: np.ndarray, requires_grad: bool) -> Tensor:
        t = Tensor(self, values, requires_grad, self._next_id)
        self._next_id += 1
        return t

    def leaf(self, values, requires_grad: bool = False) -> Tensor:
        """A leaf holding ``values`` as float64: a float64 array itself, not
        a copy; anything else converted."""
        t = self._new(np.asarray(values, dtype=np.float64), requires_grad)
        if requires_grad:
            self._leaves.append(t)
        return t

    def const(self, values) -> Tensor:
        arr = np.asarray(values, dtype=np.float64)
        return self._new(arr, False)

    # ---- op recording -----------------------------------------------------

    def record(self, kind: str, out_values: np.ndarray, inputs: tuple, backward) -> Tensor:
        """Register a custom op.  ``backward(g)`` returns one grad per input
        (None for inputs that take no gradient)."""
        for t in inputs:
            if t.tape is not self:
                raise TapeError("input tensor belongs to a different tape")
        requires = any(t.requires_grad for t in inputs)
        out = self._new(out_values, requires)
        if requires:
            self._ops.append((kind, out, inputs, backward))
        return out

    def ops(self):
        """(kind, out_id, input_ids) triples, in recorded order."""
        return [(kind, out.node_id, tuple(t.node_id for t in inputs))
                for kind, out, inputs, _ in self._ops]

    # ---- backward ----------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        if loss.tape is not self:
            raise TapeError("loss tensor belongs to a different tape")
        if loss.values.size != 1:
            raise TapeError("backward expects a scalar loss")
        # Per-call gradient buffers keep repeated backward calls additive;
        # each is a copy on first arrival, so no two tensors share one.
        bufs: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.values)}
        for kind, out, inputs, backward in reversed(self._ops):
            g = bufs.pop(out.node_id, None)
            if g is None:
                continue
            grads = backward(g)
            for t, gt in zip(inputs, grads):
                if gt is None or not t.requires_grad:
                    continue
                gt = np.asarray(gt, dtype=np.float64).reshape(t.values.shape)
                buf = bufs.get(t.node_id)
                if buf is None:
                    bufs[t.node_id] = gt.copy()
                else:
                    buf += gt
        # Flush: what is left are the leaves' buffers (an op output's buffer
        # was popped when its op ran); a leaf takes its buffer as its grad
        # or adds it, and an unreachable leaf gets zeros.
        for t in self._leaves:
            g = bufs.get(t.node_id)
            if t.grad is None:
                t.grad = g if g is not None else np.zeros_like(t.values)
            elif g is not None:
                t.grad += g

