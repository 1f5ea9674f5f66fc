"""The tests' one finite-difference gradient checker."""

import numpy as np

from taped_ops import Tape


class GradCheckError(RuntimeError):
    """A loss, a probe or an analytic gradient entry that is not finite."""


def _expect_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise GradCheckError(f"{what} is not finite")


def fd_param_max_err(loss_np, params: dict, analytic: dict, eps: float = 1e-6) -> float:
    """Worst relative error between ``analytic`` grads and central differences.

    ``loss_np(params) -> float`` re-evaluates the loss from mutated arrays;
    every entry of every parameter is probed.  Relative error is
    |a - n| / max(1, |n|).  A non-finite analytic entry or probe raises
    ``GradCheckError``: ``max`` would skip a NaN and report agreement.
    """
    worst = 0.0
    for name, arr in params.items():
        ana = np.asarray(analytic[name]).ravel()
        _expect_finite(ana, f"analytic gradient of {name!r}")
        # index through the array itself: ravel() would copy (and the probe
        # would silently no-op) whenever the parameter is a transposed view
        for i in range(arr.size):
            idx = np.unravel_index(i, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = loss_np(params)
            arr[idx] = orig - eps
            lo = loss_np(params)
            arr[idx] = orig
            _expect_finite((hi, lo), f"probe of {name!r} entry {i}")
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


def grad_check(f, point: np.ndarray, eps: float = 1e-6) -> float:
    """``fd_param_max_err`` of a Tensor function at ``point``.

    ``f`` maps a Tensor to a scalar Tensor on the same tape; the analytic
    gradient comes from one ``Tape.backward``, each probe from a fresh tape.
    """
    point = np.array(point, dtype=np.float64)
    tape = Tape()
    x = tape.leaf(point, requires_grad=True)
    out = f(x)
    _expect_finite(out.values, "loss at the probe point")
    tape.backward(out)
    return fd_param_max_err(lambda p: float(f(Tape().leaf(p["x"])).values),
                            {"x": point}, {"x": x.grad}, eps)
