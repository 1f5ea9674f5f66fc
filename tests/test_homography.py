"""Homography solve/warp/Jaccard tests against independent oracles.

The DLT oracle below uses the homogeneous 9-parameter SVD formulation,
a different algorithm from the module's inhomogeneous 8x8 solve, under the
same conventions: corners TL, TR, BR, BL; offsets (dcol, drow), as (B, 8)
rows for the module and as (4, 2) corners for the oracle; H acting on
(row, col, 1).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_homography as ref
from reference_homography import source_corners
from cade import homography
from cade.autograd import TapeError
from cade.homography import (HomographyError, jaccard_loss,
                             sdm_predict, solve_homography, solve_values,
                             warp, warp_values)
from degenerate import SINGULAR_OFFSETS, singular_offsets_net
from fdcheck import grad_check
import taped_mlp
from taped_ops import Tape

RNG = np.random.default_rng(8261)


def dlt_oracle(offsets: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """SVD-based direct linear transform, normalized to h33 = 1."""
    src = source_corners(rows, cols)
    dest = src.copy()
    dest[:, 0] += offsets[:, 1]
    dest[:, 1] += offsets[:, 0]
    M = []
    for (u, v), (up, vp) in zip(src, dest):
        M.append([u, v, 1, 0, 0, 0, -u * up, -v * up, -up])
        M.append([0, 0, 0, u, v, 1, -u * vp, -v * vp, -vp])
    _, _, vt = np.linalg.svd(np.array(M))
    h = vt[-1]
    return (h / h[8]).reshape(3, 3)


def apply_h(H, points_rc):
    p = H @ np.concatenate([points_rc.T, np.ones((1, len(points_rc)))], axis=0)
    return (p[:2] / p[2]).T


# ---- solve ------------------------------------------------------------------


def test_identity_offsets_exact_identity():
    H = solve_values(np.zeros((1, 8)), 5, 5)[0]
    assert np.array_equal(H, np.eye(3))


def test_uniform_offsets_exact_translation():
    # All corners displaced by (dcol=2, drow=0): contents move two columns,
    # h13 = 0 and h23 = 2 under the (row, col) convention.
    off = np.tile([2.0, 0.0], (1, 4))
    H = solve_values(off, 5, 5)[0]
    expected = np.eye(3)
    expected[1, 2] = 2.0
    assert np.array_equal(H, expected)
    assert H[0, 2] == 0.0 and H[1, 2] == 2.0


def test_solve_matches_dlt_oracle_on_random_quads():
    for _ in range(100):
        off = RNG.uniform(-0.8, 0.8, size=(4, 2))
        H = solve_values(off.reshape(1, 8), 5, 5)[0]
        np.testing.assert_allclose(H, dlt_oracle(off, 5, 5), atol=1e-8)


def test_solve_maps_corners_to_displaced_corners():
    off = RNG.uniform(-1.0, 1.0, size=(4, 2))
    H = solve_values(off.reshape(1, 8), 16, 16)[0]
    src = source_corners(16, 16)
    dest = src + off[:, ::-1]
    np.testing.assert_allclose(apply_h(H, src), dest, atol=1e-9)


def test_solve_batched_matches_loop():
    offs = RNG.uniform(-0.5, 0.5, size=(7, 8))
    batched = solve_values(offs, 5, 5)
    for i in range(7):
        np.testing.assert_array_equal(batched[i], solve_values(offs[i:i + 1], 5, 5)[0])


def test_degenerate_quad_raises_with_condition():
    # Collapse all destination corners onto one point.
    src = source_corners(5, 5)
    off = np.empty((4, 2))
    off[:, 1] = 2.0 - src[:, 0]
    off[:, 0] = 2.0 - src[:, 1]
    with pytest.raises(HomographyError, match="cond"):
        solve_values(off.reshape(1, 8), 5, 5)


def test_solve_gradcheck():
    weights = RNG.normal(size=(3, 3))

    def f(x):
        return (solve_homography(x, 5, 5) * x.tape.const(weights)).sum()

    for _ in range(5):
        assert grad_check(f, RNG.uniform(-0.6, 0.6, size=(1, 8))) < 1e-6


def test_singular_solved_h_raises_homography_error():
    # the solve succeeds; the warp's inverse of the solved H is what fails
    H = solve_values(SINGULAR_OFFSETS[None], 5, 5)
    assert np.all(np.isfinite(H)) and np.linalg.det(H[0]) == 0.0
    grid = np.random.default_rng(0).uniform(0, 1, size=(2, 5, 5))
    H2 = np.concatenate([np.eye(3)[None], H])  # one good row, one singular
    with pytest.raises(HomographyError, match="singular homography"):
        warp_values(grid, H2)
    with pytest.raises(HomographyError, match="singular homography"):
        sdm_predict(singular_offsets_net, grid, np.eye(5)[:2])
    tape = Tape()
    with pytest.raises(HomographyError, match="singular homography"):
        warp(grid, tape.const(H2))
    with pytest.raises(HomographyError, match="singular homography"):
        warp(grid[:1], solve_homography(tape.const(SINGULAR_OFFSETS[None]), 5, 5))


def test_unbatched_inputs_are_rejected():
    # a sample without its batch axis raises; it is never read as a batch
    grid, H = np.zeros((5, 5)), np.eye(3)
    tape = Tape()
    with pytest.raises(ValueError, match=r"\(B, 8\)"):
        solve_homography(tape.const(np.zeros(8)), 5, 5)
    with pytest.raises(ValueError, match=r"\(B, r, c\)"):
        warp_values(grid, H)
    with pytest.raises(ValueError, match=r"\(B, r, c\)"):
        warp(grid, tape.const(H))
    with pytest.raises(ValueError, match=r"\(B, r, c\)"):
        sdm_predict(lambda x: np.zeros((x.shape[0], 8)), grid, np.eye(5)[0])
    # two (r, c) grids would otherwise average as r one-row samples
    with pytest.raises(TapeError, match=r"\(B, r, c\)"):
        jaccard_loss(tape.const(grid), grid)


@pytest.mark.parametrize("shape", [(2, 4, 2), (8,)], ids=["corners", "unbatched"])
def test_solves_take_offsets_rows_only(shape):
    # the offsets head's (B, 8) rows; (B, 4, 2) corners are this module's
    # own view of them and are rejected like any other shape
    message = re.escape(f"offsets must be (B, 8) rows, got {shape}")
    with pytest.raises(ValueError, match=message):
        solve_values(np.zeros(shape), 5, 5)
    tape = Tape()
    with pytest.raises(ValueError, match=message):
        solve_homography(tape.leaf(np.zeros(shape)), 5, 5)
    assert tape.ops() == []


# ---- warp -------------------------------------------------------------------


def test_warp_identity_bit_exact():
    grid = RNG.uniform(0, 1, size=(5, 5))
    out, mask = warp_values(grid[None], np.eye(3)[None])
    assert np.array_equal(out[0], grid) and mask.all()


_SHIFTS = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, -1)]


# the 6x7 cases keep their bare ids; 5x5 and 16x16 are the envs' grids
@pytest.mark.parametrize("dcol,drow,shape", [
    pytest.param(dcol, drow, shape,
                 id=f"{dcol}-{drow}" + ("" if shape == (6, 7) else
                                        f"-{shape[0]}x{shape[1]}"))
    for shape in [(6, 7), (5, 5), (16, 16)]
    for dcol, drow in _SHIFTS + ([] if shape == (6, 7) else [(-3, 3)])])
def test_warp_integer_translation_exact_index_shift(dcol, drow, shape):
    rows, cols = shape
    grid = RNG.uniform(0, 1, size=shape)
    off = np.tile([float(dcol), float(drow)], (1, 4))
    H = solve_values(off, rows, cols)
    (out,), (mask,) = warp_values(grid[None], H)
    expected = np.full_like(grid, 0.5)
    exp_mask = np.zeros_like(grid, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            sr, sc = r - drow, c - dcol
            if 0 <= sr < rows and 0 <= sc < cols:
                expected[r, c] = grid[sr, sc]
                exp_mask[r, c] = True
    assert np.array_equal(out, expected)
    assert np.array_equal(mask, exp_mask)


def test_warp_all_out_of_range_gives_fill():
    grid = RNG.uniform(0, 1, size=(5, 5))
    off = np.tile([50.0, 50.0], (1, 4))
    out, mask = warp_values(grid[None], solve_values(off, 5, 5))
    assert np.all(out == 0.5) and not mask.any()


def test_warp_values_stay_in_unit_interval():
    for _ in range(20):
        grid = RNG.uniform(0, 1, size=(5, 5))
        off = RNG.uniform(-2, 2, size=(1, 8))
        out, _ = warp_values(grid[None], solve_values(off, 5, 5))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_warp_gradcheck_h():
    # the grids are data: the warp records H as its one input
    base_off = RNG.uniform(-0.4, 0.4, size=(1, 8))
    H = solve_values(base_off, 5, 5)
    grid = RNG.uniform(0.1, 0.9, size=(5, 5))[None]
    weights = RNG.normal(size=(5, 5))[None]

    def f_h(x):
        return (warp(grid, x) * x.tape.const(weights)).sum()

    assert grad_check(f_h, H) < 1e-5
    tape = Tape()
    h = tape.leaf(H)
    out = warp(grid, h)
    assert tape.ops() == [("warp", out.node_id, (h.node_id,))]


def test_warp_composition_close_to_composed_homography():
    # warp(warp(g, H1), H2) ~ warp(g, H2 H1) away from fill-ins; resampling
    # is lossy, so probe with a smooth field where the bilinear error is
    # second order in the cell spacing.
    rr, cc = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
    g = 0.5 + 0.4 * np.sin(2 * np.pi * rr / 16) * np.cos(2 * np.pi * cc / 16)
    o1 = RNG.uniform(-0.3, 0.3, size=(1, 8))
    o2 = RNG.uniform(-0.3, 0.3, size=(1, 8))
    H1 = solve_values(o1, 16, 16)
    H2 = solve_values(o2, 16, 16)
    (two,), (m2,) = warp_values(warp_values(g[None], H1)[0], H2)
    (one,), (m1,) = warp_values(g[None], H2 @ H1)
    both = m1 & m2
    # interior cells only; border cells mix with fill under the two-step path
    np.testing.assert_allclose(two[2:-2, 2:-2][both[2:-2, 2:-2]],
                               one[2:-2, 2:-2][both[2:-2, 2:-2]], atol=0.06)


# ---- jaccard ----------------------------------------------------------------


def test_jaccard_frozen_example():
    # pred identically 0.5 on 256 cells, truth has 64 ones:
    # inter = 32, denom = 128 + 64 - 32 = 160, loss = 1 - 0.2 = 0.8.
    tape = Tape()
    pred = tape.const(np.full((1, 16, 16), 0.5))
    truth = np.zeros((1, 16, 16))
    truth.ravel()[:64] = 1.0
    loss = jaccard_loss(pred, truth)
    assert abs(float(loss.values) - 0.8) < 1e-12


def test_jaccard_identical_grids_zero_loss():
    tape = Tape()
    g = (RNG.uniform(0, 1, size=(1, 5, 5)) > 0.6).astype(float)
    assert float(jaccard_loss(tape.const(g), g).values) == pytest.approx(0.0, abs=1e-12)


def test_jaccard_both_empty_is_zero():
    tape = Tape()
    z = np.zeros((1, 5, 5))
    assert float(jaccard_loss(tape.const(z), z).values) == 0.0


def test_jaccard_batch_mean_and_empty_pair_gradient():
    tape = Tape()
    pred = tape.leaf(np.stack([np.full((2, 2), 0.5), np.zeros((2, 2))]))
    truth = np.stack([np.ones((2, 2)), np.zeros((2, 2))])
    loss = jaccard_loss(pred, truth)
    # first pair: inter 2, denom 2 + 4 - 2 = 4, loss 0.5; second pair: 0.
    assert float(loss.values) == pytest.approx(0.25, abs=1e-12)
    tape.backward(loss)
    assert np.all(pred.grad[1] == 0.0)
    assert np.any(pred.grad[0] != 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 25 - 1), st.integers(0, 2 ** 25 - 1))
def test_jaccard_range_on_binary_grids(a_bits, b_bits):
    a = np.array([(a_bits >> i) & 1 for i in range(25)], dtype=float)
    b = np.array([(b_bits >> i) & 1 for i in range(25)], dtype=float)
    tape = Tape()
    loss = float(jaccard_loss(tape.const(a.reshape(1, 5, 5)),
                              b.reshape(1, 5, 5)).values)
    assert 0.0 <= loss <= 1.0


def jaccard_run(loss_fn, pred, truth, scale):
    """Loss and pred gradient of ``scale * loss_fn(pred, truth)``."""
    tape = Tape()
    leaf = tape.leaf(pred)
    loss = loss_fn(leaf, truth) * scale
    tape.backward(loss)
    return np.asarray(loss.values), leaf.grad


def jaccard_batch(B, seed):
    """B soft predictions against binary truths; at B > 1 row 1 is a
    both-empty pair and row 2 an empty truth under a nonempty prediction."""
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 1.0, size=(B, 5, 5))
    truth = (rng.uniform(size=(B, 5, 5)) > 0.5).astype(float)
    if B > 1:
        pred[1] = truth[1] = 0.0
        truth[2] = 0.0
    return pred, truth


@pytest.mark.parametrize("scale", [1.0, -2.75])
@pytest.mark.parametrize("B", [1, 64])
def test_jaccard_op_matches_per_op_reference_bitwise(B, scale):
    pred, truth = jaccard_batch(B, seed=B)
    loss, grad = jaccard_run(jaccard_loss, pred, truth, scale)
    ref_loss, ref_grad = jaccard_run(taped_mlp.jaccard_loss, pred, truth, scale)
    assert loss.tobytes() == ref_loss.tobytes()
    assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()
    if B > 1:
        assert not grad[1].any()


def test_jaccard_op_is_one_op_on_its_prediction():
    # the truth is data, an array: the op records the prediction alone
    tape = Tape()
    pred = tape.leaf(np.full((2, 3, 3), 0.5))
    loss = jaccard_loss(pred, np.ones((2, 3, 3)))
    assert tape.ops() == [("jaccard", loss.node_id, (pred.node_id,))]


def test_jaccard_op_gradients_match_finite_differences():
    # a both-empty pair is a jump in the loss, so no row is near one
    pred, truth = jaccard_batch(4, seed=9)
    pred = np.random.default_rng(9).uniform(0.05, 0.95, size=pred.shape)
    f = lambda x: jaccard_loss(x, truth)
    assert grad_check(f, pred) < 1e-6


def test_jaccard_gradcheck_through_chain():
    truth = (RNG.uniform(0, 1, size=(1, 5, 5)) > 0.5).astype(float)
    grid = RNG.uniform(0.1, 0.9, size=(1, 5, 5))

    def f(x):
        tape = x.tape
        H = solve_homography(x, 5, 5)
        return jaccard_loss(warp(grid, H), truth)

    for _ in range(5):
        assert grad_check(f, RNG.uniform(-0.5, 0.5, size=(1, 8))) < 1e-5


# ---- sdm_predict ------------------------------------------------------------


def test_zero_offsets_net_predicts_identity():
    grid = (RNG.uniform(0, 1, size=(1, 5, 5)) > 0.7).astype(float)
    zero_net = lambda x: np.zeros((x.shape[0], 8))
    out = sdm_predict(zero_net, grid, np.eye(5)[2:3])
    assert np.array_equal(out, grid)


def test_sdm_predict_constant_shift_net():
    # A net that always reports a one-column shift regardless of input.
    grid = RNG.uniform(0, 1, size=(5, 5))
    shift_net = lambda x: np.tile([1.0, 0.0], (x.shape[0], 4)).reshape(x.shape[0], 8)
    (out,), (mask,) = sdm_predict(shift_net, grid[None], np.eye(5)[1:2],
                                  return_mask=True)
    assert np.array_equal(out[:, 1:], grid[:, :-1])
    assert np.all(out[:, 0] == 0.5)
    assert not mask[:, 0].any() and mask[:, 1:].all()


def test_sdm_predict_multistep_feeds_back():
    grid = RNG.uniform(0, 1, size=(5, 5))
    shift_net = lambda x: np.tile([1.0, 0.0], (x.shape[0], 4)).reshape(x.shape[0], 8)
    out = grid[None]
    for _ in range(2):  # the second warp moves the first one's fill along
        out = sdm_predict(shift_net, out, np.eye(5)[1:2])
    out = out[0]
    assert np.array_equal(out[:, 2:], grid[:, :-2])
    assert np.all(out[:, :2] == 0.5)


# ---- the lean value path against the reference ------------------------------
#
# ``reference_homography`` keeps the value path as it was before it took
# cached constants and flat gathers; every result must
# match it bit for bit, errors included.

SHAPES = [(5, 5), (4, 7)]  # a non-square grid catches a rows/cols swap


def _mixed_offsets(rng, B):
    """(B, 8) offsets rows that are all-zero, uniform (integer or not) or
    general; every kind appears once B >= 4."""
    off = rng.uniform(-1.5, 1.5, size=(B, 4, 2))
    kinds = np.arange(B) % 4
    rng.shuffle(kinds)
    off[kinds == 0] = 0.0
    off[kinds == 1] = rng.uniform(-2.0, 2.0, size=(1, 2))
    off[kinds == 2] = rng.integers(-2, 3, size=(1, 2))
    return off.reshape(B, 8)


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HomographyError as exc:
        return f"HomographyError: {exc}"


def _check_against_reference(off, grid, gout):
    """H, A, prediction, known mask and the taped warp's gradients."""
    rows, cols = grid.shape[1:]
    new = _outcome(solve_values, off, rows, cols, True)
    old = _outcome(ref.solve_values, off, rows, cols, True)
    if isinstance(old, str):
        assert new == old
        return
    for a, b in zip(new, old):
        _same(a, b)
    _check_warp_against_reference(old[0], grid, gout)


def _check_warp_against_reference(H, grid, gout):
    """Prediction, known mask and the taped warp's gradient to ``H``."""
    new = _outcome(warp_values, grid, H)
    old = _outcome(ref.warp_values, grid, H)
    if isinstance(old, str):
        assert new == old
        return
    for a, b in zip(new, old):
        _same(a, b)
    tape = Tape()
    h = tape.leaf(H)
    tape.backward((warp(grid, h) * tape.const(gout)).sum())
    _same(h.grad, ref.warp_vjp(grid, H, gout))


@pytest.mark.parametrize("B", [1, 3, 64])
@pytest.mark.parametrize("shape", SHAPES, ids=["5x5", "4x7"])
def test_value_path_matches_reference_bitwise(B, shape):
    rng = np.random.default_rng(B * 31 + shape[1])
    for _ in range(30 if B < 64 else 6):
        off = _mixed_offsets(rng, B)
        grid = rng.uniform(0, 1, size=(B,) + shape)
        _check_against_reference(off, grid, rng.normal(size=grid.shape))


@pytest.mark.parametrize("B", [1, 3, 64])
def test_sdm_predict_matches_reference_bitwise(B):
    rng = np.random.default_rng(B)
    w = rng.normal(scale=0.3, size=(30, 8))
    shift = rng.normal(size=(5, 2))
    nets = [lambda x: x @ w, lambda x: np.tanh(x @ w) * 3.0,
            lambda x: np.zeros((len(x), 8)),
            lambda x: np.tile(x[:, -5:] @ shift, 4)]  # uniform per action
    for net in nets:
        grid = rng.uniform(0, 1, size=(B, 5, 5))
        oh = np.eye(5)[rng.integers(0, 5, B)]
        new = sdm_predict(net, grid, oh, return_mask=True)
        old = ref.sdm_predict(net, grid, oh, return_mask=True)
        for a, b in zip(new, old):
            _same(a, b)


def test_private_steps_match_reference_bitwise():
    # signed zeros included: translation H with -0.0 entries
    rng = np.random.default_rng(11)
    off = _mixed_offsets(rng, 16)
    for rows, cols in SHAPES:
        for a, b in zip(homography._assemble(off, rows, cols),
                        ref._assemble(off, rows, cols)):
            _same(a, b)
    H = ref.solve_values(off, 5, 5)
    trans = np.tile(np.eye(3), (3, 1, 1))
    trans[1, :2, 2] = [2.0, -1.5]
    trans[2, :2, 2] = [-0.0, 0.25]
    for Hs in (H, trans, np.concatenate([H, trans])):
        _same(homography._invert(Hs), ref._invert(Hs))


def _denominators(H, rows, cols):
    """|p2| of every cell: the projective denominators of H^-1's preimages."""
    return np.abs((homography._invert(H) @ homography._constants(rows, cols)[3])[:, 2])


@pytest.mark.parametrize("shape", SHAPES, ids=["5x5", "4x7"])
@pytest.mark.filterwarnings("error")  # neither side warns
def test_warp_matches_reference_on_both_sides_of_the_safe_denominator(shape):
    # the warp divides at once when every denominator is safe (|p2| >
    # 1e-12, as in every training batch) and masks the unsafe ones
    # otherwise; an H whose preimage line 0.5 r + 0.25 c = 1.75 runs
    # through cell (2, 3) sends that cell's p2 to rounding level, alone and
    # in a batch of ordinary H, and both sides equal the reference bit for
    # bit: values, known mask and the taped gradient
    rows, cols = shape
    rng = np.random.default_rng(rows * cols)
    Hinv = np.eye(3)
    Hinv[2] = [0.5, 0.25, -1.75]
    unsafe = np.linalg.inv(Hinv)[None]
    assert _denominators(unsafe, rows, cols).min() <= 1e-12
    ordinary = solve_values(_mixed_offsets(rng, 8), rows, cols)
    assert _denominators(ordinary, rows, cols).min() > 1e-12
    mixed = np.concatenate([ordinary[:2], unsafe, ordinary[2:4]])
    for H, every_cell_safe in ((ordinary, True), (unsafe, False), (mixed, False)):
        assert (_denominators(H, rows, cols).min() > 1e-12) == every_cell_safe
        for _ in range(5):
            grid = rng.uniform(0, 1, size=(len(H),) + shape)
            _check_warp_against_reference(H, grid, rng.normal(size=grid.shape))


@settings(max_examples=150, deadline=None)
@given(corners=st.lists(st.floats(-4.0, 4.0, allow_subnormal=False),
                        min_size=8, max_size=8),
       uniform=st.booleans(), B=st.sampled_from([1, 2, 5]),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
def test_value_path_matches_reference_on_any_offsets(corners, uniform, B, shape,
                                                     seed):
    rng = np.random.default_rng(seed)
    off = _mixed_offsets(rng, B)
    off[0] = corners
    if uniform:
        off[0] = np.tile(off[0, :2], 4)
    grid = rng.uniform(0, 1, size=(B,) + shape)
    _check_against_reference(off, grid, rng.normal(size=grid.shape))


def _collapsed(rows, cols):
    src = source_corners(rows, cols)
    off = np.empty((4, 2))
    off[:, 1] = 2.0 - src[:, 0]
    off[:, 0] = 2.0 - src[:, 1]
    return off.ravel()


@pytest.mark.parametrize("bad,reason", [
    (_collapsed(5, 5), "degenerate correspondence, cond="),
    (np.full(8, np.nan), "degenerate correspondence, cond=inf"),
    (np.array([0.0, 0.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]),
     "degenerate correspondence, cond=inf"),
    (SINGULAR_OFFSETS, "singular homography"),
], ids=["singular-solve", "nan-offsets", "inf-offsets", "singular-H"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.filterwarnings("error")  # the error comes without a warning
def test_value_path_failures_raise_homography_error(bad, reason, B):
    rng = np.random.default_rng(B)
    off = _mixed_offsets(rng, B)
    off[B // 2] = bad
    grid = rng.uniform(0, 1, size=(B, 5, 5))
    net = lambda x: off
    oh = np.eye(5)[:B]
    with pytest.raises(HomographyError, match=reason) as new:
        sdm_predict(net, grid, oh)
    if np.isfinite(bad).all():
        with pytest.raises(HomographyError) as old:
            ref.sdm_predict(net, grid, oh)
        assert str(new.value) == str(old.value)
    else:  # the reference's condition estimate ran an SVD of inf or NaN
        with (np.errstate(invalid="ignore"),
              pytest.raises(np.linalg.LinAlgError, match="SVD did not converge")):
            ref.sdm_predict(net, grid, oh)
