"""No training step leaves a reference cycle of ``cade`` objects behind.

Every tensor holds its tape and the tape holds no tensor, so a step's tape
and the caches its backwards hold are freed by reference count when the
step ends, not by the cyclic collector.  Each run here goes with the
collector off and ``gc.DEBUG_SAVEALL`` on, so whatever its cycles would
have freed stays in ``gc.garbage``; no ``Tape``, no ``Tensor`` and no
function or closure cell of a ``cade`` module may be among it.  The
standard library's own cycles (the JSON encoder's nested functions per
``indent`` dump, a lazy import) are not counted.
"""

import csv
import gc
import types
import weakref

import numpy as np
import pytest

from cade import autograd, experiments, nets
from cade.config import CostAdvSection, LagrangeSection, RunConfig, SafetySection
from cade.trainer import train


def _from_cade(obj) -> bool:
    """A tape, a tensor, a function of a ``cade`` module, or a closure cell
    holding one of them."""
    if isinstance(obj, (autograd.Tape, autograd.Tensor)):
        return True
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").split(".")[0] == "cade"
    if isinstance(obj, types.CellType):
        try:
            return _from_cade(obj.cell_contents)
        except ValueError:  # an empty cell
            return False
    return False


def cade_garbage(run) -> list:
    """The ``cade`` objects that only the cyclic collector would free
    after ``run()``."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [repr(o)[:80] for o in gc.garbage if _from_cade(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def small_cfg(**overrides):
    base = dict(env="cliff-circular", level="medium", timeout=30,
                step_budget=90, hidden_dim=16, head_width=8)
    base.update(overrides)
    return RunConfig(**base)


def test_minimize_frees_its_tape_when_it_returns():
    rng = np.random.default_rng(0)
    opt = nets.Adam(nets.mlp_params(rng, (3, 4, 1)))
    x = rng.standard_normal((5, 3))
    tapes = []

    def loss_of(tape, p):
        tapes.append(weakref.ref(tape))
        return nets.mse_loss(nets.mlp_taped(p, tape.const(x)), np.zeros((5, 1)))

    enabled = gc.isenabled()
    gc.disable()
    try:
        nets.minimize(loss_of, opt)
        assert opt.t == 1 and tapes[0]() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("overrides", [
    {},
    {"env": "planar-river", "step_budget": 40},
    {"lagrange": LagrangeSection(enabled=True),
     "cost_adv": CostAdvSection(horizon=3),
     "safety": SafetySection(mode="train", horizon=3, threshold=0.05,
                             activation_fraction=0.0)},
], ids=["cliff", "river", "cliff-guarded-h3"])
def test_train_leaves_no_cade_cycles(tmp_path, overrides):
    cfg = small_cfg(**overrides)
    assert cade_garbage(lambda: train(cfg, tmp_path / "run")) == []
    with open(tmp_path / "run" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 1
    if cfg.safety.mode == "train":  # the screen fired
        assert max(float(r["override_rate"]) for r in rows) > 0.0


def test_dynamics_study_leaves_no_cade_cycles():
    def study():
        out = experiments.dynamics_study("cliff-circular", n_train=120,
                                         n_test=40, epochs=2, horizon=3)
        assert set(out["rows"]) == set(experiments.MODEL_KINDS)

    assert cade_garbage(study) == []
