import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from run import E2E_UNITS, measure
from workloads import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at a budget small enough for a test."""
    w = replace(WORKLOADS[name], step_budget=15, seeds_per_block=2, block_s=1.0)
    if w.config is None:
        w = replace(w, study=dict(w.study, n_train=120, n_test=80, epochs=1,
                                  horizon=2))
    return w


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_correct_traced_and_untraced(name, tmp_path):
    w = tiny(name)
    e2e = measure(w, seed=1, seconds=2, trace=False, out_dir=tmp_path)
    # one block of two seeds, then the block again
    assert (e2e["correct"], e2e["failed"], e2e["attempted"]) == (True, 0, 4)
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]} == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in e2e["metrics"].values())

    layers = measure(w, seed=1, seconds=2, trace=True, out_dir=tmp_path)
    assert (layers["correct"], layers["failed"], layers["attempted"]) == (True, 0, 8)
    assert set(layers["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    if w.config is not None:
        steps = layers["metrics"]["trainer.env_steps"]["value"]
        assert steps >= 2 * w.step_budget
        assert layers["metrics"]["envs.step.calls"]["value"] == steps
        assert layers["metrics"]["nets.cade_forward.calls"]["value"] == steps
    record = json.loads((tmp_path / f"{name}-seed1-trace1.json").read_text())
    assert record["problems"] == [] and len(record["digests"]) == 2
    assert not any((tmp_path / "runs").iterdir())


def test_plan_derives_disjoint_seeds_and_repeats_the_first_block():
    w = replace(WORKLOADS["cliff-plain"], seeds_per_block=3, block_s=1.0)
    runs = plan(w, seed=2, seconds=3, trace=False)
    assert [r.seeds for r in runs] == [(12, 13, 14), (15, 16, 17), (12, 13, 14)]
    assert not any(r.traced for r in runs)
    traced = plan(w, seed=2, seconds=3, trace=True)
    assert [r.traced for r in traced] == [False, True] * 2
    assert [r.seeds for r in traced] == [(12, 13, 14)] * 4
    many = plan(w, seed=0, seconds=9, trace=True)
    assert [r.seeds[0] for r in many] == [0, 3, 0, 3] * 2


def test_exits_nonzero_without_cade_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cliff-plain", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
