"""Command-line surface: config precedence, exit codes, artifact layout."""

import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cade
from cade import advantage, dynbench, experiments, safety, trainer
from cade import nets as nets_module
from cade.checkpoint import load_params, save_params
from cade.cli import build_parser, main, resolve_config, run_name
from cade.config import ADV_CHOICES, LagrangeSection, RunConfig, SafetySection
from cade.envs import make_env
from cade.homography import HomographyError
from cade.nets import CadeNets, NetConfig, mlp_params
from degenerate import SINGULAR_OFFSETS, singular_offsets_net


@pytest.fixture
def tiny_config(tmp_path):
    """Small nets and a short budget so CLI round trips stay fast."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "hidden_dim": 16, "head_width": 8, "timeout": 30,
        "step_budget": 80,
    }))
    return str(path)


def test_print_config_resolves_and_exits_zero(tiny_config, capsys):
    assert main(["train", "--config", tiny_config, "--adv", "gae",
                 "--print-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    cfg = RunConfig.from_dict(data).validate()
    assert cfg.adv == "gae" and cfg.hidden_dim == 16 and cfg.step_budget == 80


def test_bad_flag_choice_exits_two():
    for adv in ("ppo", "td"):
        with pytest.raises(SystemExit) as e:
            main(["train", "--adv", adv])
        assert e.value.code == 2


def test_the_removed_reward_to_go_estimator_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"adv": "gae-rtg"}))
    assert main(["train", "--config", str(bad), "--print-config"]) == 2
    assert "adv must be one of ('mgae', 'gae')" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        main(["train", "--adv", "gae-rtg"])
    assert e.value.code == 2
    # the estimator study's arms are the paper's two
    assert ADV_CHOICES == ("mgae", "gae")


def test_the_removed_actor_epoch_keys_exit_two(tmp_path, capsys):
    # the actor takes one step a batch, at pi_k: an epoch count, or the
    # trust section of a KL early stop or a KL mask, alone or in the river
    # config that once set the first two, is refused by name and trains
    # nothing; one error names both
    bad, out = tmp_path / "bad.json", tmp_path / "runs"
    river = {"env": "planar-river", "step_budget": 60, "timeout": 30,
             "actor_epochs": 2, "episodes_per_iter": 2, "trust": {"kl_stop": 1.0},
             "lagrange": {"enabled": True, "budget": 0.0}}
    for config, message in [({"actor_epochs": 2}, "unknown config key: actor_epochs\n"),
                            ({"trust": {"kl_stop": 1.0}},
                             "unknown config key: trust\n"),
                            ({"trust": {"kl_mask": 0.02}},
                             "unknown config key: trust\n"),
                            (river, "unknown config keys: actor_epochs, "
                                    "trust\n")]:
        bad.write_text(json.dumps(config))
        assert main(["train", "--config", str(bad), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()


def test_the_removed_both_screen_mode_exits_two(tmp_path, capsys):
    # the screen runs in one phase: "both" is refused in a config file and
    # as a flag, and trains nothing
    bad, out = tmp_path / "bad.json", tmp_path / "runs"
    bad.write_text(json.dumps({"safety": {"mode": "both"}}))
    assert main(["train", "--config", str(bad), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: safety.mode must be one of ('off', 'train', 'infer'), "
        "got 'both'")
    with pytest.raises(SystemExit) as e:
        main(["train", "--safety-layer", "both", "--out-dir", str(out)])
    assert e.value.code == 2
    assert not out.exists()


def test_eval_screen_runs_only_at_inference(tmp_path, capsys):
    # eval's screen is on or off: "train" is refused by argparse before any
    # checkpoint is read or directory made
    ckpt, out = tmp_path / "ckpt.npz", tmp_path / "ev"
    ckpt.write_bytes(b"")
    with pytest.raises(SystemExit) as e:
        main(["eval", "--checkpoint", str(ckpt), "--safety-layer", "train",
              "--out-dir", str(out)])
    assert e.value.code == 2
    assert "invalid choice: 'train'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_a_train_screened_run_is_named_for_the_screen_it_runs(
        tiny_config, tmp_path, monkeypatch):
    # a run screened in training evaluates unscreened unless the flag asks
    # for the screen, and each eval directory names what ran
    out = tmp_path / "runs"
    assert main(["train", "--config", tiny_config, "--safety-layer", "train",
                 "--out-dir", str(out)]) == 0
    ckpt = out / "cliff-circular-medium-mgae-s0-safe-train" / "ckpt-final.npz"
    screened = []
    screen = trainer.screen_action
    monkeypatch.setattr(trainer, "screen_action", lambda *args, **kwargs: (
        screened.append(1), screen(*args, **kwargs))[1])
    # the saturated cost head can fire at the default threshold
    params = load_params(ckpt)
    params["cost.b2"][...] = 40.0
    save_params(ckpt, params)
    for flags, name, runs in (
            ([], "eval-cliff-circular-medium-mgae-s0", False),
            (["--safety-layer", "infer"],
             "eval-cliff-circular-medium-mgae-s0-safe-infer", True)):
        screened.clear()
        assert main(["eval", "--checkpoint", str(ckpt), "--episodes", "1",
                     "--out-dir", str(tmp_path / "ev"), *flags]) == 0
        assert bool(screened) is runs
        assert (tmp_path / "ev" / name / "summary.json").exists()
    assert sorted(d.name for d in (tmp_path / "ev").iterdir()) == [
        "eval-cliff-circular-medium-mgae-s0",
        "eval-cliff-circular-medium-mgae-s0-safe-infer"]


def test_unknown_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for key in ("hidden", "vtrace_clip"):
        bad.write_text(json.dumps({key: 16}))
        assert main(["train", "--config", str(bad), "--print-config"]) == 2
        assert f"config error: unknown config key: {key}" in capsys.readouterr().err
    # an older run's dual step and clamp and screen sample count: one line
    # names all three, and nothing trains
    bad.write_text(json.dumps({"safety": {"samples": 3},
                               "lagrange": {"lr": 0.02, "beta_max": 1.5}}))
    out = tmp_path / "runs"
    assert main(["train", "--config", str(bad), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown config keys: lagrange.beta_max, lagrange.lr, "
        "safety.samples\n")
    assert not out.exists()


def test_invalid_config_value_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # "td" is "gae" at lam 0 and no longer an estimator of its own
    for key, value in (("gamma", 0.0), ("adv", "vtrace"), ("adv", "reinforce"),
                       ("adv", "td"), ("safety", {"threshold": float("nan")}),
                       ("cost_adv", {"horizon": -1}),
                       ("lagrange", {"enabled": True, "budget": float("inf")})):
        bad.write_text(json.dumps({key: value}))  # NaN and Infinity as such
        assert main(["train", "--config", str(bad), "--print-config"]) == 2
        assert key in capsys.readouterr().err
    # a config that fails validation trains nothing
    out = tmp_path / "runs"
    assert main(["train", "--config", str(bad), "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_negative_seed_exits_two_and_writes_nothing(tiny_config, tmp_path,
                                                    capsys):
    ckpt = tmp_path / "ckpt.npz"
    ckpt.write_bytes(b"")  # never read: the config fails first
    out = tmp_path / "out"
    common = ["--config", tiny_config, "--seed", "-1", "--out-dir", str(out)]
    for argv in (["train", *common, "--print-config"], ["train", *common],
                 ["eval", *common, "--checkpoint", str(ckpt)],
                 ["study", "dynamics", "--seeds", "-1", "--out-dir", str(out)]):
        assert main(argv) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_a_rounding_level_kl_completes(tmp_path, monkeypatch):
    # at a step of 1e-12 the policy barely moves, and the batch KL of old
    # and new logits can round below zero; the run still completes
    monkeypatch.setattr(nets_module, "LR", 1e-12)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"step_budget": 3000,
                                "hidden_dim": 32, "head_width": 16}))
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 0
    assert (out / "cliff-circular-medium-mgae-s0" / "metrics.csv").exists()


def test_flags_override_file_which_overrides_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "level": "hard", "seed": 5, "safety": {"mode": "train"},
        "lagrange": {"budget": 0.5},
    }))
    args = build_parser().parse_args(
        ["train", "--config", str(path), "--level", "easy"])
    cfg = resolve_config(args)
    assert cfg.level == "easy"          # flag beats file
    assert cfg.seed == 5                # file beats default
    assert cfg.safety.mode == "train"   # nested file keys merge
    assert cfg.lagrange.budget == 0.5
    assert cfg.lagrange.enabled is False  # untouched sibling keeps its default
    # each flag beats a file that sets the opposite
    for on in (True, False):
        path.write_text(json.dumps({
            "env": "cliff-circular" if on else "planar-river", "timeout": 40,
            "lagrange": {"enabled": not on}, "normalize_adv": not on}))
        flags = ["--env", "planar-river" if on else "cliff-circular",
                 "--timeout", "70", "--lagrange" if on else "--no-lagrange",
                 "--normalize-adv" if on else "--no-normalize-adv"]
        cfg = resolve_config(build_parser().parse_args(
            ["train", "--config", str(path), *flags]))
        assert cfg.env == ("planar-river" if on else "cliff-circular")
        assert cfg.timeout == 70
        assert cfg.lagrange.enabled is on
        assert cfg.normalize_adv is on


def test_run_name_encodes_the_variant():
    assert run_name(RunConfig(seed=2)) == "cliff-circular-medium-mgae-s2"
    lag = RunConfig(adv="gae", lagrange=LagrangeSection(enabled=True),
                    safety=SafetySection(mode="infer"))
    assert run_name(lag) == "cliff-circular-medium-gae-s0-lag-safe-infer"
    assert run_name(lag, prefix="eval-").startswith("eval-")


def test_train_eval_collect_cycle(tiny_config, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["train", "--config", tiny_config,
                 "--out-dir", str(out)]) == 0
    run_dir = out / "cliff-circular-medium-mgae-s0"
    metrics = (run_dir / "metrics.csv").read_bytes()
    assert metrics.count(b"\n") >= 2  # header plus at least one iteration

    # identical invocation reproduces the run byte for byte
    out2 = tmp_path / "runs2"
    assert main(["train", "--config", tiny_config,
                 "--out-dir", str(out2)]) == 0
    again = (out2 / "cliff-circular-medium-mgae-s0" / "metrics.csv").read_bytes()
    assert again == metrics

    capsys.readouterr()
    assert main(["eval", "--config", tiny_config, "--out-dir", str(out),
                 "--checkpoint", str(run_dir / "ckpt-final.npz"),
                 "--episodes", "3"]) == 0
    assert "EpR" in capsys.readouterr().out
    eval_dir = out / "eval-cliff-circular-medium-mgae-s0"
    stats = json.loads((eval_dir / "summary.json").read_text())
    assert stats["episodes"] == 3
    header = (eval_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == "episode,reward,cost,steps,override_rate"

    assert main(["eval", "--config", tiny_config, "--out-dir", str(out),
                 "--checkpoint", str(run_dir / "nope.npz")]) == 3
    assert "checkpoint not found" in capsys.readouterr().err

    # `collect` is no command: study dynamics collects its datasets in process
    with pytest.raises(SystemExit) as exc:
        main(["collect", "--config", tiny_config, "--out-dir", str(out)])
    assert exc.value.code == 2


def test_train_sdm_failure_exits_three(tiny_config, tmp_path, monkeypatch,
                                       capsys):
    def degenerate(*args, **kwargs):
        raise HomographyError("degenerate correspondence, cond=inf")

    monkeypatch.setattr(trainer, "solve_homography", degenerate)
    out = tmp_path / "runs"
    assert main(["train", "--config", tiny_config,
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sdm stage failed at iteration 1: HomographyError" in err
    run_dir = out / "cliff-circular-medium-mgae-s0"
    assert (run_dir / "diagnostic.npz").exists()
    assert (run_dir / "metrics.csv").exists()


# 80 train rows are two minibatches of BATCH = 64 and 16 rows an epoch
DYN_ARGS = ["--seeds", "0", "--n-train", "80", "--n-test", "16", "--epochs", "2",
            "--horizon", "2"]


def outputs(out_dir):
    """The files a study left in ``out_dir``, beside its cache."""
    return sorted(f.name for f in out_dir.iterdir() if f.is_file())


# the dynamics-model benchmark (`cade.dynbench`), run as `cade study dynamics`

def test_dyn_bench_writes_model_comparison(tmp_path, capsys, monkeypatch):
    out = tmp_path / "dyn"
    argv = ["study", "dynamics", "--out-dir", str(out), *DYN_ARGS]
    assert main(argv) == 0
    study_bytes = (out / "study-dynamics.json").read_bytes()
    study = json.loads(study_bytes)
    assert list(study["cells"]) == ["sdm", "sdm-mlp", "baseline"]
    # the wall time goes beside the study, never into it
    assert "train_seconds" not in study_bytes.decode()
    timings = json.loads((out / "study-dynamics-timings.json").read_text())
    assert list(timings) == ["train_seconds"] and timings["train_seconds"][0] > 0
    # every number of the cached study has its cell, with the same bits
    (cached,) = (out / "cache").glob("dyn-*.json")
    result = json.loads(cached.read_text())
    assert "train_seconds" not in result  # the cache keeps no fit time
    for kind, rows in result["rows"].items():
        cells = study["cells"][kind]
        assert [(cells[f"iou_{h}"], cells[f"iou_std_{h}"], cells[f"l1_{h}"],
                 cells[f"l1_std_{h}"]) for h in (1, 2)] == [
            ([r["iou_mean"]], [r["iou_std"]], [r["l1_mean"]], [r["l1_std"]])
            for r in rows]
        assert cells["skipped"] == [result["skipped"][kind]]
    assert study["cells"]["sdm"]["known_iou"] == [result["known_iou"]["sdm"]]
    printed = capsys.readouterr().out
    assert "sdm - baseline" in printed
    assert "known_iou" in printed
    assert "train time" in printed

    # a rerun reads the cache under <out-dir>/cache and writes the same
    # bytes, and records that it fitted nothing
    def refit(**params):
        raise AssertionError("the cached study was fitted again")

    monkeypatch.setattr(experiments, "dynamics_study", refit)
    (out / "study-dynamics.json").unlink()
    assert main(argv) == 0
    assert (out / "study-dynamics.json").read_bytes() == study_bytes
    timings = json.loads((out / "study-dynamics-timings.json").read_text())
    assert timings == {"train_seconds": [None]}
    printed = capsys.readouterr().out
    assert "train time" not in printed
    assert "study read from the cache; nothing was fitted" in printed


def test_dyn_bench_on_the_river(tmp_path, capsys):
    """The river's dataset goes through the renderer: every model's IoU at
    each of the three rollout steps lies in [0, 1]."""
    assert main(["study", "dynamics", "--env", "planar-river", "--seeds", "0",
                 "--out-dir", str(tmp_path), "--n-train", "65", "--n-test",
                 "40", "--epochs", "1", "--horizon", "3"]) == 0
    study = json.loads((tmp_path / "study-dynamics.json").read_text())
    assert study["config"]["env"] == "planar-river"
    cells = study["cells"]
    assert list(cells) == ["sdm", "sdm-mlp", "baseline"]
    for metrics in cells.values():
        assert [m for m in metrics if m.startswith("iou_") and "std" not in m] \
            == ["iou_1", "iou_2", "iou_3"]
        assert all(0.0 <= metrics[f"iou_{h}"][0] <= 1.0 for h in (1, 2, 3))


def test_dyn_bench_sdm_failure_exits_three(tmp_path, monkeypatch, capsys):
    # the fit solves a finite H that the warp cannot invert
    solve = dynbench.solve_homography

    def singular(offsets, rows, cols):
        return solve(offsets.tape.const(np.broadcast_to(
            SINGULAR_OFFSETS, offsets.values.shape).copy()), rows, cols)

    monkeypatch.setattr(dynbench, "solve_homography", singular)
    assert main(["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: singular homography" in capsys.readouterr().err
    assert outputs(tmp_path) == ["diagnostic.npz"]
    assert "offsets" in load_params(tmp_path / "diagnostic.npz")


def test_dyn_bench_non_finite_fit_loss_exits_three(tmp_path, monkeypatch, capsys):
    # the first SDM minibatch's loss is NaN: the fit raises before its
    # first step and leaves the initial parameters, and no study is written
    jaccard = dynbench.jaccard_loss
    monkeypatch.setattr(dynbench, "jaccard_loss", lambda pred, truth: jaccard(
        pred, truth * float("nan")))
    assert main(["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: non-finite loss (nan)" in capsys.readouterr().err
    assert outputs(tmp_path) == ["diagnostic.npz"]
    snapshot = load_params(tmp_path / "diagnostic.npz")
    env = make_env("cliff-circular", "medium")
    inputs = int(np.prod(env.obs_shape)) + int(sum(env.branches))
    first = mlp_params(np.random.default_rng(0), (inputs, 64, 64, 8))
    assert list(snapshot) == list(first)
    for name, value in first.items():
        np.testing.assert_array_equal(snapshot[name], value)
    assert not list(tmp_path.glob("cache/dyn-*.json"))


def test_a_dynamics_study_failure_names_its_snapshot(tmp_path, monkeypatch,
                                                     capsys):
    # the error of a NaN fit loss ends with where the fit's parameters went,
    # as a failed training run's does
    jaccard = dynbench.jaccard_loss
    monkeypatch.setattr(dynbench, "jaccard_loss", lambda pred, truth: jaccard(
        pred, truth * float("nan")))
    assert main(["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert capsys.readouterr().err == (
        "error: non-finite loss (nan); diagnostic snapshot saved to "
        f"{tmp_path / 'diagnostic.npz'}\n")
    assert outputs(tmp_path) == ["diagnostic.npz"]


def test_dyn_bench_run_replaces_what_an_earlier_run_left(tmp_path, monkeypatch):
    # a good run, a NaN run and a good run into one out-dir: the failing
    # run leaves only its diagnostic, the next good run only its study
    argv = ["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]
    study = ["study-dynamics-timings.json", "study-dynamics.json"]
    assert main(argv) == 0
    assert outputs(tmp_path) == study
    jaccard = dynbench.jaccard_loss
    with monkeypatch.context() as m:
        m.setattr(dynbench, "jaccard_loss", lambda pred, truth: jaccard(
            pred, truth * float("nan")))
        assert main([*argv, "--epochs", "3"]) == 3
    assert outputs(tmp_path) == ["diagnostic.npz"]
    assert main([*argv, "--epochs", "1"]) == 0
    assert outputs(tmp_path) == study


def test_dyn_bench_singular_rollout_warp_exits_three(tmp_path, monkeypatch, capsys):
    # the fitted warp model's rollout meets a singular H
    predict = dynbench.sdm_predict
    monkeypatch.setattr(dynbench, "sdm_predict",
                        lambda fn, *args, **kw: predict(singular_offsets_net,
                                                        *args, **kw))
    assert main(["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: singular homography" in capsys.readouterr().err
    assert outputs(tmp_path) == ["diagnostic.npz"]
    env = make_env("cliff-circular", "medium")
    inputs = int(np.prod(env.obs_shape)) + int(sum(env.branches))
    shapes = mlp_params(np.random.default_rng(0), (inputs, 64, 64, 8))
    snapshot = load_params(tmp_path / "diagnostic.npz")
    assert {k: v.shape for k, v in snapshot.items()} == \
        {k: v.shape for k, v in shapes.items()}


def test_dyn_bench_sdm_failure_leaves_the_failing_fit(tmp_path, monkeypatch, capsys):
    failed = {}

    def degenerate(offsets, rows, cols):
        failed["offsets"] = offsets.values.copy()
        raise HomographyError("degenerate correspondence, cond=inf")

    monkeypatch.setattr(dynbench, "solve_homography", degenerate)
    assert main(["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: degenerate correspondence" in capsys.readouterr().err
    snapshot = load_params(tmp_path / "diagnostic.npz")
    # the first batch failed, so the parameters are still the initial ones
    env = make_env("cliff-circular", "medium")
    inputs = int(np.prod(env.obs_shape)) + int(sum(env.branches))
    first = mlp_params(np.random.default_rng(0), (inputs, 64, 64, 8))
    assert list(snapshot) == [*first, "offsets"]
    for name, value in first.items():
        np.testing.assert_array_equal(snapshot[name], value)
    # the first minibatch's offsets head rows, (B, 8)
    assert snapshot["offsets"].shape == (dynbench.BATCH, 8)
    np.testing.assert_array_equal(snapshot["offsets"], failed["offsets"])


def test_dyn_bench_rollout_failure_leaves_the_fitted_model(tmp_path, monkeypatch,
                                                           capsys):
    fitted = {}
    train_dyn = dynbench.train_dyn

    def keep(kind, *args, **kwargs):
        fitted[kind] = train_dyn(kind, *args, **kwargs)
        return fitted[kind]

    def degenerate(*args, **kwargs):
        raise HomographyError("degenerate correspondence, cond=inf")

    monkeypatch.setattr(experiments, "train_dyn", keep)
    monkeypatch.setattr(dynbench, "sdm_predict", degenerate)
    assert main(["study", "dynamics", "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: degenerate correspondence" in capsys.readouterr().err
    snapshot = load_params(tmp_path / "diagnostic.npz")
    assert list(snapshot) == list(fitted["sdm"].params)
    for name, value in fitted["sdm"].params.items():
        np.testing.assert_array_equal(snapshot[name], value)


def test_the_removed_dyn_bench_command_exits_two(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["dyn-bench", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_eval_screen_failure_exits_three(tiny_config, tmp_path, monkeypatch,
                                         capsys):
    env = make_env("cliff-circular", "medium")
    nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              16, 8), np.random.default_rng(0))
    # a saturated cost head's bound reaches the default threshold 1.0, so
    # the screen runs
    nets.params["cost"]["b2"][...] = 40.0
    ckpt = tmp_path / "ckpt.npz"
    nets.save(ckpt)

    def degenerate(*args, **kwargs):
        raise HomographyError("degenerate correspondence, cond=inf")

    monkeypatch.setattr(safety, "sdm_predict", degenerate)
    assert main(["eval", "--config", tiny_config, "--out-dir", str(tmp_path),
                 "--checkpoint", str(ckpt), "--episodes", "1",
                 "--safety-layer", "infer"]) == 3
    assert "error: degenerate correspondence" in capsys.readouterr().err
    # the eval directory holds the networks that failed, nothing else
    (snapshot,) = tmp_path.glob("eval-*/diagnostic.npz")
    assert [f.name for f in snapshot.parent.iterdir()] == ["diagnostic.npz"]
    saved, loaded = nets.flat_params(), load_params(snapshot)
    assert set(loaded) == set(saved)
    for name, arr in saved.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_eval_non_finite_logits_exit_three_with_snapshot(tiny_config, tmp_path,
                                                         capsys):
    assert main(["train", "--config", tiny_config, "--out-dir", str(tmp_path)]) == 0
    run_dir = tmp_path / run_name(resolve_config(
        build_parser().parse_args(["train", "--config", tiny_config])))
    params = load_params(run_dir / "ckpt-final.npz")
    params["actor.b2"][...] = np.nan
    save_params(run_dir / "ckpt-nan.npz", params)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "ckpt-nan.npz"),
                 "--episodes", "1", "--out-dir", str(tmp_path / "ev")]) == 3
    assert "error: non-finite logits" in capsys.readouterr().err
    (snapshot,) = (tmp_path / "ev").glob("eval-*/diagnostic.npz")
    assert [f.name for f in snapshot.parent.iterdir()] == ["diagnostic.npz"]
    loaded = load_params(snapshot)
    assert set(loaded) == set(params)
    for name, arr in params.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_eval_of_a_nan_sdm_names_its_snapshot(tiny_config, tmp_path, capsys):
    # a NaN SDM under a screen that can fire: the screen's solve is
    # degenerate, and the error ends with where the networks went, as a
    # failed training run's does
    env = make_env("cliff-circular", "medium")
    nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              16, 8), np.random.default_rng(0))
    nets.params["cost"]["b2"][...] = 40.0
    for value in nets.params["sdm"].values():
        value[...] = np.nan
    nets.save(tmp_path / "ckpt.npz")
    assert main(["eval", "--config", tiny_config, "--out-dir", str(tmp_path),
                 "--checkpoint", str(tmp_path / "ckpt.npz"), "--episodes", "1",
                 "--safety-layer", "infer"]) == 3
    snapshot = (tmp_path / "eval-cliff-circular-medium-mgae-s0-safe-infer"
                / "diagnostic.npz")
    assert capsys.readouterr().err == (
        "error: degenerate correspondence, cond=inf; "
        f"diagnostic snapshot saved to {snapshot}\n")
    assert load_params(snapshot).keys() == nets.flat_params().keys()


def test_eval_reads_the_run_config(tmp_path, monkeypatch, capsys):
    # the run's hidden size, gamma, level, seed, screen and out-dir all
    # differ from the defaults; eval repeats none of them
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "hidden_dim": 16, "head_width": 8, "gamma": 0.5, "level": "easy",
        "seed": 4, "timeout": 30, "step_budget": 40,
        "out_dir": str(tmp_path / "runs"),
        "safety": {"mode": "infer", "horizon": 2, "threshold": 0.3}}))
    assert main(["train", "--config", str(run_cfg)]) == 0
    run_dir = tmp_path / "runs" / "cliff-circular-easy-mgae-s4-safe-infer"
    ckpt = run_dir / "ckpt-final.npz"
    screened = []
    screen = trainer.screen_action

    def spy(*args, **kwargs):
        screened.append((kwargs["cfg"], kwargs["gamma"]))
        return screen(*args, **kwargs)

    monkeypatch.setattr(trainer, "screen_action", spy)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--episodes", "2"]) == 0
    eval_dir = tmp_path / "runs" / "eval-cliff-circular-easy-mgae-s4-safe-infer"
    assert json.loads((eval_dir / "summary.json").read_text())["episodes"] == 2
    assert screened and all(cfg.horizon == 2 and cfg.threshold == 0.3
                            and gamma == 0.5 for cfg, gamma in screened)

    # --config and the flags still override the run's values
    override = tmp_path / "override.json"
    override.write_text(json.dumps({"gamma": 0.9}))
    screened.clear()
    assert main(["eval", "--checkpoint", str(ckpt), "--episodes", "1",
                 "--config", str(override), "--seed", "5",
                 "--out-dir", str(tmp_path / "ev")]) == 0
    assert (tmp_path / "ev" / "eval-cliff-circular-easy-mgae-s5-safe-infer"
            / "summary.json").exists()
    assert screened and all(gamma == 0.9 for _, gamma in screened)

    # a bare checkpoint, with no manifest beside it, keeps the defaults
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "ckpt.npz").write_bytes(ckpt.read_bytes())
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bare / "ckpt.npz"),
                 "--episodes", "1", "--out-dir", str(tmp_path / "ev")]) == 3
    assert "shape mismatch" in capsys.readouterr().err


class Killed(BaseException):
    """A SIGKILL, which no handler sees: ``train`` writes nothing more."""


def test_a_killed_rerun_leaves_its_own_manifest_and_no_metrics(tmp_path, capsys):
    # a finished hidden-16 run, then a hidden-8 rerun into the same
    # directory killed at its first sdm stage: the directory holds the
    # rerun's manifest alone, no earlier checkpoint or metrics.csv, and eval
    # reads the rerun's config: the rerun's initial hidden-8 networks load
    # beside it
    run_dir = tmp_path / "run"
    small = dict(timeout=30, step_budget=60, head_width=8)
    trainer.train(RunConfig(hidden_dim=16, **small), run_dir)
    assert (run_dir / "metrics.csv").exists()

    def stop(stage):
        if stage == "sdm":
            raise Killed

    with pytest.raises(Killed):
        trainer.train(RunConfig(hidden_dim=8, **small), run_dir, instrument=stop)
    assert sorted(f.name for f in run_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["hidden_dim"] == 8
    assert list(manifest) == ["config", "code_hash", "started"]
    trainer.run_nets(RunConfig(hidden_dim=8, **small)).save(run_dir / "ckpt.npz")
    assert main(["eval", "--checkpoint", str(run_dir / "ckpt.npz"),
                 "--episodes", "1", "--out-dir", str(tmp_path / "ev")]) == 0


def test_eval_of_a_run_with_a_removed_estimator_exits_two(tmp_path, capsys):
    # a removed estimator or screen mode, and the MGAE form field, the
    # actor epoch count, the trust section (its KL early stop, KL mask and
    # advantage weight), the learning rate, GAE's lambda, the window length,
    # the squash's shape and the checkpoint cadence that every run trained
    # before each field's removal recorded: each refused by name, and the
    # fields of the oldest runs together in one error
    mask_only = {"surrogate_coef": 0.015, "kl_mask": 0.02}
    trust = dict(mask_only, kl_stop=0.02)
    safety = dict(RunConfig().to_dict()["safety"], mode="both")
    six = {"lr": 0.001, "lam": 0.95, "window": 10,
           "trust": {"surrogate_coef": 0.015},
           "cost_adv": {"horizon": 1, "k": 8.0, "c_b": 0.5}}
    for removed, message in [({"adv": "reinforce"}, "adv must be one of"),
                             ({"safety": safety}, "safety.mode must be one of"),
                             ({"mgae_mode": "inclusive"},
                              "unknown config key: mgae_mode\n"),
                             ({"actor_epochs": 1},
                              "unknown config key: actor_epochs\n"),
                             ({"trust": mask_only},
                              "unknown config key: trust\n"),
                             ({"trust": trust}, "unknown config key: trust\n"),
                             ({"actor_epochs": 1, "trust": trust},
                              "unknown config keys: actor_epochs, trust\n"),
                             (six, "unknown config keys: cost_adv.c_b, "
                                   "cost_adv.k, lam, lr, trust, window\n"),
                             ({"checkpoint_every": 500},
                              "unknown config key: checkpoint_every\n")]:
        run = tmp_path / "run"
        run.mkdir(exist_ok=True)
        config = dict(RunConfig().to_dict(), **removed)
        (run / "manifest.json").write_text(json.dumps({"config": config}))
        (run / "ckpt-final.npz").write_bytes(b"")
        assert main(["eval", "--checkpoint", str(run / "ckpt-final.npz"),
                     "--out-dir", str(tmp_path / "ev")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("manifest", ["{}", "[1, 2]", '{"config": [1, 2]}',
                                      "{not json"],
                         ids=["no-config", "a-list", "config-a-list", "not-json"])
def test_eval_of_a_manifest_without_a_config_mapping_exits_two(manifest, tmp_path,
                                                              capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(manifest)
    (run / "ckpt-final.npz").write_bytes(b"")
    assert main(["eval", "--checkpoint", str(run / "ckpt-final.npz"),
                 "--out-dir", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(run / "manifest.json") in err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("unreadable", ["a-directory", "not-utf-8"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_unreadable_config_file_or_manifest_exits_two(command, unreadable,
                                                         tmp_path, capsys):
    # a config file, or an eval checkpoint's manifest, that cannot be read
    # or is not UTF-8 is a bad config: one error line names it, and nothing
    # is written
    run = tmp_path / "run"
    run.mkdir()
    (run / "ckpt-final.npz").write_bytes(b"")
    path = run / "manifest.json" if command == "eval" else tmp_path / "run.json"
    if unreadable == "a-directory":
        path.mkdir()
    else:
        path.write_bytes(b'\xff{"config": {}}')
    argv = (["eval", "--checkpoint", str(run / "ckpt-final.npz")]
            if command == "eval" else ["train", "--config", str(path)])
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: config file {path} cannot be read: ")
    assert not out.exists()


def test_eval_replaces_what_an_earlier_eval_left(tiny_config, tmp_path, capsys):
    # a failing eval, a good eval and a failing eval into one directory:
    # each leaves only its own outputs
    assert main(["train", "--config", tiny_config, "--out-dir", str(tmp_path)]) == 0
    run_dir = tmp_path / run_name(resolve_config(
        build_parser().parse_args(["train", "--config", tiny_config])))
    params = load_params(run_dir / "ckpt-final.npz")
    params["actor.b2"][...] = np.nan
    save_params(run_dir / "ckpt-nan.npz", params)
    argv = ["eval", "--episodes", "1", "--out-dir", str(tmp_path / "ev"),
            "--checkpoint"]
    assert main([*argv, str(run_dir / "ckpt-nan.npz")]) == 3
    (eval_dir,) = (tmp_path / "ev").iterdir()
    assert [f.name for f in eval_dir.iterdir()] == ["diagnostic.npz"]
    assert main([*argv, str(run_dir / "ckpt-final.npz")]) == 0
    assert sorted(f.name for f in eval_dir.iterdir()) == ["metrics.csv",
                                                          "summary.json"]
    assert main([*argv, str(run_dir / "ckpt-nan.npz")]) == 3
    assert [f.name for f in eval_dir.iterdir()] == ["diagnostic.npz"]


def test_episodes_below_one_exits_two(tiny_config, tmp_path, capsys):
    env = make_env("cliff-circular", "medium")
    nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              16, 8), np.random.default_rng(0))
    ckpt = tmp_path / "ckpt.npz"
    nets.save(ckpt)
    out = tmp_path / "out"
    assert main(["eval", "--config", tiny_config, "--out-dir", str(out),
                 "--checkpoint", str(ckpt), "--episodes", "0"]) == 2
    assert main(["study", "safety", "--levels", "easy", "--episodes", "0",
                 "--seeds", "0", "--step-budget", "40",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: --episodes must be >= 1, got 0"] * 2
    assert not out.exists()  # nothing trained, evaluated or written


@pytest.mark.parametrize("study", ["estimators", "safety"])
def test_study_step_budget_below_one_exits_two(study, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["study", study, "--seeds", "0", "--step-budget", "0",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: --step-budget must be >= 1, got 0"]
    assert not out.exists()  # nothing trained, evaluated or written


def never_run(monkeypatch):
    """Make any training run or dynamics fit fail the test."""
    def never(*args, **kwargs):
        raise AssertionError("a run was trained")

    for name in ("train", "dynamics_study"):
        monkeypatch.setattr(experiments, name, never)


@pytest.mark.parametrize("study", ["estimators", "safety", "dynamics"])
def test_study_repeated_seed_exits_two(study, tmp_path, capsys, monkeypatch):
    # a repeated seed would train one run and report it as two seeds
    never_run(monkeypatch)
    out = tmp_path / "out"
    assert main(["study", study, "--seeds", "3", "0", "3", "0", "1",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: --seeds repeats 0, 3"]
    assert not out.exists()  # nothing trained, evaluated or written


def test_study_repeated_level_exits_two(tmp_path, capsys, monkeypatch):
    # its cells would merge: one level's metrics written twice
    never_run(monkeypatch)
    out = tmp_path / "out"
    assert main(["study", "safety", "--levels", "easy", "hard", "easy",
                 "--seeds", "0", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: --levels repeats easy"]
    assert not out.exists()


@pytest.mark.parametrize("study,flag,value", [
    ("estimators", "--estimators", "mgae"), ("dynamics", "--batch", "16")])
def test_the_removed_study_flags_exit_two(study, flag, value, tmp_path, capsys,
                                          monkeypatch):
    # a one-arm estimator study printed no contrast; no run set the batch
    never_run(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["study", study, flag, value, "--seeds", "0", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("study", ["estimators", "safety", "dynamics"])
def test_study_negative_seed_exits_two_before_any_run_trains(study, tmp_path,
                                                             capsys):
    # seed 0 comes first and is valid: it must not train into the cache
    out = tmp_path / "out"
    assert main(["study", study, "--seeds", "0", "-1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: seed must be >= 0, got -1"]
    assert not (out / "cache").exists() and not out.exists()


def stale_outputs(out, study):
    """An earlier run's study file and diagnostic in ``out``."""
    out.mkdir()
    stale = [out / f"study-{study}.json", out / "diagnostic.npz"]
    stale[0].write_text('{"old": 1}')
    stale[1].write_bytes(b"stale")
    return stale


@pytest.mark.parametrize("study", ["estimators", "safety", "dynamics"])
def test_a_study_that_cannot_write_its_cache_leaves_no_earlier_study(
        study, tmp_path, capsys):
    # study compare would read the earlier file as this run's
    out = tmp_path / "out"
    stale = stale_outputs(out, study)
    (out / "cache").write_text("a file, not a directory")
    assert main(["study", study, *STUDY_ARGS[study], "--seeds", "0",
                 "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(path.exists() for path in stale)


@pytest.mark.parametrize("study", ["estimators", "safety"])
def test_a_study_whose_run_fails_names_its_snapshot(study, tmp_path, capsys,
                                                    monkeypatch):
    # the failing run's snapshot is in its cache directory, and the earlier
    # run's study file and diagnostic are gone
    jaccard = trainer.jaccard_loss
    monkeypatch.setattr(trainer, "jaccard_loss", lambda pred, truth: jaccard(
        pred, truth * float("nan")))
    out = tmp_path / "out"
    stale = stale_outputs(out, study)
    assert main(["study", study, *STUDY_ARGS[study], "--seeds", "0",
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    head, snapshot = err[0].split("; diagnostic snapshot saved to ")
    assert err[1:] == [] and head == ("error: sdm stage failed at iteration 1: "
                                      "ValueError: non-finite loss (nan)")
    snapshot = Path(snapshot)
    assert snapshot.name == "diagnostic.npz" and snapshot.parent.parent == out / "cache"
    assert len(snapshot.parent.name) == 16 and snapshot.exists()
    assert not any(path.exists() for path in stale)


@pytest.mark.parametrize("flag,value", [
    ("--epochs", 0), ("--horizon", 0), ("--n-train", 0), ("--n-test", 0)])
def test_dyn_bench_counts_below_one_exit_two(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["study", "dynamics", "--out-dir", str(out), flag, str(value)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {flag} must be >= 1, got {value}"]
    assert not out.exists()  # no dataset collected, nothing written


def test_the_dynamics_sizes_are_written_once():
    # the flags' defaults and dynamics_study's are experiments' constants;
    # dynbench's functions take every size from their caller
    sizes = {"n_train": experiments.N_TRAIN, "n_test": experiments.N_TEST,
             "epochs": experiments.EPOCHS, "horizon": experiments.HORIZON}
    assert sizes == {"n_train": 1720, "n_test": 492, "epochs": 30, "horizon": 10}
    args = build_parser().parse_args(["study", "dynamics"])
    assert {k: getattr(args, k) for k in sizes} == sizes
    study = inspect.signature(experiments.dynamics_study).parameters
    assert {k: study[k].default for k in sizes} == sizes
    for fn in (dynbench.collect_dataset, dynbench.train_dyn, dynbench.rollout_eval):
        for name, param in inspect.signature(fn).parameters.items():
            assert name not in sizes or param.default is param.empty, (fn, name)
    assert dynbench.BATCH == 64


def test_the_settings_no_run_turned_are_no_parameters():
    # each is a constant of the module that reads it
    for fn, removed in ((nets_module.Adam, "lr"), (dynbench.train_dyn, "lr"),
                        (dynbench.train_dyn, "batch"),
                        (experiments.dynamics_study, "batch"),
                        (experiments.dynamics_study, "timeout"),
                        (advantage.ReturnWindow, "size"), (advantage.gae, "lam")):
        assert removed not in inspect.signature(fn).parameters, (fn, removed)
    assert (nets_module.LR, advantage.WINDOW, advantage.LAM) == (0.001, 10, 0.95)


STUDY_ARGS = {"estimators": ["--step-budget", "40"],
              "safety": ["--levels", "easy", "medium", "--episodes", "2",
                         "--step-budget", "40"],
              "dynamics": DYN_ARGS[2:]}


def run_study(name, out_dir, capsys, monkeypatch):
    """Runs a small study twice; the rerun must read every run from the
    cache, print the same lines and write the same JSON.  Returns the
    printed table and the JSON."""
    argv = ["study", name, *STUDY_ARGS[name], "--seeds", "0",
            "--out-dir", str(out_dir)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    path = out_dir / f"study-{name}.json"
    assert printed[-1] == f"-> {path}"
    text = path.read_text()
    with monkeypatch.context() as m:
        never_run(m)
        path.unlink()
        assert main(argv) == 0
    rerun = capsys.readouterr().out.splitlines()
    if name == "dynamics":  # the rerun fits nothing
        assert printed[0].startswith("train time: ")
        assert rerun[0] == "study read from the cache; nothing was fitted"
        rerun[0] = printed[0]
    assert rerun == printed
    assert path.read_text() == text
    return printed[:-1], json.loads(text)


def cell_lines(study, keep=lambda metric: True):
    """The table of a study's kept cells, one seed a column."""
    return [f"{arm:<20}{metric:<14}" + "".join(
                f"{v:9.3f}" for v in [*values, np.mean(values)])
            for arm, metrics in study["cells"].items()
            for metric, values in metrics.items() if keep(metric)]


def paired_lines(rows):
    """Lines of paired rows ``(name, metric, a, b)`` over one seed; with one
    seed every p is 1."""
    return [f"{name:<20}{metric:<14}{b - a:+9.3f}{b - a:+9.3f}  1.0000  1.0000"
            for name, metric, a, b in rows]


def test_study_estimators(tmp_path, capsys, monkeypatch):
    table, result = run_study("estimators", tmp_path, capsys, monkeypatch)
    assert result["study"] == "estimators" and result["seeds"] == [0]
    assert result["config"] == {"step_budget": 40}
    assert list(result["cells"]) == ["mgae", "gae"]
    assert table[0] == "arm                 metric            seed0     mean"
    assert table[1:5] == cell_lines(result)
    cells = result["cells"]
    assert table[5] == ("mgae - gae          metric            seed0     mean"
                        "       p    holm")
    assert table[6:] == paired_lines([
        ("mgae - gae", m, cells["gae"][m][0], cells["mgae"][m][0])
        for m in ("final_reward", "final_cost")])


def test_study_compare_of_a_study_with_itself(tmp_path, capsys, monkeypatch):
    # every kind: each cell's difference 0 and its p 1
    for name in ("estimators", "safety", "dynamics"):
        _, result = run_study(name, tmp_path / name, capsys, monkeypatch)
        path = str(tmp_path / name / f"study-{name}.json")
        assert main(["study", "compare", path, path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "arm                 metric            seed0     mean       p    holm",
            *(f"{arm:<20}{metric:<14}   +0.000   +0.000  1.0000  1.0000"
              for arm, metrics in result["cells"].items() for metric in metrics)]


def test_study_compare_flags_what_holm_keeps_and_refuses_bad_pairs(tmp_path,
                                                                   capsys):
    # B earns one more reward on each of six seeds, and pays a cost that is
    # higher on five of them: the reward cell reaches the smallest p of six
    # seeds, 2 of 64, which Holm doubles over the two cells
    seeds = list(range(6))
    paths = []
    for name, reward, cost in (
            ("a", [0.0] * 6, [1.0] * 6),
            ("b", [1.0] * 6, [2.0, 2.0, 2.0, 2.0, 2.0, 0.5])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"study": "estimators", "config": {},
                                    "seeds": seeds, "cells": {"gae": {
                                        "final_reward": reward,
                                        "final_cost": cost}}}))
        paths.append(str(path))
    assert main(["study", "compare", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        f"{'gae':<20}{'final_reward':<14}" + "   +1.000" * 7 + "  0.0312  0.0625",
        f"{'gae':<20}{'final_cost':<14}" + "   +1.000" * 5 + "   -0.500"
        + "   +0.750  0.0625  0.0625"]
    # a flag needs p < 0.05 after Holm: the same reward cell alone is marked
    one = json.loads(open(paths[1]).read())
    del one["cells"]["gae"]["final_cost"]
    (tmp_path / "one.json").write_text(json.dumps(one))
    assert main(["study", "compare", paths[0], str(tmp_path / "one.json")]) == 0
    assert capsys.readouterr().out.splitlines()[2].endswith("  0.0312  0.0312 *")

    def refused(*studies):
        for i, study in enumerate(studies):
            (tmp_path / f"bad{i}.json").write_text(json.dumps(study))
        assert main(["study", "compare", *(str(tmp_path / f"bad{i}.json")
                                          for i in range(2))]) == 3
        return capsys.readouterr().err

    good = json.loads(open(paths[0]).read())
    assert "not a study" in refused(good, {})
    assert refused(good, dict(good, study="safety")) == (
        "error: studies of two kinds do not compare: estimators, safety\n")
    # a 40-step study against a 5,000-step one would mix code and budget
    assert refused(dict(good, config={"step_budget": 40}),
                   dict(good, config={"step_budget": 5000})) == (
        "error: studies of two configs do not compare: step_budget\n")
    twice = {"study": "estimators", "config": {}, "seeds": [0, 0], "cells": {
        "gae": {"final_reward": [1.0, 1.0], "final_cost": [3.0, 3.0]}}}
    assert refused(good, twice) == "error: a study repeats a seed: [0, 0]\n"
    elsewhere = dict(twice, seeds=[6, 7])
    assert refused(good, elsewhere) == "error: the studies share no seed\n"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_study_compare_refuses_a_non_finite_cell(bad, tmp_path, capsys):
    # json reads NaN and Infinity; such a difference ties no sign pattern,
    # so its p would read 0, and the cell would be marked as the strongest
    # difference there is
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, values in zip(paths, ("1.0, 2.0, 3.0", f"{bad}, 2.5, {bad}")):
        path.write_text('{"study": "estimators", "config": {}, "seeds": [0, 1, 2], '
                        f'"cells": {{"gae": {{"final_reward": [{values}]}}}}}}')
    for pair in (paths, paths[::-1]):
        assert main(["study", "compare", *map(str, pair)]) == 3
        assert capsys.readouterr() == (
            "", "error: a non-finite difference in gae final_reward at seeds 0, 2\n")


def test_a_study_with_a_non_finite_contrast_exits_three_and_keeps_its_runs(
        tmp_path, capsys, monkeypatch):
    # a NaN score in one arm: the printed contrast names its cell, no study
    # file is written, and the trained runs stay cached for a rerun
    comparison = experiments.estimator_comparison

    def with_nan(*args):
        cells = comparison(*args)
        cells["gae"]["final_cost"][0] = float("nan")
        return cells

    monkeypatch.setattr("cade.cli.estimator_comparison", with_nan)
    argv = ["study", "estimators", "--seeds", "0", "--step-budget", "40",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: a non-finite difference in mgae - gae final_cost at seeds 0\n")
    assert not list(tmp_path.glob("study-*.json"))
    assert len(list(tmp_path.glob("cache/*/ckpt-final.npz"))) == len(ADV_CHOICES)


def test_study_safety(tmp_path, capsys, monkeypatch):
    table, result = run_study("safety", tmp_path, capsys, monkeypatch)
    assert result["config"] == {"levels": ["easy", "medium"], "episodes": 2,
                                "step_budget": 40}
    cells = result["cells"]
    metrics = ["reward_easy", "cost_easy", "reward_medium", "cost_medium"]
    assert {arm: list(m) for arm, m in cells.items()} == {
        "lagrangian": metrics, "plain": metrics}
    assert table[0] == "arm                 metric            seed0     mean"
    assert table[1:9] == cell_lines(result)
    # the claim, lagrangian - plain, per level; no domination count
    assert table[10:] == paired_lines([
        ("lagrangian - plain", m, cells["plain"][m][0], cells["lagrangian"][m][0])
        for m in metrics])


def test_study_dynamics(tmp_path, capsys, monkeypatch):
    table, result = run_study("dynamics", tmp_path, capsys, monkeypatch)
    cells = result["cells"]
    assert result["config"] == {"env": "cliff-circular", "level": "medium",
                                "epochs": 2, "n_train": 80, "n_test": 16,
                                "horizon": 2}
    # the claim's cells: IoU per rollout step, and the sdm's known-cell IoU
    claim = ("iou_1", "iou_2", "known_iou")
    assert table[0].startswith("train time: ")
    assert table[2:9] == cell_lines(result, lambda m: m in claim)
    assert table[10:] == paired_lines([
        ("sdm - baseline", m, cells["baseline"][m][0], cells["sdm"][m][0])
        for m in ("iou_1", "iou_2")])


@pytest.mark.parametrize("sig,code", [(signal.SIGINT, 130),
                                      (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("command", ["train", "eval", "study"])
def test_a_signal_ends_a_command_with_its_exit_code_and_no_traceback(
        command, sig, code, tmp_path):
    # each command is signalled once it is under way (its first manifest or
    # eval directory is there): it exits 128 + the signal's number with one
    # stderr line; an interrupted train leaves its rows and its networks in
    # diagnostic.npz, and no ckpt-final.npz
    out = tmp_path / "out"
    ckpt = tmp_path / "run" / "ckpt-final.npz"
    ckpt.parent.mkdir()
    trainer.run_nets(RunConfig()).save(ckpt)
    argv, started = {
        "train": (["train", "--step-budget", "10000000"], "*/manifest.json"),
        "eval": (["eval", "--checkpoint", str(ckpt), "--episodes", "100000"],
                 "eval-*"),
        "study": (["study", "estimators", "--seeds", "0", "--step-budget",
                   "10000000"], "cache/*/manifest.json"),
    }[command]
    src = str(Path(cade.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cade.cli", *argv, "--out-dir", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path})
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob(started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # a no-op once it has exited
    assert (proc.returncode, err) == (code, f"interrupted by {sig.name}\n")
    if command == "train":
        run_dir, = out.iterdir()
        assert sorted(f.name for f in run_dir.iterdir()) == [
            "diagnostic.npz", "manifest.json", "metrics.csv"]


def test_a_command_runs_off_the_main_thread(capsys):
    # only the main thread may set a signal handler; on another thread the
    # command runs under the process's own and returns its exit code
    codes, handler = [], signal.getsignal(signal.SIGTERM)
    worker = threading.Thread(
        target=lambda: codes.append(main(["train", "--print-config"])))
    worker.start()
    worker.join()
    assert codes == [0]
    assert RunConfig.from_dict(json.loads(capsys.readouterr().out)) == RunConfig()
    assert signal.getsignal(signal.SIGTERM) is handler
