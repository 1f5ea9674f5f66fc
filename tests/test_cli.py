"""Command-line surface: config precedence, exit codes, artifact layout."""

import json

import numpy as np
import pytest

from cade import dynbench, experiments, safety, trainer
from cade.checkpoint import load_params, save_params
from cade.cli import build_parser, main, resolve_config, run_name
from cade.config import LagrangeSection, RunConfig, SafetySection
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
        "step_budget": 80, "checkpoint_every": 1000,
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
    # the estimator study's default arms are the paper's two
    args = build_parser().parse_args(["study", "estimators"])
    assert args.estimators == ["mgae", "gae"]


def test_unknown_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for key in ("hidden", "vtrace_clip"):
        bad.write_text(json.dumps({key: 16}))
        assert main(["train", "--config", str(bad), "--print-config"]) == 2
        assert f"config error: unknown config key: {key}" in capsys.readouterr().err


def test_invalid_config_value_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # "td" is "gae" at lam 0 and no longer an estimator of its own
    for key, value in (("gamma", 0.0), ("adv", "vtrace"), ("adv", "reinforce"),
                       ("adv", "td"),
                       ("trust", {"kl_mask": 0.0}), ("trust", {"kl_stop": -1.0}),
                       ("trust", {"surrogate_coef": float("nan")}),
                       ("trust", {"surrogate_coef": -0.015}), ("cost_adv", {"k": -8.0}),
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
                 ["dyn-bench", *common]):
        assert main(argv) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_a_rounding_level_kl_completes(tmp_path):
    # at lr 1e-12 the policy barely moves, and the batch KL of old and new
    # logits can round below zero; the early stop reads that as no stop
    path = tmp_path / "tiny-lr.json"
    path.write_text(json.dumps({"lr": 1e-12, "step_budget": 3000,
                                "hidden_dim": 32, "head_width": 16}))
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 0
    assert (out / "cliff-circular-medium-mgae-s0" / "metrics.csv").exists()


def test_flags_override_file_which_overrides_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "level": "hard", "seed": 5, "safety": {"mode": "train"},
        "trust": {"kl_mask": 0.05},
    }))
    args = build_parser().parse_args(
        ["train", "--config", str(path), "--level", "easy"])
    cfg = resolve_config(args)
    assert cfg.level == "easy"          # flag beats file
    assert cfg.seed == 5                # file beats default
    assert cfg.safety.mode == "train"   # nested file keys merge
    assert cfg.trust.kl_mask == 0.05
    assert cfg.trust.kl_stop == 0.02    # untouched sibling keeps its default


def test_run_name_encodes_the_variant():
    assert run_name(RunConfig(seed=2)) == "cliff-circular-medium-mgae-s2"
    lag = RunConfig(adv="gae", lagrange=LagrangeSection(enabled=True),
                    safety=SafetySection(mode="both"))
    assert run_name(lag) == "cliff-circular-medium-gae-s0-lag-safe-both"
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

    # `collect` is no command: dyn-bench collects its dataset in process
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


DYN_ARGS = ["--n-train", "40", "--n-test", "16", "--epochs", "2",
            "--batch", "16", "--horizon", "2"]


def test_dyn_bench_writes_model_comparison(tiny_config, tmp_path, capsys,
                                           monkeypatch):
    out = tmp_path / "dyn"
    argv = ["dyn-bench", "--config", tiny_config, "--out-dir", str(out),
            *DYN_ARGS]
    assert main(argv) == 0
    run_dir = out / "dyn-cliff-circular-medium-s0"
    metrics = (run_dir / "dyn_metrics.csv").read_bytes()
    for kind in ("sdm", "sdm-mlp", "baseline"):
        assert kind.encode() in metrics
    study_bytes = (run_dir / "dyn_study.json").read_bytes()
    study = json.loads(study_bytes)
    assert list(study["rows"]) == ["sdm", "sdm-mlp", "baseline"]
    # the wall time goes beside the study, never into it
    assert "train_seconds" not in study
    timings = json.loads((run_dir / "dyn_timings.json").read_text())
    assert list(timings) == ["train_seconds"] and timings["train_seconds"] > 0
    assert metrics.decode().splitlines() == [
        "model,step,iou_mean,iou_std,l1_mean,l1_std"] + [
        f"{kind},{r['step']},{r['iou_mean']!r},{r['iou_std']!r},"
        f"{r['l1_mean']!r},{r['l1_std']!r}"
        for kind, rows in study["rows"].items() for r in rows]
    assert len(study["rows"]["sdm"]) == 2 and "sdm" in study["known_iou"]
    printed = capsys.readouterr().out
    assert "IoU by rollout step" in printed
    assert "one-step IoU on known cells" in printed
    assert "train time" in printed

    # a rerun reads the cache under <out-dir>/cache and writes the same bytes;
    # the cache keeps no fit time, and the rerun records that it fitted none
    (cached,) = (out / "cache").glob("dyn-*.json")
    assert "train_seconds" not in json.loads(cached.read_text())

    def refit(**params):
        raise AssertionError("the cached study was fitted again")

    monkeypatch.setattr(experiments, "dynamics_study", refit)
    (run_dir / "dyn_metrics.csv").unlink()
    (run_dir / "dyn_study.json").unlink()
    assert main(argv) == 0
    assert (run_dir / "dyn_metrics.csv").read_bytes() == metrics
    assert (run_dir / "dyn_study.json").read_bytes() == study_bytes
    timings = json.loads((run_dir / "dyn_timings.json").read_text())
    assert timings == {"train_seconds": None}
    printed = capsys.readouterr().out
    assert "train time" not in printed
    assert "study read from the cache; nothing was fitted" in printed


def test_dyn_bench_on_the_river(tmp_path, capsys):
    """The river's dataset goes through the renderer: every model's IoU at
    each of the three rollout steps lies in [0, 1]."""
    assert main(["dyn-bench", "--env", "planar-river", "--out-dir", str(tmp_path),
                 "--n-train", "65", "--n-test", "40", "--epochs", "1",
                 "--horizon", "3"]) == 0
    assert "IoU by rollout step (planar-river, medium)" in capsys.readouterr().out
    run_dir = tmp_path / "dyn-planar-river-medium-s0"
    lines = (run_dir / "dyn_metrics.csv").read_text().splitlines()
    assert lines[0] == "model,step,iou_mean,iou_std,l1_mean,l1_std"
    rows = [line.split(",") for line in lines[1:]]
    assert [(kind, int(step)) for kind, step, *_ in rows] == [
        (kind, step) for kind in ("sdm", "sdm-mlp", "baseline") for step in (1, 2, 3)]
    assert all(0.0 <= float(iou) <= 1.0 for _, _, iou, *_ in rows)


def test_dyn_bench_sdm_failure_exits_three(tiny_config, tmp_path,
                                           monkeypatch, capsys):
    # the fit solves a finite H that the warp cannot invert
    solve = dynbench.solve_homography

    def singular(offsets, rows, cols):
        return solve(offsets.tape.const(np.broadcast_to(
            SINGULAR_OFFSETS, offsets.values.shape).copy()), rows, cols)

    monkeypatch.setattr(dynbench, "solve_homography", singular)
    assert main(["dyn-bench", "--config", tiny_config,
                 "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: singular homography" in capsys.readouterr().err
    run_dir = tmp_path / "dyn-cliff-circular-medium-s0"
    assert [f.name for f in run_dir.iterdir()] == ["diagnostic.npz"]
    assert "offsets" in load_params(run_dir / "diagnostic.npz")


def test_dyn_bench_non_finite_fit_loss_exits_three(tiny_config, tmp_path,
                                                   monkeypatch, capsys):
    # the first SDM minibatch's loss is NaN: the fit raises before its
    # first step and leaves the initial parameters, and no study is written
    jaccard = dynbench.jaccard_loss
    monkeypatch.setattr(dynbench, "jaccard_loss", lambda pred, truth: jaccard(
        pred, truth * float("nan")))
    assert main(["dyn-bench", "--config", tiny_config,
                 "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: non-finite loss (nan)" in capsys.readouterr().err
    run_dir = tmp_path / "dyn-cliff-circular-medium-s0"
    assert [f.name for f in run_dir.iterdir()] == ["diagnostic.npz"]
    snapshot = load_params(run_dir / "diagnostic.npz")
    env = make_env("cliff-circular", "medium")
    inputs = int(np.prod(env.obs_shape)) + int(sum(env.branches))
    first = mlp_params(np.random.default_rng(0), (inputs, 64, 64, 8))
    assert list(snapshot) == list(first)
    for name, value in first.items():
        np.testing.assert_array_equal(snapshot[name], value)
    assert not list(tmp_path.glob("cache/dyn-*.json"))


def test_dyn_bench_run_replaces_what_an_earlier_run_left(tiny_config, tmp_path,
                                                        monkeypatch):
    # a good run, a NaN run and a good run into one out-dir: the failing
    # run leaves only its diagnostic, the next good run only its study
    argv = ["dyn-bench", "--config", tiny_config, "--out-dir", str(tmp_path),
            *DYN_ARGS]
    run_dir = tmp_path / "dyn-cliff-circular-medium-s0"
    study = ["dyn_metrics.csv", "dyn_study.json", "dyn_timings.json"]
    assert main(argv) == 0
    assert sorted(f.name for f in run_dir.iterdir()) == study
    jaccard = dynbench.jaccard_loss
    with monkeypatch.context() as m:
        m.setattr(dynbench, "jaccard_loss", lambda pred, truth: jaccard(
            pred, truth * float("nan")))
        assert main([*argv, "--epochs", "3"]) == 3
    assert [f.name for f in run_dir.iterdir()] == ["diagnostic.npz"]
    assert main([*argv, "--epochs", "1"]) == 0
    assert sorted(f.name for f in run_dir.iterdir()) == study


def test_dyn_bench_singular_rollout_warp_exits_three(tiny_config, tmp_path,
                                                     monkeypatch, capsys):
    # the fitted warp model's rollout meets a singular H
    predict = dynbench.sdm_predict
    monkeypatch.setattr(dynbench, "sdm_predict",
                        lambda fn, *args, **kw: predict(singular_offsets_net,
                                                        *args, **kw))
    assert main(["dyn-bench", "--config", tiny_config,
                 "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: singular homography" in capsys.readouterr().err
    run_dir = tmp_path / "dyn-cliff-circular-medium-s0"
    assert [f.name for f in run_dir.iterdir()] == ["diagnostic.npz"]
    env = make_env("cliff-circular", "medium")
    inputs = int(np.prod(env.obs_shape)) + int(sum(env.branches))
    shapes = mlp_params(np.random.default_rng(0), (inputs, 64, 64, 8))
    snapshot = load_params(run_dir / "diagnostic.npz")
    assert {k: v.shape for k, v in snapshot.items()} == \
        {k: v.shape for k, v in shapes.items()}


def test_dyn_bench_sdm_failure_leaves_the_failing_fit(tiny_config, tmp_path,
                                                      monkeypatch, capsys):
    failed = {}

    def degenerate(offsets, rows, cols):
        failed["offsets"] = offsets.values.copy()
        raise HomographyError("degenerate correspondence, cond=inf")

    monkeypatch.setattr(dynbench, "solve_homography", degenerate)
    assert main(["dyn-bench", "--config", tiny_config,
                 "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: degenerate correspondence" in capsys.readouterr().err
    snapshot = load_params(tmp_path / "dyn-cliff-circular-medium-s0" / "diagnostic.npz")
    # the first batch failed, so the parameters are still the initial ones
    env = make_env("cliff-circular", "medium")
    inputs = int(np.prod(env.obs_shape)) + int(sum(env.branches))
    first = mlp_params(np.random.default_rng(0), (inputs, 64, 64, 8))
    assert list(snapshot) == [*first, "offsets"]
    for name, value in first.items():
        np.testing.assert_array_equal(snapshot[name], value)
    # the first minibatch's offsets head rows, (B, 8)
    assert snapshot["offsets"].shape == (16, 8)
    np.testing.assert_array_equal(snapshot["offsets"], failed["offsets"])


def test_dyn_bench_rollout_failure_leaves_the_fitted_model(tiny_config, tmp_path,
                                                           monkeypatch, capsys):
    fitted = {}
    train_dyn = dynbench.train_dyn

    def keep(kind, *args, **kwargs):
        fitted[kind] = train_dyn(kind, *args, **kwargs)
        return fitted[kind]

    def degenerate(*args, **kwargs):
        raise HomographyError("degenerate correspondence, cond=inf")

    monkeypatch.setattr(experiments, "train_dyn", keep)
    monkeypatch.setattr(dynbench, "sdm_predict", degenerate)
    assert main(["dyn-bench", "--config", tiny_config,
                 "--out-dir", str(tmp_path), *DYN_ARGS]) == 3
    assert "error: degenerate correspondence" in capsys.readouterr().err
    snapshot = load_params(tmp_path / "dyn-cliff-circular-medium-s0" / "diagnostic.npz")
    assert list(snapshot) == list(fitted["sdm"].params)
    for name, value in fitted["sdm"].params.items():
        np.testing.assert_array_equal(snapshot[name], value)


def test_eval_screen_failure_exits_three(tiny_config, tmp_path, monkeypatch,
                                         capsys):
    env = make_env("cliff-circular", "medium")
    nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              16, 8), np.random.default_rng(0))
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


def test_eval_reads_the_run_config(tmp_path, monkeypatch, capsys):
    # the run's hidden size, gamma, level, seed, screen and out-dir all
    # differ from the defaults; eval repeats none of them
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "hidden_dim": 16, "head_width": 8, "gamma": 0.5, "level": "easy",
        "seed": 4, "timeout": 30, "step_budget": 40, "checkpoint_every": 1000,
        "out_dir": str(tmp_path / "runs"),
        "safety": {"mode": "infer", "horizon": 2, "threshold": 0.3}}))
    assert main(["train", "--config", str(run_cfg)]) == 0
    run_dir = tmp_path / "runs" / "cliff-circular-easy-mgae-s4-safe-infer"
    ckpt = run_dir / "ckpt-final.npz"
    screened = []
    screen = trainer.screen_action

    def spy(*args):
        screened.append((args[6], args[7]))
        return screen(*args)

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


def test_a_killed_rerun_leaves_its_own_manifest_and_no_metrics(tmp_path, capsys):
    # a finished hidden-16 run, then a hidden-8 rerun into the same
    # directory stopped at its first sdm stage: the directory holds the
    # rerun's unfinished manifest beside its ckpt-init, no earlier
    # metrics.csv, and eval reads the rerun's config
    run_dir = tmp_path / "run"
    small = dict(timeout=30, step_budget=60, head_width=8, checkpoint_every=1000)
    trainer.train(RunConfig(hidden_dim=16, **small), run_dir)
    assert (run_dir / "metrics.csv").exists()

    def stop(stage):
        if stage == "sdm":
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        trainer.train(RunConfig(hidden_dim=8, **small), run_dir, instrument=stop)
    assert sorted(f.name for f in run_dir.iterdir()) == ["ckpt-init.npz",
                                                         "manifest.json"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["hidden_dim"] == 8
    assert manifest["rows"] == [] and manifest["finished"] == ""
    assert main(["eval", "--checkpoint", str(run_dir / "ckpt-init.npz"),
                 "--episodes", "1", "--out-dir", str(tmp_path / "ev")]) == 0


def test_eval_of_a_run_with_a_removed_estimator_exits_two(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    config = dict(RunConfig().to_dict(), adv="reinforce")
    (run / "manifest.json").write_text(json.dumps({"config": config}))
    (run / "ckpt-final.npz").write_bytes(b"")
    assert main(["eval", "--checkpoint", str(run / "ckpt-final.npz"),
                 "--out-dir", str(tmp_path / "ev")]) == 2
    assert "adv" in capsys.readouterr().err
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


@pytest.mark.parametrize("flag,value", [
    ("--epochs", 0), ("--batch", 0), ("--batch", -5), ("--horizon", 0),
    ("--n-train", 0), ("--n-test", 0)])
def test_dyn_bench_counts_below_one_exit_two(flag, value, tiny_config, tmp_path,
                                             capsys):
    out = tmp_path / "out"
    assert main(["dyn-bench", "--config", tiny_config, "--out-dir", str(out),
                 flag, str(value)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {flag} must be >= 1, got {value}"]
    assert not out.exists()  # no dataset collected, nothing written


STUDY_ARGS = {"estimators": ["--estimators", "mgae", "gae"],
              "safety": ["--levels", "easy", "medium", "--episodes", "2"]}


def run_study(name, out_dir, capsys, monkeypatch):
    """Runs a small study twice; the rerun must read every run from the
    cache, print the same lines and write the same JSON.  Returns the
    printed table and the JSON."""
    argv = ["study", name, *STUDY_ARGS[name], "--seeds", "0",
            "--step-budget", "40", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    path = out_dir / f"study-{name}.json"
    assert printed[-1] == f"-> {path}"
    text = path.read_text()

    def retrain(cfg, run_dir, **kwargs):
        raise AssertionError("a cached run was trained again")

    monkeypatch.setattr(experiments, "train", retrain)
    path.unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == printed
    assert path.read_text() == text
    return printed[:-1], json.loads(text)


def test_study_estimators(tmp_path, capsys, monkeypatch):
    table, result = run_study("estimators", tmp_path, capsys, monkeypatch)
    assert result["seeds"] == [0]
    assert list(result["finals"]) == ["mgae", "gae"]
    assert table[0] == "estimator    seed0    mean    cost"
    for line, (adv, finals) in zip(table[1:], result["finals"].items()):
        (final,), (cost,) = finals["reward"], finals["cost"]
        assert result["means"][adv] == final
        assert line == f"{adv:<12} {final:6.2f}  {final:6.2f}  {cost:6.2f}"
    best = max(result["means"], key=result["means"].get)
    assert table[3:] == [f"best final-window reward: {best} "
                         f"({result['means'][best]:.2f})"]


def test_study_compare_of_a_study_with_itself(tmp_path, capsys, monkeypatch):
    run_study("estimators", tmp_path, capsys, monkeypatch)
    path = str(tmp_path / "study-estimators.json")
    assert main(["study", "compare", path, path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "estimator  metric    seed0     mean   95% bootstrap interval",
        *(f"{adv:<10} {metric:<7}  +0.000   +0.000   [+0.000, +0.000] "
          "contains 0" for adv in ("mgae", "gae") for metric in ("reward", "cost"))]


def test_study_compare_names_the_side_an_interval_favours(tmp_path, capsys):
    # B earns more reward on every seed and pays more cost: both intervals
    # exclude 0, one in B's favour and one in A's
    studies = []
    for name, shift in (("a", 0.0), ("b", 1.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"seeds": [0, 1], "finals": {"gae": {
            "reward": [1.0 + shift, 2.0 + shift],
            "cost": [3.0 + shift, 4.0 + 2 * shift]}}}))
        studies.append(str(path))
    assert main(["study", "compare", *studies]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "gae        reward   +1.000  +1.000   +1.000   [+1.000, +1.000] favours B",
        "gae        cost     +1.000  +2.000   +1.500   [+1.000, +2.000] favours A"]
    (tmp_path / "bad.json").write_text("{}")
    assert main(["study", "compare", studies[0], str(tmp_path / "bad.json")]) == 3
    assert "not an estimator study" in capsys.readouterr().err


def test_study_safety(tmp_path, capsys, monkeypatch):
    table, result = run_study("safety", tmp_path, capsys, monkeypatch)
    assert table[0] == "variant      level      reward     cost"
    rows = [(name, level, s["reward_mean"], s["cost_mean"])
            for name in ("lagrangian", "plain")
            for level, s in result[name].items()]
    assert [r[:2] for r in rows] == [("lagrangian", "easy"), ("lagrangian", "medium"),
                                     ("plain", "easy"), ("plain", "medium")]
    assert table[1:5] == [f"{n:<12} {lv:<8} {r:8.2f} {c:8.2f}" for n, lv, r, c in rows]
    lag, plain = result["lagrangian"], result["plain"]
    wins = sum(lag[lv]["reward_mean"] >= plain[lv]["reward_mean"]
               and lag[lv]["cost_mean"] <= plain[lv]["cost_mean"]
               for lv in ("easy", "medium"))
    assert table[5:] == [f"lagrangian dominates plain on {wins}/2 levels"]
