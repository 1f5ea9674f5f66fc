"""Command-line entry point.

Commands:
  train      one training seed; writes metrics.csv, the manifest and
             ckpt-final.npz (at every budget; at zero, the initial networks)
  eval       a checkpoint's evaluation episodes, the screen on with
             ``--safety-layer infer`` and off with ``off``, its two choices;
             a run trained under ``safety.mode`` ``train`` evaluates
             unscreened, and its eval directory is named so; the run's
             config in the
             ``manifest.json`` beside the checkpoint replaces the defaults
             (network shapes, ``gamma``, screen, ``--seed``, ``--level``,
             ``--out-dir``); eval episode k draws from the streams keyed
             (``--seed``, k), which no training episode shares; a degenerate
             SDM or non-finite logits leave the networks in
             ``diagnostic.npz`` in the eval directory, which each eval first
             clears of an earlier eval's outputs
  dyn-bench  the dynamics-model study (``experiments.cached_dynamics_study``,
             cached under ``<out-dir>/cache``); writes dyn_metrics.csv,
             dyn_study.json and, apart, the fit time (null from the cache)
             in dyn_timings.json; a degenerate SDM or a non-finite fit loss
             leaves ``diagnostic.npz`` (the failing fit's parameters, and a
             degenerate SDM's (B, 8) corner ``offsets``) instead; each run
             first deletes these four files where an earlier run left them
  study      ``study estimators`` (final-window reward and cost per
             advantage estimator, ``mgae`` and ``gae`` by default, each run
             with advantage normalization off, which the study sets itself)
             or ``study safety`` (constrained vs plain training, evaluated on
             every level) at the default config, runs cached under
             ``<out-dir>/cache``; prints a table and writes
             ``study-<name>.json``; a seed repeated in ``--seeds``, or a
             negative one, exits 2 before any run trains;
             ``study compare A.json B.json`` prints the per-seed differences
             B - A of two estimator studies, with a fixed-seed bootstrap 95%
             interval of their mean

Precedence is flags over config file over defaults (for ``eval``, over the
run's recorded config over defaults); the fully resolved config is validated
(unknown keys rejected by name) and echoed into the run manifest.  Exit
codes: 0 success, 2 bad config or flags (a non-finite number, a negative
``--seed`` or ``--seeds`` entry, the removed ``safety.mode`` ``both``,
unknown keys, each named in one error, with the removed ``actor_epochs``,
``trust``, ``lr``, ``lam``, ``window``, ``checkpoint_every`` and
``cost_adv``'s ``k`` and ``c_b`` among them, a seed that ``--seeds``
repeats, an ``--episodes``, ``--epochs``, ``--batch``, ``--horizon``,
``--n-train`` or ``--n-test`` below 1, a ``study`` ``--step-budget``
below 1, and an ``eval`` checkpoint's ``manifest.json`` that is not JSON
or has no ``config`` mapping, included; ``--print-config`` checks the
config too, and nothing is written), 3 runtime failure (a degenerate SDM,
``HomographyError``, and a non-finite ``dyn-bench`` fit loss, which
leaves ``diagnostic.npz``, included; so is a ``study compare`` input that
is not an estimator study, or one whose seeds repeat).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, save_params, write_atomic
from .config import (ADV_CHOICES, ENV_CHOICES, LEVEL_CHOICES, SAFETY_MODES,
                     ConfigError, RunConfig, load_config_file)
from .dynbench import DatasetError
from .experiments import (STUDY_SEEDS, cached_dynamics_study,
                          compare_studies, estimator_comparison, evaluate_nets,
                          load_trained_nets, safety_comparison)
from .homography import HomographyError
from .trainer import TrainerError, summarize, train, write_metrics_csv

__all__ = ["main", "build_parser", "resolve_config", "run_name"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cade",
        description="Constrained recurrent policy training on patch-grid worlds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--env", choices=ENV_CHOICES)
        p.add_argument("--level", choices=LEVEL_CHOICES)
        p.add_argument("--seed", type=int)
        p.add_argument("--timeout", type=int)
        p.add_argument("--out-dir")

    p_train = sub.add_parser("train", help="run one training seed")
    common(p_train)
    p_train.add_argument("--adv", choices=ADV_CHOICES)
    p_train.add_argument("--safety-layer", choices=SAFETY_MODES,
                         help="screen proposed actions during train or infer")
    p_train.add_argument("--step-budget", type=int)
    p_train.add_argument("--lagrange", action="store_true", default=None,
                         help="enable the episodic cost constraint")
    p_train.add_argument("--no-lagrange", dest="lagrange",
                         action="store_false")
    p_train.add_argument("--normalize-adv", action="store_true", default=None)
    p_train.add_argument("--no-normalize-adv", dest="normalize_adv",
                         action="store_false")
    p_train.add_argument("--print-config", action="store_true",
                         help="print the resolved config and exit")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=30)
    p_eval.add_argument("--safety-layer", choices=("off", "infer"))

    p_dyn = sub.add_parser("dyn-bench", help="dynamics-model comparison")
    common(p_dyn)
    p_dyn.add_argument("--epochs", type=int, default=30)
    p_dyn.add_argument("--batch", type=int, default=64)
    p_dyn.add_argument("--n-train", type=int, default=1720)
    p_dyn.add_argument("--n-test", type=int, default=492)
    p_dyn.add_argument("--horizon", type=int, default=10)

    p_study = sub.add_parser("study", help="estimator or safety comparison, "
                                           "or two estimator studies compared")
    studies = p_study.add_subparsers(dest="study", required=True)
    p_est = studies.add_parser("estimators",
                               help="final-window reward per estimator")
    p_est.add_argument("--estimators", nargs="+", choices=ADV_CHOICES,
                       default=list(ADV_CHOICES))
    p_safe = studies.add_parser(
        "safety", help="constrained vs plain, trained on medium, "
                       "evaluated on every level")
    p_safe.add_argument("--levels", nargs="+", choices=LEVEL_CHOICES,
                        default=list(LEVEL_CHOICES))
    p_safe.add_argument("--episodes", type=int, default=30,
                        help="evaluation episodes per (seed, level)")
    for p in (p_est, p_safe):
        p.add_argument("--seeds", type=int, nargs="+",
                       default=list(STUDY_SEEDS))
        p.add_argument("--step-budget", type=int,
                       default=RunConfig.step_budget)
        p.add_argument("--out-dir", default=RunConfig.out_dir)
    p_cmp = studies.add_parser(
        "compare", help="per-seed differences B - A of two estimator studies")
    p_cmp.add_argument("a", help="study-estimators.json of the baseline")
    p_cmp.add_argument("b", help="study-estimators.json of the change")
    return parser


# CLI destinations that override top-level config fields directly.
_TOP_LEVEL = ("env", "level", "adv", "seed", "timeout", "out_dir",
              "step_budget", "normalize_adv")


def resolve_config(args: argparse.Namespace,
                   base: dict | None = None) -> RunConfig:
    """defaults <- ``base`` (a run's recorded config) <- config file <- CLI
    flags, then validate."""
    merged = RunConfig().to_dict()
    _deep_update(merged, base or {})
    if getattr(args, "config", None):
        _deep_update(merged, load_config_file(args.config))
    for name in _TOP_LEVEL:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    if getattr(args, "safety_layer", None) is not None:
        merged["safety"]["mode"] = args.safety_layer
    if getattr(args, "lagrange", None) is not None:
        merged["lagrange"]["enabled"] = args.lagrange
    return RunConfig.from_dict(merged).validate()


def _deep_update(base: dict, override: dict) -> None:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value


def run_name(cfg: RunConfig, prefix: str = "") -> str:
    parts = [cfg.env, cfg.level, cfg.adv, f"s{cfg.seed}"]
    if cfg.lagrange.enabled:
        parts.append("lag")
    if cfg.safety.mode != "off":
        parts.append(f"safe-{cfg.safety.mode}")
    name = "-".join(parts)
    return f"{prefix}{name}"


def _cmd_train(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg.to_dict(), indent=2))
        return 0
    run_dir = Path(cfg.out_dir) / run_name(cfg)
    manifest = train(cfg, run_dir)
    print(f"{len(manifest.rows)} iterations -> {run_dir}")
    return 0


def _check_counts(args, *flags) -> None:
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        if value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")


def _cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    manifest = ckpt.parent / "manifest.json"
    run = load_config_file(manifest) if manifest.exists() else {"config": {}}
    if not isinstance(run.get("config"), dict):
        raise ConfigError(f"{manifest} holds no config mapping")
    cfg = resolve_config(args, run["config"])
    if cfg.safety.mode == "train":  # eval screens under "infer" alone
        cfg.safety.mode = "off"
    _check_counts(args, "episodes")
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    nets = load_trained_nets(cfg, ckpt.parent, checkpoint=ckpt.name)
    out_dir = Path(cfg.out_dir) / run_name(cfg, prefix="eval-")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.csv", "summary.json", "diagnostic.npz"):
        (out_dir / name).unlink(missing_ok=True)  # an earlier eval's
    try:
        rows = evaluate_nets(cfg, nets, cfg.level, args.episodes, cfg.seed)
    except (HomographyError, ValueError):  # a degenerate SDM, non-finite logits
        nets.save(out_dir / "diagnostic.npz")
        raise
    columns = ("episode", "reward", "cost", "steps", "override_rate")
    write_metrics_csv(out_dir / "metrics.csv", rows, columns)
    stats = summarize(rows)
    write_atomic(out_dir / "summary.json", json.dumps(stats, indent=2) + "\n")
    print(f"EpR {stats['reward_mean']:.2f} +- {stats['reward_std']:.2f}  "
          f"EpC {stats['cost_mean']:.2f} +- {stats['cost_std']:.2f}  "
          f"-> {out_dir}")
    return 0


_DYN_OUTPUTS = ("dyn_metrics.csv", "dyn_study.json", "dyn_timings.json",
                "diagnostic.npz")


def _cmd_dyn_bench(args) -> int:
    cfg = resolve_config(args)
    _check_counts(args, "epochs", "batch", "horizon", "n-train", "n-test")
    out_dir = Path(cfg.out_dir) / f"dyn-{cfg.env}-{cfg.level}-s{cfg.seed}"
    for name in _DYN_OUTPUTS:  # an earlier run's, which this run replaces
        (out_dir / name).unlink(missing_ok=True)
    try:
        result = cached_dynamics_study(
            Path(cfg.out_dir) / "cache", env_name=cfg.env, level=cfg.level,
            n_train=args.n_train, n_test=args.n_test, epochs=args.epochs,
            batch=args.batch, horizon=args.horizon, seed=cfg.seed,
            timeout=cfg.timeout)
    except (HomographyError, ValueError) as exc:  # a degenerate SDM, a NaN fit
        if hasattr(exc, "snapshot"):
            out_dir.mkdir(parents=True, exist_ok=True)
            save_params(out_dir / "diagnostic.npz", exc.snapshot)
        raise
    fit = result.pop("train_seconds", None)  # a wall time; none from the cache
    rows = result["rows"]
    kinds = list(rows)
    print(f"IoU by rollout step ({cfg.env}, {cfg.level})")
    print(f"{'step':<6}" + "".join(f"{k:>16}" for k in kinds))
    for i, row in enumerate(rows[kinds[0]]):
        print(f"{row['step']:<6}" + "".join(
            f"{rows[k][i]['iou_mean']:10.3f}±{rows[k][i]['iou_std']:<5.3f}"
            for k in kinds))
    for kind, iou in result["known_iou"].items():
        print(f"{kind} one-step IoU on known cells: {iou:.3f}")
    print("study read from the cache; nothing was fitted" if fit is None
          else f"train time: {fit:.1f}s")
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ("model", "step", "iou_mean", "iou_std", "l1_mean", "l1_std")
    write_metrics_csv(out_dir / "dyn_metrics.csv",
                      [dict(row, model=kind) for kind in kinds
                       for row in rows[kind]], columns)
    write_atomic(out_dir / "dyn_study.json", json.dumps(result, indent=2) + "\n")
    write_atomic(out_dir / "dyn_timings.json",
                 json.dumps({"train_seconds": fit}, indent=2) + "\n")
    print(f"-> {out_dir}")
    return 0


def _study_estimators(base: RunConfig, args, cache: Path) -> dict:
    results = estimator_comparison(base, args.estimators, args.seeds, cache)
    print(f"{'estimator':<12} " +
          " ".join(f"seed{s:<2}" for s in args.seeds) + "   mean    cost")
    means = {}
    for adv, finals in results.items():
        means[adv] = float(np.mean(finals["reward"]))
        cells = " ".join(f"{v:6.2f}" for v in finals["reward"])
        print(f"{adv:<12} {cells}  {means[adv]:6.2f}  "
              f"{np.mean(finals['cost']):6.2f}")
    best = max(means, key=means.get)
    print(f"best final-window reward: {best} ({means[best]:.2f})")
    return {"seeds": list(args.seeds), "finals": results, "means": means}


def _study_safety(base: RunConfig, args, cache: Path) -> dict:
    _check_counts(args, "episodes")
    results = safety_comparison(base, args.seeds, args.levels, args.episodes,
                                cache)
    print(f"{'variant':<12} {'level':<8} {'reward':>8} {'cost':>8}")
    for name, per_level in results.items():
        for level, summary in per_level.items():
            print(f"{name:<12} {level:<8} {summary['reward_mean']:8.2f} "
                  f"{summary['cost_mean']:8.2f}")
    lag, plain = results["lagrangian"], results["plain"]
    # at least as good on reward and cost, strictly better on one: a tie is no win
    pairs = [tuple((arm[lv]["reward_mean"], -arm[lv]["cost_mean"]) for arm in (lag, plain))
             for lv in args.levels]
    wins = sum(a != b and a[0] >= b[0] and a[1] >= b[1] for a, b in pairs)
    print(f"lagrangian dominates plain on {wins}/{len(args.levels)} levels")
    return results


def _study_compare(args) -> int:
    studies = []
    for path in (args.a, args.b):
        with open(path) as fh:
            studies.append(json.load(fh))
    seeds, result = compare_studies(*studies)
    print(f"paired differences B - A per seed; B = {args.b}, A = {args.a}")
    print(f"{'estimator':<10} {'metric':<7} " +
          " ".join(f"{f'seed{s}':>7}" for s in seeds) +
          "     mean   95% bootstrap interval")
    for adv, metrics in result.items():
        for metric, r in metrics.items():
            lo, hi = r["interval"]
            # higher reward and lower cost are better
            up, down = ("favours B", "favours A") if metric == "reward" \
                else ("favours A", "favours B")
            verdict = up if lo > 0 else down if hi < 0 else "contains 0"
            print(f"{adv:<10} {metric:<7} " +
                  " ".join(f"{d:+7.3f}" for d in r["diffs"]) +
                  f"  {r['mean']:+7.3f}   [{lo:+.3f}, {hi:+.3f}] {verdict}")
    return 0


def _cmd_study(args) -> int:
    if args.study == "compare":
        return _study_compare(args)
    _check_counts(args, "step-budget")
    repeated = sorted({s for s in args.seeds if args.seeds.count(s) > 1})
    if repeated:  # one run would count as two seeds
        raise ConfigError(f"--seeds repeats {', '.join(map(str, repeated))}")
    # each study sets what it compares itself: the estimator study trains
    # on raw advantages, the safety study toggles the Lagrangian
    base = RunConfig(step_budget=args.step_budget).validate()
    for seed in args.seeds:  # every seed is checked before any run trains
        replace(base, seed=seed).validate()
    out_dir = Path(args.out_dir)
    run = _study_estimators if args.study == "estimators" else _study_safety
    result = run(base, args, out_dir / "cache")
    path = out_dir / f"study-{args.study}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(result, indent=2) + "\n")
    print(f"-> {path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "dyn-bench": _cmd_dyn_bench,
    "study": _cmd_study,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TrainerError, CheckpointError, DatasetError, HomographyError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
