"""Command-line entry point.

Commands:
  train      one training seed; writes manifest.json, then metrics.csv,
             and last ckpt-final.npz (at zero budget, the initial networks),
             which marks a finished run
  eval       a checkpoint's evaluation episodes, the screen on with
             ``--safety-layer infer`` and off with ``off``, its two choices;
             a run trained under ``safety.mode`` ``train`` evaluates
             unscreened, and its eval directory is named so; the run's config
             in the ``manifest.json`` beside the checkpoint replaces the
             defaults (network shapes, ``gamma``, screen, ``--seed``,
             ``--level``, ``--out-dir``); eval episode k draws from the
             streams keyed (``--seed``, k), which no training episode shares;
             a degenerate SDM or non-finite logits leave the networks in
             ``diagnostic.npz`` in the eval directory, whose path the error
             ends with; each eval first clears an earlier eval's outputs
  study      ``estimators`` (mgae - gae on ``final_reward`` and
             ``final_cost``, advantage normalization off), ``safety``
             (lagrangian - plain on ``reward_<level>`` and ``cost_<level>``,
             trained on medium) or ``dynamics`` (sdm - baseline on ``iou_h``
             per rollout step h, one dataset and fit a seed): one table of
             per-seed scores over ``--seeds`` (0 1 2 by default), runs cached
             under ``<out-dir>/cache``, written to ``study-<name>.json`` (see
             ``cade.experiments``); prints the claim's cells, then its
             per-seed differences with their sign-flip p and Holm's
             adjustment over the m lines printed (``*`` below 0.05), which
             is at least m 2^(1 - n) at n seeds: a ``*`` needs n >= 7 for
             estimators (m = 2), 8 for safety at two or three levels (m = 4
             or 6) and 9 for dynamics at horizon 10 (m = 10).  The dynamics
             fit time goes apart to ``study-dynamics-timings.json`` (null
             for a seed the cache served); a degenerate SDM or a non-finite
             fit loss or gradient leaves ``diagnostic.npz`` (the failing
             fit's parameters, and a degenerate SDM's (B, 8) corner
             ``offsets``) instead.  Every study first deletes an earlier run's
             ``study-<name>*.json`` and ``diagnostic.npz``, so a failed one
             leaves neither; an error that leaves a snapshot ends with its
             path, ``<out-dir>/cache/<key>/diagnostic.npz`` for a failed
             training run.  ``study compare A.json B.json`` prints B - A per
             seed of every cell two studies of one kind and config share,
             with the same test and one Holm pass (m = 4 for two estimator
             studies, so n >= 8).

Precedence is flags over config file over defaults (for ``eval``, over the
run's recorded config over defaults); the fully resolved config is validated
(unknown keys rejected by name) and echoed into the run manifest.  Exit
codes: 0 success, 2 bad config or flags (a non-finite number, a negative
``--seed`` or ``--seeds`` entry, the removed ``safety.mode`` ``both``,
unknown keys, each named in one error, with the removed ``actor_epochs``,
``trust``, ``lr``, ``lam``, ``window``, ``checkpoint_every``,
``cost_adv``'s ``k`` and ``c_b``, ``lagrange``'s ``lr`` and ``beta_max``
and ``safety.samples`` among them, a seed or level that a
study repeats, an ``--episodes``, ``--epochs``, ``--horizon``,
``--n-train`` or ``--n-test`` below 1, a ``study`` ``--step-budget`` below
1, an unknown command such as ``dyn-bench`` or flag such as the removed
``study estimators --estimators`` and ``study dynamics --batch``, and a
config file or ``eval`` checkpoint's ``manifest.json`` that cannot be read
(a directory), is not UTF-8 or JSON, or has no ``config`` mapping,
included; ``--print-config`` checks the config too, and nothing is
written), 3 runtime failure (a degenerate SDM, ``HomographyError``, and a
non-finite train or dynamics fit loss or gradient, which leave
``diagnostic.npz``, included; so are ``study compare`` inputs of two kinds
or two configs, with a repeated seed, with no seed in common, or with a NaN
or infinite difference, whose cell and seeds the error names; a study
whose own contrast has one writes no study file, and its runs stay
cached), 130 on SIGINT and 143 on SIGTERM (one stderr line; an interrupted
``train`` leaves its completed iterations' rows in ``metrics.csv`` and its
networks in ``diagnostic.npz``, never ``ckpt-final.npz``; off the main
thread, which may not set a handler, SIGTERM keeps the process's own).
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, save_params, write_atomic
from .config import (ADV_CHOICES, ENV_CHOICES, LEVEL_CHOICES, SAFETY_MODES,
                     ConfigError, RunConfig, load_config_file)
from .dynbench import DatasetError
from .experiments import (ALPHA, EPOCHS, HORIZON, N_TEST, N_TRAIN,
                          STUDY_SEEDS, compare_studies, dynamics_comparison,
                          estimator_comparison, evaluate_nets, holm,
                          load_trained_nets, paired, safety_comparison, scores)
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

    p_study = sub.add_parser("study", help="estimator, safety or dynamics "
                                           "comparison, or two studies compared")
    studies = p_study.add_subparsers(dest="study", required=True)
    p_est = studies.add_parser("estimators",
                               help="final-window reward per estimator")
    p_safe = studies.add_parser(
        "safety", help="constrained vs plain, trained on medium, "
                       "evaluated on every level")
    p_safe.add_argument("--levels", nargs="+", choices=LEVEL_CHOICES,
                        default=list(LEVEL_CHOICES))
    p_safe.add_argument("--episodes", type=int, default=30,
                        help="evaluation episodes per (seed, level)")
    for p in (p_est, p_safe):
        p.add_argument("--step-budget", type=int,
                       default=RunConfig.step_budget)
    p_dyn = studies.add_parser(
        "dynamics", help="warp model vs dense MLP vs copy-forward rollouts")
    p_dyn.add_argument("--env", choices=ENV_CHOICES, default=RunConfig.env)
    p_dyn.add_argument("--level", choices=LEVEL_CHOICES,
                       default=RunConfig.level)
    for flag, default in (("--epochs", EPOCHS), ("--n-train", N_TRAIN),
                          ("--n-test", N_TEST), ("--horizon", HORIZON)):
        p_dyn.add_argument(flag, type=int, default=default)
    for p in (p_est, p_safe, p_dyn):
        p.add_argument("--seeds", type=int, nargs="+",
                       default=list(STUDY_SEEDS))
        p.add_argument("--out-dir", default=RunConfig.out_dir)
    p_cmp = studies.add_parser(
        "compare", help="per-seed differences B - A of two studies of one kind")
    p_cmp.add_argument("a", help="study-<name>.json of the baseline")
    p_cmp.add_argument("b", help="study-<name>.json of the change")
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
    return prefix + "-".join(parts)


def _cmd_train(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg.to_dict(), indent=2))
        return 0
    run_dir = Path(cfg.out_dir) / run_name(cfg)
    state = train(cfg, run_dir)
    print(f"{state.it} iterations -> {run_dir}")
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
    except (HomographyError, ValueError) as exc:  # a degenerate SDM, NaN logits
        snapshot = out_dir / "diagnostic.npz"
        nets.save(snapshot)
        raise TrainerError(f"{exc}; diagnostic snapshot saved to {snapshot}") from exc
    columns = ("episode", "reward", "cost", "steps", "override_rate")
    write_metrics_csv(out_dir / "metrics.csv", rows, columns)
    stats = summarize(rows)
    write_atomic(out_dir / "summary.json", json.dumps(stats, indent=2) + "\n")
    print(f"EpR {stats['reward_mean']:.2f} +- {stats['reward_std']:.2f}  "
          f"EpC {stats['cost_mean']:.2f} +- {stats['cost_std']:.2f}  "
          f"-> {out_dir}")
    return 0


def _row(label, metric, cells) -> str:
    return f"{label:<20}{metric:<14}" + "".join(cells)


def _print_cells(study: dict, keep) -> None:
    """Each kept cell's per-seed values and their mean."""
    print(_row("arm", "metric", [f"{f'seed{s}':>9}" for s in study["seeds"]])
          + f"{'mean':>9}")
    for arm, metrics in study["cells"].items():
        for metric, values in metrics.items():
            if keep(metric):
                print(_row(arm, metric, [f"{v:9.3f}" for v in [*values, np.mean(values)]]))


def _print_paired(label, rows) -> None:
    """Per ``(name, metric, paired result)``: the differences, their mean,
    p, and its Holm adjustment over ``rows``, marked ``*`` below ALPHA."""
    print(_row(label, "metric", [f"{f'seed{s}':>9}" for s in rows[0][2]["seeds"]])
          + f"{'mean':>9}{'p':>8}{'holm':>8}")
    for (name, metric, r), adj in zip(rows, holm([r["p"] for *_, r in rows])):
        print(_row(name, metric, [f"{d:+9.3f}" for d in [*r["diffs"], r["mean"]]])
              + f"{r['p']:8.4f}{adj:8.4f}" + " *" * (adj < ALPHA))


def _study_dynamics(args, base: RunConfig, cache: Path) -> dict:
    out_dir = Path(args.out_dir)
    try:
        cells, fits = dynamics_comparison(
            args.seeds, cache, env_name=args.env, level=args.level,
            n_train=args.n_train, n_test=args.n_test, epochs=args.epochs,
            horizon=args.horizon)
    except (HomographyError, ValueError) as exc:  # a degenerate SDM, a NaN fit
        if not hasattr(exc, "snapshot"):
            raise
        snapshot = out_dir / "diagnostic.npz"
        out_dir.mkdir(parents=True, exist_ok=True)
        save_params(snapshot, exc.snapshot)
        raise TrainerError(f"{exc}; diagnostic snapshot saved to {snapshot}") from exc
    fitted = [f for f in fits if f is not None]  # a wall time; none from the cache
    print(f"train time: {sum(fitted):.1f}s" if fitted
          else "study read from the cache; nothing was fitted")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "study-dynamics-timings.json",
                 json.dumps({"train_seconds": fits}, indent=2) + "\n")
    return cells


# each study's runner, its count flags, and its claim: arm B - arm A on the
# metrics it names
_STUDIES = {
    "estimators": (lambda args, base, cache: estimator_comparison(
                       base, args.seeds, cache),
                   ("step-budget",), "mgae", "gae", r"final_\w+"),
    "safety": (lambda args, base, cache: safety_comparison(
                   base, args.seeds, args.levels, args.episodes, cache),
               ("step-budget", "episodes"), "lagrangian", "plain", r"\w+"),
    "dynamics": (_study_dynamics, ("epochs", "horizon", "n-train", "n-test"),
                 "sdm", "baseline", r"(known_)?iou(_\d+)?"),
}


def _cmd_study(args) -> int:
    if args.study == "compare":
        rows = compare_studies(*(json.loads(Path(p).read_text())
                                 for p in (args.a, args.b)))
        print(f"paired differences B - A per seed; B = {args.b}, A = {args.a}")
        _print_paired("arm", rows)
        return 0
    run, counts, arm_b, arm_a, claim = _STUDIES[args.study]
    claim = re.compile(claim).fullmatch
    _check_counts(args, *counts)
    for flag in ("seeds", "levels"):
        values = getattr(args, flag, [])
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:  # one run would count as two seeds; cells would merge
            raise ConfigError(f"--{flag} repeats {', '.join(map(str, repeated))}")
    # each study sets what it compares itself: the estimator study trains
    # on raw advantages, the safety study toggles the Lagrangian
    base = RunConfig(step_budget=getattr(args, "step_budget",
                                         RunConfig.step_budget)).validate()
    for seed in args.seeds:  # every seed is checked before any run trains
        replace(base, seed=seed).validate()
    out_dir = Path(args.out_dir)
    for stale in [*out_dir.glob(f"study-{args.study}*.json"),
                  out_dir / "diagnostic.npz"]:
        stale.unlink(missing_ok=True)  # an earlier run's, which this run replaces
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "study", "seeds", "out_dir")}
    study = {"study": args.study, "config": config, "seeds": list(args.seeds),
             "cells": run(args, base, out_dir / "cache")}
    _print_cells(study, claim)
    label = f"{arm_b} - {arm_a}"
    _print_paired(label, [
        (label, m, paired(scores(study, arm_a, m), scores(study, arm_b, m),
                          f"{label} {m}"))
        for m in study["cells"][arm_a] if claim(m)])
    path = out_dir / f"study-{args.study}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(study, indent=2) + "\n")
    print(f"-> {path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "study": _cmd_study,
}


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)  # as Python's SIGINT handler does


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if main_thread else None
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt as e:  # SIGINT, or SIGTERM through _interrupt
        sig = signal.SIGTERM if e.args[:1] == (signal.SIGTERM,) else signal.SIGINT
        print(f"interrupted by {sig.name}", file=sys.stderr)
        return 128 + sig
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TrainerError, CheckpointError, DatasetError, HomographyError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
