"""Cached training runs and the comparison-study harnesses.

Training is the expensive step, so completed runs are keyed by a hash of
(resolved config, code version) and reused.  A key changes whenever either
changes, which is exactly when the cached result stops being trustworthy.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .config import RunConfig
from .dynbench import (MODEL_KINDS, collect_dataset, known_cell_iou,
                       rollout_eval, train_dyn)
from .envs import make_env
from .nets import CadeNets, NetConfig
from .trainer import code_hash, evaluate, summarize, train

__all__ = [
    "STUDY_SEEDS",
    "run_key",
    "cached_train",
    "load_manifest",
    "final_window_mean",
    "load_trained_nets",
    "evaluate_nets",
    "estimator_comparison",
    "bootstrap_interval",
    "compare_studies",
    "safety_comparison",
    "dynamics_study",
    "cached_dynamics_study",
]

STUDY_SEEDS = (0, 1, 2)


def _cache_key(params: dict) -> str:
    """The cache's identity of ``params`` under the current sources."""
    blob = json.dumps(params, sort_keys=True) + code_hash()
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def run_key(cfg: RunConfig) -> str:
    """Stable identity of a run: resolved config plus source hash."""
    return _cache_key(cfg.to_dict())


def cached_train(cfg: RunConfig, cache_root) -> Path:
    """Train once per (config, code) pair; later calls reuse the directory
    once its manifest is finished and ``ckpt-final.npz`` (none at a zero
    budget) is there.  A run killed before both have landed trains again
    in its directory, where ``train`` first clears the killed run's
    checkpoints, diagnostic and ``metrics.csv``."""
    run_dir = Path(cache_root) / run_key(cfg)
    done = (run_dir / "manifest.json").exists() and load_manifest(run_dir)["finished"]
    if done and (cfg.step_budget == 0 or (run_dir / "ckpt-final.npz").exists()):
        return run_dir
    train(cfg, run_dir)
    return run_dir


def load_manifest(run_dir) -> dict:
    with open(Path(run_dir) / "manifest.json") as fh:
        return json.load(fh)


FINAL_FRACTION = 0.1  # the final window's share of a run's iterations


def final_window_mean(rows: list[dict], key: str) -> float:
    """Mean of ``key`` over the last ``FINAL_FRACTION`` of iterations (at
    least one)."""
    if not rows:
        raise ValueError("run produced no iterations")
    n = max(1, round(FINAL_FRACTION * len(rows)))
    return float(np.mean([row[key] for row in rows[-n:]]))


def load_trained_nets(cfg: RunConfig, run_dir,
                      checkpoint: str = "ckpt-final.npz") -> CadeNets:
    """Rebuild the network set and load a checkpoint from a run directory."""
    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    rng = np.random.default_rng(0)  # shapes only; the load overwrites values
    nets = CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              cfg.hidden_dim, cfg.head_width), rng)
    nets.load(str(Path(run_dir) / checkpoint))
    return nets


def evaluate_nets(cfg: RunConfig, nets: CadeNets, level: str, episodes: int,
                  eval_seed: int) -> list[dict]:
    """Per-episode rows of ``nets`` on one level, eval episode k on the
    streams keyed (``eval_seed``, k), apart from every training episode's;
    the screen runs, discounting with ``cfg.gamma``, when
    ``cfg.safety.mode`` is "infer" or "both"."""
    env = make_env(cfg.env, level, timeout=cfg.timeout)
    return evaluate(nets, env, episodes, eval_seed,
                    cfg.safety.for_phase("infer"), cfg.gamma)


def estimator_comparison(base: RunConfig, estimators, seeds,
                         cache_root) -> dict[str, dict[str, list[float]]]:
    """Final-window mean episodic reward and cost per estimator across
    seeds: ``{adv: {"reward": [...], "cost": [...]}}``, in ``seeds`` order.

    ``cade study estimators`` runs both ``adv`` values, MGAE against GAE,
    the paper's comparison.  Every run trains with reward-advantage
    normalization off, whatever ``base`` says, so that rescaling does not
    flatten the differences between estimators.
    """
    results: dict[str, dict[str, list[float]]] = {}
    for adv in estimators:
        finals = {"reward": [], "cost": []}
        for seed in seeds:
            cfg = replace(base, adv=adv, seed=seed, normalize_adv=False)
            rows = load_manifest(cached_train(cfg, cache_root))["rows"]
            finals["reward"].append(final_window_mean(rows, "ep_reward"))
            finals["cost"].append(final_window_mean(rows, "ep_cost"))
        results[adv] = finals
    return results


def bootstrap_interval(diffs) -> tuple[float, float]:
    """95% percentile-bootstrap interval of the mean of ``diffs`` over
    10,000 resamples from a fixed-seed generator, so equal inputs give
    equal intervals."""
    diffs = np.asarray(diffs, dtype=np.float64)
    idx = np.random.default_rng(0).integers(0, len(diffs),
                                            (10000, len(diffs)))
    lo, hi = np.percentile(diffs[idx].mean(axis=1), [2.5, 97.5])
    return float(lo), float(hi)


def _check_estimator_study(study) -> None:
    """``ValueError`` unless ``study`` holds a reward and a cost per seed
    for every estimator."""
    try:
        n = len(study["seeds"])
        ok = all(len(f["reward"]) == len(f["cost"]) == n
                 for f in study["finals"].values())
    except (KeyError, TypeError, AttributeError):
        ok = False
    if not ok:
        raise ValueError("not an estimator study with a reward and a cost "
                         "per seed")


def compare_studies(a: dict, b: dict) -> tuple[list, dict]:
    """Paired per-seed differences ``b - a`` of two estimator studies.

    ``a`` and ``b`` are ``study-estimators.json`` contents; runs pair by
    seed, over the seeds and estimators both hold.  Returns those seeds and
    ``{adv: {"reward" | "cost": {"diffs", "mean", "interval"}}}``, the
    diffs in seed order and the interval from :func:`bootstrap_interval`.  Raises ``ValueError`` when
    either is not such a study, or they share no seed or no estimator.
    """
    for study in (a, b):
        _check_estimator_study(study)
    seeds = [s for s in a["seeds"] if s in b["seeds"]]
    advs = [adv for adv in a["finals"] if adv in b["finals"]]
    if not seeds or not advs:
        raise ValueError("the studies share no seed or no estimator")
    out: dict[str, dict[str, dict]] = {}
    for adv in advs:
        out[adv] = {}
        for metric in ("reward", "cost"):
            va = dict(zip(a["seeds"], a["finals"][adv][metric]))
            vb = dict(zip(b["seeds"], b["finals"][adv][metric]))
            diffs = [vb[s] - va[s] for s in seeds]
            out[adv][metric] = {"diffs": diffs, "mean": float(np.mean(diffs)),
                                "interval": bootstrap_interval(diffs)}
    return seeds, out


def safety_comparison(base: RunConfig, seeds, levels, episodes,
                      cache_root) -> dict[str, dict[str, dict]]:
    """Constrained vs unconstrained training, evaluated across levels.

    Trains the base config twice per seed (with and without the Lagrangian
    term) and evaluates both on every level, the run of seed s on the eval
    streams keyed s.  Returns
    {variant: {level: pooled summary}} with per-seed rows pooled together.
    """
    variants = {
        "lagrangian": replace(base, lagrange=replace(base.lagrange, enabled=True)),
        "plain": replace(base, lagrange=replace(base.lagrange, enabled=False)),
    }
    out: dict[str, dict[str, dict]] = {}
    for name, variant in variants.items():
        per_level: dict[str, dict] = {}
        for level in levels:
            pooled_r, pooled_c = [], []
            for seed in seeds:
                cfg = replace(variant, seed=seed)
                nets = load_trained_nets(cfg, cached_train(cfg, cache_root))
                summary = summarize(evaluate_nets(cfg, nets, level, episodes,
                                                  seed))
                pooled_r.append(summary["reward_mean"])
                pooled_c.append(summary["cost_mean"])
            per_level[level] = {
                "reward_mean": float(np.mean(pooled_r)),
                "cost_mean": float(np.mean(pooled_c)),
                "reward_per_seed": pooled_r,
                "cost_per_seed": pooled_c,
            }
        out[name] = per_level
    return out


def dynamics_study(env_name: str, level: str = "medium", n_train: int = 1720,
                   n_test: int = 492, epochs: int = 30, batch: int = 64,
                   horizon: int = 10, seed: int = 0,
                   timeout: int = 500) -> dict:
    """Train every one-step model kind on one dataset and score rollouts.

    Returns per-kind recursive-rollout curves, skipped-episode counts, the
    warp model's known-cell 1-step IoU, and the summed fit time in seconds.
    """
    env = make_env(env_name, level, timeout=timeout, seed=seed)
    rng = np.random.default_rng(seed + 100)
    dataset = collect_dataset(env, rng, n_train=n_train, n_test=n_test)
    out = {"rows": {}, "skipped": {}, "known_iou": {}, "train_seconds": 0.0}
    for kind in MODEL_KINDS:
        t0 = time.perf_counter()
        model = train_dyn(kind, dataset, epochs=epochs, batch=batch, seed=seed)
        out["train_seconds"] += time.perf_counter() - t0
        rows, skipped = rollout_eval(model, dataset, horizon=horizon)
        out["rows"][kind] = rows
        out["skipped"][kind] = skipped
        if kind == "sdm":
            out["known_iou"][kind] = known_cell_iou(model, dataset)
    return out


def cached_dynamics_study(cache_root, **params) -> dict:
    """Disk-cached ``dynamics_study``; the key tracks params and code.  The
    cache drops ``train_seconds``: only a study this call fitted has one."""
    path = Path(cache_root) / f"dyn-{_cache_key(params)}.json"
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    path.parent.mkdir(parents=True, exist_ok=True)
    result = dynamics_study(**params)
    study = {k: v for k, v in result.items() if k != "train_seconds"}
    write_atomic(path, json.dumps(study, indent=2) + "\n")
    return result
