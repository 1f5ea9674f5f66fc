"""Cached training runs, the comparison studies, and their one paired test.

Training is the expensive step, so completed runs are keyed by a hash of
(resolved config, code version) and reused.  A key changes whenever either
changes, which is exactly when the cached result stops being trustworthy.

A study is one table of per-seed scores (Agarwal et al., NeurIPS 2021):
``cade study`` writes ``{"study", "config", "seeds", "cells"}``, where
``cells[arm][metric]`` holds one value per seed, in ``seeds`` order.  One
test reads every table: :func:`paired` gives the differences over the seeds
two sides share, their mean and an exact two-sided sign-flip p, and
:func:`holm` corrects the m cells one command reports (Holm, 1979).  At n
seeds an adjusted p is at least m 2^(1 - n): three seeds never flag a cell,
and p < 0.05 needs n >= 7 at m = 2 (the estimator study), 8 at m = 4 or 6
(safety at two or three levels; two estimator studies compared) and 9 at
m = 10 (dynamics at horizon 10).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .config import ADV_CHOICES, RunConfig
from .dynbench import (MODEL_KINDS, collect_dataset, known_cell_iou,
                       rollout_eval, train_dyn)
from .envs import make_env
from .nets import CadeNets
from .trainer import (code_hash, evaluate, read_metrics_csv, run_nets,
                      summarize, train)

__all__ = [
    "STUDY_SEEDS", "run_key", "cached_train", "final_window_mean",
    "load_trained_nets", "evaluate_nets", "paired", "holm", "scores",
    "compare_studies", "estimator_comparison", "safety_comparison",
    "dynamics_comparison", "dynamics_study", "cached_dynamics_study",
]

STUDY_SEEDS = (0, 1, 2)
ALPHA = 0.05  # a cell is flagged when its Holm-adjusted p is below this
ENUMERATED_SEEDS = 16  # up to this many seeds, every sign pattern is tried
SAMPLED_PATTERNS = 10_000  # above it, this many, the identity among them
N_TRAIN, N_TEST, EPOCHS, HORIZON = 1720, 492, 30, 10  # the dynamics study's


def _cache_key(params: dict) -> str:
    """The cache's identity of ``params`` under the current sources."""
    blob = json.dumps(params, sort_keys=True) + code_hash()
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def run_key(cfg: RunConfig) -> str:
    """Stable identity of a run: resolved config plus source hash."""
    return _cache_key(cfg.to_dict())


def cached_train(cfg: RunConfig, cache_root) -> Path:
    """Train once per (config, code) pair; later calls reuse the directory
    once ``ckpt-final.npz`` is there, which ``train`` writes last, after
    ``metrics.csv``, at every budget.  A run killed before it landed trains
    again in its directory, where ``train`` first clears the killed run's
    ``metrics.csv`` and diagnostic."""
    run_dir = Path(cache_root) / run_key(cfg)
    if not (run_dir / "ckpt-final.npz").exists():
        train(cfg, run_dir)
    return run_dir


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
    nets = run_nets(cfg)
    nets.load(str(Path(run_dir) / checkpoint))
    return nets


def evaluate_nets(cfg: RunConfig, nets: CadeNets, level: str, episodes: int,
                  eval_seed: int) -> list[dict]:
    """Per-episode rows of ``nets`` on one level, eval episode k on the
    streams keyed (``eval_seed``, k), apart from every training episode's;
    the screen runs, discounting with ``cfg.gamma``, when
    ``cfg.safety.mode`` is "infer"."""
    env = make_env(cfg.env, level, timeout=cfg.timeout)
    return evaluate(nets, env, episodes, eval_seed,
                    cfg.safety.for_phase("infer"), cfg.gamma)


def paired(a: dict, b: dict, cell: str) -> dict:
    """The differences ``b[s] - a[s]`` over the seeds both sides map, in
    ``a``'s order, as ``{"seeds", "diffs", "mean", "p"}``.

    ``p`` is the exact two-sided sign-flip p-value of the mean: the share
    of sign patterns e whose |sum e_i d_i| reaches the observed |sum d_i|,
    over all 2^n patterns up to ``ENUMERATED_SEEDS`` differences, else
    over ``SAMPLED_PATTERNS`` fixed-seed draws with the identity first.
    The observed sum is the identity's row of the same product, so it ties
    itself exactly; a pattern within rounding, n ulps of sum |d_i|, ties.
    A NaN or infinite difference, which no pattern would tie, is refused
    with the ``cell`` it is in (say ``"gae final_reward"``) and its seeds.
    """
    seeds = [s for s in a if s in b]
    if not seeds:
        raise ValueError("the studies share no seed")
    d = np.array([b[s] - a[s] for s in seeds], dtype=np.float64)
    bad = [str(s) for s, x in zip(seeds, d) if not np.isfinite(x)]
    if bad:
        raise ValueError(f"a non-finite difference in {cell} at seeds {', '.join(bad)}")
    n = len(d)
    if n <= ENUMERATED_SEEDS:
        flips = np.arange(2 ** n)[:, None] >> np.arange(n) & 1
    else:
        flips = np.random.default_rng(0).integers(0, 2, (SAMPLED_PATTERNS, n))
        flips[0] = 0
    sums = np.abs((1.0 - 2.0 * flips) @ d)
    tie = n * np.finfo(np.float64).eps * np.abs(d).sum()
    return {"seeds": seeds, "diffs": d.tolist(), "mean": float(d.mean()),
            "p": float(np.mean(sums >= sums[0] - tie))}


def holm(ps) -> list[float]:
    """Holm's step-down adjustment of the p-values ``ps``, in their order:
    the i-th smallest of m times (m - i + 1), never below the adjustment
    of a smaller p, and at most 1."""
    order = np.argsort(ps, kind="stable")
    steps = np.asarray(ps, dtype=np.float64)[order] * (len(ps) - np.arange(len(ps)))
    return np.minimum(np.maximum.accumulate(steps), 1.0)[np.argsort(order)].tolist()


def scores(study: dict, arm: str, metric: str) -> dict:
    """One cell of a study, keyed by seed."""
    return dict(zip(study["seeds"], study["cells"][arm][metric], strict=True))


def compare_studies(a: dict, b: dict) -> list[tuple[str, str, dict]]:
    """``(arm, metric, paired b - a)`` of every cell that two studies of
    one kind and config, ``study-<name>.json`` contents, both hold, in
    ``a``'s order.

    Raises ``ValueError`` when either is not a study with one value per
    seed in every cell or repeats a seed, when their kinds or the values of
    a config key differ, and when they share no seed or no cell.
    """
    try:
        kinds = a["study"], b["study"]
        configs = [{(k, json.dumps(v)) for k, v in s["config"].items()}
                   for s in (a, b)]
        sides = [{(arm, m): scores(s, arm, m) for arm in s["cells"]
                  for m in s["cells"][arm]} for s in (a, b)]
    except (KeyError, TypeError, AttributeError, ValueError):
        raise ValueError("not a study with one value per seed in every "
                         "cell") from None
    for seeds in (a["seeds"], b["seeds"]):
        if len(set(seeds)) < len(seeds):  # one run would count as two samples
            raise ValueError(f"a study repeats a seed: {seeds}")
    if kinds[0] != kinds[1]:
        raise ValueError("studies of two kinds do not compare: {}, {}".format(*kinds))
    differ = sorted({k for k, _ in configs[0] ^ configs[1]})  # unequal or one-sided
    if differ:  # the differences would mix the code with the settings
        raise ValueError(f"studies of two configs do not compare: {', '.join(differ)}")
    shared = [cell for cell in sides[0] if cell in sides[1]]
    if not shared:
        raise ValueError("the studies share no cell")
    return [(*cell, paired(sides[0][cell], sides[1][cell], " ".join(cell)))
            for cell in shared]


def estimator_comparison(base: RunConfig, seeds,
                         cache_root) -> dict[str, dict[str, list[float]]]:
    """Cells ``{adv: {"final_reward": [...], "final_cost": [...]}}`` for
    every estimator of ``ADV_CHOICES``: each seed's final-window mean
    episodic reward and cost, in ``seeds`` order.
    Every run trains with reward-advantage normalization off, whatever
    ``base`` says, so that rescaling does not flatten the differences
    between estimators."""
    cells: dict[str, dict[str, list[float]]] = {}
    for adv in ADV_CHOICES:
        runs = [read_metrics_csv(cached_train(
                    replace(base, adv=adv, seed=seed, normalize_adv=False),
                    cache_root) / "metrics.csv") for seed in seeds]
        cells[adv] = {f"final_{m}": [final_window_mean(rows, f"ep_{m}")
                                     for rows in runs] for m in ("reward", "cost")}
    return cells


def safety_comparison(base: RunConfig, seeds, levels, episodes,
                      cache_root) -> dict[str, dict[str, list[float]]]:
    """Constrained vs unconstrained training, evaluated across levels.

    Trains the base config twice per seed (with and without the Lagrangian
    term) and evaluates both on every level, the run of seed s on the eval
    streams keyed s.  Returns cells ``{variant: {"reward_<level>": [...],
    "cost_<level>": [...]}}``, each seed's mean over its eval episodes.
    """
    cells: dict[str, dict[str, list[float]]] = {}
    for name, on in (("lagrangian", True), ("plain", False)):
        cells[name] = {}
        runs = [replace(base, seed=seed, lagrange=replace(base.lagrange, enabled=on))
                for seed in seeds]
        for level in levels:
            summaries = [summarize(evaluate_nets(cfg, load_trained_nets(
                cfg, cached_train(cfg, cache_root)), level, episodes, cfg.seed))
                for cfg in runs]
            for m in ("reward", "cost"):
                cells[name][f"{m}_{level}"] = [s[f"{m}_mean"] for s in summaries]
    return cells


def dynamics_comparison(seeds, cache_root, **params) -> tuple[dict, list]:
    """Cells of one :func:`cached_dynamics_study` a seed, and each seed's
    fit seconds (None where the cache served it).  Every model kind is an
    arm with ``iou_h``, ``iou_std_h``, ``l1_h`` and ``l1_std_h`` at each
    rollout step h (a std over one seed's test windows) and ``skipped``;
    ``sdm`` also has ``known_iou``."""
    results = [cached_dynamics_study(cache_root, seed=seed, **params)
               for seed in seeds]
    cells: dict[str, dict[str, list]] = {kind: {} for kind in MODEL_KINDS}
    for kind, metrics in cells.items():
        for i, row in enumerate(results[0]["rows"][kind]):
            for key in ("iou_mean", "iou_std", "l1_mean", "l1_std"):
                metrics[f"{key.removesuffix('_mean')}_{row['step']}"] = [
                    r["rows"][kind][i][key] for r in results]
        metrics["skipped"] = [r["skipped"][kind] for r in results]
    cells["sdm"]["known_iou"] = [r["known_iou"]["sdm"] for r in results]
    return cells, [r.get("train_seconds") for r in results]


def dynamics_study(env_name: str, level: str = "medium", seed: int = 0,
                   n_train: int = N_TRAIN, n_test: int = N_TEST,
                   epochs: int = EPOCHS, horizon: int = HORIZON) -> dict:
    """Train every one-step model kind on one dataset and score rollouts.

    Returns per-kind recursive-rollout curves, skipped-episode counts, the
    warp model's known-cell 1-step IoU, and the summed fit time in seconds.
    """
    dataset = collect_dataset(make_env(env_name, level, seed=seed),
                              np.random.default_rng(seed + 100), n_train, n_test)
    out = {"rows": {}, "skipped": {}, "known_iou": {}, "train_seconds": 0.0}
    for kind in MODEL_KINDS:
        t0 = time.perf_counter()
        model = train_dyn(kind, dataset, epochs, seed)
        out["train_seconds"] += time.perf_counter() - t0
        rows, skipped = rollout_eval(model, dataset, horizon)
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
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    result = dynamics_study(**params)
    study = {k: v for k, v in result.items() if k != "train_seconds"}
    write_atomic(path, json.dumps(study, indent=2) + "\n")
    return result
