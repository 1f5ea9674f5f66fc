"""Run caching, the comparison-study harnesses and their paired test."""

import itertools
import json
import math
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cade import checkpoint, experiments
from cade.config import RunConfig
from cade.experiments import (SAMPLED_PATTERNS, cached_train, compare_studies,
                              dynamics_comparison, estimator_comparison,
                              final_window_mean, holm, paired, run_key,
                              safety_comparison)
from cade.trainer import read_metrics_csv, train


def tiny(**overrides):
    base = dict(env="cliff-circular", level="medium", timeout=30,
                step_budget=40, hidden_dim=16, head_width=8,
                normalize_adv=False)
    base.update(overrides)
    return RunConfig(**base)


def test_run_key_tracks_config_identity():
    a, b = tiny(), tiny()
    assert run_key(a) == run_key(b)
    assert run_key(a) != run_key(tiny(seed=1))
    assert run_key(a) != run_key(tiny(adv="gae"))
    assert len(run_key(a)) == 16


def test_cached_train_reuses_completed_runs(tmp_path):
    # a zero-budget run too: its ckpt-final.npz holds the initial networks
    for cfg in (tiny(), tiny(step_budget=0)):
        first = cached_train(cfg, tmp_path)
        stamp = (first / "manifest.json").stat().st_mtime_ns
        second = cached_train(cfg, tmp_path)
        assert second == first
        assert (second / "manifest.json").stat().st_mtime_ns == stamp  # no retrain
        other = cached_train(replace(cfg, seed=1), tmp_path)
        assert other != first


def test_cached_train_discards_partial_directories(tmp_path):
    cfg = tiny()
    partial = tmp_path / run_key(cfg)
    partial.mkdir()
    (partial / "metrics.csv").write_text("stale")
    run_dir = cached_train(cfg, tmp_path)
    assert run_dir == partial
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "metrics.csv").read_text() != "stale"


def test_cached_train_retrains_a_run_killed_before_its_final_checkpoint(tmp_path):
    # a killed run leaves its manifest and no ckpt-final: the cache trains
    # it again
    cfg = tiny()
    partial = tmp_path / run_key(cfg)

    def stop(stage):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        train(cfg, partial, instrument=stop)
    assert (partial / "manifest.json").exists()
    assert not (partial / "ckpt-final.npz").exists()
    assert cached_train(cfg, tmp_path) == partial
    assert read_metrics_csv(partial / "metrics.csv")
    assert (partial / "ckpt-final.npz").exists()


@pytest.mark.parametrize("how", ["raised", "SIGINT"])
@pytest.mark.parametrize("k", [1, 4])
def test_an_interrupted_run_keeps_its_completed_rows_and_is_retrained(
        k, how, tmp_path):
    # an interrupt at iteration k's sdm stage, raised by the hook or sent
    # by it to its own process: metrics.csv holds the first k - 1 rows of
    # a run never interrupted, byte for byte, the networks go to
    # diagnostic.npz and not to ckpt-final.npz, and the cache retrains the
    # run to the uninterrupted bytes
    cfg = tiny(step_budget=120)
    clean = tmp_path / "clean"
    assert train(cfg, clean).it > k
    run_dir = tmp_path / "cache" / run_key(cfg)
    sdm_stages = itertools.count(1)

    def interrupt_at_k(stage):
        if stage == "sdm" and next(sdm_stages) == k:
            if how == "raised":
                raise KeyboardInterrupt
            os.kill(os.getpid(), signal.SIGINT)  # Python's handler raises it
            time.sleep(10)
            raise AssertionError("the SIGINT raised no interrupt")

    with pytest.raises(KeyboardInterrupt):
        train(cfg, run_dir, instrument=interrupt_at_k)
    lines = (clean / "metrics.csv").read_bytes().splitlines(keepends=True)
    assert (run_dir / "metrics.csv").read_bytes() == b"".join(lines[:k])  # header too
    assert (run_dir / "diagnostic.npz").exists()
    assert not (run_dir / "ckpt-final.npz").exists()
    assert cached_train(cfg, tmp_path / "cache") == run_dir
    assert not (run_dir / "diagnostic.npz").exists()
    for name in ("metrics.csv", "ckpt-final.npz"):
        assert (run_dir / name).read_bytes() == (clean / name).read_bytes()


def test_cached_train_retrains_a_run_killed_as_it_writes_its_final_checkpoint(
        tmp_path, monkeypatch):
    # train writes metrics.csv, then ckpt-final.npz: a run killed in the
    # middle of the checkpoint's write leaves every row and no final
    # checkpoint, and the cache trains it again in place; an earlier run's
    # periodic checkpoint and failure snapshot go, and the retrain writes
    # the bytes of a clean run
    cfg = tiny()
    clean = tmp_path / "clean"
    train(cfg, clean)
    partial = tmp_path / run_key(cfg)
    write_atomic = checkpoint.write_atomic

    def first_chunk_then_killed(chunks):
        yield next(chunks)
        raise KeyboardInterrupt

    def killed_in_the_final_checkpoint(path, data):
        if Path(path).name == "ckpt-final.npz":
            data = first_chunk_then_killed(iter(data))
        write_atomic(path, data)

    monkeypatch.setattr(checkpoint, "write_atomic", killed_in_the_final_checkpoint)
    with pytest.raises(KeyboardInterrupt):
        train(cfg, partial)
    monkeypatch.undo()
    assert not (partial / "ckpt-final.npz").exists()
    assert (partial / "metrics.csv").read_bytes() == (clean / "metrics.csv").read_bytes()
    stale = [partial / "ckpt-000007.npz", partial / "diagnostic.npz"]
    for path in stale:
        path.write_bytes(b"stale")
    assert cached_train(cfg, tmp_path) == partial
    assert read_metrics_csv(partial / "metrics.csv")
    assert not any(path.exists() for path in stale)
    for name in ("metrics.csv", "ckpt-final.npz"):
        assert (partial / name).read_bytes() == (clean / name).read_bytes()
    # a study over the cache reads the retrained run
    results = estimator_comparison(cfg, [0], tmp_path)
    rows = read_metrics_csv(partial / "metrics.csv")
    assert results["mgae"]["final_reward"] == [final_window_mean(rows, "ep_reward")]


def test_final_window_mean():
    # the last tenth of the iterations, keyed by the metric
    rows = [{"ep_reward": float(i), "ep_cost": -float(i)} for i in range(1, 31)]
    assert final_window_mean(rows, "ep_reward") == pytest.approx((28 + 29 + 30) / 3)
    assert final_window_mean(rows, "ep_cost") == pytest.approx(-(28 + 29 + 30) / 3)
    # window never shrinks to zero
    assert final_window_mean(rows[:1], "ep_reward") == 1.0
    with pytest.raises(ValueError):
        final_window_mean([], "ep_reward")


def test_estimator_comparison_shape(tmp_path):
    results = estimator_comparison(tiny(), [0, 1], tmp_path)
    assert list(results) == ["mgae", "gae"]
    for adv, cells in results.items():
        assert list(cells) == ["final_reward", "final_cost"]
        # each seed's final window of its own run, reward beside cost
        for seed, reward, cost in zip([0, 1], cells["final_reward"],
                                      cells["final_cost"]):
            rows = read_metrics_csv(cached_train(tiny(adv=adv, seed=seed),
                                                 tmp_path) / "metrics.csv")
            assert reward == final_window_mean(rows, "ep_reward")
            assert cost == final_window_mean(rows, "ep_cost")
    # cached runs make the recomputation free and identical
    again = estimator_comparison(tiny(), [0, 1], tmp_path)
    assert again == results


def test_estimator_comparison_turns_normalization_off_itself(tmp_path):
    # a base config with normalization on trains the runs, and so the
    # cache directories, of the same base with it off
    runs = {}
    for normalize in (True, False):
        cache = tmp_path / str(normalize)
        results = estimator_comparison(tiny(normalize_adv=normalize), [0], cache)
        runs[normalize] = (sorted(p.name for p in cache.iterdir()), results)
    assert runs[True] == runs[False]
    assert runs[False][0] == sorted(run_key(tiny(adv=adv))
                                    for adv in ("mgae", "gae"))


def study(seeds, rewards, costs, kind="estimators"):
    return {"study": kind, "config": {}, "seeds": seeds, "cells": {
        "mgae": {"final_reward": rewards, "final_cost": costs}}}


def test_compare_studies_pairs_runs_by_seed():
    # b lists its seeds in another order and has one a lacks
    a = study([0, 1, 2], [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    b = study([2, 3, 0, 1], [3.5, 9.0, 1.5, 2.5], [4.0, 0.0, 4.0, 4.0])
    (arm, reward, r), (_, cost, c) = compare_studies(a, b)
    assert (arm, reward, cost) == ("mgae", "final_reward", "final_cost")
    assert r["seeds"] == c["seeds"] == [0, 1, 2]
    assert r["diffs"] == [0.5, 0.5, 0.5] and r["mean"] == 0.5
    assert c["diffs"] == [-1.0, -1.0, -1.0] and c["mean"] == -1.0
    # one sign on three seeds: the identity and the all-flipped pattern
    # reach the observed sum, 2 of 8
    assert r["p"] == c["p"] == 0.25
    for *_, same in compare_studies(a, a):
        assert same == {"seeds": [0, 1, 2], "diffs": [0.0] * 3, "mean": 0.0,
                        "p": 1.0}


def brute_force_p(diffs):
    """The share of sign patterns whose |sum| reaches the observed one,
    one pattern at a time, with ``paired``'s rounding allowance."""
    tie = len(diffs) * 2.0 ** -52 * sum(abs(d) for d in diffs)
    observed = abs(sum(diffs))
    hits = [abs(sum(s * d for s, d in zip(signs, diffs))) >= observed - tie
            for signs in itertools.product((1, -1), repeat=len(diffs))]
    return sum(hits) / len(hits)


@given(st.lists(st.one_of(st.just(0.0), st.sampled_from([-1.5, 0.25, 2.0]),
                          st.floats(-100, 100)), min_size=1, max_size=10))
def test_paired_p_is_the_share_of_sign_patterns_reaching_the_observed_sum(diffs):
    # zeros and repeated values make ties among the patterns
    r = paired({s: 0.0 for s in range(len(diffs))}, dict(enumerate(diffs)),
               "arm metric")
    assert r["diffs"] == diffs
    assert r["p"] == brute_force_p(diffs)
    assert 2.0 ** (1 - len(diffs)) <= r["p"] <= 1.0


def test_paired_all_zero_differences_give_p_one():
    for n in (1, 3, 10, 20):
        side = {s: 1.25 for s in range(n)}
        assert paired(side, side, "arm metric")["p"] == 1.0


def test_paired_samples_sign_patterns_above_sixteen_seeds():
    # 20 positive differences: only the identity, always drawn first, and
    # the all-flipped pattern reach the observed sum
    a, b = {s: 0.0 for s in range(20)}, {s: 1.0 + s for s in range(20)}
    r = paired(a, b, "arm metric")
    assert r["p"] == paired(a, b, "arm metric")["p"]  # a fixed-seed draw
    assert 1 / SAMPLED_PATTERNS <= r["p"] <= 2 / SAMPLED_PATTERNS
    # an all-zero sample ties every pattern
    assert paired(a, a, "arm metric")["p"] == 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_paired_refuses_a_non_finite_difference(bad):
    # no sign pattern ties a NaN or infinite sum, so its p would read 0
    # the error names the cell and the seeds
    with pytest.raises(ValueError, match="^a non-finite difference in gae "
                                         "final_reward at seeds 0$"):
        paired({0: 1.0, 1: 2.0}, {0: bad, 1: 2.5}, "gae final_reward")
    with pytest.raises(ValueError, match="^a non-finite difference in mgae - "
                                         "gae final_cost at seeds 1, 2$"):
        paired({0: 0.0, 1: bad, 2: bad}, {0: 1.0, 1: 1.0, 2: bad},
               "mgae - gae final_cost")
    # two finite scores whose difference overflows
    with pytest.raises(ValueError, match="^a non-finite difference in gae "
                                         "final_cost at seeds 1$"):
        paired({0: 0.0, 1: -1e308}, {0: 1.0, 1: 1e308}, "gae final_cost")


def test_holm_reproduces_a_hand_worked_example():
    # sorted 0.005, 0.01, 0.03, 0.04 times 4, 3, 2, 1: 0.02, 0.03, 0.06,
    # 0.04, which the step-down lifts to 0.06
    assert holm([0.01, 0.04, 0.03, 0.005]) == pytest.approx(
        [0.03, 0.06, 0.06, 0.02])
    assert holm([0.5, 0.9]) == [1.0, 1.0]
    assert holm([0.2]) == [0.2]


@pytest.mark.parametrize("bad", [
    {}, {"seeds": [0]}, {"seeds": [0], "finals": {"mgae": [1.0]}},
    study([0, 1], [1.0, 2.0], [0.0])])
def test_compare_studies_rejects_what_is_not_an_estimator_study(bad):
    good = study([0, 1], [1.0, 2.0], [0.0, 0.0])
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="not a study with one value per seed"):
            compare_studies(a, b)


def test_compare_studies_refuses_two_kinds():
    with pytest.raises(ValueError, match="two kinds do not compare: estimators, safety"):
        compare_studies(study([0], [1.0], [0.0]),
                        study([0], [1.0], [0.0], kind="safety"))


def test_compare_studies_refuses_two_configs():
    # each key whose value differs, or that one config lacks, is named
    a, b = study([0], [1.0], [0.0]), study([0], [1.0], [0.0])
    a["config"] = {"step_budget": 40, "estimators": ["mgae", "gae"], "x": 1}
    b["config"] = {"step_budget": 5000, "x": 1}
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="two configs do not compare: "
                                             "estimators, step_budget$"):
            compare_studies(*pair)
    assert compare_studies(a, dict(b, config=a["config"]))


def test_compare_studies_refuses_a_repeated_seed():
    # a seed listed twice is one run counted as two samples
    good = study([0, 1], [1.0, 2.0], [0.0, 0.0])
    twice = study([0, 0], [1.0, 1.0], [0.0, 0.0])
    for a, b in ((twice, good), (good, twice)):
        with pytest.raises(ValueError, match=r"repeats a seed: \[0, 0\]"):
            compare_studies(a, b)


def test_compare_studies_needs_a_shared_seed():
    with pytest.raises(ValueError, match="share no seed"):
        compare_studies(study([0], [1.0], [0.0]), study([1], [1.0], [0.0]))


def test_safety_comparison_shape(tmp_path):
    out = safety_comparison(tiny(normalize_adv=True), seeds=[0],
                            levels=["easy", "medium"], episodes=2,
                            cache_root=tmp_path)
    assert list(out) == ["lagrangian", "plain"]
    for cells in out.values():
        assert list(cells) == ["reward_easy", "cost_easy", "reward_medium",
                               "cost_medium"]
        assert all(len(values) == 1 for values in cells.values())
    # constrained and unconstrained runs landed in distinct cache slots
    assert len(list(tmp_path.iterdir())) >= 2


def test_manifest_records_the_config(tmp_path):
    cfg = tiny(adv="gae")
    run_dir = cached_train(cfg, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert list(manifest) == ["config", "code_hash", "started"]
    assert manifest["config"]["adv"] == "gae"
    assert manifest["config"]["seed"] == 0
    assert len(read_metrics_csv(run_dir / "metrics.csv")) >= 1


def test_dynamics_comparison_cells_hold_every_number_of_each_seed(tmp_path):
    params = dict(env_name="cliff-circular", n_train=40, n_test=16, epochs=1,
                  horizon=2)
    cells, fits = dynamics_comparison([1, 0], tmp_path, **params)
    assert all(f > 0 for f in fits)
    assert list(cells) == ["sdm", "sdm-mlp", "baseline"]
    for i, seed in enumerate([1, 0]):
        # the seed's study as the cache holds it
        result = experiments.cached_dynamics_study(tmp_path, seed=seed, **params)
        for kind, rows in result["rows"].items():
            assert [m for m in cells[kind] if m != "known_iou"] == [
                f"{name}_{h}" for h in (1, 2)
                for name in ("iou", "iou_std", "l1", "l1_std")] + ["skipped"]
            for row in rows:
                for name, key in (("iou", "iou_mean"), ("iou_std", "iou_std"),
                                  ("l1", "l1_mean"), ("l1_std", "l1_std")):
                    assert cells[kind][f"{name}_{row['step']}"][i] == row[key]
            assert cells[kind]["skipped"][i] == result["skipped"][kind]
        assert cells["sdm"]["known_iou"][i] == result["known_iou"]["sdm"]
    # the cache serves both seeds again, and records no fit time
    assert dynamics_comparison([1, 0], tmp_path, **params) == (cells, [None, None])
