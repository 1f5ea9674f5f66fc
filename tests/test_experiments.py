"""Run caching and the comparison-study harnesses."""

from dataclasses import replace

import pytest

from cade.config import RunConfig
from cade.experiments import (bootstrap_interval, cached_train,
                              compare_studies, estimator_comparison,
                              final_window_mean, load_manifest, run_key,
                              safety_comparison)
from cade.trainer import RunManifest, train


def tiny(**overrides):
    base = dict(env="cliff-circular", level="medium", timeout=30,
                step_budget=40, hidden_dim=16, head_width=8,
                normalize_adv=False, checkpoint_every=1000)
    base.update(overrides)
    return RunConfig(**base)


def test_run_key_tracks_config_identity():
    a, b = tiny(), tiny()
    assert run_key(a) == run_key(b)
    assert run_key(a) != run_key(tiny(seed=1))
    assert run_key(a) != run_key(tiny(adv="gae"))
    assert len(run_key(a)) == 16


def test_cached_train_reuses_completed_runs(tmp_path):
    cfg = tiny()
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
    # a killed run leaves its unfinished manifest and ckpt-init, and no
    # ckpt-final: the cache trains it again
    cfg = tiny()
    partial = tmp_path / run_key(cfg)

    def stop(stage):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        train(cfg, partial, instrument=stop)
    assert load_manifest(partial)["finished"] == ""
    assert not (partial / "ckpt-final.npz").exists()
    assert cached_train(cfg, tmp_path) == partial
    assert load_manifest(partial)["finished"] and load_manifest(partial)["rows"]
    assert (partial / "ckpt-final.npz").exists()


def test_cached_train_retrains_a_run_killed_before_its_finished_manifest(
        tmp_path, monkeypatch):
    # train saves ckpt-final.npz before it rewrites manifest.json: a run
    # killed between the two leaves the initial manifest, without rows,
    # beside the final checkpoint, and the cache trains it again in place;
    # an earlier run's periodic checkpoint and failure snapshot go, and the
    # retrain writes the bytes of a clean run
    cfg = tiny()
    clean = tmp_path / "clean"
    train(cfg, clean)
    partial = tmp_path / run_key(cfg)
    save = RunManifest.save

    def killed_at_the_finished_manifest(self, path):
        if self.finished:
            raise KeyboardInterrupt
        save(self, path)

    monkeypatch.setattr(RunManifest, "save", killed_at_the_finished_manifest)
    with pytest.raises(KeyboardInterrupt):
        train(cfg, partial)
    monkeypatch.undo()
    assert load_manifest(partial)["finished"] == ""
    assert load_manifest(partial)["rows"] == []
    assert (partial / "ckpt-final.npz").exists()
    stale = [partial / "ckpt-000007.npz", partial / "diagnostic.npz"]
    for path in stale:
        path.write_bytes(b"stale")
    assert cached_train(cfg, tmp_path) == partial
    assert load_manifest(partial)["finished"] and load_manifest(partial)["rows"]
    assert not any(path.exists() for path in stale)
    for name in ("metrics.csv", "ckpt-final.npz"):
        assert (partial / name).read_bytes() == (clean / name).read_bytes()
    # a study over the cache reads the retrained run
    results = estimator_comparison(cfg, ["mgae"], [0], tmp_path)
    rows = load_manifest(partial)["rows"]
    assert results["mgae"]["reward"] == [final_window_mean(rows, "ep_reward")]


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
    results = estimator_comparison(tiny(), ["mgae", "gae"], [0, 1], tmp_path)
    assert sorted(results) == ["gae", "mgae"]
    for adv, finals in results.items():
        assert list(finals) == ["reward", "cost"]
        # each seed's final window of its own run, reward beside cost
        for seed, reward, cost in zip([0, 1], finals["reward"], finals["cost"]):
            rows = load_manifest(cached_train(tiny(adv=adv, seed=seed),
                                              tmp_path))["rows"]
            assert reward == final_window_mean(rows, "ep_reward")
            assert cost == final_window_mean(rows, "ep_cost")
    # cached runs make the recomputation free and identical
    again = estimator_comparison(tiny(), ["mgae", "gae"], [0, 1], tmp_path)
    assert again == results


def test_estimator_comparison_turns_normalization_off_itself(tmp_path):
    # a base config with normalization on trains the runs, and so the
    # cache directories, of the same base with it off
    runs = {}
    for normalize in (True, False):
        cache = tmp_path / str(normalize)
        results = estimator_comparison(tiny(normalize_adv=normalize),
                                       ["mgae", "gae"], [0], cache)
        runs[normalize] = (sorted(p.name for p in cache.iterdir()), results)
    assert runs[True] == runs[False]
    assert runs[False][0] == sorted(run_key(tiny(adv=adv))
                                    for adv in ("mgae", "gae"))


def study(seeds, rewards, costs):
    return {"seeds": seeds,
            "finals": {"mgae": {"reward": rewards, "cost": costs}}}


def test_compare_studies_pairs_runs_by_seed():
    # b lists its seeds in another order and has one a lacks
    a = study([0, 1, 2], [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    b = study([2, 3, 0, 1], [3.5, 9.0, 1.5, 2.5], [4.0, 0.0, 4.0, 4.0])
    seeds, out = compare_studies(a, b)
    assert seeds == [0, 1, 2]
    out = out["mgae"]
    assert out["reward"]["diffs"] == [0.5, 0.5, 0.5]
    assert out["cost"]["diffs"] == [-1.0, -1.0, -1.0]
    # a constant difference resamples to itself
    assert out["reward"]["interval"] == (0.5, 0.5)
    assert out["cost"]["interval"] == (-1.0, -1.0)
    same = compare_studies(a, a)[1]["mgae"]
    for metric in ("reward", "cost"):
        assert same[metric]["diffs"] == [0.0] * 3
        assert same[metric]["mean"] == 0.0
        assert same[metric]["interval"] == (0.0, 0.0)


def test_bootstrap_interval_repeats_and_brackets_the_mean():
    diffs = [0.3, -1.2, 2.5, 0.0, 0.7, -0.4, 1.1, 0.9, -2.0, 0.6]
    lo, hi = bootstrap_interval(diffs)
    assert lo < sum(diffs) / len(diffs) < hi
    assert min(diffs) < lo and hi < max(diffs)
    assert bootstrap_interval(diffs) == (lo, hi)


@pytest.mark.parametrize("bad", [
    {}, {"seeds": [0]}, {"seeds": [0], "finals": {"mgae": [1.0]}},
    study([0, 1], [1.0, 2.0], [0.0])])
def test_compare_studies_rejects_what_is_not_an_estimator_study(bad):
    good = study([0, 1], [1.0, 2.0], [0.0, 0.0])
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="not an estimator study"):
            compare_studies(a, b)


def test_compare_studies_needs_a_shared_seed():
    with pytest.raises(ValueError, match="share no seed"):
        compare_studies(study([0], [1.0], [0.0]), study([1], [1.0], [0.0]))


def test_safety_comparison_shape(tmp_path):
    out = safety_comparison(tiny(normalize_adv=True), seeds=[0],
                            levels=["easy", "medium"], episodes=2,
                            cache_root=tmp_path)
    assert sorted(out) == ["lagrangian", "plain"]
    for variant in out.values():
        assert sorted(variant) == ["easy", "medium"]
        for summary in variant.values():
            assert set(summary) == {"reward_mean", "cost_mean",
                                    "reward_per_seed", "cost_per_seed"}
            assert len(summary["reward_per_seed"]) == 1
    # constrained and unconstrained runs landed in distinct cache slots
    assert len(list(tmp_path.iterdir())) >= 2


def test_manifest_records_the_config(tmp_path):
    cfg = tiny(adv="gae")
    run_dir = cached_train(cfg, tmp_path)
    manifest = load_manifest(run_dir)
    assert manifest["config"]["adv"] == "gae"
    assert manifest["seed"] == 0
    assert len(manifest["rows"]) >= 1
