"""Config construction, strict key checking, and file loading."""

import json

import pytest

from cade.config import (ConfigError, LagrangeSection, RunConfig,
                         SafetySection, load_config_file)


def test_defaults_validate_and_round_trip():
    cfg = RunConfig().validate()
    again = RunConfig.from_dict(cfg.to_dict()).validate()
    assert again == cfg
    assert cfg.adv == "mgae" and cfg.safety.mode == "off"
    assert cfg.lagrange.budget == 1.0 and cfg.cost_adv.horizon == 1


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="bogus_key"):
        RunConfig.from_dict({"bogus_key": 1})


def test_unknown_nested_key_names_section_and_key():
    with pytest.raises(ConfigError, match=r"lagrange.*learning_rate"):
        RunConfig.from_dict({"lagrange": {"learning_rate": 0.1}})


def test_multiple_unknown_keys_all_listed():
    with pytest.raises(ConfigError, match=r"aaa, zzz"):
        RunConfig.from_dict({"zzz": 1, "aaa": 2})
    # two removed keys at two levels, as older manifests hold them: one
    # error names both, by their dotted paths
    with pytest.raises(ConfigError) as e:
        RunConfig.from_dict({"actor_epochs": 1, "trust": {"kl_stop": 0.1},
                             "safety": {"mode": "infer"}})
    assert str(e.value) == "unknown config keys: actor_epochs, trust"
    # the config of a manifest written before the learning rate, GAE's
    # lambda, the window length, the advantage weight, the squash's shape,
    # the dual's step and clamp and the screen's sample count left it: one
    # error names all nine
    fresh = RunConfig().to_dict()
    older = dict(fresh, lr=0.001, lam=0.95, window=10,
                 trust={"surrogate_coef": 0.015},
                 cost_adv={"horizon": 1, "k": 8.0, "c_b": 0.5},
                 lagrange=dict(fresh["lagrange"], lr=0.01, beta_max=2.0),
                 safety=dict(fresh["safety"], samples=10))
    with pytest.raises(ConfigError) as e:
        RunConfig.from_dict(older)
    assert str(e.value) == ("unknown config keys: cost_adv.c_b, cost_adv.k, "
                            "lagrange.beta_max, lagrange.lr, lam, lr, "
                            "safety.samples, trust, window")


def test_scalar_type_checking():
    assert RunConfig.from_dict({"seed": 7.0}).seed == 7  # integral float ok
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict({"seed": 7.5})
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict({"seed": True})
    with pytest.raises(ConfigError, match="gamma"):
        RunConfig.from_dict({"gamma": "high"})
    with pytest.raises(ConfigError, match="normalize_adv"):
        RunConfig.from_dict({"normalize_adv": 1})
    with pytest.raises(ConfigError, match="env"):
        RunConfig.from_dict({"env": 3})


def test_nested_section_must_be_mapping():
    with pytest.raises(ConfigError, match="expected a mapping at lagrange"):
        RunConfig.from_dict({"lagrange": 0.02})
    # a removed section is refused by name, whatever it holds
    with pytest.raises(ConfigError, match="^unknown config key: trust$"):
        RunConfig.from_dict({"trust": 0.02})


# each row names its id, so a row inserted anywhere renames no other test;
# the ids of the first rows keep the positional names pytest once gave them
@pytest.mark.parametrize("patch,needle", [
    pytest.param({"env": "atari"}, "env", id="patch0-env"),
    pytest.param({"level": "extreme"}, "level", id="patch1-level"),
    pytest.param({"adv": "ppo"}, "adv", id="patch2-adv"),
    pytest.param({"mgae_mode": "inclusive"}, "unknown config key: mgae_mode",
                 id="patch3-mgae_mode"),  # a removed field, refused by name
    pytest.param({"safety": {"mode": "always"}},
                 "safety.mode", id="patch4-safety.mode"),
    pytest.param({"step_budget": -1}, "step_budget", id="patch5-step_budget"),
    pytest.param({"gamma": 0.0}, "gamma", id="patch6-gamma"),
    pytest.param({"lam": 0.95}, "unknown config key: lam",
                 id="patch7-lam"),  # a removed field, refused by name
    pytest.param({"actor_epochs": 0}, "unknown config key: actor_epochs",
                 id="patch8-actor_epochs"),  # a removed field, refused by name
    pytest.param({"lr": 0.001}, "unknown config key: lr",
                 id="patch9-lr"),  # a removed field, refused by name
    pytest.param({"cost_adv": {"horizon": 0}},
                 "cost_adv.horizon", id="patch10-cost_adv.horizon"),
    pytest.param({"safety": {"activation_fraction": 1.5}},
                 "activation_fraction", id="patch11-activation_fraction"),
    pytest.param({"trust": {"kl_mask": 0.02}}, "unknown config key: trust",
                 id="patch12-trust.kl_mask"),  # a removed section, refused by name
    pytest.param({"adv": "reinforce"}, "adv", id="patch14-adv"),  # a removed estimator
    # the advantage weight and the squash's shape are constants of focops:
    # their keys are refused by name, at the old defaults and at any value
    pytest.param({"trust": {"surrogate_coef": 0.015}}, "unknown config key: trust",
                 id="patch15-trust.surrogate_coef"),
    pytest.param({"cost_adv": {"c_b": 0.5}}, "unknown config key: cost_adv.c_b",
                 id="patch16-cost_adv.c_b"),
    pytest.param({"cost_adv": {"k": 8.0}}, "unknown config key: cost_adv.k",
                 id="patch17-cost_adv.k"),
    # json reads NaN and Infinity; no float setting takes them
    pytest.param({"safety": {"threshold": float("inf")}},
                 "safety.threshold", id="patch18-safety.threshold"),
    pytest.param({"lagrange": {"beta_max": float("inf")}},
                 "unknown config key: lagrange.beta_max",
                 id="patch19-lagrange.beta_max"),  # removed, even at a bad value
    pytest.param({"lagrange": {"budget": float("inf")}},
                 "lagrange.budget", id="patch20-lagrange.budget"),
    pytest.param({"gamma": 10 ** 400},
                 "gamma", id="patch21-gamma"),  # an integer past the float range
    pytest.param({"trust": {"surrogate_coef": float("nan")}},
                 "unknown config key: trust", id="patch22-trust.surrogate_coef"),
    pytest.param({"trust": {}}, "unknown config key: trust",
                 id="patch23-trust.surrogate_coef"),  # even empty
    pytest.param({"cost_adv": {"k": -8.0}}, "unknown config key: cost_adv.k",
                 id="patch24-cost_adv.k"),
    pytest.param({"cost_adv": {"horizon": 2, "k": 8.0, "c_b": 0.5}},
                 "unknown config keys: cost_adv.c_b, cost_adv.k",
                 id="patch25-cost_adv.k"),  # beside a live key
    pytest.param({"checkpoint_every": 500}, "unknown config key: checkpoint_every",
                 id="patch26-checkpoint_every"),  # a removed field, refused by name
    # the dual's step and clamp are constants of focops, and the screen's
    # sample count one of safety: refused by name, at the old defaults too
    pytest.param({"lagrange": {"lr": 0.01}}, "unknown config key: lagrange.lr",
                 id="patch27-lagrange.lr"),
    pytest.param({"lagrange": {"beta_max": 2.0}},
                 "unknown config key: lagrange.beta_max",
                 id="patch28-lagrange.beta_max"),
    pytest.param({"safety": {"samples": 10}}, "unknown config key: safety.samples",
                 id="patch29-safety.samples"),
])
def test_validation_rejects_bad_values(patch, needle):
    base = RunConfig().to_dict()
    for key, value in patch.items():
        base[key] = {**base.get(key, {}), **value} if isinstance(value, dict) else value
    with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
        RunConfig.from_dict(base).validate()


@pytest.mark.parametrize("mode,train_on,infer_on", [
    ("off", False, False),
    ("train", True, False),
    ("infer", False, True),
])
def test_safety_phase_mapping(mode, train_on, infer_on):
    section = SafetySection(mode=mode)
    for phase, on in (("train", train_on), ("infer", infer_on)):
        assert section.for_phase(phase) is (section if on else None)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"env": "planar-river", "lagrange": {"enabled": True}}))
    data = load_config_file(str(path))
    cfg = RunConfig.from_dict({**RunConfig().to_dict(), **data})
    # top-level replace is intentional here; nested merge is the CLI's job
    assert cfg.env == "planar-river"
    assert cfg.lagrange == LagrangeSection(enabled=True)

    with pytest.raises(ConfigError, match="not found"):
        load_config_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(str(arr))
