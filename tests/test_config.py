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
    assert cfg.lagrange.beta_max == 2.0 and cfg.trust.kl_mask == 0.02


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="bogus_key"):
        RunConfig.from_dict({"bogus_key": 1})


def test_unknown_nested_key_names_section_and_key():
    with pytest.raises(ConfigError, match=r"lagrange.*learning_rate"):
        RunConfig.from_dict({"lagrange": {"learning_rate": 0.1}})


def test_multiple_unknown_keys_all_listed():
    with pytest.raises(ConfigError, match=r"aaa, zzz"):
        RunConfig.from_dict({"zzz": 1, "aaa": 2})


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
    with pytest.raises(ConfigError, match="trust"):
        RunConfig.from_dict({"trust": 0.02})


# each row names its id, so a row inserted anywhere renames no other test;
# the ids of the first rows keep the positional names pytest once gave them
@pytest.mark.parametrize("patch,needle", [
    pytest.param({"env": "atari"}, "env", id="patch0-env"),
    pytest.param({"level": "extreme"}, "level", id="patch1-level"),
    pytest.param({"adv": "ppo"}, "adv", id="patch2-adv"),
    pytest.param({"mgae_mode": "both"}, "mgae_mode", id="patch3-mgae_mode"),
    pytest.param({"safety": {"mode": "always"}},
                 "safety.mode", id="patch4-safety.mode"),
    pytest.param({"step_budget": -1}, "step_budget", id="patch5-step_budget"),
    pytest.param({"gamma": 0.0}, "gamma", id="patch6-gamma"),
    pytest.param({"lam": 1.5}, "lam", id="patch7-lam"),
    pytest.param({"actor_epochs": 0}, "actor_epochs", id="patch8-actor_epochs"),
    pytest.param({"lr": 0.0}, "lr", id="patch9-lr"),
    pytest.param({"cost_adv": {"horizon": 0}},
                 "cost_adv.horizon", id="patch10-cost_adv.horizon"),
    pytest.param({"safety": {"activation_fraction": 1.5}},
                 "activation_fraction", id="patch11-activation_fraction"),
    pytest.param({"trust": {"kl_mask": 0.0}},
                 "trust.kl_mask", id="patch12-trust.kl_mask"),
    pytest.param({"trust": {"kl_stop": -1.0}},
                 "trust.kl_stop", id="patch13-trust.kl_stop"),
    pytest.param({"adv": "reinforce"}, "adv", id="patch14-adv"),  # a removed estimator
    # json reads NaN and Infinity; no float setting takes them
    pytest.param({"trust": {"surrogate_coef": float("nan")}},
                 "trust.surrogate_coef", id="patch15-trust.surrogate_coef"),
    pytest.param({"cost_adv": {"c_b": float("nan")}},
                 "cost_adv.c_b", id="patch16-cost_adv.c_b"),
    pytest.param({"cost_adv": {"k": float("inf")}},
                 "cost_adv.k", id="patch17-cost_adv.k"),
    pytest.param({"safety": {"threshold": float("inf")}},
                 "safety.threshold", id="patch18-safety.threshold"),
    pytest.param({"lagrange": {"beta_max": float("inf")}},
                 "lagrange.beta_max", id="patch19-lagrange.beta_max"),
    pytest.param({"lagrange": {"budget": float("inf")}},
                 "lagrange.budget", id="patch20-lagrange.budget"),
    pytest.param({"gamma": 10 ** 400},
                 "gamma", id="patch21-gamma"),  # an integer past the float range
    # a sign flip passes the type checks but turns the update around
    pytest.param({"trust": {"surrogate_coef": -0.015}},
                 "trust.surrogate_coef", id="patch22-trust.surrogate_coef"),
    pytest.param({"trust": {"surrogate_coef": 0.0}},
                 "trust.surrogate_coef", id="patch23-trust.surrogate_coef"),
    pytest.param({"cost_adv": {"k": -8.0}}, "cost_adv.k", id="patch24-cost_adv.k"),
    pytest.param({"cost_adv": {"k": 0.0}}, "cost_adv.k", id="patch25-cost_adv.k"),
])
def test_validation_rejects_bad_values(patch, needle):
    base = RunConfig().to_dict()
    for key, value in patch.items():
        if isinstance(value, dict):
            base[key].update(value)
        else:
            base[key] = value
    with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
        RunConfig.from_dict(base).validate()


@pytest.mark.parametrize("mode,train_on,infer_on", [
    ("off", False, False),
    ("train", True, False),
    ("infer", False, True),
    ("both", True, True),
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
