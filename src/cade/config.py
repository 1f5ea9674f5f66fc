"""Run configuration: nested dataclasses, JSON files, strict key checking.

A config is built from defaults, optionally overlaid with a JSON file, then
with CLI flags.  Unknown keys are rejected by name, every one at every
nesting level in one error, so a typo never silently trains with a default.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

__all__ = [
    "ConfigError",
    "ADV_CHOICES",
    "SAFETY_MODES",
    "LagrangeSection",
    "CostAdvSection",
    "SafetySection",
    "RunConfig",
    "load_config_file",
]

ADV_CHOICES = ("mgae", "gae")
SAFETY_MODES = ("off", "train", "infer")
ENV_CHOICES = ("cliff-circular", "planar-river")
LEVEL_CHOICES = ("easy", "medium", "hard")


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


@dataclass
class LagrangeSection:
    """Cost-penalty multiplier: budget is the per-episode cost level treated
    as acceptable; the dual's step and clamp are ``focops.DUAL_LR`` and
    ``focops.BETA_MAX``."""

    enabled: bool = False
    budget: float = 1.0


@dataclass
class CostAdvSection:
    """Depth of the imagined rollout behind each step's cost advantage."""

    horizon: int = 1


@dataclass
class SafetySection:
    """Screen settings: phase, rollout depth, trigger level.

    ``threshold`` is compared with an imagined cost, the discounted sum of
    sigmoid cost-head outputs over ``horizon`` steps.  At ``horizon = 1``
    that cost lies below 1 unless the sigmoid saturates (a pre-activation
    of about 37), so at the default ``threshold = 1.0`` the screen fires
    only on a saturated cost head.  ``safety.can_fire`` bounds the head's
    output from its weights once an episode, and an episode whose bound
    stays below the threshold skips the screen, which could not fire.  Set
    a threshold below 1 or a longer horizon for the screen to act.

    A call prices ``safety.SAMPLES`` rollouts of the proposal, and as many
    candidates when it fires (see ``cade.safety``).  ``mode`` names the one
    phase the screen runs in, if any: ``train`` runs it in the episodes
    that start once ``activation_fraction`` of the step budget is
    collected, and not before; ``infer`` in every evaluation episode.
    """

    mode: str = "off"
    horizon: int = 1
    threshold: float = 1.0
    activation_fraction: float = 1.0 / 3.0

    def for_phase(self, phase: str) -> "SafetySection | None":
        """These settings if the screen runs in ``phase`` ("train" or
        "infer"), else None: the screen is off."""
        return self if self.mode == phase else None


@dataclass
class RunConfig:
    """Everything a training or evaluation run needs, flat where possible;
    the actor takes one policy step per batch.  What no run varies (the
    learning rate, GAE's lambda, the return window's length, the policy
    loss's weight, the cost squash's shape) is fixed where it is read."""

    env: str = "cliff-circular"
    level: str = "medium"
    adv: str = "mgae"
    seed: int = 0
    step_budget: int = 150_000
    episodes_per_iter: int = 1
    timeout: int = 500
    gamma: float = 0.99
    normalize_adv: bool = True
    hidden_dim: int = 128
    head_width: int = 64
    out_dir: str = "runs"
    lagrange: LagrangeSection = field(default_factory=LagrangeSection)
    cost_adv: CostAdvSection = field(default_factory=CostAdvSection)
    safety: SafetySection = field(default_factory=SafetySection)

    def validate(self) -> "RunConfig":
        def expect(ok: bool, msg: str):
            if not ok:
                raise ConfigError(msg)

        expect(self.env in ENV_CHOICES, f"env must be one of {ENV_CHOICES}, got {self.env!r}")
        expect(self.level in LEVEL_CHOICES, f"level must be one of {LEVEL_CHOICES}, got {self.level!r}")
        expect(self.adv in ADV_CHOICES, f"adv must be one of {ADV_CHOICES}, got {self.adv!r}")
        expect(self.safety.mode in SAFETY_MODES,
               f"safety.mode must be one of {SAFETY_MODES}, got {self.safety.mode!r}")
        expect(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        expect(self.step_budget >= 0, "step_budget must be >= 0")
        expect(self.episodes_per_iter >= 1, "episodes_per_iter must be >= 1")
        expect(self.timeout >= 1, "timeout must be >= 1")
        expect(0.0 < self.gamma <= 1.0, "gamma must be in (0, 1]")
        expect(self.hidden_dim >= 1 and self.head_width >= 1,
               "hidden_dim and head_width must be >= 1")
        expect(self.cost_adv.horizon >= 1, "cost_adv.horizon must be >= 1")
        expect(self.safety.horizon >= 1, "safety.horizon must be >= 1")
        expect(self.safety.threshold > 0.0, "safety.threshold must be positive")
        expect(0.0 <= self.safety.activation_fraction <= 1.0,
               "safety.activation_fraction must be in [0, 1]")
        expect(self.lagrange.budget >= 0.0, "lagrange.budget must be non-negative")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = []
        cfg = _build(cls, data, "", unknown)
        if unknown:
            raise ConfigError(f"unknown config key{'s' if len(unknown) > 1 else ''}: "
                              f"{', '.join(sorted(unknown))}")
        return cfg


def _build(dc_type, data: dict, path: str, unknown: list):
    """Recursive dataclass construction; a field whose type is a dataclass
    is a nested section, and the dotted path of every key that names no
    field, at any level, goes to ``unknown``, to be refused in one error."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}, got {type(data).__name__}")
    spec = {f.name: f for f in fields(dc_type)}
    types = typing.get_type_hints(dc_type)
    kwargs = {}
    for name, value in data.items():
        full = f"{path}.{name}" if path else name
        if name not in spec:
            unknown.append(full)
        elif is_dataclass(types[name]):
            kwargs[name] = _build(types[name], value, full, unknown)
        else:
            kwargs[name] = _coerce(full, value, spec[name].default)
    return dc_type(**kwargs)


def _coerce(full: str, value, default):
    """Match the default's scalar type, naming the key ``full``; bool before int (bool <: int)."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{full} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{full} must be an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{full} must be an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{full} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, the infinities
            raise ConfigError(f"{full} must be a finite number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{full} must be a string, got {value!r}")
        return value
    return value


def load_config_file(path: str) -> dict:
    """Read a JSON config file as UTF-8 (RFC 8259), not in the locale's
    encoding; a file that cannot be read or parsed raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path} cannot be read: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data
