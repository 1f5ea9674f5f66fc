"""Run configuration: nested dataclasses, JSON files, strict key checking.

A config is built from defaults, optionally overlaid with a JSON file, then
with CLI flags.  Unknown keys are rejected by name at every nesting level so
a typo never silently trains with a default.
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
    "TrustSection",
    "CostAdvSection",
    "SafetySection",
    "RunConfig",
    "load_config_file",
]

ADV_CHOICES = ("mgae", "gae")
SAFETY_MODES = ("off", "train", "infer", "both")
ENV_CHOICES = ("cliff-circular", "planar-river")
LEVEL_CHOICES = ("easy", "medium", "hard")


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


@dataclass
class LagrangeSection:
    """Cost-penalty multiplier: beta is clamped to [0, beta_max] for the
    life of the run; budget is the per-episode cost level treated as
    acceptable."""

    enabled: bool = False
    lr: float = 0.01
    budget: float = 1.0
    beta_max: float = 2.0


@dataclass
class TrustSection:
    """Per-step masking threshold, batch early-stop threshold, surrogate weight."""

    kl_mask: float = 0.02
    kl_stop: float = 0.02
    surrogate_coef: float = 0.015  # the 1/alpha weight on the advantage term


@dataclass
class CostAdvSection:
    horizon: int = 1
    k: float = 8.0
    c_b: float = 0.5


@dataclass
class SafetySection:
    """Screen settings: phases, sample count, rollout depth, trigger level.

    ``threshold`` is compared with an imagined cost, the discounted sum of
    sigmoid cost-head outputs over ``horizon`` steps.  At ``horizon = 1``
    that cost lies below 1 unless the sigmoid saturates (a pre-activation
    of about 37), so the default ``threshold = 1.0`` is practically
    unreachable and the default screen never fires: set a threshold below 1
    or a longer horizon for it to act.

    Each distinct first step is warped and priced once per episode (see
    ``cade.safety``).  At ``horizon = 1`` the ``samples`` rollouts of the
    proposal are one rollout, priced once, and its cost stands for all of
    them: ``samples`` only adds work through the candidate pool (one first
    step per distinct candidate) and through horizons above 1 (``horizon -
    1`` further warps per rollout, never memoized).  ``train`` runs the
    screen in the episodes that start once ``activation_fraction`` of the
    step budget is collected, and not before; inference screens every
    episode.
    """

    mode: str = "off"
    samples: int = 10
    horizon: int = 1
    threshold: float = 1.0
    activation_fraction: float = 1.0 / 3.0

    def for_phase(self, phase: str) -> "SafetySection | None":
        """These settings if the screen runs in ``phase`` ("train" or
        "infer"), else None: the screen is off."""
        return self if self.mode in (phase, "both") else None


@dataclass
class RunConfig:
    """Everything a training or evaluation run needs, flat where possible."""

    env: str = "cliff-circular"
    level: str = "medium"
    adv: str = "mgae"
    mgae_mode: str = "inclusive"
    seed: int = 0
    step_budget: int = 150_000
    episodes_per_iter: int = 1
    timeout: int = 500
    gamma: float = 0.99
    lam: float = 0.95
    window: int = 10
    normalize_adv: bool = True
    actor_epochs: int = 1
    lr: float = 0.001
    hidden_dim: int = 128
    head_width: int = 64
    checkpoint_every: int = 500
    out_dir: str = "runs"
    lagrange: LagrangeSection = field(default_factory=LagrangeSection)
    trust: TrustSection = field(default_factory=TrustSection)
    cost_adv: CostAdvSection = field(default_factory=CostAdvSection)
    safety: SafetySection = field(default_factory=SafetySection)

    def validate(self) -> "RunConfig":
        def expect(ok: bool, msg: str):
            if not ok:
                raise ConfigError(msg)

        expect(self.env in ENV_CHOICES, f"env must be one of {ENV_CHOICES}, got {self.env!r}")
        expect(self.level in LEVEL_CHOICES, f"level must be one of {LEVEL_CHOICES}, got {self.level!r}")
        expect(self.adv in ADV_CHOICES, f"adv must be one of {ADV_CHOICES}, got {self.adv!r}")
        expect(self.mgae_mode in ("inclusive", "exclusive"),
               f"mgae_mode must be inclusive or exclusive, got {self.mgae_mode!r}")
        expect(self.safety.mode in SAFETY_MODES,
               f"safety.mode must be one of {SAFETY_MODES}, got {self.safety.mode!r}")
        expect(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        expect(self.step_budget >= 0, "step_budget must be >= 0")
        expect(self.episodes_per_iter >= 1, "episodes_per_iter must be >= 1")
        expect(self.timeout >= 1, "timeout must be >= 1")
        expect(0.0 < self.gamma <= 1.0, "gamma must be in (0, 1]")
        expect(0.0 <= self.lam <= 1.0, "lam must be in [0, 1]")
        expect(self.window >= 1, "window must be >= 1")
        expect(self.actor_epochs >= 1, "actor_epochs must be >= 1")
        expect(self.lr > 0.0, "lr must be positive")
        expect(self.hidden_dim >= 1 and self.head_width >= 1,
               "hidden_dim and head_width must be >= 1")
        expect(self.checkpoint_every >= 1, "checkpoint_every must be >= 1")
        expect(self.trust.kl_mask > 0.0 and self.trust.kl_stop > 0.0,
               "trust.kl_mask and trust.kl_stop must be positive")
        # a negative weight makes the surrogate descend the advantage
        expect(self.trust.surrogate_coef > 0.0, "trust.surrogate_coef must be positive")
        expect(self.cost_adv.horizon >= 1, "cost_adv.horizon must be >= 1")
        # a negative k reverses the cost squash; k = 0 flattens it to 0.5
        expect(self.cost_adv.k > 0.0, "cost_adv.k must be positive")
        expect(self.safety.samples >= 1, "safety.samples must be >= 1")
        expect(self.safety.horizon >= 1, "safety.horizon must be >= 1")
        expect(self.safety.threshold > 0.0, "safety.threshold must be positive")
        expect(0.0 <= self.safety.activation_fraction <= 1.0,
               "safety.activation_fraction must be in [0, 1]")
        expect(self.lagrange.lr >= 0.0 and self.lagrange.budget >= 0.0,
               "lagrange.lr and lagrange.budget must be non-negative")
        expect(0.0 <= self.lagrange.beta_max, "lagrange.beta_max must be non-negative")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _build(cls, data, path="")


def _build(dc_type, data: dict, path: str):
    """Recursive dataclass construction that names any unknown key; a field
    whose type is a dataclass is a nested section."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}, got {type(data).__name__}")
    spec = {f.name: f for f in fields(dc_type)}
    unknown = sorted(set(data) - set(spec))
    if unknown:
        where = f" under {path!r}" if path else ""
        raise ConfigError(f"unknown config key{'s' if len(unknown) > 1 else ''}"
                          f"{where}: {', '.join(unknown)}")
    types = typing.get_type_hints(dc_type)
    kwargs = {}
    for name, value in data.items():
        if is_dataclass(types[name]):
            kwargs[name] = _build(types[name], value, f"{path}.{name}" if path else name)
        else:
            kwargs[name] = _coerce(name, value, spec[name].default, path)
    return dc_type(**kwargs)


def _coerce(name: str, value, default, path: str):
    """Match the default's scalar type; bool is checked before int since bool <: int."""
    full = f"{path}.{name}" if path else name
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
    """Read a JSON config file; parse errors surface as ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data
