"""Run configuration: one JSON file, flat sections per module.

The learner, exploration and detection sections are the module configs
themselves. Unknown sections or keys, values of the wrong JSON type and
non-finite numbers are configuration errors naming the offending key.
Value ranges are checked by the owning module's config class or policy
constructor, so a bad learning rate, kappa or epsilon fails at load,
whatever the policy, with the error naming its section and key.
Precedence is command-line flag over file value over default.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .bandit import LearnerConfig
from .baselines import POLICY_NAMES, EpsilonGreedyPolicy, LinUCBPolicy, ThompsonPolicy
from .data import MAX_INPUT_MAGNITUDE
from .errors import ConfigError
from .exploration import ExplorationConfig
from .features import SeasonalityProfile
from .harness import SyntheticWorldConfig
from .interpret import DetectionConfig
from .mf import ALSConfig


@dataclass
class DataSection:
    transactions: str | None = None
    offers: str | None = None
    impressions: str | None = None
    mf_scores: str | None = None
    mf_default_score: float = 0.0


@dataclass
class FeaturesSection:
    cold_start_mpg: float = 1.0
    default_cycle_days: float = 30.0
    smoothing_window: int = 3


@dataclass
class LinUCBSection:
    alpha_explore: float = 1.0
    l2_lambda: float = 1.0


@dataclass
class TSSection:
    v: float = 0.25
    l2_lambda: float = 1.0


@dataclass
class EGreedySection:
    epsilon: float = 0.1
    decay: str = "constant"


@dataclass
class SyntheticSection:
    n_categories: int = 5
    n_members: int = 4
    offers_per_round: int = 5
    max_categories_per_offer: int = 3
    weight_scale: float = 0.7
    bias_mean: float = -0.4
    bias_scale: float = 0.3
    mf_bias_coeff: float = 0.0
    world_seed: int = 0


@dataclass
class RunSection:
    seed: int = 0
    rounds: int = 1000
    out_dir: str = "runs/latest"
    snapshot_every: int = 1
    backfit_checkpoint: str | None = None


@dataclass
class MFSection:
    rank: int = 8
    iterations: int = 20
    regularization: float = 0.1


@dataclass
class RunConfig:
    policy: str = "camb"
    data: DataSection = field(default_factory=DataSection)
    features: FeaturesSection = field(default_factory=FeaturesSection)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    linucb: LinUCBSection = field(default_factory=LinUCBSection)
    ts: TSSection = field(default_factory=TSSection)
    egreedy: EGreedySection = field(default_factory=EGreedySection)
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    run: RunSection = field(default_factory=RunSection)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    mf: MFSection = field(default_factory=MFSection)

    def world_config(self) -> SyntheticWorldConfig:
        values = dataclasses.asdict(self.synthetic)
        return SyntheticWorldConfig(seed=values.pop("world_seed"), **values)

    def als_config(self) -> ALSConfig:
        return ALSConfig(**dataclasses.asdict(self.mf), seed=self.run.seed)

    def validate(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"bad config value policy={self.policy!r}; expected one of {POLICY_NAMES}")
        if self.run.rounds < 1:
            raise ConfigError(f"bad config value run.rounds={self.run.rounds}; must be >= 1")
        if self.run.snapshot_every < 1:
            raise ConfigError(f"bad config value run.snapshot_every={self.run.snapshot_every}; must be >= 1")
        if not abs(self.data.mf_default_score) <= MAX_INPUT_MAGNITUDE:
            raise ConfigError(f"bad config value data.mf_default_score={self.data.mf_default_score}; "
                              f"magnitude must be at most {MAX_INPUT_MAGNITUDE:g}")
        if not 0 <= self.features.cold_start_mpg <= MAX_INPUT_MAGNITUDE:
            raise ConfigError(f"bad config value features.cold_start_mpg={self.features.cold_start_mpg}; "
                              f"must be from 0 to {MAX_INPUT_MAGNITUDE:g}")
        if self.features.default_cycle_days <= 0:
            raise ConfigError(f"bad config value features.default_cycle_days={self.features.default_cycle_days}")
        # The module configs checked their ranges when they were built; the
        # policy, world, ALS and seasonality constructors check the rest.
        for name, build in (
            ("linucb", lambda: LinUCBPolicy(**dataclasses.asdict(self.linucb))),
            ("ts", lambda: ThompsonPolicy(**dataclasses.asdict(self.ts))),
            ("egreedy", lambda: EpsilonGreedyPolicy(**dataclasses.asdict(self.egreedy))),
            ("synthetic", self.world_config),
            ("mf", self.als_config),
            ("features", lambda: SeasonalityProfile({}, self.features.smoothing_window)),
        ):
            with _naming_section(name):
                build()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        cfg = cls()
        sections = {f.name for f in dataclasses.fields(cls)}
        for name, value in obj.items():
            if name not in sections:
                raise ConfigError(f"unknown config key: {name}")
            if name == "policy":
                if not isinstance(value, str):
                    raise ConfigError(f"bad config value policy={value!r}; expected a string")
                cfg.policy = value
                continue
            setattr(cfg, name, _section_from_dict(type(getattr(cfg, name)), name, value))
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"missing config file: {p}")
        try:
            obj = json.loads(p.read_text(encoding="utf-8"))
        except (RecursionError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
        return cls.from_dict(obj)


@contextlib.contextmanager
def _naming_section(section_name: str):
    """Module configs and policy constructors begin each range error with
    the offending argument, whose name is also its key; prefixing the
    section makes the message name the config key."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"bad config value {section_name}.{exc}") from None


def _section_from_dict(section_cls: type, section_name: str, obj) -> object:
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {section_name} must be an object")
    fields = {f.name: f for f in dataclasses.fields(section_cls)}
    hints = typing.get_type_hints(section_cls)
    for key, value in obj.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {section_name}.{key}")
        if not _has_type(value, hints[key]):
            raise ConfigError(f"bad config value {section_name}.{key}={value!r}; "
                              f"expected {fields[key].type} (numbers must be finite)")
    with _naming_section(section_name):
        return section_cls(**obj)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. bool is an int
    subclass, but true and false are not numbers here; JSON admits NaN
    and Infinity, but a float must be finite."""
    if hint is float:
        if isinstance(value, float):
            return math.isfinite(value)
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    return isinstance(value, hint)
