"""Run configuration: one JSON file, flat sections per module.

The learner, exploration and detection sections are the module configs
themselves; the features, mf, synthetic and policy sections are declared
beside the code they configure, and data and run here. Unknown sections
or keys, values of the wrong JSON type and non-finite numbers are
configuration errors naming the offending key. Each bounded key declares
its range once, on its field; rules that one range cannot state, such as
learner.learning_rate * l2_lambda < 2, are the section's rules(). One
checker (errors.check_fields) enforces both on every section at load,
whatever the policy, and again after the command-line overrides, naming
the section and key. Precedence is command-line flag over file value
over default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .bandit import LearnerConfig
from .baselines import POLICY_NAMES, EGreedySection, LinUCBSection, TSSection
from .data import MAX_INPUT_MAGNITUDE
from .errors import ConfigError, bounded, check_fields
from .exploration import ExplorationConfig
from .features import FeaturesSection
from .harness import SyntheticWorldConfig, WorldShape
from .interpret import DetectionConfig
from .mf import ALSConfig, MFSection


@dataclass
class DataSection:
    transactions: str | None = None
    offers: str | None = None
    impressions: str | None = None
    mf_scores: str | None = None
    mf_default_score: float = bounded(0.0, lo=-MAX_INPUT_MAGNITUDE, hi=MAX_INPUT_MAGNITUDE)


@dataclass
class SyntheticSection(WorldShape):
    world_seed: int = bounded(0, lo=0)


@dataclass
class RunSection:
    seed: int = bounded(0, lo=0)
    rounds: int = bounded(1000, lo=1)
    out_dir: str = "runs/latest"
    snapshot_every: int = bounded(1, lo=1)
    backfit_checkpoint: str | None = None


@dataclass
class RunConfig:
    policy: str = bounded("camb", choices=POLICY_NAMES)
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
        check_fields(self, "")  # the policy
        for section in dataclasses.fields(self)[1:]:
            check_fields(getattr(self, section.name), f"{section.name}.")

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
                cfg.policy = value  # validate checks it is one of POLICY_NAMES
            else:
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


def _section_from_dict(section_cls: type, section_name: str, obj) -> object:
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {section_name} must be an object")
    fields = {f.name: f for f in dataclasses.fields(section_cls)}
    hints = typing.get_type_hints(section_cls)
    for key, value in obj.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {section_name}.{key}")
        if not has_type(value, hints[key]):
            raise ConfigError(f"bad config value {section_name}.{key}={value!r}; "
                              f"expected {fields[key].type} (numbers must be finite)")
    # Checked first under the key's name; construction checks them again.
    section = section_cls()
    vars(section).update(obj)
    check_fields(section, f"{section_name}.")
    return section_cls(**obj)


def has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. bool is an int
    subclass, but true and false are not numbers here; JSON admits NaN
    and Infinity, but a float must be finite, and so must an int given
    for one once it is a float."""
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(has_type(v, item) for v in value)
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        return any(has_type(value, h) for h in typing.get_args(hint))
    return isinstance(value, hint)
