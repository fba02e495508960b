"""Run configuration: one JSON file, flat sections per module.

Unknown sections or keys, and values of the wrong JSON type, are
configuration errors naming the offending key. Value ranges are
validated by the owning module's config class, so a bad learning rate or
kappa fails here too, before any work starts.
Precedence is command-line flag over file value over default.
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
from .errors import ConfigError
from .exploration import ExplorationConfig
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
class LearnerSection:
    learning_rate: float = 0.05
    positive_boost: float = 2.0
    mf_bias_coeff: float = 1.0
    l2_lambda: float = 0.0
    prior_weights: list[float] | None = None


@dataclass
class ExplorationSection:
    kappa_initial: float = 5.0
    kappa_schedule: str = "constant"
    kappa_growth_rate: float = 0.0
    probability_clamp: float = 1e-4


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
class DetectionSection:
    window: int = 20
    z_threshold: float = 4.0
    min_abs_change: float = 0.05


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
    learner: LearnerSection = field(default_factory=LearnerSection)
    exploration: ExplorationSection = field(default_factory=ExplorationSection)
    linucb: LinUCBSection = field(default_factory=LinUCBSection)
    ts: TSSection = field(default_factory=TSSection)
    egreedy: EGreedySection = field(default_factory=EGreedySection)
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    run: RunSection = field(default_factory=RunSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    mf: MFSection = field(default_factory=MFSection)

    # Section-to-module config builders. Constructing the module configs is
    # also what validates value ranges.

    def learner_config(self) -> LearnerConfig:
        prior = self.learner.prior_weights
        return LearnerConfig(
            learning_rate=self.learner.learning_rate,
            positive_boost=self.learner.positive_boost,
            mf_bias_coeff=self.learner.mf_bias_coeff,
            l2_lambda=self.learner.l2_lambda,
            prior_weights=tuple(prior) if prior is not None else None,
        )

    def exploration_config(self) -> ExplorationConfig:
        return ExplorationConfig(
            kappa_initial=self.exploration.kappa_initial,
            kappa_schedule=self.exploration.kappa_schedule,
            kappa_growth_rate=self.exploration.kappa_growth_rate,
            probability_clamp=self.exploration.probability_clamp,
        )

    def world_config(self) -> SyntheticWorldConfig:
        s = self.synthetic
        return SyntheticWorldConfig(
            n_categories=s.n_categories,
            n_members=s.n_members,
            offers_per_round=s.offers_per_round,
            max_categories_per_offer=s.max_categories_per_offer,
            weight_scale=s.weight_scale,
            bias_mean=s.bias_mean,
            bias_scale=s.bias_scale,
            mf_bias_coeff=s.mf_bias_coeff,
            seed=s.world_seed,
        )

    def detection_config(self) -> DetectionConfig:
        d = self.detection
        return DetectionConfig(window=d.window, z_threshold=d.z_threshold, min_abs_change=d.min_abs_change)

    def als_config(self) -> ALSConfig:
        return ALSConfig(
            rank=self.mf.rank,
            iterations=self.mf.iterations,
            regularization=self.mf.regularization,
            seed=self.run.seed,
        )

    def validate(self) -> None:
        from .baselines import POLICY_NAMES  # local import to avoid a cycle

        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"bad config value policy={self.policy!r}; expected one of {POLICY_NAMES}")
        self._check_finite()
        if self.run.rounds < 1:
            raise ConfigError(f"bad config value run.rounds={self.run.rounds}; must be >= 1")
        if self.run.snapshot_every < 1:
            raise ConfigError(f"bad config value run.snapshot_every={self.run.snapshot_every}; must be >= 1")
        if self.features.cold_start_mpg < 0:
            raise ConfigError(f"bad config value features.cold_start_mpg={self.features.cold_start_mpg}")
        if self.features.default_cycle_days <= 0:
            raise ConfigError(f"bad config value features.default_cycle_days={self.features.default_cycle_days}")
        if self.egreedy.decay not in ("constant", "inverse_t"):
            raise ConfigError(f"bad config value egreedy.decay={self.egreedy.decay!r}")
        if not (0.0 <= self.egreedy.epsilon <= 1.0):
            raise ConfigError(f"bad config value egreedy.epsilon={self.egreedy.epsilon}")
        if self.ts.v < 0:
            raise ConfigError(f"bad config value ts.v={self.ts.v}")
        if self.linucb.alpha_explore < 0:
            raise ConfigError(f"bad config value linucb.alpha_explore={self.linucb.alpha_explore}")
        # Module config constructors validate the rest.
        self.learner_config()
        self.exploration_config()
        self.world_config()
        self.detection_config()
        self.als_config()

    def _check_finite(self) -> None:
        """JSON admits NaN and Infinity, and range checks let NaN through,
        so every float value and list entry must be finite."""
        for section in dataclasses.fields(self):
            values = getattr(self, section.name)
            if not dataclasses.is_dataclass(values):
                continue
            for f in dataclasses.fields(values):
                value = getattr(values, f.name)
                items = value if isinstance(value, (list, tuple)) else [value]
                if any(isinstance(x, float) and not math.isfinite(x) for x in items):
                    raise ConfigError(f"bad config value {section.name}.{f.name}={value}; must be finite")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        cfg = cls()
        sections = {f.name: f for f in dataclasses.fields(cls)}
        for name, value in obj.items():
            if name not in sections:
                raise ConfigError(f"unknown config key: {name}")
            if name == "policy":
                if not isinstance(value, str):
                    raise ConfigError(f"bad config value policy={value!r}; expected a string")
                cfg.policy = value
                continue
            section_cls = sections[name].type if isinstance(sections[name].type, type) else type(getattr(cfg, name))
            setattr(cfg, name, _section_from_dict(section_cls, name, value))
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"missing config file: {p}")
        try:
            obj = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
        return cls.from_dict(obj)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _section_from_dict(section_cls: type, section_name: str, obj) -> object:
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {section_name} must be an object")
    fields = {f.name: f for f in dataclasses.fields(section_cls)}
    hints = typing.get_type_hints(section_cls)
    for key, value in obj.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {section_name}.{key}")
        if not _has_type(value, hints[key]):
            raise ConfigError(f"bad config value {section_name}.{key}={value!r}; expected {fields[key].type}")
    return section_cls(**obj)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. bool is an int
    subclass, but true and false are not numbers here."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    return isinstance(value, hint)
