"""Per-category online logistic models and offer-level aggregation.

Each (member, category) pair owns an independent logistic model over the
canonical context features. Models learn by plain SGD on the log loss with
one twist: positive (clip) updates are scaled by a boost factor >= 1 so the
learner reacts faster to the rare positive signal. Offer-level clip
probabilities combine the member's category probabilities on the logit
scale, weighted by the member's purchase shares, plus a fixed-coefficient
matrix-factorization bias.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .features import FEATURE_NAMES, FEATURE_ORDER_VERSION, N_FEATURES

# Probabilities are clamped away from {0, 1} before the logit transform.
LOGIT_CLAMP = 1e-6


def sigmoid(z: float) -> float:
    """Logistic function, numerically stable for |z| up to 700 and beyond."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def log_loss(p: float, y: int) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -math.log(p) if y == 1 else -math.log(1.0 - p)


@dataclass
class LearnerConfig:
    """Hyperparameters of the per-category SGD learner.

    learning_rate and positive_boost defaults are working values, not tuned
    optima. l2_lambda=0 disables weight decay; when positive it adds
    -learning_rate * l2_lambda * w to every step.
    """

    learning_rate: float = 0.05
    positive_boost: float = 2.0
    mf_bias_coeff: float = 1.0
    l2_lambda: float = 0.0
    prior_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.positive_boost < 1:
            raise ConfigError(f"positive_boost must be >= 1, got {self.positive_boost}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.prior_weights is not None:
            prior = tuple(float(w) for w in self.prior_weights)
            if len(prior) != N_FEATURES or not all(map(math.isfinite, prior)):
                raise ConfigError(f"prior_weights must be {N_FEATURES} finite numbers, got {prior}")
            self.prior_weights = prior

    def prior_array(self) -> np.ndarray:
        if self.prior_weights is None:
            return np.zeros(N_FEATURES)
        return np.asarray(self.prior_weights, dtype=float)


@dataclass
class CategoryModel:
    """Weights and update count for one (member, category) logistic model."""

    weights: np.ndarray
    update_count: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")


def predict_category(model: CategoryModel, x: np.ndarray) -> float:
    """Clip probability sigmoid(w . x); raises on dimension mismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(f"feature dim {x.shape} does not match weights {model.weights.shape}")
    return sigmoid(float(model.weights @ x))


def sgd_update(model: CategoryModel, x: np.ndarray, y: int, cfg: LearnerConfig) -> None:
    """One gradient step on the log loss for observation (x, y).

    The y=1 step is exactly positive_boost times the plain gradient step;
    the y=0 step is unboosted. Raises if the weights leave the finite range
    (learning rate too large for the feature scale).
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    x = np.asarray(x, dtype=float)
    p = predict_category(model, x)
    step = (cfg.learning_rate * (y - p)) * x
    if y == 1:
        step = cfg.positive_boost * step
    if cfg.l2_lambda:
        step = step - (cfg.learning_rate * cfg.l2_lambda) * model.weights
    model.weights = model.weights + step
    model.update_count += 1
    if not np.all(np.isfinite(model.weights)):
        raise ValueError(
            "model weights diverged to non-finite values; "
            "learning_rate is too large for the feature scale"
        )


def renormalize_shares(categories: Sequence[str], shares: Mapping[str, float]) -> dict[str, float]:
    """Restrict purchase shares to the given categories and renormalize.

    Falls back to uniform weights when the member has no purchase history
    in any of them.
    """
    raw = {c: max(shares.get(c, 0.0), 0.0) for c in categories}
    total = sum(raw.values())
    if total <= 0:
        return {c: 1.0 / len(categories) for c in categories}
    return {c: v / total for c, v in raw.items()}


def aggregate_offer(
    category_probs: Mapping[str, float],
    purchase_shares: Mapping[str, float],
    mf_score: float,
    cfg: LearnerConfig,
) -> float:
    """Offer-level clip probability from per-category probabilities.

    Combines logits weighted by the member's (renormalized) purchase
    shares, adds mf_bias_coeff * mf_score, and maps back through the
    sigmoid. Probabilities are clamped to [1e-6, 1 - 1e-6] first.
    """
    if not category_probs:
        raise ValueError("aggregate_offer needs at least one category probability")
    cats = sorted(category_probs)
    weights = renormalize_shares(cats, purchase_shares)
    z = 0.0
    for c in cats:
        p = min(max(category_probs[c], LOGIT_CLAMP), 1.0 - LOGIT_CLAMP)
        z += weights[c] * logit(p)
    z += cfg.mf_bias_coeff * mf_score
    return sigmoid(z)


class ModelStore:
    """Lazily materialized map of (member, category) -> CategoryModel.

    Pairs never seen before read as the prior; the model object is only
    created when the pair takes its first update (or is fetched with
    get()). Reads never change what any pair would predict.
    """

    def __init__(self, prior_weights: np.ndarray | None = None, n_features: int = N_FEATURES):
        self.prior = (
            np.zeros(n_features) if prior_weights is None else np.asarray(prior_weights, dtype=float).copy()
        )
        if self.prior.shape != (n_features,):
            raise ConfigError(f"prior weights must have {n_features} entries")
        self._models: dict[tuple[str, str], CategoryModel] = {}

    @classmethod
    def from_config(cls, cfg: LearnerConfig) -> "ModelStore":
        return cls(cfg.prior_array())

    def get(self, member_id: str, category_id: str) -> CategoryModel:
        key = (member_id, category_id)
        model = self._models.get(key)
        if model is None:
            model = CategoryModel(self.prior.copy())
            self._models[key] = model
        return model

    def weights_for(self, member_id: str, category_id: str) -> np.ndarray:
        """Current weights without materializing the pair. Do not mutate."""
        model = self._models.get((member_id, category_id))
        return self.prior if model is None else model.weights

    def predict(self, member_id: str, category_id: str, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        w = self.weights_for(member_id, category_id)
        if x.shape != w.shape:
            raise ValueError(f"feature dim {x.shape} does not match weights {w.shape}")
        return sigmoid(float(w @ x))

    def items_sorted(self) -> list[tuple[tuple[str, str], CategoryModel]]:
        return sorted(self._models.items())

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._models


@dataclass(frozen=True)
class TrainingEvent:
    """One labeled observation for backfitting, ordered by t."""

    t: int
    member_id: str
    category_id: str
    x: np.ndarray
    y: int


@dataclass
class BackfitReport:
    """Outcome of a backfit pass.

    holdout_log_loss is the mean prequential log loss over the final 10%
    of events (each scored before its own update); prior_log_loss scores
    the same events with the untouched prior. Both are None when the
    holdout tail is empty.
    """

    n_events: int
    n_updates: int
    holdout_size: int
    holdout_log_loss: float | None
    prior_log_loss: float | None
    empty: bool = False


def backfit(store: ModelStore, events: Sequence[TrainingEvent], cfg: LearnerConfig) -> BackfitReport:
    """Replay historical events through sgd_update in time order.

    The store starts from its priors and sees every event. Events must be
    sorted by t ascending.
    """
    n = len(events)
    if n == 0:
        return BackfitReport(0, 0, 0, None, None, empty=True)
    for a, b in zip(events, events[1:]):
        if b.t < a.t:
            raise ValueError("backfit events must be sorted by t ascending")
    tail_start = (9 * n) // 10
    prior_model = CategoryModel(store.prior.copy())
    model_losses: list[float] = []
    prior_losses: list[float] = []
    for i, ev in enumerate(events):
        p = store.predict(ev.member_id, ev.category_id, ev.x)
        if i >= tail_start:
            model_losses.append(log_loss(p, ev.y))
            prior_losses.append(log_loss(predict_category(prior_model, ev.x), ev.y))
        sgd_update(store.get(ev.member_id, ev.category_id), ev.x, ev.y, cfg)
    holdout = len(model_losses)
    return BackfitReport(
        n_events=n,
        n_updates=n,
        holdout_size=holdout,
        holdout_log_loss=sum(model_losses) / holdout if holdout else None,
        prior_log_loss=sum(prior_losses) / holdout if holdout else None,
    )


def finite_weights(values: list) -> list:
    """A weight list read from a file, returned as is. Raises ValueError or
    TypeError unless it holds N_FEATURES finite numbers."""
    if len(values) != N_FEATURES or not all(map(math.isfinite, values)):
        raise ValueError(f"weights must be {N_FEATURES} finite numbers, got {values!r}")
    return values


def save_checkpoint(path: str | Path, store: ModelStore, cfg: LearnerConfig) -> None:
    """Write the store as JSONL: a header line, then one model per line."""
    header = {
        "feature_names": list(FEATURE_NAMES),
        "feature_order_version": FEATURE_ORDER_VERSION,
        "learning_rate": cfg.learning_rate,
        "positive_boost": cfg.positive_boost,
        "mf_bias_coeff": cfg.mf_bias_coeff,
        "l2_lambda": cfg.l2_lambda,
        "prior_weights": [float(w) for w in store.prior],
        "n_models": len(store),
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for (member, category), model in store.items_sorted():
            fh.write(
                json.dumps(
                    {
                        "member_id": member,
                        "category_id": category,
                        "weights": [float(w) for w in model.weights],
                        "update_count": model.update_count,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_checkpoint(path: str | Path) -> tuple[ModelStore, dict]:
    """Read a checkpoint written by save_checkpoint.

    Raises ConfigError naming the file and line when the feature order
    version differs, a line is malformed, the prior or a model's weights
    are not N_FEATURES finite numbers, or the model rows do not match the
    header's n_models.
    """
    with Path(path).open(encoding="utf-8") as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            if header.get("feature_order_version") != FEATURE_ORDER_VERSION:
                raise ValueError(
                    f"checkpoint feature order version {header.get('feature_order_version')} "
                    f"does not match current version {FEATURE_ORDER_VERSION}"
                )
            n_models = int(header["n_models"])
            store = ModelStore(finite_weights(header["prior_weights"]))
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                key = (obj["member_id"], obj["category_id"])
                if key in store:
                    raise ValueError(f"duplicate model {key}")
                model = store.get(*key)
                model.weights = np.asarray(finite_weights(obj["weights"]), dtype=float)
                model.update_count = int(obj["update_count"])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"checkpoint {path} line {lineno}: {reason}") from None
    if len(store) != n_models:
        raise ConfigError(f"checkpoint {path} line 1: n_models is {n_models} but {len(store)} model rows follow")
    return store, header
