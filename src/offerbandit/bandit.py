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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import read_versioned_jsonl
from .errors import ConfigError
from .features import FEATURE_NAMES, FEATURE_ORDER_VERSION, N_FEATURES

# Probabilities are clamped away from {0, 1} before the logit transform.
LOGIT_CLAMP = 1e-6

DIVERGED = "model weights diverged to non-finite values; learning_rate is too large for the feature scale"


def sigmoid(z: float) -> float:
    """Logistic function, numerically stable for |z| up to 700 and beyond."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def sigmoid_rows(z: np.ndarray) -> np.ndarray:
    """sigmoid of every entry, by the same two stable branches as sigmoid:
    the numerator exp(min(z, 0)) is 1 where z >= 0 and exp(-|z|) below."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


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
    prior_weights: list[float] | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.positive_boost < 1:
            raise ConfigError(f"positive_boost must be >= 1, got {self.positive_boost}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.prior_weights is not None:
            prior = [float(w) for w in self.prior_weights]
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
    w = model.weights
    if cfg.l2_lambda:
        step = step - (cfg.learning_rate * cfg.l2_lambda) * w
    model.weights = w = w + step
    model.update_count += 1
    if not np.isfinite(w).all():
        raise ValueError(DIVERGED)


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
    shares: Mapping[str, float],
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
    weights = renormalize_shares(cats, shares)
    z = 0.0
    for c in cats:
        p = min(max(category_probs[c], LOGIT_CLAMP), 1.0 - LOGIT_CLAMP)
        z += weights[c] * logit(p)
    z += cfg.mf_bias_coeff * mf_score
    return sigmoid(z)


def offer_probabilities(
    category_probs: np.ndarray,
    weights: np.ndarray,
    starts: np.ndarray,
    mf_scores: np.ndarray,
    mf_bias_coeff: float,
) -> np.ndarray:
    """aggregate_offer for every offer of a round at once, given mf_bias_coeff.

    Row r holds one category's probability and its renormalized share
    weights[r]; offer k owns the rows from starts[k] to the next start.
    """
    p = np.minimum(np.maximum(category_probs, LOGIT_CLAMP), 1.0 - LOGIT_CLAMP)
    z = np.add.reduceat(weights * np.log(p / (1.0 - p)), starts)
    z += mf_bias_coeff * mf_scores
    return sigmoid_rows(z)


class ModelStore:
    """Lazily materialized (member, category) logistic models in one array.

    Row r of a growable float64[n_pairs, N_FEATURES] weight matrix and of
    an update-count vector belongs to the pair that a dict maps to r. The
    store holds values: get() returns an independent CategoryModel and
    put() writes one back. A row is taken only by put() or by backfit's
    rows(); reads never materialize a pair, and pairs never seen read as
    the prior.
    """

    def __init__(self, prior_weights: np.ndarray | None = None):
        self.prior = (
            np.zeros(N_FEATURES) if prior_weights is None else np.asarray(prior_weights, dtype=float).copy()
        )
        if self.prior.shape != (N_FEATURES,):
            raise ConfigError(f"prior weights must have {N_FEATURES} entries")
        self._rows: dict[tuple[str, str], int] = {}
        self._W = np.empty((64, N_FEATURES))
        self._counts = np.zeros(64, dtype=np.int64)

    @classmethod
    def from_config(cls, cfg: LearnerConfig) -> "ModelStore":
        return cls(cfg.prior_array())

    def _row(self, key: tuple[str, str]) -> int:
        """The pair's row, taken and set to the prior on first use."""
        row = self._rows.get(key)
        if row is None:
            row = len(self._rows)
            if row == len(self._W):
                self._W = np.concatenate([self._W, np.empty_like(self._W)])
                self._counts = np.concatenate([self._counts, np.zeros_like(self._counts)])
            self._W[row] = self.prior
            self._rows[key] = row
        return row

    def rows(self, member_ids: Sequence[str], category_ids: Sequence[str]) -> np.ndarray:
        """Row of each (member_ids[i], category_ids[i]) pair, materializing
        unseen pairs in order of first appearance."""
        codes: dict[tuple[str, str], int] = {}
        pair = [codes.setdefault(key, len(codes)) for key in zip(member_ids, category_ids)]
        return np.array([self._row(key) for key in codes], dtype=np.intp)[pair]

    def get(self, member_id: str, category_id: str) -> CategoryModel:
        """A copy of the pair's model; the prior with no updates if unseen."""
        row = self._rows.get((member_id, category_id))
        if row is None:
            return CategoryModel(self.prior.copy())
        return CategoryModel(self._W[row].copy(), int(self._counts[row]))

    def put(self, member_id: str, category_id: str, model: CategoryModel) -> None:
        """Write the model into the pair's row, taking the row if unseen."""
        if model.weights.shape != self.prior.shape:
            raise ValueError(f"weights {model.weights.shape} do not match the store's {self.prior.shape}")
        row = self._row((member_id, category_id))
        self._W[row] = model.weights
        self._counts[row] = model.update_count

    def predict(self, member_id: str, category_id: str, x: np.ndarray) -> float:
        return predict_category(self.get(member_id, category_id), x)

    def predict_rows(self, member_id: str, category_ids: Sequence[str], X: np.ndarray) -> np.ndarray:
        """predict() of every row X[r] under the member's model of
        category_ids[r]; unseen pairs read as the prior, unmaterialized."""
        get = self._rows.get
        # Row -1 stands for an unseen pair; its gathered weights become the prior.
        rows = np.array([get((member_id, c), -1) for c in category_ids], dtype=np.intp)
        W = self._W[rows]
        W[rows < 0] = self.prior
        return sigmoid_rows(np.einsum("ij,ij->i", W, X))

    def items_sorted(self) -> list[tuple[tuple[str, str], CategoryModel]]:
        return [(key, self.get(*key)) for key in sorted(self._rows)]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._rows


@dataclass
class TrainingEvents:
    """Labeled observations for backfitting as one columnar batch.

    Event i is row X[i] with label y[i] for the pair (member_ids[i],
    category_ids[i]), observed at t[i]; events are ordered by t.
    """

    t: np.ndarray
    member_ids: list[str]
    category_ids: list[str]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.int64)
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=np.int64)
        n = len(self.t)
        if self.t.ndim != 1 or self.X.ndim != 2 or not (
            len(self.member_ids) == len(self.category_ids) == len(self.X) == len(self.y) == n
        ):
            raise ValueError("training event columns must hold one entry per event")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError(f"label must be 0 or 1, got {sorted(set(self.y.tolist()) - {0, 1})}")

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class BackfitReport:
    """Outcome of a backfit pass.

    holdout_log_loss is the mean prequential log loss over the final 10%
    of events (each scored before its own update); prior_log_loss scores
    the same events with the untouched prior. Both are None when there
    are no events. base_rate_log_loss scores them with a constant, the
    mean label of the first 90%; it is None when there are no events or
    none before the holdout.
    """

    n_events: int
    n_updates: int
    holdout_size: int
    holdout_log_loss: float | None
    prior_log_loss: float | None
    base_rate_log_loss: float | None
    empty: bool = False


def _log_loss_rows(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.where(y == 1, -np.log(p), -np.log(1.0 - p))


def _waves(rows: np.ndarray) -> list[np.ndarray]:
    """Event indices by wave: wave k holds the k-th event of every row, in
    event order, so no row appears twice in a wave."""
    n = len(rows)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1]])
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    return np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])


def backfit(store: ModelStore, events: TrainingEvents, cfg: LearnerConfig) -> BackfitReport:
    """Train the store on historical events with the sgd_update step.

    Events must be sorted by t ascending. Updates to different pairs
    commute, so the events go in waves: wave k applies the k-th event of
    every pair at once, and each pair still sees its events in order.
    """
    n = len(events)
    if n == 0:
        return BackfitReport(0, 0, 0, None, None, None, empty=True)
    if np.any(events.t[1:] < events.t[:-1]):
        raise ValueError("backfit events must be sorted by t ascending")
    X, y = events.X, events.y
    if X.shape[1] != store.prior.size:
        raise ValueError(f"feature dim {X.shape[1]} does not match weights {store.prior.shape}")
    rows = store.rows(events.member_ids, events.category_ids)
    W, counts = store._W, store._counts
    decay = cfg.learning_rate * cfg.l2_lambda
    p = np.empty(n)
    for wave in _waves(rows):
        r, x, y_k = rows[wave], X[wave], y[wave]
        w = W[r]
        p_k = p[wave] = sigmoid_rows(np.einsum("ij,ij->i", w, x))
        step = (cfg.learning_rate * (y_k - p_k))[:, None] * x
        step[y_k == 1] *= cfg.positive_boost
        if cfg.l2_lambda:
            step -= decay * w
        w += step
        if not np.isfinite(w).all():
            raise ValueError(DIVERGED)
        W[r] = w
        counts[r] += 1
    cut = (9 * n) // 10
    y_tail = y[cut:]
    base_rate = float(_log_loss_rows(np.full(len(y_tail), y[:cut].mean()), y_tail).mean()) if cut else None
    return BackfitReport(
        n_events=n,
        n_updates=n,
        holdout_size=len(y_tail),
        holdout_log_loss=float(_log_loss_rows(p[cut:], y_tail).mean()),
        prior_log_loss=float(_log_loss_rows(sigmoid_rows(X[cut:] @ store.prior), y_tail).mean()),
        base_rate_log_loss=base_rate,
    )


def finite_weights(values: list) -> list:
    """A weight list read from a file, returned as is. Raises ValueError or
    TypeError unless it holds N_FEATURES finite numbers."""
    if len(values) != N_FEATURES or not all(map(math.isfinite, values)):
        raise ValueError(f"weights must be {N_FEATURES} finite numbers, got {values!r}")
    return values


def json_count(value, name: str) -> int:
    """A count read from a file, returned as is. Raises ValueError unless
    it is a JSON integer in the store's int64 range [0, 2**63); booleans
    are not counts."""
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"{name} must be a non-negative integer below 2**63, got {value!r}")
    return value


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
    keys = sorted(store._rows)
    rows = [store._rows[key] for key in keys]
    # Each line equals json.dumps of the row's dict with sort_keys=True,
    # which writes floats with float.__repr__.
    lines = (
        f'{{"category_id": {json.dumps(category)}, "member_id": {json.dumps(member)}, '
        f'"update_count": {count}, "weights": [{", ".join(map(float.__repr__, weights))}]}}\n'
        for (member, category), weights, count in zip(
            keys, store._W[rows].tolist(), store._counts[rows].tolist()
        )
    )
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines(lines)


def load_checkpoint(path: str | Path) -> tuple[ModelStore, dict]:
    """Read a checkpoint written by save_checkpoint.

    Raises ConfigError naming the file and line when the feature order
    version differs, a line is malformed, the prior or a model's weights
    are not N_FEATURES finite numbers, n_models or an update_count is not
    a non-negative JSON integer, or the model rows do not match the
    header's n_models.
    """
    store = ModelStore()

    def start(header: dict) -> None:
        nonlocal store
        json_count(header["n_models"], "n_models")
        store = ModelStore(finite_weights(header["prior_weights"]))

    def add(obj: dict) -> None:
        key = (obj["member_id"], obj["category_id"])
        if key in store:
            raise ValueError(f"duplicate model {key}")
        count = json_count(obj["update_count"], "update_count")
        store.put(*key, CategoryModel(finite_weights(obj["weights"]), count))

    header = read_versioned_jsonl(path, "checkpoint", FEATURE_ORDER_VERSION, add, start)
    if len(store) != header["n_models"]:
        raise ConfigError(f"checkpoint {path} line 1: n_models is {header['n_models']} but {len(store)} model rows follow")
    return store, header
