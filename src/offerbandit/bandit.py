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

import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import MAX_INPUT_MAGNITUDE, read_state_file, write_state_file
from .errors import ConfigError, bounded, check_fields
from .features import FEATURE_NAMES, FEATURE_ORDER_VERSION, N_FEATURES, RoundBatch

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


@dataclass
class LearnerConfig:
    """Hyperparameters of the per-category SGD learner.

    learning_rate and positive_boost defaults are working values, not tuned
    optima. l2_lambda=0 disables weight decay; when positive it adds
    -learning_rate * l2_lambda * w to every step.
    """

    learning_rate: float = bounded(0.05, lo=0, open=True)
    positive_boost: float = bounded(2.0, lo=1)
    mf_bias_coeff: float = bounded(1.0, lo=-MAX_INPUT_MAGNITUDE, hi=MAX_INPUT_MAGNITUDE)
    l2_lambda: float = bounded(0.0, lo=0)
    prior_weights: list[float] | None = None

    def __post_init__(self) -> None:
        if self.prior_weights is not None:
            self.prior_weights = [float(w) for w in self.prior_weights]
        check_fields(self)

    def rules(self) -> tuple:
        prior, decay = self.prior_weights, self.learning_rate * self.l2_lambda
        finite = prior is None or (len(prior) == N_FEATURES and all(map(math.isfinite, prior)))
        # Each step scales the weights by 1 - learning_rate * l2_lambda: at a
        # product of 2 that factor reaches -1, and past it the decay alone
        # grows the weights.
        return ((finite, ("prior_weights",), f"{N_FEATURES} finite numbers", prior),
                (decay < 2, ("learning_rate", "l2_lambda"), "< 2", decay))

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


def sgd_step(w: np.ndarray, x: np.ndarray, y: int, cfg: LearnerConfig) -> np.ndarray:
    """The weights w after one gradient step on the log loss for
    observation (x, y), as a new array.

    The y=1 step is exactly positive_boost times the plain gradient step;
    the y=0 step is unboosted. Raises if the new weights leave the finite
    range (learning rate too large for the feature scale).
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    p = sigmoid(float(w @ x))
    step = (cfg.learning_rate * (y - p)) * x
    if y == 1:
        step = cfg.positive_boost * step
    if cfg.l2_lambda:
        step = step - (cfg.learning_rate * cfg.l2_lambda) * w
    w = w + step
    if not np.isfinite(w).all():
        raise ValueError(DIVERGED)
    return w


def sgd_update(model: CategoryModel, x: np.ndarray, y: int, cfg: LearnerConfig) -> None:
    """One sgd_step of the model for observation (x, y), counted; the
    model is left as it was when the step raises."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(f"feature dim {x.shape} does not match weights {model.weights.shape}")
    model.weights = sgd_step(model.weights, x, y, cfg)
    model.update_count += 1


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
    put() writes one back; update() steps a pair's row in place, and
    train() steps the rows of a block of events in waves. A row is taken
    only by put(), update() or rows(), and load_checkpoint builds a whole
    store; reads never materialize a pair, and pairs never seen read as
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

    def rows(self, member_ids: Iterable[str], category_ids: Iterable[str]) -> np.ndarray:
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

    def update(self, member_id: str, category_id: str, x: np.ndarray, y: int, cfg: LearnerConfig) -> tuple[np.ndarray, int]:
        """One sgd_step of the pair's model, written straight to its row
        (taken if unseen) once the step has passed its divergence check.
        Returns the new weights, an array the store does not hold, and the
        pair's update count."""
        key = (member_id, category_id)
        row = self._rows.get(key)
        w = sgd_step(self.prior if row is None else self._W[row], x, y, cfg)
        if row is None:
            row = self._row(key)
        self._W[row] = w
        count = int(self._counts[row]) + 1
        self._counts[row] = count
        return w, count

    def predict(self, member_id: str, category_id: str, x: np.ndarray) -> float:
        return predict_category(self.get(member_id, category_id), x)

    def predict_rows(self, member_id: str, category_ids: Sequence[str], X: np.ndarray) -> np.ndarray:
        """predict() of every row X[r] under the member's model of
        category_ids[r]; unseen pairs read as the prior, unmaterialized."""
        get = self._rows.get
        # Row -1 stands for an unseen pair; its gathered weights become the prior.
        rows = [get((member_id, c), -1) for c in category_ids]
        W = self._W.take(rows, axis=0)
        if -1 in rows:
            W[np.array(rows) < 0] = self.prior
        return sigmoid_rows(np.einsum("ij,ij->i", W, X))

    def predict_at(self, at: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Each row X[i] predicted under row at[i]'s weights, or under the
        prior where at[i] is -1 (an unseen pair, as find() gives it): the
        rows of many members in one gather."""
        W = self._W.take(at, axis=0)
        W[at < 0] = self.prior
        return sigmoid_rows(np.einsum("ij,ij->i", W, X))

    def train(self, rows: np.ndarray, X: np.ndarray, y: np.ndarray, cfg: LearnerConfig,
              history: bool = False) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Apply the events (rows[e], X[e], y[e]) in event order with the
        sgd_update step; rows are rows() of the events' pairs and y holds
        0/1 labels.

        Updates to different pairs commute, so the events go in waves: wave
        k applies the k-th event of every pair at once, and each pair still
        sees its events in order. Returns each event's probability before
        its own step and, with history, each event's weights and update
        count after it (else None for both). Raises ValueError(DIVERGED),
        leaving the earlier waves applied, when a wave's weights are not
        finite.
        """
        W, counts = self._W, self._counts
        decay = cfg.learning_rate * cfg.l2_lambda
        p = np.empty(len(rows))
        W_after = np.empty((len(rows), N_FEATURES)) if history else None
        n_after = np.empty(len(rows), dtype=np.int64) if history else None
        # A diverging step overflows; the finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
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
                if history:
                    W_after[wave] = w
                    n_after[wave] = counts[r]
        return p, W_after, n_after

    def find(self, member_ids: Iterable[str], category_ids: Iterable[str]) -> np.ndarray:
        """Row of each (member_ids[i], category_ids[i]) pair, -1 where the
        pair has none; nothing is materialized."""
        get = self._rows.get
        return np.array([get(key, -1) for key in zip(member_ids, category_ids)], dtype=np.intp)

    def train_as_of(self, rows: np.ndarray, X: np.ndarray, y: np.ndarray, when: np.ndarray, at: np.ndarray,
                    X_at: np.ndarray, at_when: np.ndarray, cfg: LearnerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """train() the events with history, then predict each row X_at[i]
        under row at[i]'s weights as they stood before at_when[i].

        Event e happens at time when[e], which never falls as e rises; at
        holds rows or -1 (an unseen pair, read as the prior). Each X_at[i]
        is predicted under row at[i]'s starting weights before training,
        and again after it where the row has an event with when <
        at_when[i], under the weights after the last such event (a
        searchsorted over (row, when) keys). Returns the predictions, then
        each event's weights and update count after its step.
        """
        p = self.predict_at(at, X_at)
        _, W_after, n_after = self.train(rows, X, y, cfg, history=True)
        # Events sorted by row, each row's in event order, so by (row, when).
        order = np.argsort(rows, kind="stable")
        span = int(max(when[-1], at_when.max(initial=0))) + 1 if len(rows) else 1
        keys = rows[order] * span + when[order]
        j = np.searchsorted(keys, at * span + at_when) - 1
        seen = j >= 0
        seen[seen] = rows[order[j[seen]]] == at[seen]
        p[seen] = sigmoid_rows(np.einsum("ij,ij->i", W_after[order[j[seen]]], X_at[seen]))
        return p, W_after, n_after

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._rows


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


def backfit(store: ModelStore, batch: RoundBatch, y: np.ndarray, cfg: LearnerConfig) -> BackfitReport:
    """Train the store on a scaled batch with ModelStore.train.

    Row r is one event with the 0/1 label y[r] for the pair of its
    round's member and its own category; events go in row order.
    """
    n = len(y)
    if n == 0:
        return BackfitReport(0, 0, 0, None, None, None, empty=True)
    X = batch.X
    per_round = np.diff(batch.row_bounds).tolist()
    rows = store.rows(chain.from_iterable(map(repeat, batch.members, per_round)), batch.categories)
    p = store.train(rows, X, y, cfg)[0]
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


def save_checkpoint(path: str | Path, store: ModelStore, cfg: LearnerConfig) -> None:
    """Write the store as a state file: a header line, then one model per
    line, in pair order. Raises ValueError, naming the pair, when a
    model's weights are not finite, which load_checkpoint would reject;
    so too for the prior."""
    keys = sorted(store._rows)
    rows = [store._rows[key] for key in keys]
    W = store._W[rows]
    finite = np.isfinite(W).all(axis=1)
    if not finite.all():
        raise ValueError(f"model {keys[int(finite.argmin())]} has weights that are not finite")
    if not np.isfinite(store.prior).all():
        raise ValueError("the prior weights are not finite")
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
    write_state_file(path, header, keys, range(len(keys)), store._counts[rows].tolist(), W.tolist())


def load_checkpoint(path: str | Path) -> tuple[ModelStore, dict]:
    """Read a checkpoint written by save_checkpoint, its rows checked and
    stored as whole columns.

    Raises ConfigError naming the file and the first faulty line when the
    feature order version differs, a line is malformed, the prior or a
    model's weights are not N_FEATURES finite numbers (booleans are not
    numbers), a member_id or category_id is not a non-empty string,
    n_models or an update_count is not a non-negative JSON integer, a
    pair repeats, or the model rows do not match the header's n_models.
    """

    def repeated_pair(members: list, categories: list, *_) -> tuple[int, str] | None:
        seen: set = set()
        for row, key in enumerate(zip(members, categories)):
            if key in seen:
                return row, f"duplicate model {key}"
            seen.add(key)

    def build(n_models: int, prior: list, members: list, categories: list, counts: list, weights: list) -> ModelStore:
        store = ModelStore(prior)
        store._rows = dict(zip(zip(members, categories), range(len(members))))
        if members:
            store._W, store._counts = np.array(weights, dtype=float), np.array(counts, dtype=np.int64)
        return store

    fields = ("member_id", "category_id", "update_count", "weights")
    header, store = read_state_file(path, "checkpoint", FEATURE_ORDER_VERSION, N_FEATURES, fields, repeated_pair,
                                    build, header_fields=("n_models", "prior_weights"))
    if len(store) != header["n_models"]:
        raise ConfigError(f"checkpoint {path} line 1: n_models is {header['n_models']} but {len(store)} model rows follow")
    return store, header
