"""Selection policies behind a single interface.

The harness talks to every policy the same way: select() ranks one round's
offers, given as an OfferRound of arrays, without mutating model state;
update() folds in the observed reward for one offer, given as an
OfferCandidate. The category-level bandit (policy key "camb") works on
per-category contexts; the baselines score the flattened offer-level
vector, which is the purchase-share weighted average of the offer's
category contexts.

Baselines:
    linucb   shared-parameter LinUCB: ridge point estimate plus an
             alpha-scaled confidence-width bonus per offer
    ts       Gaussian linear Thompson sampling: one posterior draw of the
             weight vector per round, offers ranked by sampled score
    egreedy  epsilon-greedy around an online logistic model, with optional
             1/t epsilon decay
    random   uniform random ranking, the no-learning control
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .bandit import CategoryModel, LearnerConfig, ModelStore, offer_probabilities, sgd_update, sigmoid_rows
from .errors import ConfigError, bounded, check_fields
from .exploration import ExplorationConfig, kappa_at, sample_beta
from .features import N_FEATURES

EPSILON_DECAYS = ("constant", "inverse_t")


# The linucb, ts and egreedy config keys; each policy's constructor checks
# its arguments against its section's ranges.
@dataclass
class LinUCBSection:
    alpha_explore: float = bounded(1.0, lo=0)
    l2_lambda: float = bounded(1.0, lo=0, open=True)


@dataclass
class TSSection:
    v: float = bounded(0.25, lo=0)
    l2_lambda: float = bounded(1.0, lo=0, open=True)


@dataclass
class EGreedySection:
    epsilon: float = bounded(0.1, lo=0, hi=1)
    decay: str = bounded("constant", choices=EPSILON_DECAYS)


@dataclass
class OfferCandidate:
    """Everything a policy may look at for one offer in one round.

    category_vectors hold the normalized context per offer category;
    offer_vector is their purchase-share weighted average. true_p is only
    set by synthetic worlds and is read by nothing except the oracle
    policy and the metrics.
    """

    offer_id: str
    member_id: str
    category_vectors: dict[str, np.ndarray]
    shares: dict[str, float]
    mf_score: float
    offer_vector: np.ndarray
    true_p: float | None = None


@dataclass
class Ranking:
    """Ranked offer ids plus the scores that produced the order.

    scores are the policy's deterministic scores; sampled are the
    randomized scores actually used for ordering, when the policy
    randomizes (None otherwise).
    """

    order: list[str]
    scores: dict[str, float]
    sampled: dict[str, float] | None = None

    @property
    def top(self) -> str:
        return self.order[0]


@dataclass
class OfferRound:
    """One round's offers as arrays, the form every policy's select takes.

    Offer k is offer_ids[k] and owns the scaled rows of X from starts[k]
    to the next offer's start, row r of category categories[r].
    weights[r] is row r's share of its offer (the member's purchase
    shares renormalized over the offer's categories) and offer_vectors[k]
    is the share-weighted sum of offer k's rows. by_id lists the offer
    indices in sorted offer-id order. true_p is set only by synthetic
    worlds. len() is the number of offers; candidate(k) builds offer k's
    OfferCandidate for update().
    """

    offer_ids: list[str]
    categories: list[str]
    X: np.ndarray
    starts: np.ndarray
    member_id: str
    weights: np.ndarray
    offer_vectors: np.ndarray
    mf_scores: np.ndarray
    by_id: list[int]
    true_p: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.offer_ids)

    def sorted_ids(self) -> list[str]:
        ids = self.offer_ids
        return [ids[k] for k in self.by_id]

    def candidate(self, k: int) -> OfferCandidate:
        end = self.starts[k + 1] if k + 1 < len(self.starts) else len(self.categories)
        rows = slice(self.starts[k], end)
        cats = self.categories[rows]
        return OfferCandidate(
            self.offer_ids[k],
            self.member_id,
            dict(zip(cats, self.X[rows])),
            dict(zip(cats, self.weights[rows].tolist())),
            float(self.mf_scores[k]),
            self.offer_vectors[k],
            None if self.true_p is None else float(self.true_p[k]),
        )

    def ranking(self, scores: list[float], sampled: list[float] | None = None) -> Ranking:
        """Offers by descending sampled score (point score when sampled is
        None), ties in offer-id order: a stable sort over by_id. Scores
        hold one float per offer, in offer order."""
        ids = self.offer_ids
        key = scores if sampled is None else sampled
        if math.isnan(sum(key)):
            # NaN ranks last, where a stable numpy sort of -key puts it.
            order = sorted(self.by_id, key=lambda k: (key[k] != key[k], -key[k]))
        else:
            order = sorted(self.by_id, key=key.__getitem__, reverse=True)  # reverse keeps ties stable
        return Ranking(
            order=[ids[k] for k in order],
            scores=dict(zip(ids, scores)),
            sampled=None if sampled is None else dict(zip(ids, sampled)),
        )


# (member_id, category_id, weights copy, update_count) emitted per update,
# consumed by the weight-trajectory recorder.
ModelDelta = tuple[str, str, np.ndarray, int]


class Policy(Protocol):
    name: str

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        """Rank the round's offers for round t (1-based). Must not mutate state."""
        ...

    def update(self, candidate: OfferCandidate, reward: int) -> list[ModelDelta]:
        """Fold in the observed reward for one offer."""
        ...


class CambPolicy:
    """Category-level contextual bandit with Beta-sampled exploration.

    Per offer: predict a clip probability from each of the offer's
    (member, category) models, aggregate to an offer-level probability,
    then rank by a Beta(kappa*p, kappa*(1-p)) draw with kappa following
    the configured schedule. select scores the whole round as arrays.
    """

    name = "camb"

    def __init__(self, store: ModelStore, learner: LearnerConfig, exploration: ExplorationConfig):
        self.store = store
        self.learner = learner
        self.exploration = exploration

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        category_probs = self.store.predict_rows(offers.member_id, offers.categories, offers.X)
        probs = offer_probabilities(
            category_probs, offers.weights, offers.starts, offers.mf_scores, self.learner.mf_bias_coeff
        ).tolist()
        kappa = kappa_at(t - 1, self.exploration)
        # Drawn in sorted offer-id order, the order sample_scores uses.
        draws = sample_beta([probs[k] for k in offers.by_id], kappa, rng, self.exploration.probability_clamp)
        sampled = probs.copy()
        for k, draw in zip(offers.by_id, draws):
            sampled[k] = draw
        return offers.ranking(probs, sampled)

    def update(self, candidate: OfferCandidate, reward: int) -> list[ModelDelta]:
        member, vectors = candidate.member_id, candidate.category_vectors
        return [
            (member, category, *self.store.update(member, category, vectors[category], reward, self.learner))
            for category in sorted(vectors)
        ]


class RidgeStats:
    """Ridge-regression sufficient statistics over offer-level vectors.

    A = l2_lambda * I + sum(x x^T) and b = sum(r x), so theta = A^-1 b is
    the ridge point estimate. LinUCB and linear Thompson sampling keep
    exactly these statistics and share this update; they check l2_lambda.
    """

    def __init__(self, l2_lambda: float, dim: int):
        self.A = l2_lambda * np.eye(dim)
        self.b = np.zeros(dim)

    def theta(self) -> np.ndarray:
        return np.linalg.solve(self.A, self.b)

    def update(self, candidate: OfferCandidate, reward: int) -> list[ModelDelta]:
        x = candidate.offer_vector
        self.A += np.outer(x, x)
        self.b += reward * x
        return []


class LinUCBPolicy(RidgeStats):
    """Shared-parameter LinUCB on offer-level vectors.

    Scores are x . theta_hat + alpha_explore * sqrt(x^T A^-1 x).
    """

    name = "linucb"

    def __init__(self, alpha_explore: float = LinUCBSection.alpha_explore, l2_lambda: float = LinUCBSection.l2_lambda,
                 dim: int = N_FEATURES):
        check_fields(LinUCBSection(alpha_explore, l2_lambda))
        super().__init__(l2_lambda, dim)
        self.alpha_explore = alpha_explore

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Score of every row of X; all widths come from one solve."""
        widths = np.einsum("ij,ji->i", X, np.linalg.solve(self.A, X.T))
        return X @ self.theta() + self.alpha_explore * np.sqrt(widths)

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        return offers.ranking(self.scores(offers.offer_vectors).tolist())


class ThompsonPolicy(RidgeStats):
    """Gaussian linear Thompson sampling on offer-level vectors.

    Posterior N(mu, v^2 A^-1) with mu = theta = A^-1 b. One weight draw
    per round ranks all candidates; v=0 degenerates to the deterministic
    posterior-mean ranking.
    """

    name = "ts"

    def __init__(self, v: float = TSSection.v, l2_lambda: float = TSSection.l2_lambda, dim: int = N_FEATURES):
        check_fields(TSSection(v, l2_lambda))
        super().__init__(l2_lambda, dim)
        self.v = v

    def posterior_mean(self) -> np.ndarray:
        return self.theta()

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        mu = self.posterior_mean()
        if self.v == 0:
            theta = mu
        else:
            # theta = mu + v * L^-T z has covariance v^2 A^-1 for A = L L^T.
            L = np.linalg.cholesky(self.A)
            z = rng.standard_normal(len(mu))
            theta = mu + self.v * np.linalg.solve(L.T, z)
        X = offers.offer_vectors
        return offers.ranking((X @ mu).tolist(), (X @ theta).tolist())


class EpsilonGreedyPolicy:
    """Epsilon-greedy around one shared online logistic model.

    With probability epsilon_t the round's ranking is a uniformly random
    permutation; otherwise offers are ranked by the model's predicted
    probability. decay="inverse_t" uses epsilon_0 / t (t >= 1).
    """

    name = "egreedy"

    def __init__(self, epsilon: float = EGreedySection.epsilon, decay: str = EGreedySection.decay,
                 learner: LearnerConfig | None = None):
        check_fields(EGreedySection(epsilon, decay))
        self.epsilon = epsilon
        self.decay = decay
        self.learner = learner or LearnerConfig()
        self.model = CategoryModel(self.learner.prior_array())

    def epsilon_at(self, t: int) -> float:
        if self.decay == "constant":
            return self.epsilon
        if t < 1:
            raise ValueError(f"inverse_t decay needs t >= 1, got {t}")
        return self.epsilon / t

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        scores = sigmoid_rows(offers.offer_vectors @ self.model.weights)
        if rng.random() < self.epsilon_at(t):
            ids = offers.sorted_ids()
            order = [ids[i] for i in rng.permutation(len(ids))]
            return Ranking(order=order, scores=dict(zip(offers.offer_ids, scores.tolist())))
        return offers.ranking(scores.tolist())

    def update(self, candidate: OfferCandidate, reward: int) -> list[ModelDelta]:
        sgd_update(self.model, candidate.offer_vector, reward, self.learner)
        return []


class RandomPolicy:
    """Uniform random ranking; the sanity floor for every comparison."""

    name = "random"

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        ids = offers.sorted_ids()
        order = [ids[i] for i in rng.permutation(len(ids))]
        return Ranking(order=order, scores={oid: 0.0 for oid in ids})

    def update(self, candidate: OfferCandidate, reward: int) -> list[ModelDelta]:
        return []


POLICY_NAMES = ("camb", "linucb", "ts", "egreedy", "random")


def make_policy(
    name: str,
    learner: LearnerConfig,
    exploration: ExplorationConfig,
    *,
    store: ModelStore | None = None,
    alpha_explore: float = LinUCBSection.alpha_explore,
    linucb_l2: float = LinUCBSection.l2_lambda,
    ts_v: float = TSSection.v,
    ts_l2: float = TSSection.l2_lambda,
    epsilon: float = EGreedySection.epsilon,
    epsilon_decay: str = EGreedySection.decay,
) -> Policy:
    if name == "camb":
        # `store or ...` would drop an empty store (ModelStore defines len).
        if store is None:
            store = ModelStore.from_config(learner)
        return CambPolicy(store, learner, exploration)
    if name == "linucb":
        return LinUCBPolicy(alpha_explore=alpha_explore, l2_lambda=linucb_l2)
    if name == "ts":
        return ThompsonPolicy(v=ts_v, l2_lambda=ts_l2)
    if name == "egreedy":
        return EpsilonGreedyPolicy(epsilon=epsilon, decay=epsilon_decay, learner=learner)
    if name == "random":
        return RandomPolicy()
    raise ConfigError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
