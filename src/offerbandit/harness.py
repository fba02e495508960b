"""Evaluation harness: simulated rounds, offline replay and metrics.

Both entry points scale their rounds as batches and build every round's
offers once per batch (offer_rounds), then drive the same round loop:
let the policy rank the round's offers, observe a reward, update the
policy, log the round. Only the work that reads or changes what the
policy has learned runs round by round. camb ranks more at once, with
the same results, because its models are per (member, category) pair:
in simulation it scores each segment, a maximal run of rounds with
distinct members, before the segment's first update, since no update
in a segment changes another of its rounds' scores; in replay its
updates do not depend on its choices, so it trains once over the whole
log and ranks every round against the weights of that round's moment.
run_synthetic scores against a world with known ground truth, so regret
and optimal-action rate are exact; run_replay scores against logged
impressions with a top-1 rejection-match estimator, whose metrics are
biased and labeled as such.

Outputs are byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import date
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .baselines import CambPolicy, OfferRound, Policy, Ranking
from .bandit import offer_probabilities, sigmoid_rows
from .data import MAX_INPUT_MAGNITUDE, Impression, MFScoreTable, Offer, TransactionLog, write_csv, write_json
from .errors import ConfigError, bounded, check_fields
from .exploration import kappa_at, sample_beta_rows
from .features import (
    FEATURE_NAMES,
    FEATURE_ORDER_VERSION,
    FeaturesSection,
    MemberStatsIndex,
    N_FEATURES,
    RoundBatch,
    RunningScaler,
    _expand,
    build_seasonality_profile,
    featurize_rounds,
    scale_rounds,
)
from .interpret import TrajectoryStore


# Population moments of the synthetic feature generator, used to put the
# world's true logistic weights on the standardized feature scale. The
# learner's online scaler converges to the same standardization, so the
# true model is inside the learner's hypothesis class. The bias slot is
# left untouched.
_SQRT12 = float(np.sqrt(12.0))
SYNTHETIC_FEATURE_MEAN = np.array([0.0, 1.0, 0.5, 0.5, 0.5, 16.5, 5.25, 3.5, 0.0])
SYNTHETIC_FEATURE_STD = np.array(
    [1.0, float(np.sqrt(0.5)), float(np.sqrt(0.05)), 1.0 / _SQRT12, 1.0 / _SQRT12,
     27.0 / _SQRT12, 9.5 / _SQRT12, float(np.sqrt(35.0 / 12.0)), 0.5]
)
# Ranges of the uniform offer features recency, duration and value.
_OFFER_LOW = np.array([0.0, 3.0, 0.5])
_OFFER_SPAN = np.array([1.0, 27.0, 9.5])
# Rounds run_synthetic draws and scales at a time.
CHUNK_ROUNDS = 1024


@dataclass
class WorldShape:
    """Shape and difficulty of the simulated environment: the synthetic
    config keys but the seed, which SyntheticWorldConfig and the config's
    synthetic section each add under their own name."""

    n_categories: int = bounded(5, lo=1)
    n_members: int = bounded(4, lo=1)
    offers_per_round: int = bounded(5, lo=1)
    max_categories_per_offer: int = bounded(3, lo=1)
    weight_scale: float = bounded(0.7, lo=0, hi=MAX_INPUT_MAGNITUDE)
    bias_mean: float = -0.4
    bias_scale: float = bounded(0.3, lo=0)
    mf_bias_coeff: float = bounded(0.0, lo=-MAX_INPUT_MAGNITUDE, hi=MAX_INPUT_MAGNITUDE)

    def __post_init__(self) -> None:
        check_fields(self)

    def rules(self) -> tuple:
        n, most = self.n_categories, self.max_categories_per_offer
        return ((most <= n, ("max_categories_per_offer",), f"<= n_categories ({n})", most),)


@dataclass
class SyntheticWorldConfig(WorldShape):
    seed: int = 0


class SyntheticWorld:
    """Logistic-reward environment with known per-category weights.

    Each category holds a fixed weight vector drawn once from the world
    seed. A round presents offers_per_round candidate offers, each spanning
    one to max_categories_per_offer categories with freshly drawn features.
    An offer's true clip probability aggregates its per-category logistic
    probabilities exactly the way the learner does (uniform shares, same
    mf coefficient), computed on standardized features. Rounds are drawn
    in batches, one generator call per feature for the whole batch.
    """

    def __init__(self, config: SyntheticWorldConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.categories = [f"c{j}" for j in range(config.n_categories)]
        self.true_weights: dict[str, np.ndarray] = {}
        for c in self.categories:
            w = rng.normal(0.0, config.weight_scale, size=N_FEATURES)
            w[0] = rng.normal(config.bias_mean, config.bias_scale)
            self.true_weights[c] = w
        # Row j: category j's weights with the standardization folded in,
        # so that its dot product with a raw row (bias entry 1) equals
        # true_weights . standardize(raw).
        W = np.array(list(self.true_weights.values()))
        self._raw_weights = W / SYNTHETIC_FEATURE_STD
        self._raw_weights[:, 0] = W[:, 0] - self._raw_weights[:, 1:] @ SYNTHETIC_FEATURE_MEAN[1:]
        self._index = {c: j for j, c in enumerate(self.categories)}
        self._by_name = np.argsort(self.categories)
        self._count_range = np.array([config.max_categories_per_offer, 6])
        self._offer_ids = [f"o{i:02d}" for i in range(config.offers_per_round)]

    @staticmethod
    def standardize(x: np.ndarray) -> np.ndarray:
        out = (x - SYNTHETIC_FEATURE_MEAN) / SYNTHETIC_FEATURE_STD
        out[0] = 1.0
        return out

    def true_probability(self, category_raw: Mapping[str, np.ndarray], mf_score: float) -> float:
        """One offer's clip probability from its raw category rows (bias
        entry 1). Worlds that override this per-offer hook have it called
        for every offer; the base world scores whole batches at once with
        the same arithmetic."""
        cats = sorted(category_raw)
        X = np.array([category_raw[c] for c in cats])
        rows = np.array([self._index[c] for c in cats])
        return float(self._true_probabilities(X, np.array([len(cats)]), rows, np.array([mf_score]))[0])

    def _true_probabilities(self, X: np.ndarray, sizes: np.ndarray, rows: np.ndarray, mf_scores: np.ndarray):
        """Every offer's true clip probability: per-category logistic
        probabilities, aggregated by offer_probabilities with uniform
        shares. Offer k owns the next sizes[k] raw rows of X; row r
        belongs to category rows[r] of the world."""
        p = sigmoid_rows(np.einsum("ij,ij->i", self._raw_weights[rows], X))
        starts = np.cumsum(sizes) - sizes
        return offer_probabilities(p, (1.0 / sizes).repeat(sizes), starts, mf_scores, self.config.mf_bias_coeff)

    def draw_rounds(self, n_rounds: int, rng: np.random.Generator) -> RoundBatch:
        """n_rounds rounds as one batch of raw rows: each round's member,
        offers in generation order, mf scores, true clip probabilities and
        reward uniform. Each feature is drawn for all of the batch's
        offers or rows with one generator call."""
        cfg = self.config
        n = n_rounds * cfg.offers_per_round
        members = [f"m{i}" for i in rng.integers(cfg.n_members, size=n_rounds).tolist()]
        # One uniform row per offer: a sort key per category, then the
        # category count, num_items, recency, duration and value.
        u = rng.random((n, cfg.n_categories + 5))
        keys, counts, spans = u[:, :cfg.n_categories], u[:, -5:-3], u[:, -3:]
        sizes, num_items = (1 + counts * self._count_range).astype(np.intp).T  # floor(k * u) + 1
        # Offer k takes the sizes[k] categories with the smallest keys, a
        # uniform random subset as choice(replace=False) would draw; its
        # rows follow in category-name order, the order scale_rounds feeds
        # the scaler.
        rank = keys.argsort(axis=1).argsort(axis=1)
        offer_of, col = np.nonzero(rank[:, self._by_name] < sizes[:, None])
        cat = self._by_name[col]
        categories = [self.categories[j] for j in cat.tolist()]
        offer = np.empty((n, 5))
        offer[:, :3] = _OFFER_LOW + _OFFER_SPAN * spans  # recency, duration, value
        offer[:, 3] = num_items
        offer[:, 4] = mf_scores = rng.normal(0.0, 0.5, n)
        m = len(categories)
        X = np.empty((m, N_FEATURES))
        X[:, 0] = 1.0
        X[:, 1] = rng.gamma(2.0, 0.5, m)  # mpg
        X[:, 2] = rng.beta(2.0, 2.0, m)  # brand loyalty
        X[:, 3] = rng.random(m)  # seasonality
        X[:, 4:] = offer[offer_of]
        if type(self).true_probability is SyntheticWorld.true_probability:
            true_p = self._true_probabilities(X, sizes, cat, mf_scores)
        else:
            rows = list(X)
            true_p = np.array([
                self.true_probability(dict(zip(categories[s:s + k], rows[s:s + k])), mf)
                for s, k, mf in zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist(), mf_scores.tolist())
            ])
        offer_bounds = np.arange(0, n + 1, cfg.offers_per_round)
        row_bounds = np.concatenate(([0], np.cumsum(sizes)))[offer_bounds]
        return RoundBatch(
            self._offer_ids * n_rounds, categories, sizes, X, offer_bounds, row_bounds, members, None, mf_scores,
            true_p, rng.random(n_rounds),
        )

    def generate_round(self, t: int, rng: np.random.Generator) -> tuple[str, RoundBatch, np.ndarray, np.ndarray]:
        """One round drawn as draw_rounds(1, rng) draws it: its member, the
        one-round batch of raw rows, mf scores and true clip probabilities."""
        batch = self.draw_rounds(1, rng)
        return batch.members[0], batch, batch.mf_scores, batch.true_p


@dataclass
class RoundRecord:
    """One logged round, its fields one line of rounds.jsonl. y is None
    when the round produced no observable reward (unmatched replay
    rounds); oracle fields are None on replay."""

    t: int
    member_id: str
    ranked: list[tuple[str, float | None, float | None]]
    chosen: str
    y: int | None
    oracle_best: str | None = None
    oracle_p: float | None = None
    chosen_true_p: float | None = None
    matched: bool | None = None


@dataclass
class MetricsSummary:
    """Aggregate metrics; oracle-dependent fields are None on replay."""

    rounds: int
    cumulative_reward: int
    regret: float | None
    optimal_action_rate: float | None
    per_round_reward: list[float]
    matched_rounds: int | None
    estimator: str

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "cumulative_reward": self.cumulative_reward,
            "regret": self.regret,
            "optimal_action_rate": self.optimal_action_rate,
            "final_avg_reward": self.per_round_reward[-1] if self.per_round_reward else None,
            "matched_rounds": self.matched_rounds,
            "estimator": self.estimator,
        }


@dataclass
class RunResult:
    records: list[RoundRecord]
    summary: MetricsSummary
    trajectories: TrajectoryStore
    skip_tallies: dict[str, int] = field(default_factory=dict)


def running_metrics(records: Sequence[RoundRecord]) -> list[tuple]:
    """Per-round (round, cum_reward, avg_reward, regret, optimal_rate), the
    one pass behind both the summary and metrics.csv. avg_reward averages
    only rounds that produced a reward and is None before the first; the
    oracle columns are None on rounds without oracle fields."""
    rows: list[tuple] = []
    cumulative = 0
    rewarded = 0
    regret = 0.0
    optimal = 0
    for i, r in enumerate(records, start=1):
        if r.y is not None:
            cumulative += r.y
            rewarded += 1
        avg = cumulative / rewarded if rewarded else None
        if r.oracle_p is not None and r.chosen_true_p is not None:
            regret += r.oracle_p - r.chosen_true_p
            optimal += 1 if r.chosen == r.oracle_best else 0
            rows.append((i, cumulative, avg, regret, optimal / i))
        else:
            rows.append((i, cumulative, avg, None, None))
    return rows


def compute_metrics(records: Sequence[RoundRecord]) -> MetricsSummary:
    """Recompute the metric set from round logs; cumulative_reward always
    equals the count of y=1 entries."""
    if not records:
        raise ValueError("compute_metrics needs at least one round")
    rows = running_metrics(records)
    _, cumulative, _, regret, optimal = rows[-1]
    has_oracle = all(row[3] is not None for row in rows)
    if has_oracle:
        matched = None
        estimator = "synthetic-oracle"
    else:
        regret = None
        optimal = None
        matched = sum(1 for r in records if r.matched)
        estimator = "replay-match (biased: rewards observed only on matched rounds)"
    return MetricsSummary(
        rounds=len(records),
        cumulative_reward=cumulative,
        regret=regret,
        optimal_action_rate=optimal,
        per_round_reward=[row[2] for row, r in zip(rows, records) if r.y is not None],
        matched_rounds=matched,
        estimator=estimator,
    )


def offer_layout(batch: RoundBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each offer slot's first row in a scaled batch, each row's weight
    within its offer, each slot's round, and the slots in (round, offer
    id) order, a stable sort.

    A row's weight is its purchase share renormalized over its offer:
    uniform when the batch has no shares, or when the member bought none
    of the offer's categories.
    """
    sizes = batch.sizes
    starts = np.cumsum(sizes) - sizes
    weights = (1.0 / sizes).repeat(sizes)
    if batch.shares is not None:
        total = np.add.reduceat(batch.shares, starts).repeat(sizes)
        weights = np.where(total > 0, batch.shares / np.where(total > 0, total, 1.0), weights)
    round_of = np.repeat(np.arange(len(batch)), np.diff(batch.offer_bounds))
    return starts, weights, round_of, np.lexsort((np.array(batch.offer_ids, dtype=str), round_of))


def offer_rounds(batch: RoundBatch, layout: tuple | None = None) -> Iterator[OfferRound]:
    """Each round of a scaled batch as its policy sees it.

    Each offer's offer vector is the share-weighted sum of its rows
    (offer_layout, or the layout given, which must be the batch's). It,
    each offer's first row within its round and each round's offers in
    sorted-id order are worked out once for the whole batch, with
    reduceat over each offer's rows. Every round holds slices of the
    batch's lists and views of its arrays.
    """
    starts, weights, round_of, by_id = layout or offer_layout(batch)
    pooled = np.add.reduceat(weights[:, None] * batch.X, starts, axis=0)
    starts = starts - batch.row_bounds[round_of]
    by_id = (by_id - batch.offer_bounds[round_of]).tolist()
    ids, cats, X, mf, true_p = batch.offer_ids, batch.categories, batch.X, batch.mf_scores, batch.true_p
    ob, rb = batch.offer_bounds.tolist(), batch.row_bounds.tolist()
    for member, a, b, r0, r1 in zip(batch.members, ob, ob[1:], rb, rb[1:]):
        yield OfferRound(
            ids[a:b], cats[r0:r1], X[r0:r1], starts[a:b], member, weights[r0:r1], pooled[a:b], mf[a:b], by_id[a:b],
            None if true_p is None else true_p[a:b],
        )


def _policy_rounds(
    batch: RoundBatch, policy: Policy, rng: np.random.Generator, t: int
) -> Iterator[tuple[int, OfferRound, Ranking]]:
    """Each round of a scaled batch numbered from t, as offer_rounds
    builds it, with the policy's ranking; the one round loop of both
    harnesses. Only select and the caller's update run per round."""
    for i, offers in enumerate(offer_rounds(batch), start=t):
        yield i, offers, policy.select(offers, rng, i)


def _row_members(batch: RoundBatch) -> list[str]:
    """Each row's member in a batch: round i's for its rows."""
    return list(chain.from_iterable(map(repeat, batch.members, np.diff(batch.row_bounds).tolist())))


def _segment_bounds(members: Sequence[str]) -> list[int]:
    """The first round of each segment of the rounds, then the number of
    rounds. A segment is a maximal run of consecutive rounds whose members
    are all distinct: it ends just before the first round whose member
    it already holds."""
    bounds, seen = [0], set()
    for i, member in enumerate(members):
        if member in seen:
            bounds.append(i)
            seen = set()
        seen.add(member)
    bounds.append(len(members))
    return bounds


def _camb_rounds(batch: RoundBatch, policy: CambPolicy, rng: np.random.Generator, t: int
                 ) -> Iterator[tuple[int, OfferRound, Ranking]]:
    """_policy_rounds for camb: each round of a scaled batch numbered from
    t with the ranking CambPolicy.select gives it, scored a segment
    (_segment_bounds) at a time.

    A round's update changes only its own member's models, and no other
    round of its segment reads them, so every round of a segment scores
    the same before the segment's first update as just before its own.
    A segment is scored when its first round is asked for, after the
    caller has updated the policy with every earlier round: one gather
    of all its rows' models, then _offer_scores.
    """
    layout = offer_layout(batch)
    starts, weights, round_of, order = layout
    store = policy.store
    row_member = _row_members(batch)
    ob, rb = batch.offer_bounds.tolist(), batch.row_bounds.tolist()
    rounds = offer_rounds(batch, layout)
    bounds = _segment_bounds(batch.members)
    for a, b in zip(bounds, bounds[1:]):
        r0, r1, s0, s1 = rb[a], rb[b], ob[a], ob[b]
        p = store.predict_at(store.find(row_member[r0:r1], batch.categories[r0:r1]), batch.X[r0:r1])
        probs, sampled = _offer_scores(p, weights[r0:r1], starts[s0:s1] - r0, batch.mf_scores[s0:s1],
                                       round_of[s0:s1] - a, order[s0:s1] - s0, t + a, policy, rng)
        probs, sampled = probs.tolist(), sampled.tolist()
        for i, offers in zip(range(a, b), rounds):
            k0, k1 = ob[i] - s0, ob[i + 1] - s0
            yield t + i, offers, offers.ranking(probs[k0:k1], sampled[k0:k1])


def _offer_scores(p: np.ndarray, weights: np.ndarray, starts: np.ndarray, mf_scores: np.ndarray,
                  round_of: np.ndarray, order: np.ndarray, t: int, policy: CambPolicy, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Each offer slot's probability and sampled score, as CambPolicy.select
    gives them from its rows' category probabilities p.

    The rows are pooled by offer_probabilities (weights[r] is row r's
    share, slot k owns the rows from starts[k]). Slot k belongs to round
    round_of[k], counted from 0 for round t, and one Beta call draws
    every slot in the given order, by round and then offer id, as
    select's draws follow one another, each round t + i with
    kappa_at(t + i - 1).
    """
    learner, exploration = policy.learner, policy.exploration
    probs = offer_probabilities(p, weights, starts, mf_scores, learner.mf_bias_coeff)
    kappa = np.array([kappa_at(t - 1 + i, exploration) for i in range(round_of.max(initial=-1) + 1)])
    sampled = np.empty_like(probs)
    sampled[order] = sample_beta_rows(probs[order], kappa[round_of[order]], rng, exploration.probability_clamp)
    return probs, sampled


def oracle_best(batch: RoundBatch) -> np.ndarray:
    """Each round's best offer slot in the batch: the highest true
    probability, ties to the smallest offer id."""
    ids = np.array(batch.offer_ids, dtype=str)
    round_of = np.repeat(np.arange(len(batch)), np.diff(batch.offer_bounds))
    # Sorted by round, then descending true probability, then offer id.
    order = np.lexsort((ids, -batch.true_p, round_of))
    return order[batch.offer_bounds[:-1]]


def run_synthetic(
    world: SyntheticWorld,
    policy: Policy,
    rounds: int,
    seed: int,
    thin_every: int = 1,
) -> RunResult:
    """Run the policy for `rounds` simulated rounds.

    The world draws full chunks of CHUNK_ROUNDS rounds on its own stream,
    derived from seed; the policy draws on default_rng(seed), so a run's
    first k rounds do not depend on `rounds`. Only the rounds the run
    plays are scaled and assembled; no round's scaling depends on a later
    round, so they get the same bytes. Per round: rank, reward the top
    choice when the round's uniform falls below its true probability,
    update the policy with that single outcome. camb ranks a segment of
    rounds at a time, a maximal run whose members are all distinct
    (_camb_rounds): no update in a segment changes another of its rounds'
    scores, so each round gets select's ranking, draws and generator
    state, while the updates still go one round at a time.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    rng = np.random.default_rng(seed)
    world_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    scaler = RunningScaler()
    trajectories = TrajectoryStore(thin_every)
    ordinals = count(1)
    records: list[RoundRecord] = []
    for t0 in range(1, rounds + 1, CHUNK_ROUNDS):
        batch = world.draw_rounds(CHUNK_ROUNDS, world_rng).head(min(CHUNK_ROUNDS, rounds + 1 - t0))
        scale_rounds(batch, scaler)
        draws = batch.reward_draws.tolist()
        best = oracle_best(batch)
        best_ids = [batch.offer_ids[k] for k in best.tolist()]
        best_p = batch.true_p[best].tolist()
        play = _camb_rounds if isinstance(policy, CambPolicy) else _policy_rounds
        # A diverging learning step overflows; the step's finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for t, offers, ranking in play(batch, policy, rng, t0):
                i = t - t0
                chosen = offers.candidate(offers.offer_ids.index(ranking.top))
                y = 1 if draws[i] < chosen.true_p else 0
                for member_id, category_id, weights, update_count in policy.update(chosen, y):
                    trajectories.record(member_id, category_id, weights, update_count, next(ordinals))
                records.append(
                    RoundRecord(
                        t=t,
                        member_id=offers.member_id,
                        ranked=_ranked_entries(ranking),
                        chosen=chosen.offer_id,
                        y=y,
                        oracle_best=best_ids[i],
                        oracle_p=best_p[i],
                        chosen_true_p=chosen.true_p,
                    )
                )
    return RunResult(records, compute_metrics(records), trajectories)


def _ranked_entries(ranking: Ranking) -> list[tuple[str, float | None, float | None]]:
    return [
        (
            oid,
            ranking.scores.get(oid),
            ranking.sampled.get(oid) if ranking.sampled is not None else None,
        )
        for oid in ranking.order
    ]


@dataclass
class ReplayDataset:
    """The four ingested inputs bundled for replay."""

    transactions: TransactionLog
    offers: list[Offer]
    impressions: list[Impression]
    mf_table: MFScoreTable = field(default_factory=MFScoreTable)


def scaled_rounds(
    dataset: ReplayDataset, rounds: Sequence[tuple[str, date, Sequence[Offer]]], features: FeaturesSection
) -> RoundBatch:
    """The (member_id, day, offers) rounds featurized against the dataset's
    transactions and mf scores, then scaled by a fresh scaler: the one path
    from a log to the rows replay plays and backfit trains on."""
    stats = MemberStatsIndex(dataset.transactions, features.default_cycle_days)
    profile = build_seasonality_profile(dataset.transactions, features.smoothing_window)
    batch = featurize_rounds(rounds, stats, profile, dataset.mf_table, features.cold_start_mpg)
    scale_rounds(batch, RunningScaler())
    return batch


def run_replay(
    dataset: ReplayDataset, policy: Policy, seed: int, features: FeaturesSection, thin_every: int = 1
) -> RunResult:
    """Evaluate the policy against logged impressions.

    Candidates for each impression are the catalog offers active on that
    date. A round counts toward metrics only when the policy's top choice
    was actually shown (rejection match); its reward is whether that offer
    was clipped. Every shown offer trains the policy with its logged
    outcome, clipped as y=1, shown-but-unclipped as y=0, whatever the
    policy chose. camb's learning thus never depends on its choices, and
    it plays the log in one training pass (_camb_scores), with the
    rankings, store and trajectory of the round-by-round select and
    update that the other policies play (_replay_rounds).
    """
    rng = np.random.default_rng(seed)
    offers_sorted = sorted(dataset.offers, key=lambda o: o.offer_id)
    skip = {"rounds_without_candidates": 0, "shown_offers_not_featurized": 0}
    impressions = []
    rounds = []
    # Per round: the place among its offers and the label of each
    # featurized shown offer, in offers_shown order.
    shown: list[list[tuple[int, int]]] = []
    active_day = None
    for imp in dataset.impressions:
        day = imp.timestamp.date()
        if day != active_day:  # ingest sorts impressions by time, so days come in runs
            active_day = day
            active = [o for o in offers_sorted if o.active_on(day)]
            index = {o.offer_id: k for k, o in enumerate(active)}
        if not active:
            skip["rounds_without_candidates"] += 1
            continue
        impressions.append(imp)
        # `active` is in sorted offer-id order, the replay scaling order.
        rounds.append((imp.member_id, day, active))
        trained = [(index[oid], 1 if oid in imp.clipped else 0) for oid in imp.offers_shown if oid in index]
        skip["shown_offers_not_featurized"] += len(imp.offers_shown) - len(trained)
        shown.append(trained)
    # The scaler sees only raw rows, never the policy, so every round is
    # featurized and scaled before the first is played.
    batch = scaled_rounds(dataset, rounds, features)
    del rounds
    if isinstance(policy, CambPolicy):
        layout = offer_layout(batch)
        probs, sampled, trajectories = _camb_scores(batch, layout, shown, policy, rng, thin_every)
        ob = batch.offer_bounds.tolist()
        played = (
            (t, offers, offers.ranking(probs[a:b].tolist(), sampled[a:b].tolist()))
            for t, (offers, a, b) in enumerate(zip(offer_rounds(batch, layout), ob, ob[1:]), start=1)
        )
    else:
        trajectories = TrajectoryStore(thin_every)
        played = _replay_rounds(batch, shown, policy, rng, trajectories)
    records: list[RoundRecord] = []
    for imp, (t, offers, ranking) in zip(impressions, played):
        top = ranking.top
        matched = top in imp.offers_shown
        records.append(
            RoundRecord(
                t=t,
                member_id=offers.member_id,
                ranked=_ranked_entries(ranking),
                chosen=top,
                y=(1 if top in imp.clipped else 0) if matched else None,
                matched=matched,
            )
        )
    estimator = "replay-match (biased: rewards observed only on matched rounds)"
    summary = compute_metrics(records) if records else MetricsSummary(0, 0, None, None, [], 0, estimator)
    return RunResult(records, summary, trajectories, skip)


def _replay_rounds(
    batch: RoundBatch, shown: list[list[tuple[int, int]]], policy: Policy, rng: np.random.Generator,
    trajectories: TrajectoryStore,
) -> Iterator[tuple[int, OfferRound, Ranking]]:
    """Replay round by round: the policy ranks a round, then each of the
    round's shown offers updates it."""
    ordinals = count(1)
    for (t, offers, ranking), trained in zip(_policy_rounds(batch, policy, rng, 1), shown):
        for k, outcome in trained:
            for member_id, category_id, weights, update_count in policy.update(offers.candidate(k), outcome):
                trajectories.record(member_id, category_id, weights, update_count, next(ordinals))
        yield t, offers, ranking


def _camb_scores(
    batch: RoundBatch, layout: tuple, shown: list[list[tuple[int, int]]], policy: CambPolicy,
    rng: np.random.Generator, thin_every: int,
) -> tuple[np.ndarray, np.ndarray, TrajectoryStore]:
    """Every offer slot's probability and sampled score, as
    CambPolicy.select scores them round by round between the updates,
    and the trajectory of those updates, thinned to one in thin_every.

    The events are the rows of every round's shown offers, in
    offers_shown order, each offer's rows in category order: the updates
    CambPolicy.update makes round by round, in its order, and the ones
    recorded in the trajectory. The store trains on them with its wave
    step, and each candidate row is predicted under its pair's weights as
    they stood before its round's own events, which is what select reads
    in that round. _offer_scores then pools and draws them as select
    does; layout is the batch's offer_layout.
    """
    store = policy.store
    starts, weights, round_of, order = layout
    row_round = np.repeat(np.arange(len(batch)), np.diff(batch.row_bounds))
    row_member = _row_members(batch)
    # Each shown offer's slot in the batch and its label, then its rows.
    k, y = np.array([e for trained in shown for e in trained], dtype=np.intp).reshape(-1, 2).T
    slots = k + np.repeat(batch.offer_bounds[:-1], [len(trained) for trained in shown])
    sizes = batch.sizes[slots]
    events = _expand(starts[slots], sizes)
    ev_members = [row_member[r] for r in events.tolist()]
    ev_categories = [batch.categories[r] for r in events.tolist()]
    # The events' pairs take their rows first, so the candidate rows found
    # next include every pair trained.
    ev_rows = store.rows(ev_members, ev_categories)
    at = store.find(row_member, batch.categories)
    p, W_after, n_after = store.train_as_of(
        ev_rows, batch.X[events], y.repeat(sizes), row_round[events], at, batch.X, row_round, policy.learner
    )
    trajectories = TrajectoryStore.from_columns(
        ev_members, ev_categories, W_after.tolist(), n_after.tolist(), list(range(1, len(events) + 1)), thin_every
    )
    return (*_offer_scores(p, weights, starts, batch.mf_scores, round_of, order, 1, policy, rng), trajectories)


def backfit_events(dataset: ReplayDataset, features: FeaturesSection) -> tuple[RoundBatch, np.ndarray, dict[str, int]]:
    """Training rows from logged impressions: one round per impression,
    its shown offers in offers_shown order, scaled by scaled_rounds, and
    one label per row, 1 where the row's offer was clipped.

    Shown offers missing from the catalog or inactive on the impression
    date are skipped and tallied.
    """
    catalog = {o.offer_id: o for o in dataset.offers}
    rounds = []
    clipped: list[bool] = []
    skipped = 0
    for imp in dataset.impressions:
        day = imp.timestamp.date()
        shown = [catalog.get(oid) for oid in imp.offers_shown]
        featurized = [o for o in shown if o is not None and o.active_on(day)]
        skipped += len(shown) - len(featurized)
        rounds.append((imp.member_id, day, featurized))
        clipped += [o.offer_id in imp.clipped for o in featurized]
    batch = scaled_rounds(dataset, rounds, features)
    # One byte a label: the labels live beside the batch through backfit.
    y = np.repeat(np.array(clipped, dtype=np.int8), batch.sizes)
    return batch, y, {"shown_offers_not_featurized": skipped}


def _json_value(x) -> str:
    """None, a bool, an int or a float as json.dumps writes it."""
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if x.__class__ is float and x - x == 0.0:  # finite: json.dumps names NaN and the infinities
        return float.__repr__(x)
    if x.__class__ is int:
        return int.__repr__(x)
    return json.dumps(x)


def write_roundlog(path: str | Path, records: Sequence[RoundRecord]) -> None:
    """One line per record, equal to json.dumps(vars(record),
    sort_keys=True). The fields are fixed, so each line fills one
    template: each distinct id is encoded once, and the ranked list,
    mostly floats, goes to json's C encoder whole."""
    q = {i: json.dumps(i) for i in {i for r in records for i in (r.chosen, r.member_id, r.oracle_best)}}
    v, dumps = _json_value, json.dumps

    def line(r: RoundRecord) -> str:
        return (f'{{"chosen": {q[r.chosen]}, "chosen_true_p": {v(r.chosen_true_p)}, "matched": {v(r.matched)}, '
                f'"member_id": {q[r.member_id]}, "oracle_best": {q[r.oracle_best]}, "oracle_p": {v(r.oracle_p)}, '
                f'"ranked": {dumps(r.ranked)}, "t": {v(r.t)}, "y": {v(r.y)}}}\n')

    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(line, records))


def write_metrics_csv(path: str | Path, records: Sequence[RoundRecord]) -> None:
    """Per-round running metrics. Oracle columns are blank on replay, as is
    avg_reward before the first rewarded round."""
    # csv writes None as a blank cell.
    write_csv(path, ["round", "cum_reward", "avg_reward", "regret", "optimal_rate"], running_metrics(records))


def write_summary_json(path: str | Path, summary: MetricsSummary) -> None:
    write_json(path, summary.to_dict())


def config_hash(config: Mapping) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def files_fingerprint(paths: Iterable[str | Path]) -> str:
    """Stable digest over the named input files' bytes."""
    digest = hashlib.sha256()
    for p in sorted(str(p) for p in paths):
        digest.update(p.encode("utf-8"))
        digest.update(Path(p).read_bytes())
    return digest.hexdigest()


def build_manifest(
    seed: int,
    config: Mapping,
    data_fingerprint: str,
    skip_tallies: Mapping[str, int] | None = None,
    **extra,
) -> dict:
    """Reproducibility manifest; contains no wall-clock state."""
    manifest = {
        "seed": seed,
        "config_hash": config_hash(config),
        "data_fingerprint": data_fingerprint,
        "skip_tallies": dict(skip_tallies or {}),
        "feature_order_version": FEATURE_ORDER_VERSION,
        "feature_names": list(FEATURE_NAMES),
    }
    manifest.update(extra)
    return manifest


def write_manifest(path: str | Path, manifest: Mapping) -> None:
    write_json(path, manifest)
