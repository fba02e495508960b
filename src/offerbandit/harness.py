"""Evaluation harness: simulated rounds, offline replay and metrics.

Both entry points scale their rounds as batches and build every round's
offers once per batch (offer_rounds), then drive the same round loop:
let the policy rank the round's offers, observe a reward, update the
policy, log the round. Only the work that reads or changes what the
policy has learned runs round by round. run_synthetic scores against a
world with known ground truth, so regret and optimal-action rate are
exact; run_replay scores against logged impressions with a top-1
rejection-match estimator, whose metrics are biased and labeled as such.

Outputs are byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .baselines import OfferCandidate, OfferRound, Policy, Ranking
from .bandit import TrainingEvents, offer_probabilities, sigmoid_rows
from .data import Impression, MFScoreTable, Offer, TransactionLog, write_csv, write_json, write_jsonl
from .errors import ConfigError
from .features import (
    FEATURE_NAMES,
    FEATURE_ORDER_VERSION,
    MemberStatsIndex,
    N_FEATURES,
    RoundBatch,
    RunningScaler,
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
class SyntheticWorldConfig:
    """Shape and difficulty of the simulated environment."""

    n_categories: int = 5
    n_members: int = 4
    offers_per_round: int = 5
    max_categories_per_offer: int = 3
    weight_scale: float = 0.7
    bias_mean: float = -0.4
    bias_scale: float = 0.3
    mf_bias_coeff: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_categories", "n_members", "offers_per_round"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (1 <= self.max_categories_per_offer <= self.n_categories):
            raise ConfigError(
                f"max_categories_per_offer must be in [1, {self.n_categories}], "
                f"got {self.max_categories_per_offer}"
            )


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


class OraclePolicy:
    """Ranks by the world's true probabilities; the regret-zero reference."""

    name = "oracle"

    def select(self, offers: OfferRound, rng: np.random.Generator, t: int) -> Ranking:
        return offers.ranking(offers.true_p.tolist())

    def update(self, candidate: OfferCandidate, reward: int):
        return []


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


def offer_rounds(batch: RoundBatch) -> Iterator[OfferRound]:
    """Each round of a scaled batch as its policy sees it.

    Each offer's row weights are its rows' purchase shares renormalized
    over the offer (uniform when the batch has no shares, or when the
    member bought none of the offer's categories), and its offer vector
    is the share-weighted sum of its rows. Both, each offer's first row
    within its round and each round's offers in sorted-id order are
    worked out once for the whole batch, with reduceat over each offer's
    rows. Every round holds slices of the batch's lists and views of its
    arrays.
    """
    sizes = batch.sizes
    starts = np.cumsum(sizes) - sizes
    weights = (1.0 / sizes).repeat(sizes)
    if batch.shares is not None:
        total = np.add.reduceat(batch.shares, starts).repeat(sizes)
        weights = np.where(total > 0, batch.shares / np.where(total > 0, total, 1.0), weights)
    pooled = np.add.reduceat(weights[:, None] * batch.X, starts, axis=0)
    offers_per_round = np.diff(batch.offer_bounds)
    starts -= np.repeat(batch.row_bounds[:-1], offers_per_round)
    # A stable sort by (round, offer id), as positions within each round.
    round_of = np.repeat(np.arange(len(batch)), offers_per_round)
    by_id = (np.lexsort((np.array(batch.offer_ids, dtype=str), round_of)) - batch.offer_bounds[round_of]).tolist()
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
    update the policy with that single outcome.
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
        for t, offers, ranking in _policy_rounds(batch, policy, rng, t0):
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


def run_replay(
    dataset: ReplayDataset,
    policy: Policy,
    seed: int,
    *,
    cold_start_mpg: float = 1.0,
    default_cycle_days: float = 30.0,
    smoothing_window: int = 3,
    thin_every: int = 1,
) -> RunResult:
    """Evaluate the policy against logged impressions.

    Candidates for each impression are the catalog offers active on that
    date. A round counts toward metrics only when the policy's top choice
    was actually shown (rejection match); its reward is whether that offer
    was clipped. Every shown offer trains the policy with its logged
    outcome, clipped as y=1, shown-but-unclipped as y=0.
    """
    rng = np.random.default_rng(seed)
    stats = MemberStatsIndex(dataset.transactions, default_cycle_days)
    profile = build_seasonality_profile(dataset.transactions, smoothing_window)
    offers_sorted = sorted(dataset.offers, key=lambda o: o.offer_id)
    trajectories = TrajectoryStore(thin_every)
    records: list[RoundRecord] = []
    skip = {"rounds_without_candidates": 0, "shown_offers_not_featurized": 0}
    impressions = []
    rounds = []
    active_day = None
    for imp in dataset.impressions:
        day = imp.timestamp.date()
        if day != active_day:  # ingest sorts impressions by time, so days come in runs
            active_day = day
            active = [o for o in offers_sorted if o.active_on(day)]
        if not active:
            skip["rounds_without_candidates"] += 1
            continue
        impressions.append(imp)
        # `active` is in sorted offer-id order, the replay scaling order.
        rounds.append((imp.member_id, day, active))
    # The scaler sees only raw rows, never the policy, so every round is
    # featurized and scaled before the first is played.
    batch = featurize_rounds(rounds, stats, profile, dataset.mf_table, cold_start_mpg)
    del rounds
    scale_rounds(batch, RunningScaler())
    ordinals = count(1)
    for imp, (t, offers, ranking) in zip(impressions, _policy_rounds(batch, policy, rng, 1)):
        top = ranking.top
        matched = top in imp.offers_shown
        y = (1 if top in imp.clipped else 0) if matched else None
        index = {oid: k for k, oid in enumerate(offers.offer_ids)}
        for oid in imp.offers_shown:
            k = index.get(oid)
            if k is None:
                skip["shown_offers_not_featurized"] += 1
                continue
            outcome = 1 if oid in imp.clipped else 0
            for member_id, category_id, weights, update_count in policy.update(offers.candidate(k), outcome):
                trajectories.record(member_id, category_id, weights, update_count, next(ordinals))
        records.append(
            RoundRecord(
                t=t,
                member_id=offers.member_id,
                ranked=_ranked_entries(ranking),
                chosen=top,
                y=y,
                matched=matched,
            )
        )
    estimator = "replay-match (biased: rewards observed only on matched rounds)"
    summary = compute_metrics(records) if records else MetricsSummary(0, 0, None, None, [], 0, estimator)
    return RunResult(records, summary, trajectories, skip)


def backfit_events(
    dataset: ReplayDataset,
    *,
    cold_start_mpg: float = 1.0,
    default_cycle_days: float = 30.0,
    smoothing_window: int = 3,
) -> tuple[TrainingEvents, dict[str, int]]:
    """Training events from logged impressions: one per shown offer per
    category, in impression order, contexts normalized by a fresh scaler.

    Shown offers missing from the catalog or inactive on the impression
    date are skipped and tallied.
    """
    stats = MemberStatsIndex(dataset.transactions, default_cycle_days)
    profile = build_seasonality_profile(dataset.transactions, smoothing_window)
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
    batch = featurize_rounds(rounds, stats, profile, dataset.mf_table, cold_start_mpg)
    scale_rounds(batch, RunningScaler())
    per_round = np.diff(batch.row_bounds)
    members = list(chain.from_iterable(repeat(m, n) for (m, _, _), n in zip(rounds, per_round.tolist())))
    events = TrainingEvents(
        np.repeat(np.arange(len(rounds)), per_round),
        members,
        batch.categories,
        batch.X,
        np.repeat(np.array(clipped, dtype=bool), batch.sizes),
    )
    return events, {"shown_offers_not_featurized": skipped}


def write_roundlog(path: str | Path, records: Sequence[RoundRecord]) -> None:
    write_jsonl(path, map(vars, records))


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
