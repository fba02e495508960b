"""Independent reference learner for checking backfit and replay outputs.

This re-derives, from the input files alone, what the documented method
must produce: the nine context features (README "Features" and the
offerbandit.features docstrings), the Welford z-score scaler, boosted
logistic SGD and share-weighted logit aggregation of category
probabilities. It imports nothing from offerbandit; the two share only
the file formats and the documentation.

The replay's deterministic scores, its model updates and its trajectory do
not depend on the random seed, so they can be recomputed exactly; only the
sampled scores and therefore the orders are random.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

import numpy as np

FEATURES = ("bias", "mpg", "brand_loyalty", "seasonality", "recency", "duration", "value", "num_items", "mf_score")
WEEKS = 52
STD_FLOOR = 1e-6
LOGIT_CLAMP = 1e-6
LOSS_CLAMP = 1e-12


@dataclass(frozen=True)
class Settings:
    """The learner and feature settings the benchmark's configs use."""

    learning_rate: float = 0.05
    positive_boost: float = 2.0
    mf_bias_coeff: float = 1.0
    cold_start_mpg: float = 1.0
    default_cycle_days: float = 30.0
    smoothing_window: int = 3


@dataclass(frozen=True)
class OfferRow:
    offer_id: str
    categories: tuple[str, ...]
    brands: tuple[str, ...]
    value: float
    start: date
    end: date
    num_items: int


@dataclass(frozen=True)
class ImpressionRow:
    day: date
    member: str
    shown: tuple[str, ...]
    clipped: frozenset[str]


def read_offers(path: Path) -> dict[str, OfferRow]:
    offers = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        o = json.loads(line)
        offers[o["offer_id"]] = OfferRow(
            o["offer_id"], tuple(sorted(o["category_ids"])), tuple(sorted(o.get("brand_ids", []))),
            float(o["discount_value"]), date.fromisoformat(o["start_date"]), date.fromisoformat(o["end_date"]),
            int(o["num_items"]),
        )
    return offers


def read_impressions(path: Path) -> list[ImpressionRow]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        o = json.loads(line)
        rows.append((datetime.fromisoformat(o["timestamp"]), ImpressionRow(
            datetime.fromisoformat(o["timestamp"]).date(), o["member_id"], tuple(o["offers_shown"]),
            frozenset(o.get("clipped", [])),
        )))
    rows.sort(key=lambda r: r[0])  # stable: equal timestamps keep file order
    return [r for _, r in rows]


def active_offers(offers: dict[str, OfferRow], day: date) -> list[str]:
    """Ids of the offers whose window contains day, in id order."""
    return sorted(oid for oid, o in offers.items() if o.start <= day <= o.end)


class PurchaseHistory:
    """Transaction-log lookups behind the mpg, loyalty, seasonality and
    purchase-share definitions."""

    def __init__(self, path: Path, settings: Settings):
        self.settings = settings
        dates: dict[tuple[str, str], set[date]] = defaultdict(set)
        self.brands: dict[tuple[str, str], dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.member_cats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        weekly: dict[str, list[float]] = defaultdict(lambda: [0.0] * WEEKS)
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for member, category, brand, day, _qty in reader:
                d = date.fromisoformat(day)
                dates[(member, category)].add(d)
                self.brands[(member, category)][brand] += 1
                self.member_cats[member][category] += 1
                weekly[category][min((d.timetuple().tm_yday - 1) // 7, WEEKS - 1)] += 1
        self.dates = {k: sorted(v) for k, v in dates.items()}
        gaps = {k: [(b - a).days for a, b in zip(ds, ds[1:])] for k, ds in self.dates.items()}
        pooled: dict[str, list[int]] = defaultdict(list)
        for (_, c), g in gaps.items():
            pooled[c].extend(g)
        self.pair_cycle = {k: _median(g) for k, g in gaps.items() if g}
        self.category_cycle = {c: _median(g) for c, g in pooled.items() if g}
        half = settings.smoothing_window // 2
        self.season: dict[str, list[float]] = {}
        for c, counts in weekly.items():
            smooth = [
                sum(counts[(w + k) % WEEKS] for k in range(-half, half + 1)) / settings.smoothing_window
                for w in range(WEEKS)
            ]
            peak = max(smooth)
            self.season[c] = [s / peak if peak > 0 else 0.0 for s in smooth]

    def cycle(self, member: str, category: str) -> float:
        cycle = self.pair_cycle.get((member, category), self.category_cycle.get(category))
        return cycle if cycle is not None and cycle > 0 else self.settings.default_cycle_days

    def mpg(self, member: str, category: str, day: date) -> float:
        ds = self.dates.get((member, category), [])
        pos = bisect_right(ds, day)
        if pos == 0:
            return self.settings.cold_start_mpg
        return (day - ds[pos - 1]).days / self.cycle(member, category)

    def loyalty(self, member: str, category: str, brands: tuple[str, ...]) -> float:
        counts = self.brands.get((member, category), {})
        total = sum(counts.values())
        if not brands or total == 0:
            return 0.0
        return max(counts.get(b, 0) for b in brands) / total

    def seasonality(self, category: str, day: date) -> float:
        profile = self.season.get(category)
        if profile is None:
            return 0.0
        return profile[min((day.timetuple().tm_yday - 1) // 7, WEEKS - 1)]

    def shares(self, member: str, categories: tuple[str, ...]) -> dict[str, float]:
        """Purchase shares restricted to categories, renormalized; uniform
        when the member never bought in any of them."""
        counts = self.member_cats.get(member, {})
        total_all = sum(counts.values())
        raw = {c: (counts.get(c, 0) / total_all if total_all else 0.0) for c in categories}
        total = sum(raw.values())
        if total <= 0:
            return {c: 1.0 / len(categories) for c in categories}
        return {c: v / total for c, v in raw.items()}

    def context(self, member: str, offer: OfferRow, category: str, day: date) -> np.ndarray:
        span = max((offer.end - offer.start).days, 1)
        recency = min(max((day - offer.start).days / span, 0.0), 1.0)
        return np.array([
            1.0,
            self.mpg(member, category, day),
            self.loyalty(member, category, offer.brands),
            self.seasonality(category, day),
            recency,
            float(span),
            offer.value,
            float(offer.num_items),
            0.0,  # mf_score: the benchmark runs replay and backfit without mf scores
        ])


def _median(values: list[int]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


class Scaler:
    """Welford running mean and sample variance; z-scores all but the bias."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = np.zeros(len(FEATURES))
        self.m2 = np.zeros(len(FEATURES))

    def add(self, x: np.ndarray) -> None:
        self.n += 1
        d = x - self.mean
        self.mean = self.mean + d / self.n
        self.m2 = self.m2 + d * (x - self.mean)

    def z(self, x: np.ndarray) -> np.ndarray:
        if self.n < 2:
            return x.copy()
        std = np.sqrt(self.m2 / (self.n - 1))
        out = (x - self.mean) / np.maximum(std, STD_FLOOR)
        out[0] = x[0]
        return out


def sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


class Models:
    """Per-(member, category) weights and update counts over a prior."""

    def __init__(self, prior: np.ndarray, settings: Settings):
        self.prior = prior
        self.settings = settings
        self.w: dict[tuple[str, str], np.ndarray] = {}
        self.n: dict[tuple[str, str], int] = {}

    def prob(self, key: tuple[str, str], x: np.ndarray) -> float:
        return sigmoid(float(np.dot(self.w.get(key, self.prior), x)))

    def learn(self, key: tuple[str, str], x: np.ndarray, y: int) -> None:
        s = self.settings
        w = self.w.get(key, self.prior)
        grad = s.learning_rate * (y - self.prob(key, x)) * x
        self.w[key] = w + (s.positive_boost * grad if y == 1 else grad)
        self.n[key] = self.n.get(key, 0) + 1

    def offer_prob(self, member: str, xs: dict[str, np.ndarray], shares: dict[str, float], mf: float = 0.0) -> float:
        z = 0.0
        for c, x in xs.items():
            p = min(max(self.prob((member, c), x), LOGIT_CLAMP), 1.0 - LOGIT_CLAMP)
            z += shares[c] * math.log(p / (1.0 - p))
        return sigmoid(z + self.settings.mf_bias_coeff * mf)


@dataclass
class BackfitResult:
    n_events: int
    models: Models
    holdout_size: int
    holdout_log_loss: float | None
    prior_log_loss: float | None


def _loss(p: float, y: int) -> float:
    p = min(max(p, LOSS_CLAMP), 1.0 - LOSS_CLAMP)
    return -math.log(p if y == 1 else 1.0 - p)


def backfit(hist: PurchaseHistory, offers: dict[str, OfferRow], impressions: list[ImpressionRow],
            settings: Settings) -> BackfitResult:
    """One event per shown, active offer per category, in log order; each
    impression's raw contexts enter a fresh scaler before any is scaled.
    The last tenth of events is scored before its own update."""
    scaler = Scaler()
    events = []
    for imp in impressions:
        raw = []
        for oid in imp.shown:
            offer = offers.get(oid)
            if offer is None or not offer.start <= imp.day <= offer.end:
                continue
            for c in offer.categories:
                raw.append(((imp.member, c), hist.context(imp.member, offer, c, imp.day), int(oid in imp.clipped)))
        for _, x, _ in raw:
            scaler.add(x)
        events.extend((key, scaler.z(x), y) for key, x, y in raw)
    models = Models(np.zeros(len(FEATURES)), settings)
    tail = (9 * len(events)) // 10
    model_loss, prior_loss = [], []
    for i, (key, x, y) in enumerate(events):
        if i >= tail:
            model_loss.append(_loss(models.prob(key, x), y))
            prior_loss.append(_loss(sigmoid(float(np.dot(models.prior, x))), y))
        models.learn(key, x, y)
    size = len(model_loss)
    return BackfitResult(
        len(events), models, size,
        sum(model_loss) / size if size else None,
        sum(prior_loss) / size if size else None,
    )


@dataclass
class ReplayRound:
    member: str
    candidates: list[str]
    # Deterministic offer probabilities; only filled for prefix rounds.
    scores: dict[str, float]


@dataclass
class ReplayResult:
    rounds: list[ReplayRound]
    # (t, member, category, weights, update_count) for updates in the prefix.
    snapshots: list[tuple[int, str, str, np.ndarray, int]]
    initial_counts: dict[tuple[str, str], int]
    final_counts: dict[tuple[str, str], int]

    def updated_pairs(self) -> dict[tuple[str, str], int]:
        """Final update count of every pair the replay trained."""
        return {k: n for k, n in self.final_counts.items() if n != self.initial_counts.get(k, 0)}


def replay(hist: PurchaseHistory, offers: dict[str, OfferRow], impressions: list[ImpressionRow],
           start: Models, settings: Settings, prefix: int) -> ReplayResult:
    """Camb replay from the checkpointed models. Every round's candidates
    are the offers active that day; every shown candidate trains each of
    its categories with its logged outcome. Scores and weights are
    recomputed for the first `prefix` rounds, update counts for all."""
    models = start
    scaler = Scaler()
    rounds: list[ReplayRound] = []
    snapshots = []
    start_counts = dict(start.n)
    counts = dict(start.n)
    ordinal = 0
    for imp in impressions:
        active = active_offers(offers, imp.day)
        if not active:
            continue
        in_prefix = len(rounds) < prefix
        if not in_prefix:
            for oid in imp.shown:
                if oid in active:
                    for c in offers[oid].categories:
                        counts[(imp.member, c)] = counts.get((imp.member, c), 0) + 1
            rounds.append(ReplayRound(imp.member, active, {}))
            continue
        raw = {oid: {c: hist.context(imp.member, offers[oid], c, imp.day) for c in offers[oid].categories}
               for oid in active}
        for oid in active:
            for c in offers[oid].categories:
                scaler.add(raw[oid][c])
        scaled = {oid: {c: scaler.z(x) for c, x in xs.items()} for oid, xs in raw.items()}
        scores = {
            oid: models.offer_prob(imp.member, xs, hist.shares(imp.member, offers[oid].categories))
            for oid, xs in scaled.items()
        }
        rounds.append(ReplayRound(imp.member, active, scores))
        for oid in imp.shown:
            if oid not in scaled:
                continue
            for c in offers[oid].categories:
                key = (imp.member, c)
                models.learn(key, scaled[oid][c], int(oid in imp.clipped))
                ordinal += 1
                counts[key] = counts.get(key, 0) + 1
                snapshots.append((ordinal, imp.member, c, models.w[key].copy(), counts[key]))
    return ReplayResult(rounds, snapshots, dict(start_counts), counts)


def models_from_checkpoint(path: Path, settings: Settings) -> Models:
    """Models as written in a checkpoint file (header line, then one pair
    per line)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    models = Models(np.asarray(header["prior_weights"], dtype=float), settings)
    for line in lines[1:]:
        row = json.loads(line)
        key = (row["member_id"], row["category_id"])
        models.w[key] = np.asarray(row["weights"], dtype=float)
        models.n[key] = int(row["update_count"])
    return models
