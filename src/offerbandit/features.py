"""Engineered context features and online normalization.

Every offer/category pair seen by the learner is described by a fixed-order
vector of nine features. The order is frozen and versioned; model weights,
checkpoints and weight trajectories all reference it by index.

    bias           constant 1.0, never normalized
    mpg            purchase-gap ratio: days since last category purchase
                   divided by the member's replenishment cycle
    brand_loyalty  share of the member's category purchases on the offer's
                   brand (max over the offer's brands)
    seasonality    smoothed week-of-year demand for the category, scaled to
                   peak at 1.0
    recency        fraction of the offer window already elapsed, in [0, 1]
    duration       offer length in days
    value          discount value of the offer
    num_items      number of items the offer covers
    mf_score       matrix-factorization affinity of the member to the offer
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import MFScoreTable, Offer, Transaction
from .errors import ConfigError

FEATURE_NAMES = (
    "bias",
    "mpg",
    "brand_loyalty",
    "seasonality",
    "recency",
    "duration",
    "value",
    "num_items",
    "mf_score",
)
FEATURE_ORDER_VERSION = 1
N_FEATURES = len(FEATURE_NAMES)

WEEKS_PER_YEAR = 52


@dataclass
class ContextVector:
    """A feature vector in the canonical order above.

    values[0] is the bias and must be exactly 1.0. All entries are finite.
    """

    values: np.ndarray

    feature_names = FEATURE_NAMES

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (N_FEATURES,):
            raise ValueError(f"context vector must have {N_FEATURES} entries, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("context vector contains non-finite values")
        if self.values[0] != 1.0:
            raise ValueError(f"bias entry must be 1.0, got {self.values[0]}")


@dataclass
class MemberCategoryStats:
    """Per (member, category) purchase summary backing MPG and loyalty."""

    last_purchase_date: date | None
    cycle_length: float
    brand_counts: Mapping[str, int] = field(default_factory=dict)


def compute_mpg(event_date: date, stats: MemberCategoryStats, cold_start_mpg: float = 1.0) -> float:
    """Purchase-gap ratio: days since the last category purchase over the
    member's replenishment cycle. Members with no purchase history get the
    neutral cold-start value.
    """
    if stats.cycle_length <= 0:
        raise ConfigError(f"cycle_length must be positive, got {stats.cycle_length}")
    if stats.last_purchase_date is None:
        return cold_start_mpg
    gap = (event_date - stats.last_purchase_date).days
    if gap < 0:
        raise ValueError(f"event_date {event_date} precedes last purchase {stats.last_purchase_date}")
    return gap / stats.cycle_length


def compute_brand_loyalty(brand_id: str, stats: MemberCategoryStats) -> float:
    """Fraction of the member's purchases in this category on brand_id.

    Zero when the member has no purchases in the category.
    """
    total = sum(stats.brand_counts.values())
    if total == 0:
        return 0.0
    return stats.brand_counts.get(brand_id, 0) / total


class SeasonalityProfile:
    """Per-category week-of-year demand, smoothed and peak-normalized.

    Weekly purchase counts are smoothed with a circular moving average
    (window 3 by default) before taking the ratio to the category's peak
    week, so a one-week spike credits its neighbors as well.
    """

    def __init__(self, weekly_counts: Mapping[str, np.ndarray], smoothing_window: int = 3):
        if smoothing_window < 1 or smoothing_window % 2 == 0:
            raise ConfigError(f"smoothing_window must be odd and positive, got {smoothing_window}")
        self.smoothing_window = smoothing_window
        self._smoothed: dict[str, np.ndarray] = {}
        self._peak: dict[str, float] = {}
        for category, counts in weekly_counts.items():
            counts = np.asarray(counts, dtype=float)
            if counts.shape != (WEEKS_PER_YEAR,) or np.any(counts < 0):
                raise ValueError(f"weekly counts for {category} must be 52 non-negative values")
            smoothed = _circular_moving_average(counts, smoothing_window)
            self._smoothed[category] = smoothed
            self._peak[category] = float(smoothed.max())

    def score(self, category_id: str, day: date) -> float:
        """Seasonal score in [0, 1]; 0 for unseen or all-zero categories."""
        smoothed = self._smoothed.get(category_id)
        if smoothed is None:
            return 0.0
        peak = self._peak[category_id]
        if peak == 0.0:
            return 0.0
        return float(smoothed[week_of_year(day)] / peak)


def week_of_year(day: date) -> int:
    """Map a date to a week index in [0, 51]; the last week absorbs day 365."""
    return min((day.timetuple().tm_yday - 1) // 7, WEEKS_PER_YEAR - 1)


def _circular_moving_average(counts: np.ndarray, window: int) -> np.ndarray:
    half = window // 2
    wrapped = np.concatenate([counts[-half:], counts, counts[:half]]) if half else counts
    kernel = np.ones(window) / window
    return np.convolve(wrapped, kernel, mode="valid")


def compute_seasonality(category_id: str, day: date, profile: SeasonalityProfile) -> float:
    return profile.score(category_id, day)


def compute_recency(offer: Offer, day: date) -> float:
    """Elapsed fraction of the offer window, clamped to [0, 1]."""
    elapsed = (day - offer.start_date).days
    return min(max(elapsed / offer.duration_days(), 0.0), 1.0)


def build_context(
    member_id: str,
    offer: Offer,
    category_id: str,
    day: date,
    stats: MemberCategoryStats,
    profile: SeasonalityProfile,
    mf_table: MFScoreTable,
    cold_start_mpg: float = 1.0,
) -> ContextVector:
    """Assemble the raw (unnormalized) context for one offer/category pair.

    Brand loyalty for multi-brand offers is the max over the offer's
    brands; offers with no brand get 0.
    """
    if offer.brand_ids:
        loyalty = max(compute_brand_loyalty(b, stats) for b in offer.brand_ids)
    else:
        loyalty = 0.0
    values = np.array(
        [
            1.0,
            compute_mpg(day, stats, cold_start_mpg),
            loyalty,
            profile.score(category_id, day),
            compute_recency(offer, day),
            float(offer.duration_days()),
            float(offer.discount_value),
            float(offer.num_items),
            mf_table.score(member_id, offer.offer_id),
        ]
    )
    return ContextVector(values)


@dataclass
class RoundContexts:
    """One round's contexts as one array.

    Offer k owns sizes[k] >= 1 consecutive rows of X, one per category,
    with categories[r] naming row r's category. Offers keep the order
    they were given in; each offer's categories are sorted.
    """

    offer_ids: list[str]
    categories: list[str]
    sizes: list[int]
    X: np.ndarray

    @classmethod
    def stack(cls, contexts: Mapping[str, Mapping[str, np.ndarray]]) -> RoundContexts:
        """From {offer_id: {category_id: vector}}."""
        cats = [sorted(vectors) for vectors in contexts.values()]
        rows = [vectors[c] for vectors, cs in zip(contexts.values(), cats) for c in cs]
        return cls(
            list(contexts),
            [c for cs in cats for c in cs],
            [len(cs) for cs in cats],
            np.array(rows, dtype=float).reshape(-1, N_FEATURES),
        )

    def offer_slices(self) -> list[slice]:
        """The rows of each offer, in offer order."""
        return [slice(end - n, end) for end, n in zip(accumulate(self.sizes), self.sizes)]

    @cached_property
    def starts(self) -> np.ndarray:
        """Each offer's first row, in offer order: the np.add.reduceat
        offsets that pool a round's rows per offer."""
        return np.array(list(accumulate(self.sizes, initial=0))[:-1], dtype=np.intp)


def featurize(
    member_id: str,
    day: date,
    offers: Sequence[Offer],
    stats: MemberStatsIndex,
    profile: SeasonalityProfile,
    mf_table: MFScoreTable,
    cold_start_mpg: float = 1.0,
) -> RoundContexts:
    """Raw contexts of one round, offers in the order given.

    Every row equals build_context(...).values bit for bit. The
    (member, category) features are worked out once per distinct category
    of the round and the offer features once per offer; brand loyalty is
    the largest brand count over the total, which the division leaves
    equal to the largest share.
    """
    cats_per_offer = [sorted(o.category_ids) for o in offers]
    per_category = {}
    for c in {c for cats in cats_per_offer for c in cats}:
        s = stats.stats(member_id, c, day)
        counts = s.brand_counts
        per_category[c] = (compute_mpg(day, s, cold_start_mpg), profile.score(c, day), counts, sum(counts.values()))
    member_rows = []
    for o, cats in zip(offers, cats_per_offer):
        for c in cats:
            mpg, season, counts, total = per_category[c]
            loyalty = max(counts.get(b, 0) for b in o.brand_ids) / total if o.brand_ids and total else 0.0
            member_rows.append((1.0, mpg, loyalty, season))
    offer_rows = [
        (compute_recency(o, day), float(o.duration_days()), float(o.discount_value), float(o.num_items),
         mf_table.score(member_id, o.offer_id))
        for o in offers
    ]
    sizes = [len(cats) for cats in cats_per_offer]
    X = np.empty((len(member_rows), N_FEATURES))
    X[:, :4] = np.array(member_rows, dtype=float).reshape(-1, 4)
    X[:, 4:] = np.repeat(np.array(offer_rows, dtype=float).reshape(-1, 5), sizes, axis=0)
    if not np.isfinite(X).all():
        raise ValueError("context vector contains non-finite values")
    return RoundContexts([o.offer_id for o in offers], [c for cats in cats_per_offer for c in cats], sizes, X)


def scale_round(raw: RoundContexts, scaler: RunningScaler) -> RoundContexts:
    """Normalize one round's raw contexts through the shared online scaler.

    The scaler first takes the whole round as one batch, then transforms
    it, so the round is scaled by moments that include it. Floating-point
    sums depend on their order, so the row order is part of the
    byte-identical output contract: offers as given (replay: sorted offer
    id; simulation: generation order; backfit: the impression's
    offers_shown order), and within each offer its sorted categories.
    """
    scaler.update(raw.X)
    return RoundContexts(raw.offer_ids, raw.categories, raw.sizes, scaler.transform(raw.X))


class RunningScaler:
    """Streaming z-score normalizer over context vectors.

    Keeps running mean and variance per feature and transforms to
    (v - mean) / std with the std floored at 1e-6. Each update folds in a
    batch of rows with the pairwise merge of Chan, Golub & LeVeque (1983);
    a single row is a batch of one. The bias entry is never touched. Until
    two samples have been seen the transform is the identity.
    """

    STD_FLOOR = 1e-6

    def __init__(self):
        self.count = 0
        self._mean = np.zeros(N_FEATURES)
        self._m2 = np.zeros(N_FEATURES)

    def update(self, values: np.ndarray) -> None:
        """Fold in one row or a stack of rows."""
        rows = np.asarray(values, dtype=float).reshape(-1, self._mean.size)
        n_b = len(rows)
        if n_b == 0:
            return
        n_a = self.count
        self.count = n = n_a + n_b
        mean_b = np.add.reduce(rows, axis=0)
        mean_b /= n_b
        delta = mean_b - self._mean
        dev = rows - mean_b
        dev *= dev
        self._m2 += np.add.reduce(dev, axis=0)
        self._m2 += delta * delta * (n_a * n_b / n)
        delta *= n_b / n
        self._mean += delta

    def mean(self) -> np.ndarray:
        return self._mean.copy()

    def std(self) -> np.ndarray:
        """Sample standard deviation (ddof=1); zeros before two samples."""
        if self.count < 2:
            return np.zeros_like(self._mean)
        return np.sqrt(self._m2 / (self.count - 1))

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Scale one row or a stack of rows."""
        values = np.asarray(values, dtype=float)
        if self.count < 2:
            return values.copy()
        out = (values - self._mean) / np.maximum(self.std(), self.STD_FLOOR)
        out[..., 0] = values[..., 0]  # bias passes through
        return out


class MemberStatsIndex:
    """Purchase-history lookups behind feature computation.

    Replenishment cycles are the median positive gap between consecutive
    purchase dates per (member, category); pairs with fewer than two
    distinct dates fall back to the category-level median and then to
    default_cycle_days. Brand counts and purchase shares are taken over the
    full log; the last-purchase date is resolved as of the query date.
    """

    def __init__(self, transactions: Sequence[Transaction], default_cycle_days: float = 30.0):
        if default_cycle_days <= 0:
            raise ConfigError(f"default_cycle_days must be positive, got {default_cycle_days}")
        self.default_cycle_days = float(default_cycle_days)
        dates: dict[tuple[str, str], list[date]] = defaultdict(list)
        self._brand_counts: dict[tuple[str, str], Counter] = defaultdict(Counter)
        self._member_totals: dict[str, Counter] = defaultdict(Counter)
        for t in sorted(transactions, key=lambda t: t.event_date):
            key = (t.member_id, t.category_id)
            if not dates[key] or dates[key][-1] != t.event_date:
                dates[key].append(t.event_date)
            self._brand_counts[key][t.brand_id] += 1
            self._member_totals[t.member_id][t.category_id] += 1
        self._dates = dict(dates)

        pair_gaps: dict[tuple[str, str], list[int]] = {}
        category_gaps: dict[str, list[int]] = defaultdict(list)
        for key, ds in self._dates.items():
            gaps = [(b - a).days for a, b in zip(ds, ds[1:])]
            pair_gaps[key] = gaps
            category_gaps[key[1]].extend(gaps)
        self._category_cycle = {
            c: float(statistics.median(g)) for c, g in category_gaps.items() if g
        }
        self._pair_cycle = {}
        for key, gaps in pair_gaps.items():
            if gaps:
                self._pair_cycle[key] = float(statistics.median(gaps))

    def cycle_length(self, member_id: str, category_id: str) -> float:
        cycle = self._pair_cycle.get((member_id, category_id))
        if cycle is None:
            cycle = self._category_cycle.get(category_id)
        if cycle is None or cycle <= 0:
            cycle = self.default_cycle_days
        return cycle

    def stats(self, member_id: str, category_id: str, as_of: date) -> MemberCategoryStats:
        """Stats visible on as_of: the most recent purchase on or before that day."""
        ds = self._dates.get((member_id, category_id), [])
        pos = bisect_right(ds, as_of)
        last = ds[pos - 1] if pos else None
        return MemberCategoryStats(
            last_purchase_date=last,
            cycle_length=self.cycle_length(member_id, category_id),
            brand_counts=self._brand_counts.get((member_id, category_id), {}),
        )

    def purchase_share(self, member_id: str) -> dict[str, float]:
        """Fraction of the member's purchase events per category."""
        totals = self._member_totals.get(member_id)
        if not totals:
            return {}
        grand = sum(totals.values())
        return {c: n / grand for c, n in totals.items()}

    def members(self) -> list[str]:
        return sorted(self._member_totals)


def build_seasonality_profile(
    transactions: Iterable[Transaction], smoothing_window: int = 3
) -> SeasonalityProfile:
    """Accumulate weekly purchase counts per category from the log."""
    counts: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(WEEKS_PER_YEAR))
    for t in transactions:
        counts[t.category_id][week_of_year(t.event_date)] += 1
    return SeasonalityProfile(counts, smoothing_window)
