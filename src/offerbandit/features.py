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

from dataclasses import dataclass, field
from datetime import date
from itertools import accumulate, chain
from typing import Mapping, Sequence

import numpy as np

from .data import MFScoreTable, Offer, TransactionLog, encode
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
# Date ordinals: the datetime64 epoch's, and one past the largest, so
# that pair * _DAY_SPAN + ordinal keys sort by pair, then by day.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_DAY_SPAN = date.max.toordinal() + 1


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
    (an odd window of at most 51 weeks, 3 by default) before taking the
    ratio to the category's peak week, so a one-week spike credits its
    neighbors as well.
    """

    def __init__(self, weekly_counts: Mapping[str, np.ndarray], smoothing_window: int = 3):
        # A window wider than the year would count some weeks twice.
        if not 1 <= smoothing_window < WEEKS_PER_YEAR or smoothing_window % 2 == 0:
            raise ConfigError(f"smoothing_window must be odd and in [1, {WEEKS_PER_YEAR - 1}], got {smoothing_window}")
        self.smoothing_window = smoothing_window
        # Each category's smoothed weekly counts over their peak, or the
        # counts themselves, all zeros, when the peak is 0.
        self._scores: dict[str, np.ndarray] = {}
        for category, counts in weekly_counts.items():
            counts = np.asarray(counts, dtype=float)
            if counts.shape != (WEEKS_PER_YEAR,) or np.any(counts < 0):
                raise ValueError(f"weekly counts for {category} must be 52 non-negative values")
            smoothed = _circular_moving_average(counts, smoothing_window)
            peak = float(smoothed.max())
            self._scores[category] = smoothed / peak if peak else smoothed

    def score(self, category_id: str, day: date) -> float:
        """Seasonal score in [0, 1]; 0 for unseen or all-zero categories."""
        scores = self._scores.get(category_id)
        return 0.0 if scores is None else float(scores[week_of_year(day)])

    def table(self, categories: Sequence[str]) -> np.ndarray:
        """The scores of these categories by week, one row each."""
        zeros = np.zeros(WEEKS_PER_YEAR)
        return np.array([self._scores.get(c, zeros) for c in categories]).reshape(-1, WEEKS_PER_YEAR)


def week_of_year(day: date) -> int:
    """Map a date to a week index in [0, 51]; the last week absorbs day 365."""
    return min((day.timetuple().tm_yday - 1) // 7, WEEKS_PER_YEAR - 1)


def weeks_of_year(ordinals: np.ndarray) -> np.ndarray:
    """week_of_year of each date ordinal."""
    days = (ordinals - _EPOCH_ORDINAL).astype("datetime64[D]")
    return np.minimum((days - days.astype("datetime64[Y]")).astype(np.int64) // 7, WEEKS_PER_YEAR - 1)


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
) -> np.ndarray:
    """Assemble the raw (unnormalized) context for one offer/category pair.

    Brand loyalty for multi-brand offers is the max over the offer's
    brands; offers with no brand get 0.
    """
    if offer.brand_ids:
        loyalty = max(compute_brand_loyalty(b, stats) for b in offer.brand_ids)
    else:
        loyalty = 0.0
    return np.array(
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


@dataclass
class RoundBatch:
    """Consecutive rounds' contexts as one array.

    Offer slot k is offer_ids[k] and owns sizes[k] >= 1 consecutive rows
    of X, one per category, with categories[r] naming row r's category;
    offers keep the order they were given in and each offer's categories
    are sorted. Round i is members[i]'s and holds the offer slots
    offer_bounds[i]:offer_bounds[i + 1] and the rows
    row_bounds[i]:row_bounds[i + 1]; both bounds start at 0. shares[r] is
    row r's pair's purchase count over its member's, 0 where the member
    never bought the category (None: uniform shares); mf_scores[k] is
    offer slot k's raw mf score. Simulated rounds also carry each slot's
    true clip probability and one reward uniform per round.
    """

    offer_ids: list[str]
    categories: list[str]
    sizes: np.ndarray
    X: np.ndarray
    offer_bounds: np.ndarray
    row_bounds: np.ndarray
    members: list[str]
    shares: np.ndarray | None
    mf_scores: np.ndarray
    true_p: np.ndarray | None = None
    reward_draws: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.offer_bounds) - 1

    def head(self, n: int) -> RoundBatch:
        """The batch of the first n rounds; its arrays are views of these."""
        o, r = int(self.offer_bounds[n]), int(self.row_bounds[n])
        return RoundBatch(
            self.offer_ids[:o], self.categories[:r], self.sizes[:o], self.X[:r],
            self.offer_bounds[:n + 1],
            self.row_bounds[:n + 1],
            self.members[:n],
            None if self.shares is None else self.shares[:r],
            self.mf_scores[:o],
            None if self.true_p is None else self.true_p[:o],
            None if self.reward_draws is None else self.reward_draws[:n],
        )


def featurize_rounds(
    rounds: Sequence[tuple[str, date, Sequence[Offer]]],
    stats: MemberStatsIndex,
    profile: SeasonalityProfile,
    mf_table: MFScoreTable,
    cold_start_mpg: float = 1.0,
) -> RoundBatch:
    """Raw contexts of (member_id, day, offers) rounds, rounds and offers
    in the order given, each offer's categories sorted.

    Every row equals build_context(...) bit for bit. The rows of
    all rounds are worked out together with array operations: the last
    purchase by a searchsorted over the index's (pair, day) keys, brand
    loyalty as the largest (pair, brand) count over the pair's total
    (the division leaves it equal to the largest share), seasonality
    from a (category, week) table, and the offer features once per
    (offer, round).
    """
    # Each distinct offer object once; every (round, offer) slot as a code into that list.
    code_of: dict[int, int] = {}
    distinct: list[Offer] = []
    slots: list[int] = []
    mf: list[float] = []
    n_offers: list[int] = []
    members: list[str] = []
    days: list[int] = []
    for member, day, offers in rounds:
        for o in offers:
            k = code_of.setdefault(id(o), len(distinct))
            if k == len(distinct):
                distinct.append(o)
            slots.append(k)
            mf.append(mf_table.score(member, o.offer_id))
        n_offers.append(len(offers))
        members.append(member)
        days.append(day.toordinal())
    cats = [sorted(o.category_ids) for o in distinct]
    names, cat_entry = encode(list(chain.from_iterable(cats)))
    n_cats = np.array([len(cs) for cs in cats], dtype=np.intp)
    brands = [[stats._brand_code.get(b, -1) for b in o.brand_ids] for o in distinct]
    n_brands = np.array([len(bs) for bs in brands], dtype=np.intp)
    brand_entry = np.array(list(chain.from_iterable(brands)), dtype=np.int64)
    start = np.array([o.start_date.toordinal() for o in distinct], dtype=np.int64)
    offer_cols = np.array(
        [(float(o.duration_days()), float(o.discount_value), float(o.num_items)) for o in distinct], dtype=float
    ).reshape(-1, 3)

    slot = np.array(slots, dtype=np.intp)
    slot_round = np.repeat(np.arange(len(n_offers)), n_offers)
    day = np.array(days, dtype=np.int64)
    # duration_days is the first offer column, a whole number of days.
    recency = np.minimum(np.maximum((day[slot_round] - start[slot]) / offer_cols[slot, 0], 0.0), 1.0)
    sizes = n_cats[slot]
    row_slot = np.repeat(np.arange(len(slot)), sizes)
    row_offer = slot[row_slot]
    row_cat = cat_entry[_expand(_starts(n_cats)[slot], sizes)]
    row_round = slot_round[row_slot]
    member_code = np.array([stats._member_code.get(m, -1) for m in members], dtype=np.int64)
    category_code = np.array([stats._category_code.get(c, -1) for c in names], dtype=np.int64)
    pair = stats._pairs(member_code[row_round], category_code[row_cat])
    shares = np.zeros(len(pair))
    shares[pair >= 0] = stats._pair_shares[pair[pair >= 0]]
    row_brands = np.where(pair >= 0, n_brands[row_offer], 0)
    brand_rows = brand_entry[_expand(_starts(n_brands)[row_offer], row_brands)]

    X = np.empty((len(row_slot), N_FEATURES))
    X[:, 0] = 1.0
    X[:, 1] = stats._mpg(pair, day[row_round], cold_start_mpg)
    X[:, 2] = stats._loyalty(pair, row_brands, brand_rows)
    X[:, 3] = profile.table(names)[row_cat, weeks_of_year(day)[row_round]]
    X[:, 4] = recency[row_slot]
    X[:, 5:8] = offer_cols[row_offer]
    mf_scores = np.array(mf, dtype=float)
    X[:, 8] = mf_scores[row_slot]
    if not np.isfinite(X).all():
        raise ValueError("context vector contains non-finite values")
    offer_bounds = np.array(list(accumulate(n_offers, initial=0)), dtype=np.intp)
    row_ends = np.concatenate(([0], np.cumsum(sizes)))
    return RoundBatch(
        [distinct[k].offer_id for k in slots], list(chain.from_iterable(cats[k] for k in slots)), sizes, X,
        offer_bounds, row_ends[offer_bounds], members, shares, mf_scores,
    )


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of these lengths begins."""
    return np.cumsum(counts) - counts


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[i], ..., starts[i] + counts[i] - 1 of every
    i, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(_starts(counts) - starts, counts)


def scale_rounds(batch: RoundBatch, scaler: RunningScaler) -> None:
    """Normalize every round's rows in place through the shared online
    scaler: each round gets the bytes of RunningScaler.update with the
    whole round, rounds in order, then transform. Floating-point sums
    depend on their order, so the row order is part of the byte-identical
    output contract: offers as given (replay: sorted offer id; simulation:
    generation order; backfit: the impression's offers_shown order), and
    within each offer its sorted categories.

    Every round's row mean and squared-deviation sum are taken in one
    pass over the rows, rounds of one size together, each sum in the
    sequential row order of update's np.add.reduce(axis=0). The scaler
    then merges the rounds in round order and keeps the moments after
    each; every row is scaled by its round's moments in one array
    operation, the arithmetic of RunningScaler.transform. Rounds without
    rows leave the moments as they were. Before two samples the kept
    moments are mean 0 and scale 1, which leave a row as it is, as
    transform does.
    """
    X = batch.X
    sizes = np.diff(batch.row_bounds)
    rounds = np.flatnonzero(sizes)
    n_b, first = sizes[rounds], batch.row_bounds[rounds]
    mean_b = np.empty((len(rounds), N_FEATURES))
    m2_b = np.empty((len(rounds), N_FEATURES))
    for n in np.unique(n_b).tolist():
        same = np.flatnonzero(n_b == n)
        block = X[first[same, None] + np.arange(n)]  # rounds x rows x features
        mean_b[same] = np.add.reduce(block, axis=1) / n
        block -= mean_b[same, None]
        block *= block
        m2_b[same] = np.add.reduce(block, axis=1)
    count, mean, m2 = scaler.merge(n_b, mean_b, m2_b)
    warm = (count >= 2)[:, None]
    scale = np.maximum(np.sqrt(m2 / np.maximum(count - 1, 1)[:, None]), scaler.STD_FLOOR)
    mean = np.where(warm, mean, 0.0)
    scale = np.where(warm, scale, 1.0)
    rows = np.repeat(np.arange(len(rounds)), n_b)
    # The bias column passes through.
    X[:, 1:] -= mean[rows, 1:]
    X[:, 1:] /= scale[rows, 1:]


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

    def merge(self, n_b: np.ndarray, mean_b: np.ndarray, m2_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fold in batches given by their sizes n_b >= 1, means and
        squared-deviation sums, in order, exactly as update would fold
        their rows; returns the count, mean and m2 after each batch.

        Only the mean recurrence runs batch by batch, one feature at a
        time in Python floats, which round as numpy's do. Each m2 step
        adds the batch's sum, then its delta term; all of them are one
        sequential np.add.accumulate.
        """
        n_a = (self.count + np.cumsum(n_b) - n_b).tolist()
        sizes = list(zip(n_a, n_b.tolist()))
        weights = [b / (a + b) for a, b in sizes]
        columns = []
        for m, batch_means in zip(self._mean.tolist(), mean_b.T.tolist()):
            column = []
            for x, w in zip(batch_means, weights):
                m += (x - m) * w
                column.append(m)
            columns.append(column)
        means = np.array(columns, dtype=float).T
        delta = mean_b - np.vstack([self._mean, means[:-1]])
        steps = np.empty((2 * len(n_b) + 1, self._mean.size))
        steps[0] = self._m2
        steps[1::2] = m2_b
        steps[2::2] = delta * delta * np.array([a * b / (a + b) for a, b in sizes])[:, None]
        m2 = np.add.accumulate(steps, axis=0)[2::2]
        count = self.count + np.cumsum(n_b)
        if len(n_b):
            self.count, self._mean, self._m2 = int(count[-1]), means[-1].copy(), m2[-1].copy()
        return count, means, m2

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

    The log is held as arrays built in one pass over its columns. Codes
    are the log's, and pair p is the p-th purchased (member, category) in
    code order. Each pair's distinct purchase days are one ascending run
    of the flat (pair, day) keys, which starts at _day_starts[p]; brand
    counts are keyed by (pair, brand).
    """

    def __init__(self, log: TransactionLog, default_cycle_days: float = 30.0):
        if default_cycle_days <= 0:
            raise ConfigError(f"default_cycle_days must be positive, got {default_cycle_days}")
        self.default_cycle_days = float(default_cycle_days)
        self._member_code = {m: i for i, m in enumerate(log.members)}
        self._categories, self._brands = log.categories, log.brands
        self._category_code = {c: i for i, c in enumerate(log.categories)}
        self._brand_code = {b: i for i, b in enumerate(log.brands)}
        member, category, brand, day = log.member, log.category, log.brand, log.day
        n_categories = max(len(self._categories), 1)
        self._pair_keys, pair = np.unique(member * n_categories + category, return_inverse=True)
        n_pairs = len(self._pair_keys)
        self._day_keys = np.unique(pair * _DAY_SPAN + day)
        day_pair, days = np.divmod(self._day_keys, _DAY_SPAN)
        self._day_starts = np.searchsorted(day_pair, np.arange(n_pairs))
        same = day_pair[1:] == day_pair[:-1]
        gaps, gap_pair = np.diff(days)[same], day_pair[1:][same]
        pair_category = self._pair_keys % n_categories
        pair_cycle, pair_has = _group_medians(gap_pair, gaps, n_pairs)
        category_cycle, category_has = _group_medians(pair_category[gap_pair], gaps, len(self._categories))
        category_cycle = np.where(category_has, category_cycle, self.default_cycle_days)
        self._category_cycle = np.where(category_cycle > 0, category_cycle, self.default_cycle_days)
        cycle = np.where(pair_has, pair_cycle, category_cycle[pair_category])
        self._cycle = np.where(cycle > 0, cycle, self.default_cycle_days)
        self._brand_keys, self._brand_counts = np.unique(pair * len(self._brands) + brand, return_counts=True)
        self._pair_totals = np.bincount(pair, minlength=n_pairs)
        member_totals = np.bincount(member, minlength=len(log.members))
        self._pair_shares = self._pair_totals / member_totals[self._pair_keys // n_categories]

    def _pairs(self, members: np.ndarray, categories: np.ndarray) -> np.ndarray:
        """The pair of each (member code, category code), -1 where a code
        is -1 or the member never bought the category."""
        if not len(self._pair_keys):
            return np.full(len(members), -1, dtype=np.intp)
        keys = members * max(len(self._categories), 1) + categories
        pos = np.minimum(np.searchsorted(self._pair_keys, keys), len(self._pair_keys) - 1)
        return np.where((members >= 0) & (categories >= 0) & (self._pair_keys[pos] == keys), pos, -1)

    def _mpg(self, pairs: np.ndarray, days: np.ndarray, cold_start_mpg: float) -> np.ndarray:
        """compute_mpg of each (pair, day ordinal): days since the pair's
        last purchase on or before the day over its cycle, cold_start_mpg
        where there is none."""
        mpg = np.full(len(pairs), cold_start_mpg, dtype=float)
        rows = np.flatnonzero(pairs >= 0)
        p, d = pairs[rows], days[rows]
        last = np.searchsorted(self._day_keys, p * _DAY_SPAN + d, side="right") - 1
        seen = last >= self._day_starts[p]
        mpg[rows[seen]] = (d[seen] - self._day_keys[last[seen]] % _DAY_SPAN) / self._cycle[p[seen]]
        return mpg

    def _loyalty(self, pairs: np.ndarray, n_brands: np.ndarray, brands: np.ndarray) -> np.ndarray:
        """Brand loyalty of each row: the largest count of the pair's
        purchases on one of the row's n_brands brand codes (the next
        entries of brands, -1 for a brand never bought) over the pair's
        total; 0 for rows without brands."""
        loyalty = np.zeros(len(pairs))
        rows = np.flatnonzero(n_brands)
        if not len(rows):
            return loyalty
        keys = np.repeat(pairs[rows], n_brands[rows]) * len(self._brands) + brands
        pos = np.minimum(np.searchsorted(self._brand_keys, keys), len(self._brand_keys) - 1)
        counts = np.where((brands >= 0) & (self._brand_keys[pos] == keys), self._brand_counts[pos], 0)
        loyalty[rows] = np.maximum.reduceat(counts, _starts(n_brands[rows])) / self._pair_totals[pairs[rows]]
        return loyalty


def _group_medians(groups: np.ndarray, values: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """statistics.median of each group's integer values, as a float (0
    for a group without values), and whether the group has any."""
    v = values[np.lexsort((values, groups))]
    counts = np.bincount(groups, minlength=n_groups)
    has = counts > 0
    first, n = _starts(counts)[has], counts[has]
    medians = np.zeros(n_groups)
    # The middle value, or the mean of the middle two: their sum is exact.
    medians[has] = (v[first + (n - 1) // 2] + v[first + n // 2]) / 2
    return medians, has


def build_seasonality_profile(log: TransactionLog, smoothing_window: int = 3) -> SeasonalityProfile:
    """Count weekly purchases per category over the log, in one pass."""
    week = weeks_of_year(log.day)
    counts = np.bincount(log.category * WEEKS_PER_YEAR + week, minlength=len(log.categories) * WEEKS_PER_YEAR)
    return SeasonalityProfile(dict(zip(log.categories, counts.reshape(-1, WEEKS_PER_YEAR))), smoothing_window)
