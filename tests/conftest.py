from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from offerbandit.baselines import OfferCandidate, OfferRound
from offerbandit.data import TransactionLog
from offerbandit.features import N_FEATURES, MemberCategoryStats, MemberStatsIndex, RoundContexts, RunningScaler

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def transaction_log(rows):
    """The TransactionLog of (member_id, category_id, brand_id,
    event_date, ...) rows, such as datagen's; entries past the date are
    ignored."""
    rows = list(rows)
    return TransactionLog.from_columns(
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], [r[3].toordinal() for r in rows]
    )


def log_rows(log):
    """The (member_id, category_id, brand_id, event_date) of each row of
    a TransactionLog, in its order."""
    columns = (log.member.tolist(), log.category.tolist(), log.brand.tolist(), log.day.tolist())
    return [
        (log.members[m], log.categories[c], log.brands[b], date.fromordinal(d)) for m, c, b, d in zip(*columns)
    ]


def _pair(index: MemberStatsIndex, member_id: str, category_id: str) -> int:
    codes = (index._member_code.get(member_id, -1), index._category_code.get(category_id, -1))
    return int(index._pairs(*(np.array([c], dtype=np.int64) for c in codes))[0])


def cycle_length(index: MemberStatsIndex, member_id: str, category_id: str) -> float:
    """The pair's replenishment cycle, the category's when the member never
    bought it, the default for an unknown category."""
    p = _pair(index, member_id, category_id)
    if p >= 0:
        return float(index._cycle[p])
    c = index._category_code.get(category_id)
    return index.default_cycle_days if c is None else float(index._category_cycle[c])


def member_stats(index: MemberStatsIndex, member_id: str, category_id: str, as_of: date) -> MemberCategoryStats:
    """The pair's stats visible on as_of, read one pair at a time from the
    index's arrays: the most recent purchase on or before that day, the
    cycle and the brand counts, as the reference build_context takes them."""
    p = _pair(index, member_id, category_id)
    if p < 0:
        return MemberCategoryStats(None, cycle_length(index, member_id, category_id), {})
    span = date.max.toordinal() + 1
    pos = int(np.searchsorted(index._day_keys, p * span + as_of.toordinal(), side="right"))
    last = date.fromordinal(int(index._day_keys[pos - 1] % span)) if pos > index._day_starts[p] else None
    n = len(index._brands)
    lo, hi = np.searchsorted(index._brand_keys, [p * n, (p + 1) * n])
    counts = zip(index._brand_keys[lo:hi].tolist(), index._brand_counts[lo:hi].tolist())
    return MemberCategoryStats(last, float(index._cycle[p]), {index._brands[k % n]: c for k, c in counts})


def stack_contexts(contexts) -> RoundContexts:
    """The RoundContexts of {offer_id: {category_id: vector}}: offers in
    the mapping's order, each offer's categories sorted."""
    cats = [sorted(vectors) for vectors in contexts.values()]
    rows = [vectors[c] for vectors, cs in zip(contexts.values(), cats) for c in cs]
    return RoundContexts(
        list(contexts),
        [c for cs in cats for c in cs],
        [len(cs) for cs in cats],
        np.array(rows, dtype=float).reshape(-1, N_FEATURES),
    )


def scale_round(raw: RoundContexts, scaler: RunningScaler) -> RoundContexts:
    """Normalize one round's raw contexts through the shared online
    scaler: fold the whole round in as one batch, then transform it. The
    per-round reference scale_rounds must equal byte for byte."""
    scaler.update(raw.X)
    return RoundContexts(raw.offer_ids, raw.categories, raw.sizes, scaler.transform(raw.X))


def sorted_positions(ids) -> list[int]:
    """The positions of ids in sorted-id order, ties in given order."""
    return sorted(range(len(ids)), key=ids.__getitem__)


def make_round(scaled: RoundContexts, member_id: str, shares, mf_scores, true_p=None) -> OfferRound:
    """One round as its policy sees it, built on its own: each offer's row
    weights are its rows' purchase shares renormalized over the offer
    (uniform when shares is None or sum to 0), and its offer vector is the
    share-weighted sum of its rows. The per-round reference that
    harness.offer_rounds must equal byte for byte."""
    sizes = np.asarray(scaled.sizes)
    weights = (1.0 / sizes).repeat(sizes)
    if shares is not None:
        total = np.add.reduceat(shares, scaled.starts).repeat(sizes)
        weights = np.where(total > 0, shares / np.where(total > 0, total, 1.0), weights)
    pooled = np.add.reduceat(weights[:, None] * scaled.X, scaled.starts, axis=0)
    return OfferRound(
        scaled, member_id, weights, pooled, np.asarray(mf_scores, dtype=float), sorted_positions(scaled.offer_ids),
        None if true_p is None else np.asarray(true_p, dtype=float),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def candidate_factory():
    """Build an OfferCandidate whose offer_vector is given directly."""

    def make(offer_id, vector, member="m0", true_p=None, categories=None,
             shares=None, mf_score=0.0):
        vector = np.asarray(vector, dtype=float)
        cats = categories or {"c0": vector}
        return OfferCandidate(
            offer_id=offer_id,
            member_id=member,
            category_vectors={c: np.asarray(x, dtype=float) for c, x in cats.items()},
            shares=shares or {c: 1.0 / len(cats) for c in cats},
            mf_score=mf_score,
            offer_vector=vector,
            true_p=true_p,
        )

    return make


def _as_round(candidates):
    """The OfferRound a policy's select takes, holding the given candidates
    in order: their category vectors as rows, their shares as row weights,
    their offer vectors, mf scores and true probabilities."""
    cats = [sorted(c.category_vectors) for c in candidates]
    contexts = RoundContexts(
        [c.offer_id for c in candidates],
        [name for names in cats for name in names],
        [len(names) for names in cats],
        np.array([c.category_vectors[name] for c, names in zip(candidates, cats) for name in names], dtype=float),
    )
    return OfferRound(
        contexts,
        candidates[0].member_id,
        np.array([c.shares[name] for c, names in zip(candidates, cats) for name in names]),
        np.array([c.offer_vector for c in candidates], dtype=float),
        np.array([c.mf_score for c in candidates], dtype=float),
        sorted_positions(contexts.offer_ids),
        None if candidates[0].true_p is None else np.array([c.true_p for c in candidates]),
    )


@pytest.fixture
def as_round():
    """Turn a list of OfferCandidates into the OfferRound select takes."""
    return _as_round
