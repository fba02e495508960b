from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from offerbandit.baselines import OfferCandidate, OfferRound
from offerbandit.data import TransactionLog
from offerbandit.features import RoundContexts

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
        None if candidates[0].true_p is None else np.array([c.true_p for c in candidates]),
    )


@pytest.fixture
def as_round():
    """Turn a list of OfferCandidates into the OfferRound select takes."""
    return _as_round
