import json
from dataclasses import replace
from datetime import date
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from offerbandit.bandit import CategoryModel, ModelStore, finite_weights, json_count, json_id
from offerbandit.baselines import OfferCandidate, OfferRound
from offerbandit.data import RECORD_ERRORS, TransactionLog, _lines
from offerbandit.errors import ConfigError
from offerbandit.features import (
    FEATURE_ORDER_VERSION,
    N_FEATURES,
    MemberCategoryStats,
    MemberStatsIndex,
    RoundBatch,
    RunningScaler,
)
from offerbandit.interpret import WeightSnapshot

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


def one_round(offer_ids, categories, sizes, X, member="m0", shares=None, mf_scores=None, true_p=None) -> RoundBatch:
    """The one-round batch of these offers, offer k owning the next
    sizes[k] rows of X; mf scores default to zeros."""
    sizes = np.asarray(sizes, dtype=np.intp)
    X = np.asarray(X, dtype=float).reshape(-1, N_FEATURES)
    return RoundBatch(
        list(offer_ids), list(categories), sizes, X, np.array([0, len(sizes)]), np.array([0, len(X)]), [member],
        None if shares is None else np.asarray(shares, dtype=float),
        np.zeros(len(sizes)) if mf_scores is None else np.asarray(mf_scores, dtype=float),
        None if true_p is None else np.asarray(true_p, dtype=float),
    )


def each_round(batch: RoundBatch):
    """Each round of a batch in order, as a one-round batch of slices and
    views of its columns."""
    ob, rb = batch.offer_bounds.tolist(), batch.row_bounds.tolist()
    for member, a, b, r0, r1 in zip(batch.members, ob, ob[1:], rb, rb[1:]):
        yield one_round(
            batch.offer_ids[a:b], batch.categories[r0:r1], batch.sizes[a:b], batch.X[r0:r1], member,
            None if batch.shares is None else batch.shares[r0:r1], batch.mf_scores[a:b],
            None if batch.true_p is None else batch.true_p[a:b],
        )


def offer_rows(sizes) -> list[slice]:
    """The rows of each offer, offers owning sizes[k] consecutive rows."""
    sizes = np.asarray(sizes).tolist()
    return [slice(end - n, end) for end, n in zip(accumulate(sizes), sizes)]


def stack_contexts(contexts, **round_fields) -> RoundBatch:
    """The one-round batch of {offer_id: {category_id: vector}}: offers in
    the mapping's order, each offer's categories sorted; round_fields go
    to one_round."""
    cats = [sorted(vectors) for vectors in contexts.values()]
    rows = [vectors[c] for vectors, cs in zip(contexts.values(), cats) for c in cs]
    return one_round(list(contexts), [c for cs in cats for c in cs], [len(cs) for cs in cats], rows, **round_fields)


def scale_round(raw: RoundBatch, scaler: RunningScaler) -> RoundBatch:
    """Normalize one round's raw rows through the shared online scaler:
    fold the whole round in as one batch, then transform it. The
    per-round reference scale_rounds must equal byte for byte."""
    scaler.update(raw.X)
    return replace(raw, X=scaler.transform(raw.X))


def sorted_positions(ids) -> list[int]:
    """The positions of ids in sorted-id order, ties in given order."""
    return sorted(range(len(ids)), key=ids.__getitem__)


def make_round(scaled: RoundBatch) -> OfferRound:
    """A scaled one-round batch as its policy sees it, built on its own:
    each offer's row weights are its rows' purchase shares renormalized
    over the offer (uniform when shares is None or sum to 0), and its
    offer vector is the share-weighted sum of its rows. The per-round
    reference that harness.offer_rounds must equal byte for byte."""
    sizes = scaled.sizes
    starts = np.array(list(accumulate(sizes.tolist(), initial=0))[:-1], dtype=np.intp)
    weights = (1.0 / sizes).repeat(sizes)
    if scaled.shares is not None:
        total = np.add.reduceat(scaled.shares, starts).repeat(sizes)
        weights = np.where(total > 0, scaled.shares / np.where(total > 0, total, 1.0), weights)
    pooled = np.add.reduceat(weights[:, None] * scaled.X, starts, axis=0)
    return OfferRound(
        scaled.offer_ids, scaled.categories, scaled.X, starts, scaled.members[0], weights, pooled, scaled.mf_scores,
        sorted_positions(scaled.offer_ids), scaled.true_p,
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
    ids = [c.offer_id for c in candidates]
    return OfferRound(
        ids,
        [name for names in cats for name in names],
        np.array([c.category_vectors[name] for c, names in zip(candidates, cats) for name in names], dtype=float),
        np.array(list(accumulate((len(names) for names in cats), initial=0))[:-1], dtype=np.intp),
        candidates[0].member_id,
        np.array([c.shares[name] for c, names in zip(candidates, cats) for name in names]),
        np.array([c.offer_vector for c in candidates], dtype=float),
        np.array([c.mf_score for c in candidates], dtype=float),
        sorted_positions(ids),
        None if candidates[0].true_p is None else np.array([c.true_p for c in candidates]),
    )


@pytest.fixture
def as_round():
    """Turn a list of OfferCandidates into the OfferRound select takes."""
    return _as_round


def read_state_per_line(path, kind: str, version: int, row, start=lambda header: None) -> dict:
    """The per-line state-file reader that the column loaders replaced:
    each line is decoded, parsed and checked on its own, start gets the
    header and row each later line's value in file order. Returns the
    header; every failure is ConfigError("<kind> <path> line <n>:
    <reason>"). The reference the loaders' error reporting must match."""
    lineno = 1
    try:
        with Path(path).open("rb") as fh:
            lines = _lines(fh)
            header = json.loads(next(lines, b"").decode("utf-8"))
            found = header.get("feature_order_version")
            if found != version:
                raise ValueError(f"{kind} feature order version {found} does not match current version {version}")
            start(header)
            for lineno, line in enumerate(lines, start=2):
                text = line.decode("utf-8").strip()
                if text:
                    row(json.loads(text))
    except RECORD_ERRORS as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{kind} {path} line {lineno}: {reason}") from None
    return header


def load_trajectory_per_line(path) -> dict[tuple[str, str], list[WeightSnapshot]]:
    """Each pair's snapshots of a trajectory file, read line by line as
    TrajectoryStore.load once read it, one WeightSnapshot per line."""
    series: dict[tuple[str, str], list[WeightSnapshot]] = {}

    def add(obj) -> None:
        member, category = json_id(obj["member_id"], "member_id"), json_id(obj["category_id"], "category_id")
        weights = tuple(map(float, finite_weights(obj["weights"])))
        count, t = json_count(obj["update_count"], "update_count"), json_count(obj["t"], "t")
        key = (member, category)
        pair = series.setdefault(key, [])
        if pair and t <= pair[-1].t:
            raise ValueError(f"snapshot t={t} does not advance past t={pair[-1].t} for {key}")
        pair.append(WeightSnapshot(t, member, category, weights, count))

    read_state_per_line(path, "trajectory", FEATURE_ORDER_VERSION, add)
    return series


def load_checkpoint_per_line(path) -> tuple[ModelStore, dict]:
    """A checkpoint read line by line as load_checkpoint once read it,
    one ModelStore.put per line."""
    store = ModelStore()

    def start(header) -> None:
        nonlocal store
        json_count(header["n_models"], "n_models")
        store = ModelStore(finite_weights(header["prior_weights"]))

    def add(obj) -> None:
        key = (json_id(obj["member_id"], "member_id"), json_id(obj["category_id"], "category_id"))
        if key in store:
            raise ValueError(f"duplicate model {key}")
        count = json_count(obj["update_count"], "update_count")
        store.put(*key, CategoryModel(finite_weights(obj["weights"]), count))

    header = read_state_per_line(path, "checkpoint", FEATURE_ORDER_VERSION, add, start)
    if len(store) != header["n_models"]:
        raise ConfigError(f"checkpoint {path} line 1: n_models is {header['n_models']} but {len(store)} model rows follow")
    return store, header
