import csv
import importlib
import importlib.util
import inspect
import json
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import each_round, make_round, member_stats, offer_rows, scale_round, stack_contexts, transaction_log
from offerbandit.bandit import LearnerConfig, aggregate_offer, renormalize_shares, sigmoid
from offerbandit.baselines import make_policy
from offerbandit.data import Impression, MFScoreTable, Offer
from offerbandit.errors import ConfigError
from offerbandit.exploration import ExplorationConfig
from offerbandit.datagen import generate_impressions, generate_offers, generate_transactions
from offerbandit.features import (
    MemberStatsIndex,
    RoundBatch,
    RunningScaler,
    build_context,
    build_seasonality_profile,
    featurize_rounds,
    scale_rounds,
)
from offerbandit.harness import (
    OraclePolicy,
    ReplayDataset,
    RoundRecord,
    backfit_events,
    SyntheticWorld,
    SyntheticWorldConfig,
    build_manifest,
    compute_metrics,
    config_hash,
    files_fingerprint,
    offer_rounds,
    oracle_best,
    run_replay,
    run_synthetic,
    write_metrics_csv,
    write_roundlog,
)

LEARNER = LearnerConfig()
EXPLORE = ExplorationConfig()
ROOT = Path(__file__).resolve().parents[1]


def policy(name, exploration=EXPLORE, **kw):
    return make_policy(name, LEARNER, exploration, **kw)


class TwoOfferWorld:
    """Two offers with fixed true probabilities and noise features."""

    def __init__(self, p_hi=0.8, p_lo=0.2):
        self.p = {"oA": p_hi, "oB": p_lo}

    def draw_rounds(self, n_rounds, rng):
        ids = sorted(self.p)
        n = n_rounds * len(ids)
        X = np.ones((n, 9))
        X[:, 1:] = rng.uniform(0.0, 1.0, size=(n, 8))
        bounds = np.arange(0, n + 1, len(ids))
        true_p = np.array([self.p[oid] for oid in ids] * n_rounds)
        return RoundBatch(ids * n_rounds, ["c0"] * n, np.ones(n, dtype=np.intp), X, bounds, bounds, ["m0"] * n_rounds,
                          None, np.zeros(n), true_p, rng.random(n_rounds))


class TestSyntheticWorld:
    def test_same_seed_same_world(self):
        a = SyntheticWorld(SyntheticWorldConfig(seed=5))
        b = SyntheticWorld(SyntheticWorldConfig(seed=5))
        for c in a.categories:
            np.testing.assert_array_equal(a.true_weights[c], b.true_weights[c])
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        ma, ra, mfa, pa = a.generate_round(1, rng_a)
        mb, rb, mfb, pb = b.generate_round(1, rng_b)
        assert ma == mb
        assert ra.offer_ids == rb.offer_ids and ra.categories == rb.categories
        np.testing.assert_array_equal(ra.X, rb.X)
        np.testing.assert_array_equal(mfa, mfb)
        np.testing.assert_array_equal(pa, pb)

    def test_true_probabilities_are_valid(self):
        world = SyntheticWorld(SyntheticWorldConfig(seed=2))
        rng = np.random.default_rng(0)
        for t in range(50):
            _, _, _, true_p = world.generate_round(t, rng)
            assert ((0.0 < true_p) & (true_p < 1.0)).all()

    def test_standardize_keeps_bias(self):
        x = np.arange(9, dtype=float)
        x[0] = 1.0
        z = SyntheticWorld.standardize(x)
        assert z[0] == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticWorldConfig(n_categories=0)
        with pytest.raises(ConfigError):
            SyntheticWorldConfig(n_categories=3, max_categories_per_offer=4)


class TestVectorizedWorld:
    def test_round_probabilities_equal_the_per_offer_hook(self):
        world = SyntheticWorld(SyntheticWorldConfig(
            n_categories=12, max_categories_per_offer=5, offers_per_round=40, mf_bias_coeff=0.7, seed=8,
        ))
        batch = world.draw_rounds(30, np.random.default_rng(2))
        assert len(batch) == 30 and batch.offer_bounds[-1] == 30 * 40
        for raw in each_round(batch):
            mf_scores, true_p = raw.mf_scores, raw.true_p
            for k, rows in enumerate(offer_rows(raw.sizes)):
                category_raw = dict(zip(raw.categories[rows], raw.X[rows]))
                assert world.true_probability(category_raw, float(mf_scores[k])) == true_p[k]
                standardized = {
                    c: sigmoid(float(world.true_weights[c] @ world.standardize(x))) for c, x in category_raw.items()
                }
                expected = aggregate_offer(standardized, {}, float(mf_scores[k]), LearnerConfig(mf_bias_coeff=0.7))
                assert true_p[k] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_rows_follow_category_names_and_offer_features_repeat(self):
        world = SyntheticWorld(SyntheticWorldConfig(n_categories=12, max_categories_per_offer=4, seed=1))
        batch = world.draw_rounds(6, np.random.default_rng(3))
        replay = np.random.default_rng(3)
        members = replay.integers(world.config.n_members, size=6)
        keys = replay.random((6 * world.config.offers_per_round, 12 + 5))[:, :12]
        assert batch.members == [f"m{i}" for i in members.tolist()]
        for i, raw in enumerate(each_round(batch)):
            assert raw.offer_ids == [f"o{k:02d}" for k in range(world.config.offers_per_round)]
            for k, rows in enumerate(offer_rows(raw.sizes)):
                cats = raw.categories[rows]
                assert cats == sorted(set(cats))  # distinct, in name order ("c10" before "c2")
                slot = batch.offer_bounds[i] + k
                assert set(cats) == {f"c{j}" for j in np.argsort(keys[slot])[:len(cats)]}  # the smallest keys
                assert (raw.X[rows, 4:] == raw.X[rows.start, 4:]).all()
                assert raw.X[rows.start, 8] == batch.mf_scores[slot]
        assert (batch.X[:, 0] == 1.0).all()

    def test_category_subsets_and_counts_are_uniform(self):
        world = SyntheticWorld(SyntheticWorldConfig(n_categories=4, max_categories_per_offer=2, offers_per_round=5))
        raw = world.draw_rounds(2000, np.random.default_rng(0))
        sizes = Counter(raw.sizes.tolist())
        subsets = Counter(tuple(raw.categories[rows]) for rows in offer_rows(raw.sizes) if rows.stop - rows.start == 2)
        n = 2000 * 5
        assert abs(sizes[1] / n - 0.5) < 0.02
        assert len(subsets) == 6  # every pair of the 4 categories
        for count in subsets.values():
            assert abs(count / sizes[2] - 1 / 6) < 0.02

    def test_overridden_hook_is_called_per_offer(self):
        calls = []

        class HookWorld(SyntheticWorld):
            def true_probability(self, category_raw, mf_score):
                calls.append(sorted(category_raw))
                return 0.25 + 0.01 * len(calls)

        world = HookWorld(SyntheticWorldConfig(offers_per_round=4, seed=2))
        batch = world.draw_rounds(3, np.random.default_rng(0))
        assert calls == [batch.categories[rows] for rows in offer_rows(batch.sizes)]
        assert batch.true_p.tolist() == [0.25 + 0.01 * k for k in range(1, 13)]

    def test_generate_round_is_a_one_round_draw(self):
        world = SyntheticWorld(SyntheticWorldConfig(n_categories=7, max_categories_per_offer=3, seed=6))
        member, raw, mf_scores, true_p = world.generate_round(1, np.random.default_rng(4))
        batch = world.draw_rounds(1, np.random.default_rng(4))
        assert member == batch.members[0] and len(raw) == 1
        assert (raw.offer_ids, raw.categories) == (batch.offer_ids, batch.categories)
        assert raw.sizes.tobytes() == batch.sizes.tobytes() and raw.X.tobytes() == batch.X.tobytes()
        assert mf_scores.tobytes() == batch.mf_scores.tobytes() and true_p.tobytes() == batch.true_p.tobytes()


class TestTracerTargets:
    """perfbench/tracer.py wraps package functions by name and counts a
    select's offers with len(); both must keep working."""

    def test_every_target_resolves(self):
        # Resolved the way Tracer.install finds them, without installing
        # wrappers that would outlive this test.
        spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module_name, attr in tracer.TARGETS:
            module = importlib.import_module(f"offerbandit.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                obj = inspect.getattr_static(getattr(module, cls_name), method, None)
                obj = obj.__func__ if isinstance(obj, classmethod) else obj
            else:
                obj = getattr(module, attr, None)
            assert inspect.isfunction(obj), f"{module_name}.{attr}"

    def test_len_of_a_round_is_its_offer_count(self):
        contexts = {"o1": {"c0": np.ones(9), "c1": np.ones(9)}, "o2": {"c2": np.ones(9)}, "o3": {"c0": np.ones(9)}}
        offers = make_round(stack_contexts(contexts))
        assert len(offers) == 3


class TestSyntheticRun:
    def test_oracle_has_zero_regret_and_full_optimal_rate(self):
        world = SyntheticWorld(SyntheticWorldConfig(seed=3))
        result = run_synthetic(world, OraclePolicy(), rounds=400, seed=1)
        assert result.summary.regret == 0.0
        assert result.summary.optimal_action_rate == 1.0
        assert result.summary.estimator == "synthetic-oracle"

    def test_uniform_random_regret_matches_expectation(self):
        # One offer at 0.8 and one at 0.2: random picking loses 0.6 half
        # the time, so per-round regret converges to 0.3.
        result = run_synthetic(TwoOfferWorld(), policy("random"), rounds=4000, seed=7)
        assert result.summary.regret / 4000 == pytest.approx(0.3, abs=0.02)
        assert result.summary.optimal_action_rate == pytest.approx(0.5, abs=0.03)

    def test_learning_policy_improves_over_the_run(self):
        expl = ExplorationConfig(kappa_initial=10.0, kappa_schedule="linear_growth",
                                 kappa_growth_rate=0.01)
        world = SyntheticWorld(SyntheticWorldConfig(seed=101))
        result = run_synthetic(world, policy("camb", exploration=expl), rounds=1500, seed=1)
        recs = result.records
        decile = len(recs) // 10
        first = sum(1 for r in recs[:decile] if r.chosen == r.oracle_best) / decile
        last = sum(1 for r in recs[-decile:] if r.chosen == r.oracle_best) / decile
        assert last - first > 0.1

    def test_round_records_carry_oracle_fields(self):
        result = run_synthetic(TwoOfferWorld(), policy("random"), rounds=10, seed=0)
        for r in result.records:
            assert r.oracle_best == "oA"
            assert r.oracle_p == 0.8
            assert r.chosen_true_p in (0.8, 0.2)
            assert r.y in (0, 1)

    def test_trajectories_recorded_for_learning_policies(self):
        result = run_synthetic(
            SyntheticWorld(SyntheticWorldConfig(seed=4)), policy("camb"), rounds=40, seed=2
        )
        assert result.trajectories.pairs()
        for member, category in result.trajectories.pairs():
            ts = [s.t for s in result.trajectories.series(member, category)]
            assert ts == sorted(ts)
            assert len(set(ts)) == len(ts)

    def test_nonpositive_rounds_rejected(self):
        with pytest.raises(ConfigError):
            run_synthetic(TwoOfferWorld(), policy("random"), rounds=0, seed=0)

    @pytest.mark.parametrize("name", ["camb", "random"])
    def test_a_short_run_is_a_prefix_of_a_long_one(self, name):
        # 1500 rounds cross the first chunk boundary; the world draws its
        # chunks full on its own stream, so the first 100 rounds are the same.
        world = SyntheticWorld(SyntheticWorldConfig(seed=12))
        short = run_synthetic(world, policy(name), rounds=100, seed=4)
        long = run_synthetic(world, policy(name), rounds=1500, seed=4)
        assert len(long.records) == 1500
        assert [vars(r) for r in short.records] == [vars(r) for r in long.records[:100]]
        for member, category in short.trajectories.pairs():
            series = short.trajectories.series(member, category)
            assert series == long.trajectories.series(member, category)[:len(series)]

    def test_scaled_rows_and_rewards_follow_the_world_stream_across_chunks(self):
        world = SyntheticWorld(SyntheticWorldConfig(seed=2))
        seen = []

        class Recording:
            inner = policy("random")

            def select(self, offers, rng, t):
                seen.append(offers.X.copy())
                return self.inner.select(offers, rng, t)

            def update(self, candidate, reward):
                return []

        result = run_synthetic(world, Recording(), rounds=1100, seed=8)
        world_rng = np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0])
        scaler = RunningScaler()
        expected, draws = [], []
        for _ in range(2):
            batch = world.draw_rounds(1024, world_rng)
            expected += [scale_round(raw, scaler).X for raw in each_round(batch)]
            draws += batch.reward_draws.tolist()
        assert len(seen) == 1100
        assert all(got.tobytes() == want.tobytes() for got, want in zip(seen, expected))
        # Each reward is the round's uniform below the chosen offer's true probability.
        assert [r.y for r in result.records] == [int(u < r.chosen_true_p) for u, r in zip(draws, result.records)]

    def test_same_seed_byte_identical_roundlog(self, tmp_path):
        world_a = SyntheticWorld(SyntheticWorldConfig(seed=9))
        world_b = SyntheticWorld(SyntheticWorldConfig(seed=9))
        a = run_synthetic(world_a, policy("camb"), rounds=80, seed=5)
        b = run_synthetic(world_b, policy("camb"), rounds=80, seed=5)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_roundlog(pa, a.records)
        write_roundlog(pb, b.records)
        assert pa.read_bytes() == pb.read_bytes()


def oracle_record(t, chosen, y, best="oA", oracle_p=0.8, chosen_p=None):
    return RoundRecord(
        t=t, member_id="m0", ranked=[], chosen=chosen, y=y,
        oracle_best=best, oracle_p=oracle_p,
        chosen_true_p=chosen_p if chosen_p is not None else (0.8 if chosen == best else 0.2),
    )


class TestMakeRound:
    def test_matches_per_offer_pooling(self, rng):
        contexts = {
            "o1": {"c2": rng.normal(size=9), "c0": rng.normal(size=9), "c1": rng.normal(size=9)},
            "o2": {"c3": rng.normal(size=9)},  # no purchase history: uniform
            "o3": {"c4": rng.normal(size=9), "c5": rng.normal(size=9)},  # no history in either
            "o4": {"c1": rng.normal(size=9), "c2": rng.normal(size=9)},
        }
        purchase = {"c0": 0.5, "c1": 0.2, "c2": 0.3}
        mf_scores, true_ps = [0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]
        scaled = stack_contexts(contexts, member="m1", mf_scores=mf_scores, true_p=true_ps)
        scaled.shares = np.array([purchase.get(c, 0.0) for c in scaled.categories])
        offers = make_round(scaled)
        candidates = [offers.candidate(k) for k in range(len(offers))]
        assert [c.offer_id for c in candidates] == ["o1", "o2", "o3", "o4"]
        for k, cand in enumerate(candidates):
            vectors = contexts[cand.offer_id]
            shares = renormalize_shares(sorted(vectors), purchase)
            assert list(cand.category_vectors) == sorted(vectors)
            for c, x in cand.category_vectors.items():
                np.testing.assert_array_equal(x, vectors[c])
            assert cand.shares == pytest.approx(shares, rel=1e-15)
            expected = sum(shares[c] * vectors[c] for c in sorted(vectors))
            np.testing.assert_allclose(cand.offer_vector, expected, rtol=1e-14, atol=1e-15)
            assert (cand.member_id, cand.mf_score, cand.true_p) == ("m1", mf_scores[k], true_ps[k])
        assert candidates[1].shares == {"c3": 1.0}
        assert candidates[2].shares == {"c4": 0.5, "c5": 0.5}


def assert_same_round(got, want):
    """Two OfferRounds hold the same bytes in every array a policy reads."""
    assert got.member_id == want.member_id
    assert got.offer_ids == want.offer_ids and got.categories == want.categories
    assert got.X.tobytes() == want.X.tobytes()
    assert got.starts.tobytes() == want.starts.tobytes()
    assert got.starts.dtype == want.starts.dtype
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.offer_vectors.tobytes() == want.offer_vectors.tobytes()
    assert got.mf_scores.tobytes() == want.mf_scores.tobytes()
    assert got.by_id == want.by_id
    assert (got.true_p is None) == (want.true_p is None)
    if want.true_p is not None:
        assert got.true_p.tobytes() == want.true_p.tobytes()


class TestOfferRounds:
    """offer_rounds builds a whole batch's rounds at once; make_round, one
    round at a time, is the reference."""

    def per_round(self, batch):
        return [make_round(raw) for raw in each_round(batch)]

    def test_replay_batch_with_shares_and_the_uniform_fallback(self):
        rows = generate_transactions(n_members=6, n_categories=5, events_per_member=12, seed=3)
        # m_few bought only c00, so an offer over c02 and c03 falls back to uniform weights.
        rows += [("m_few", "c00", "b01", rows[0][3])] * 2
        log = transaction_log(rows)
        day0 = date(2024, 6, 1)
        offers = generate_offers(n_offers=40, n_categories=5, seed=4) + [
            Offer("few_miss", frozenset({"c02", "c03"}), frozenset(), 1.0, day0, day0 + timedelta(days=90), 1),
        ]
        rounds = [
            (member, day, sorted((o for o in offers if o.active_on(day)), key=lambda o: o.offer_id))
            for member in ("m000", "m003", "m_few")
            for day in (day0 + timedelta(days=k) for k in (0, 15, 45))
        ]
        batch = featurize_rounds(rounds, MemberStatsIndex(log), build_seasonality_profile(log), MFScoreTable())
        scale_rounds(batch, RunningScaler())
        want = self.per_round(batch)
        got = list(offer_rounds(batch))
        assert len(got) == len(want) == len(rounds)
        for g, w in zip(got, want):
            assert_same_round(g, w)
        fallback = set()
        for offers in got:
            sizes = np.diff(offers.starts, append=len(offers.X))
            for oid, rows, n in zip(offers.offer_ids, offer_rows(sizes), sizes.tolist()):
                if n > 1 and offers.weights[rows].tolist() == [1.0 / n] * n:
                    fallback.add((offers.member_id, oid))
        assert ("m_few", "few_miss") in fallback
        assert len(set(batch.shares.tolist())) > 3  # renormalized shares, not only uniform ones

    @pytest.mark.parametrize("source", ["replay", "synthetic"])
    def test_every_round_holds_views_of_the_batch(self, source):
        if source == "replay":
            log = transaction_log(generate_transactions(n_members=4, n_categories=4, events_per_member=10, seed=5))
            offers = generate_offers(n_offers=20, n_categories=4, seed=6)
            day = offers[0].start_date
            rounds = [(f"m00{i}", day, [o for o in offers if o.active_on(day)]) for i in range(4)]
            batch = featurize_rounds(rounds, MemberStatsIndex(log), build_seasonality_profile(log), MFScoreTable())
        else:
            batch = SyntheticWorld(SyntheticWorldConfig(seed=7)).draw_rounds(20, np.random.default_rng(1)).head(12)
        scale_rounds(batch, RunningScaler())
        got = list(offer_rounds(batch))
        assert len(got) == len(batch) and all(len(offers) for offers in got)
        for offers in got:
            assert np.shares_memory(offers.X, batch.X) and np.shares_memory(offers.mf_scores, batch.mf_scores)
            assert batch.true_p is None or np.shares_memory(offers.true_p, batch.true_p)
        # Each of these arrays is worked out once for the whole batch.
        for name in ("weights", "offer_vectors", "starts"):
            bases = {id(getattr(offers, name).base) for offers in got}
            assert len(bases) == 1 and getattr(got[0], name).base is not None, name

    def test_synthetic_batch_sorts_o100_before_o11(self):
        world = SyntheticWorld(SyntheticWorldConfig(offers_per_round=105, n_categories=4, seed=6))
        batch = world.draw_rounds(3, np.random.default_rng(2))
        scale_rounds(batch, RunningScaler())
        got = list(offer_rounds(batch))
        for g, w in zip(got, self.per_round(batch)):
            assert_same_round(g, w)
        ids = got[0].sorted_ids()
        assert ids.index("o100") < ids.index("o11") and got[0].by_id != sorted(got[0].by_id)

    def test_oracle_best_takes_the_smallest_id_among_ties(self):
        world = SyntheticWorld(SyntheticWorldConfig(offers_per_round=103, seed=1))
        batch = world.draw_rounds(4, np.random.default_rng(3))
        # Round 0: o11 and o100 tie at the top; round 1: all tie; round 2: o05 leads.
        batch.true_p[:] = 0.1
        batch.true_p[[11, 100]] = 0.9
        batch.true_p[103:206] = 0.5
        batch.true_p[206 + 5] = 0.7
        best = oracle_best(batch).tolist()
        for i, offers in enumerate(offer_rounds(batch)):
            by_id = np.array(offers.by_id)
            want = int(by_id[np.argmax(offers.true_p[by_id])]) + int(batch.offer_bounds[i])
            assert best[i] == want
        ids = batch.offer_ids
        assert [ids[k] for k in best[:3]] == ["o100", "o00", "o05"]


class TestMetrics:
    def test_running_average_over_rewarded_rounds(self):
        records = [oracle_record(t, "oA", y) for t, y in enumerate([1, 0, 1, 0], start=1)]
        summary = compute_metrics(records)
        assert summary.cumulative_reward == 2
        assert summary.per_round_reward == pytest.approx([1.0, 0.5, 2 / 3, 0.5])

    def test_regret_sums_probability_gaps(self):
        records = [
            oracle_record(1, "oA", 1),
            oracle_record(2, "oB", 0),
            oracle_record(3, "oB", 1),
        ]
        summary = compute_metrics(records)
        assert summary.regret == pytest.approx(1.2)
        assert summary.optimal_action_rate == pytest.approx(1 / 3)

    def test_unrewarded_rounds_excluded_from_average(self):
        records = [
            RoundRecord(t=1, member_id="m", ranked=[], chosen="o1", y=None, matched=False),
            RoundRecord(t=2, member_id="m", ranked=[], chosen="o1", y=1, matched=True),
            RoundRecord(t=3, member_id="m", ranked=[], chosen="o1", y=None, matched=False),
            RoundRecord(t=4, member_id="m", ranked=[], chosen="o1", y=0, matched=True),
        ]
        summary = compute_metrics(records)
        assert summary.cumulative_reward == 1
        assert summary.per_round_reward == pytest.approx([1.0, 0.5])
        assert summary.matched_rounds == 2
        assert summary.regret is None and summary.optimal_action_rate is None
        assert summary.estimator.startswith("replay-match (biased")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    @given(st.lists(st.sampled_from([0, 1, None]), min_size=1, max_size=60))
    def test_cumulative_reward_counts_positive_labels(self, ys):
        records = [
            RoundRecord(t=i + 1, member_id="m", ranked=[], chosen="o", y=y,
                        matched=y is not None)
            for i, y in enumerate(ys)
        ]
        summary = compute_metrics(records)
        assert summary.cumulative_reward == sum(1 for y in ys if y == 1)
        assert summary.rounds == len(ys)

    def test_metrics_csv_running_columns(self, tmp_path):
        result = run_synthetic(TwoOfferWorld(), policy("random"), rounds=30, seed=3)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, result.records)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        cum = 0
        regret = 0.0
        optimal = 0
        for i, (row, rec) in enumerate(zip(rows, result.records), start=1):
            cum += rec.y
            regret += rec.oracle_p - rec.chosen_true_p
            optimal += 1 if rec.chosen == rec.oracle_best else 0
            assert int(row["cum_reward"]) == cum
            assert float(row["avg_reward"]) == pytest.approx(cum / i)
            assert float(row["regret"]) == pytest.approx(regret)
            assert float(row["optimal_rate"]) == pytest.approx(optimal / i)

    def test_metrics_csv_blanks_oracle_columns_on_replay(self, tmp_path):
        records = [
            RoundRecord(t=1, member_id="m", ranked=[], chosen="o1", y=None, matched=False),
            RoundRecord(t=2, member_id="m", ranked=[], chosen="o1", y=1, matched=True),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, records)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["avg_reward"] == "" and rows[0]["regret"] == ""
        assert rows[1]["avg_reward"] == "1.0" and rows[1]["optimal_rate"] == ""


def replay_fixture(days_active=30, n_impressions=20, clip_all=True):
    start = date(2024, 1, 1)
    offers = [
        Offer("o1", frozenset({"catA"}), frozenset({"bA"}), 2.0, start,
              start + timedelta(days=days_active), 2),
        Offer("o2", frozenset({"catB"}), frozenset({"bB"}), 4.0, start,
              start + timedelta(days=days_active), 1),
    ]
    transactions = transaction_log([
        ("m1", "catA", "bA", start - timedelta(days=20)),
        ("m1", "catA", "bA", start - timedelta(days=10)),
        ("m1", "catB", "bB", start - timedelta(days=5)),
    ])
    impressions = []
    for i in range(n_impressions):
        clipped = frozenset({"o1", "o2"}) if clip_all else frozenset()
        impressions.append(
            Impression(datetime(2024, 1, 1, 9) + timedelta(days=i), "m1",
                       ("o1", "o2"), clipped)
        )
    return ReplayDataset(transactions, offers, impressions, MFScoreTable())


class TestReplay:
    def test_all_clipped_stream_reward_equals_matched_rounds(self):
        dataset = replay_fixture(clip_all=True)
        result = run_replay(dataset, policy("camb"), seed=0)
        s = result.summary
        assert s.rounds == 20
        assert s.matched_rounds == 20  # both offers always shown
        assert s.cumulative_reward == s.matched_rounds
        assert s.estimator == "replay-match (biased: rewards observed only on matched rounds)"

    def test_unclipped_stream_yields_zero_reward(self):
        dataset = replay_fixture(clip_all=False)
        result = run_replay(dataset, policy("camb"), seed=0)
        assert result.summary.cumulative_reward == 0
        assert result.summary.matched_rounds == 20

    def test_empty_impressions_yield_empty_summary(self):
        dataset = replay_fixture()
        dataset.impressions.clear()
        result = run_replay(dataset, policy("camb"), seed=0)
        assert result.records == []
        assert result.summary.rounds == 0
        assert result.summary.matched_rounds == 0

    def test_rounds_without_active_offers_are_tallied_and_skipped(self):
        dataset = replay_fixture(days_active=3)
        result = run_replay(dataset, policy("camb"), seed=0)
        assert result.skip_tallies["rounds_without_candidates"] == 16
        assert result.summary.rounds == 4

    def test_shown_offers_missing_from_catalog_are_tallied(self):
        dataset = replay_fixture()
        dataset.impressions[0] = Impression(
            dataset.impressions[0].timestamp, "m1", ("o1", "oGone"), frozenset({"o1"})
        )
        result = run_replay(dataset, policy("camb"), seed=0)
        assert result.skip_tallies["shown_offers_not_featurized"] == 1

    def test_unmatched_rounds_have_no_reward(self):
        # Catalog carries a third offer never shown; whenever the policy
        # tops with it the round goes unmatched and unrewarded.
        dataset = replay_fixture(clip_all=True)
        start = date(2024, 1, 1)
        dataset.offers.append(
            Offer("o0", frozenset({"catA"}), frozenset({"bZ"}), 9.0, start,
                  start + timedelta(days=30), 3)
        )
        result = run_replay(dataset, policy("random"), seed=3)
        unmatched = [r for r in result.records if not r.matched]
        assert unmatched, "random policy should sometimes pick the unshown offer"
        assert all(r.y is None for r in unmatched)
        assert all(r.chosen == "o0" for r in unmatched)

    def test_policy_trains_on_every_shown_offer(self):
        dataset = replay_fixture(clip_all=True)
        camb = policy("camb")
        run_replay(dataset, camb, seed=0)
        # Both shown offers train their categories regardless of the match.
        assert ("m1", "catA") in camb.store
        assert ("m1", "catB") in camb.store
        assert camb.store.get("m1", "catA").update_count == 20

    def test_scaled_rows_equal_a_per_round_build_context_reference(self):
        transactions = transaction_log(generate_transactions(n_members=6, n_categories=4, events_per_member=20, seed=21))
        offers = generate_offers(n_offers=30, n_categories=5, seed=22)
        impressions = generate_impressions(offers, n_members=7, n_impressions=60, seed=23)
        mf = MFScoreTable({("m001", offers[3].offer_id): 0.7}, default_score=-0.2)
        dataset = ReplayDataset(transactions, offers, impressions, mf)
        seen = []

        class Recording:
            inner = policy("random")

            def select(self, offers, rng, t):
                seen.append((offers.member_id, offers.offer_ids, offers.X.copy(), offers.mf_scores))
                return self.inner.select(offers, rng, t)

            def update(self, candidate, reward):
                return []

        result = run_replay(dataset, Recording(), seed=4, cold_start_mpg=0.8, default_cycle_days=25.0,
                            smoothing_window=5)

        stats = MemberStatsIndex(transactions, 25.0)
        profile = build_seasonality_profile(transactions, 5)
        scaler = RunningScaler()
        expected = []
        for imp in impressions:
            day = imp.timestamp.date()
            active = sorted((o for o in offers if o.active_on(day)), key=lambda o: o.offer_id)
            if not active:
                continue
            rows = np.array([
                build_context(imp.member_id, o, c, day, member_stats(stats, imp.member_id, c, day), profile, mf, 0.8)
                for o in active for c in sorted(o.category_ids)
            ])
            scaler.update(rows)
            mf_scores = [mf.score(imp.member_id, o.offer_id) for o in active]
            expected.append((imp.member_id, [o.offer_id for o in active], scaler.transform(rows), mf_scores))
        assert len(seen) == len(expected) == result.summary.rounds > 40
        assert any(0.7 in e_mf for *_, e_mf in expected)  # an mf table hit
        for (member, ids, X, mf_scores), (e_member, e_ids, e_X, e_mf) in zip(seen, expected):
            assert (member, ids) == (e_member, e_ids)
            assert X.tobytes() == e_X.tobytes()
            assert mf_scores.tolist() == e_mf

    def test_same_seed_byte_identical_roundlog(self, tmp_path):
        a = run_replay(replay_fixture(), policy("camb"), seed=11)
        b = run_replay(replay_fixture(), policy("camb"), seed=11)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_roundlog(pa, a.records)
        write_roundlog(pb, b.records)
        assert pa.read_bytes() == pb.read_bytes()


class TestBackfitEvents:
    def test_rows_equal_scale_round_of_featurize_bit_for_bit(self):
        transactions = transaction_log(generate_transactions(n_members=8, n_categories=4, events_per_member=20, seed=11))
        offers = generate_offers(n_offers=25, n_categories=5, seed=12)
        impressions = generate_impressions(offers, n_members=9, n_impressions=120, seed=13)
        # A shown offer outside the catalog and one shown after it ended
        # are skipped; the second impression then has no featurized offer.
        late = impressions[0].timestamp + timedelta(days=4000)
        impressions[5] = Impression(impressions[5].timestamp, impressions[5].member_id,
                                    ("o_unknown",) + impressions[5].offers_shown, impressions[5].clipped)
        impressions.append(Impression(late, "m001", (offers[0].offer_id,), frozenset()))
        mf = MFScoreTable({("m001", offers[2].offer_id): 0.4}, default_score=-0.1)
        dataset = ReplayDataset(transactions, offers, impressions, mf)
        events, skips = backfit_events(dataset, cold_start_mpg=0.6, default_cycle_days=20.0, smoothing_window=5)

        stats = MemberStatsIndex(transactions, 20.0)
        profile = build_seasonality_profile(transactions, 5)
        catalog = {o.offer_id: o for o in offers}
        scaler = RunningScaler()
        expected = []
        for idx, imp in enumerate(impressions):
            day = imp.timestamp.date()
            shown = [catalog[o] for o in imp.offers_shown if o in catalog and catalog[o].active_on(day)]
            raw = featurize_rounds([(imp.member_id, day, shown)], stats, profile, mf, 0.6)
            scaled = scale_round(raw, scaler)
            for oid, rows in zip(scaled.offer_ids, offer_rows(scaled.sizes)):
                for c, x in zip(scaled.categories[rows], scaled.X[rows]):
                    expected.append((idx, imp.member_id, c, x.tobytes(), int(oid in imp.clipped)))
        got = [
            (int(t), m, c, x.tobytes(), int(y))
            for t, m, c, x, y in zip(events.t, events.member_ids, events.category_ids, events.X, events.y)
        ]
        assert got == expected
        assert len(expected) > 200 and {y for *_, y in expected} == {0, 1}
        assert skips == {"shown_offers_not_featurized": 2}

    def test_empty_log_gives_an_empty_batch(self):
        events, skips = backfit_events(ReplayDataset(transaction_log([]), [], []))
        assert len(events) == 0 and events.X.shape == (0, 9)
        assert skips == {"shown_offers_not_featurized": 0}


class TestManifest:
    def test_contains_no_wall_clock_state(self):
        manifest = build_manifest(3, {"a": 1}, "fp", {"skipped": 2}, command="simulate")
        assert set(manifest) == {
            "seed", "config_hash", "data_fingerprint", "skip_tallies",
            "feature_order_version", "feature_names", "command",
        }
        assert json.dumps(manifest, sort_keys=True) == json.dumps(manifest, sort_keys=True)

    def test_config_hash_ignores_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_files_fingerprint_tracks_content_and_names(self, tmp_path):
        f1 = tmp_path / "one.csv"
        f2 = tmp_path / "two.csv"
        f1.write_text("alpha", encoding="utf-8")
        f2.write_text("beta", encoding="utf-8")
        base = files_fingerprint([f1, f2])
        assert files_fingerprint([f2, f1]) == base  # order independent
        f1.write_text("alpha!", encoding="utf-8")
        assert files_fingerprint([f1, f2]) != base
