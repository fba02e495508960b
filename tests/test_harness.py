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

from conftest import transaction_log
from offerbandit.bandit import LearnerConfig, aggregate_offer, renormalize_shares, sigmoid
from offerbandit.baselines import make_policy
from offerbandit.data import Impression, MFScoreTable, Offer
from offerbandit.errors import ConfigError
from offerbandit.exploration import ExplorationConfig
from offerbandit.datagen import generate_impressions, generate_offers, generate_transactions
from offerbandit.features import (
    MemberStatsIndex,
    RoundContexts,
    RunningScaler,
    build_context,
    build_seasonality_profile,
    featurize_rounds,
    scale_round,
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
    make_round,
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

    def generate_round(self, t, rng):
        raw = {}
        for oid in sorted(self.p):
            x = np.ones(9)
            x[1:] = rng.uniform(0.0, 1.0, size=8)
            raw[oid] = {"c0": x}
        return "m0", RoundContexts.stack(raw), np.zeros(len(raw)), np.array([self.p[oid] for oid in raw])


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
        rng = np.random.default_rng(2)
        for t in range(30):
            _, raw, mf_scores, true_p = world.generate_round(t, rng)
            for k, (start, n) in enumerate(zip(raw.starts.tolist(), raw.sizes)):
                rows = slice(start, start + n)
                category_raw = dict(zip(raw.categories[rows], raw.X[rows]))
                assert world.true_probability(category_raw, float(mf_scores[k])) == true_p[k]
                standardized = {
                    c: sigmoid(float(world.true_weights[c] @ world.standardize(x))) for c, x in category_raw.items()
                }
                expected = aggregate_offer(standardized, {}, float(mf_scores[k]), LearnerConfig(mf_bias_coeff=0.7))
                assert true_p[k] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_rows_follow_category_names_and_offer_features_repeat(self):
        world = SyntheticWorld(SyntheticWorldConfig(n_categories=12, max_categories_per_offer=4, seed=1))
        _, raw, mf_scores, _ = world.generate_round(1, np.random.default_rng(3))
        replay = np.random.default_rng(3)
        replay.integers(world.config.n_members)
        keys = replay.random((world.config.offers_per_round, 12 + 5))[:, :12]
        for k, (start, n) in enumerate(zip(raw.starts.tolist(), raw.sizes)):
            rows = slice(start, start + n)
            cats = raw.categories[rows]
            assert cats == sorted(set(cats))  # distinct, in name order ("c10" before "c2")
            assert set(cats) == {f"c{j}" for j in np.argsort(keys[k])[:len(cats)]}  # the smallest keys
            assert (raw.X[rows, 4:] == raw.X[rows.start, 4:]).all()
            assert raw.X[rows.start, 8] == mf_scores[k]
        assert (raw.X[:, 0] == 1.0).all()

    def test_category_subsets_and_counts_are_uniform(self):
        world = SyntheticWorld(SyntheticWorldConfig(n_categories=4, max_categories_per_offer=2, offers_per_round=5))
        rng = np.random.default_rng(0)
        sizes, subsets = Counter(), Counter()
        for t in range(2000):
            _, raw, _, _ = world.generate_round(t, rng)
            sizes.update(raw.sizes)
            subsets.update(
                tuple(raw.categories[start:start + 2]) for start, n in zip(raw.starts.tolist(), raw.sizes) if n == 2
            )
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
        _, raw, _, true_p = world.generate_round(1, np.random.default_rng(0))
        assert calls == [raw.categories[start:start + n] for start, n in zip(raw.starts.tolist(), raw.sizes)]
        assert true_p.tolist() == [0.26, 0.27, 0.28, 0.29]


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
        offers = make_round(RoundContexts.stack(contexts), "m0", None, [0.0, 0.0, 0.0])
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
        scaled = RoundContexts.stack(contexts)
        mf_scores, true_ps = [0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]
        row_shares = np.array([purchase.get(c, 0.0) for c in scaled.categories])
        offers = make_round(scaled, "m1", row_shares, mf_scores, true_ps)
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
                seen.append((offers.member_id, offers.contexts.offer_ids, offers.contexts.X.copy(), offers.mf_scores))
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
                build_context(imp.member_id, o, c, day, stats.stats(imp.member_id, c, day), profile, mf, 0.8)
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
            (raw,) = featurize_rounds([(imp.member_id, day, shown)], stats, profile, mf, 0.6).rounds()
            scaled = scale_round(raw, scaler)
            for oid, start, n in zip(scaled.offer_ids, scaled.starts.tolist(), scaled.sizes):
                rows = slice(start, start + n)
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
