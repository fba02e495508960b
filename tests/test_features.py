from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import transaction_log
from offerbandit.data import MFScoreTable, Offer
from offerbandit.datagen import generate_offers, generate_transactions
from offerbandit.errors import ConfigError
from offerbandit.features import (
    FEATURE_NAMES,
    FEATURE_ORDER_VERSION,
    N_FEATURES,
    WEEKS_PER_YEAR,
    MemberCategoryStats,
    MemberStatsIndex,
    RoundBatch,
    RoundContexts,
    RunningScaler,
    SeasonalityProfile,
    build_context,
    build_seasonality_profile,
    compute_brand_loyalty,
    compute_mpg,
    compute_recency,
    compute_seasonality,
    featurize_rounds,
    scale_round,
    scale_rounds,
    week_of_year,
)
from offerbandit.harness import make_round

DAY = date(2024, 6, 1)


def stats(last=None, cycle=10.0, brands=None):
    return MemberCategoryStats(last, cycle, brands or {})


class TestFeatureOrder:
    def test_canonical_order_is_frozen(self):
        assert FEATURE_NAMES == (
            "bias", "mpg", "brand_loyalty", "seasonality", "recency",
            "duration", "value", "num_items", "mf_score",
        )
        assert N_FEATURES == 9
        assert FEATURE_ORDER_VERSION == 1


class TestMPG:
    def test_gap_over_cycle(self):
        s = stats(last=DAY - timedelta(days=15), cycle=10.0)
        assert compute_mpg(DAY, s) == 1.5

    def test_same_day_purchase_gives_zero(self):
        assert compute_mpg(DAY, stats(last=DAY)) == 0.0

    def test_cold_start_default_and_override(self):
        assert compute_mpg(DAY, stats(last=None)) == 1.0
        assert compute_mpg(DAY, stats(last=None), cold_start_mpg=0.25) == 0.25

    def test_nonpositive_cycle_rejected(self):
        with pytest.raises(ConfigError):
            compute_mpg(DAY, stats(last=DAY, cycle=0.0))

    def test_event_before_last_purchase_rejected(self):
        with pytest.raises(ValueError):
            compute_mpg(DAY, stats(last=DAY + timedelta(days=1)))

    @given(st.integers(0, 1000), st.floats(0.5, 200.0))
    def test_matches_ratio_formula(self, gap, cycle):
        s = stats(last=DAY - timedelta(days=gap), cycle=cycle)
        assert compute_mpg(DAY, s) == pytest.approx(gap / cycle, rel=1e-12)


class TestBrandLoyalty:
    def test_share_of_category_purchases(self):
        s = stats(brands={"bA": 8, "bB": 2})
        assert compute_brand_loyalty("bA", s) == 0.8
        assert compute_brand_loyalty("bB", s) == pytest.approx(0.2)

    def test_unknown_brand_and_empty_history(self):
        assert compute_brand_loyalty("bZ", stats(brands={"bA": 3})) == 0.0
        assert compute_brand_loyalty("bA", stats()) == 0.0

    @given(st.dictionaries(st.sampled_from(["bA", "bB", "bC"]), st.integers(0, 50)))
    def test_always_in_unit_interval(self, counts):
        s = stats(brands=counts)
        for brand in ("bA", "bB", "bC", "bX"):
            assert 0.0 <= compute_brand_loyalty(brand, s) <= 1.0


def week_start(week):
    # date(2024, 1, 1) has yday 1, so adding 7*week days lands in week `week`.
    return date(2024, 1, 1) + timedelta(days=7 * week)


class TestSeasonality:
    def test_week_of_year_edges(self):
        assert week_of_year(date(2024, 1, 1)) == 0
        assert week_of_year(date(2024, 1, 7)) == 0
        assert week_of_year(date(2024, 1, 8)) == 1
        # Days 365 and 366 fold into the final week.
        assert week_of_year(date(2024, 12, 31)) == 51
        assert week_of_year(date(2023, 12, 31)) == 51

    def test_single_spike_credits_neighbors(self):
        counts = np.zeros(WEEKS_PER_YEAR)
        counts[10] = 9.0
        profile = SeasonalityProfile({"cat": counts}, smoothing_window=3)
        assert profile.score("cat", week_start(10)) == pytest.approx(1.0)
        assert profile.score("cat", week_start(9)) == pytest.approx(1.0)
        assert profile.score("cat", week_start(11)) == pytest.approx(1.0)
        assert profile.score("cat", week_start(8)) == 0.0

    def test_smoothing_wraps_around_year_end(self):
        counts = np.zeros(WEEKS_PER_YEAR)
        counts[0] = 6.0
        profile = SeasonalityProfile({"cat": counts}, smoothing_window=3)
        assert profile.score("cat", week_start(51)) == pytest.approx(1.0)
        assert profile.score("cat", week_start(1)) == pytest.approx(1.0)
        assert profile.score("cat", week_start(2)) == 0.0

    def test_matches_brute_force_moving_average(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 20, size=WEEKS_PER_YEAR).astype(float)
        profile = SeasonalityProfile({"cat": counts}, smoothing_window=3)
        smoothed = np.array([
            (counts[(j - 1) % 52] + counts[j] + counts[(j + 1) % 52]) / 3.0
            for j in range(52)
        ])
        expected = smoothed / smoothed.max()
        for week in range(52):
            got = profile.score("cat", week_start(week))
            assert got == pytest.approx(expected[week], rel=1e-12)

    def test_unknown_category_and_all_zero_counts(self):
        profile = SeasonalityProfile({"cat": np.zeros(WEEKS_PER_YEAR)})
        assert profile.score("cat", DAY) == 0.0
        assert profile.score("other", DAY) == 0.0

    def test_even_or_nonpositive_window_rejected(self):
        with pytest.raises(ConfigError):
            SeasonalityProfile({}, smoothing_window=2)
        with pytest.raises(ConfigError):
            SeasonalityProfile({}, smoothing_window=0)

    def test_scores_bounded_by_peak(self):
        rng = np.random.default_rng(11)
        counts = rng.exponential(3.0, size=WEEKS_PER_YEAR)
        profile = SeasonalityProfile({"cat": counts}, smoothing_window=5)
        scores = [profile.score("cat", week_start(w)) for w in range(52)]
        assert max(scores) == pytest.approx(1.0)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_profile_built_from_transactions(self):
        rows = [
            ("m1", "catA", "b1", week_start(20)),
            ("m2", "catA", "b1", week_start(20) + timedelta(days=3)),
            ("m1", "catA", "b1", week_start(40)),
        ]
        profile = build_seasonality_profile(transaction_log(rows))
        assert compute_seasonality("catA", week_start(20), profile) == pytest.approx(1.0)
        assert compute_seasonality("catA", week_start(40), profile) == pytest.approx(0.5)
        assert compute_seasonality("catA", week_start(5), profile) == 0.0


class TestRecency:
    def offer(self, start, end):
        return Offer("o1", frozenset({"c"}), frozenset(), 1.0, start, end, 1)

    def test_elapsed_fraction(self):
        offer = self.offer(date(2024, 1, 1), date(2024, 1, 11))
        assert compute_recency(offer, date(2024, 1, 1)) == 0.0
        assert compute_recency(offer, date(2024, 1, 6)) == 0.5
        assert compute_recency(offer, date(2024, 1, 11)) == 1.0

    def test_clamped_outside_window(self):
        offer = self.offer(date(2024, 1, 1), date(2024, 1, 11))
        assert compute_recency(offer, date(2023, 12, 25)) == 0.0
        assert compute_recency(offer, date(2024, 2, 1)) == 1.0

    def test_single_day_offer(self):
        offer = self.offer(date(2024, 1, 5), date(2024, 1, 5))
        assert compute_recency(offer, date(2024, 1, 5)) == 0.0


class TestBuildContext:
    def test_matches_hand_assembled_vector(self):
        offer = Offer("o7", frozenset({"catA"}), frozenset({"bA", "bB"}), 3.5,
                      date(2024, 5, 22), date(2024, 6, 11), 4)
        s = MemberCategoryStats(DAY - timedelta(days=12), 8.0, {"bA": 1, "bB": 3})
        counts = np.zeros(WEEKS_PER_YEAR)
        counts[week_of_year(DAY)] = 4.0
        profile = SeasonalityProfile({"catA": counts})
        mf = MFScoreTable({("m1", "o7"): -0.4})
        ctx = build_context("m1", offer, "catA", DAY, s, profile, mf)
        expected = np.array([
            1.0,
            12 / 8.0,
            0.75,          # max over brands: bB share 3/4
            1.0,           # query week is the peak week
            10 / 20.0,     # 10 of 20 days elapsed
            20.0,
            3.5,
            4.0,
            -0.4,
        ])
        np.testing.assert_allclose(ctx, expected, rtol=1e-12)

    def test_offer_without_brands_gets_zero_loyalty(self):
        offer = Offer("o1", frozenset({"c"}), frozenset(), 1.0, DAY, DAY, 1)
        s = MemberCategoryStats(None, 10.0, {"bA": 5})
        ctx = build_context("m1", offer, "c", DAY, s, SeasonalityProfile({}), MFScoreTable())
        assert ctx[2] == 0.0


class TestFeaturize:
    def test_rows_equal_build_context_bit_for_bit(self):
        rows = generate_transactions(n_members=6, n_categories=4, events_per_member=25, seed=5)
        d0 = rows[0][3]
        transactions = transaction_log(rows + [
            # One purchase day: m_one's c00 cycle is c00's category median.
            ("m_one", "c00", "b01", d0),
            ("m_one", "c00", "b02", d0),
            # c09 has no gap anywhere, so its pairs take the default cycle.
            ("m000", "c09", "b01", d0),
            ("m_one", "c09", "b_new", d0),
        ])
        # Five offer categories over four purchased ones: c04 has no history.
        offers = generate_offers(n_offers=60, n_categories=5, seed=6)
        day0 = offers[0].start_date
        offers += [
            Offer("brandless", frozenset({"c00", "c02"}), frozenset(), 2.5, day0, day0 + timedelta(days=9), 3),
            Offer("one_day", frozenset({"c01"}), frozenset({"b01"}), 1.0, day0, day0, 1),
            Offer("no_gaps", frozenset({"c09", "c00"}), frozenset({"b_new", "b_unsold"}), 1.5, day0,
                  day0 + timedelta(days=200), 2),
        ]
        index = MemberStatsIndex(transactions)
        assert index.cycle_length("m_one", "c00") == index.cycle_length("nobody", "c00") != 30.0
        assert index.cycle_length("m000", "c09") == 30.0
        profile = build_seasonality_profile(transactions)
        mf = MFScoreTable(
            {("m000", offers[1].offer_id): 0.3, ("m000", "one_day"): 0.45, ("m002", "brandless"): -1.25},
            default_score=0.1,
        )
        rounds = [
            (member, day, [o for o in offers if o.active_on(day)])
            for member in ("m000", "m002", "m005", "m_one", "cold")
            for day in (day0 + timedelta(days=k) for k in (0, 7, 40, 90, 150))
        ]
        batch = featurize_rounds(rounds, index, profile, mf, cold_start_mpg=0.7)
        assert len(batch) == len(rounds)
        rows_checked = 0
        for (member, day, active), raw in zip(rounds, batch.rounds()):
            assert raw.offer_ids == [o.offer_id for o in active]
            assert raw.X.shape == (len(raw.categories), N_FEATURES)
            for offer, start, n in zip(active, raw.starts.tolist(), raw.sizes):
                rows = slice(start, start + n)
                assert raw.categories[rows] == sorted(offer.category_ids)
                for c, x in zip(raw.categories[rows], raw.X[rows]):
                    s = index.stats(member, c, day)
                    ctx = build_context(member, offer, c, day, s, profile, mf, 0.7)
                    assert x.tobytes() == ctx.tobytes(), (member, day, offer.offer_id, c)
                    rows_checked += 1
        assert rows_checked == len(batch.contexts.X) > 250
        X = batch.contexts.X
        assert {0.45, -1.25, 0.1} <= set(X[:, 8].tolist())  # mf hits and misses
        assert 0.7 in X[:, 1] and (X[:, 1] != 0.7).any()  # cold and warm rows

    def test_share_and_mf_columns_equal_counts_from_the_log(self):
        rows = generate_transactions(n_members=5, n_categories=4, events_per_member=20, seed=8)
        d0 = rows[0][3]
        # m_few bought c00 three times and c01 once, and nothing else.
        rows += [("m_few", "c00", "b01", d0)] * 3 + [("m_few", "c01", "b02", d0 + timedelta(days=3))]
        day0 = date(2024, 6, 1)
        offers = generate_offers(n_offers=30, n_categories=4, seed=9) + [
            Offer("unbought", frozenset({"c04", "c05"}), frozenset(), 1.0, day0, day0 + timedelta(days=90), 1),
            Offer("half", frozenset({"c01", "c05"}), frozenset(), 1.0, day0, day0 + timedelta(days=90), 1),
            Offer("few_miss", frozenset({"c02", "c03"}), frozenset(), 1.0, day0, day0 + timedelta(days=90), 1),
        ]
        mf = MFScoreTable({("m_few", "half"): 0.5, ("m001", offers[0].offer_id): -2.0}, default_score=0.25)
        rounds = [
            (member, day, [o for o in offers if o.active_on(day)])
            for member in ("m000", "m001", "m_few", "absent")
            for day in (day0 + timedelta(days=k) for k in (0, 20, 60))
        ]
        for log_rows in (rows, []):
            pair_counts = Counter((m, c) for m, c, *_ in log_rows)
            member_counts = Counter(m for m, *_ in log_rows)
            log = transaction_log(log_rows)
            batch = featurize_rounds(rounds, MemberStatsIndex(log), build_seasonality_profile(log), mf)
            expected = [
                pair_counts[member, c] / member_counts[member] if pair_counts[member, c] else 0.0
                for (member, _, _), raw in zip(rounds, batch.rounds())
                for c in raw.categories
            ]
            assert len(expected) == len(batch.contexts.X) > 100
            assert batch.shares.tobytes() == np.array(expected).tobytes()
            assert batch.mf_scores.tolist() == [mf.score(m, o.offer_id) for m, _, active in rounds for o in active]
            # An offer none of whose categories the member bought, every
            # offer of an absent member and every offer over an empty log
            # weigh their rows uniformly.
            uniform = set()
            for (member, _, _), raw, shares in zip(
                rounds, batch.rounds(), np.split(batch.shares, batch.row_bounds[1:-1])
            ):
                offer = make_round(raw, member, shares, np.zeros(len(raw.offer_ids)))
                for oid, start, n in zip(raw.offer_ids, raw.starts.tolist(), raw.sizes):
                    if not shares[start:start + n].any():
                        assert offer.weights[start:start + n].tolist() == [1.0 / n] * n
                        uniform.add((member, oid))
            assert {("m_few", "few_miss"), ("absent", "half")} <= uniform
            assert (("m_few", "half") in uniform) == (not log_rows)

    def test_one_round_alone_equals_its_rows_in_a_batch(self):
        transactions = transaction_log(generate_transactions(n_members=4, n_categories=3, events_per_member=15, seed=2))
        offers = generate_offers(n_offers=20, n_categories=3, seed=3)
        index, profile = MemberStatsIndex(transactions), build_seasonality_profile(transactions)
        day = offers[0].start_date
        rounds = [(f"m00{i}", day + timedelta(days=3 * i), offers[i:i + 6]) for i in range(4)]
        batch = featurize_rounds(rounds, index, profile, MFScoreTable())
        for rnd, raw in zip(rounds, batch.rounds()):
            (alone,) = featurize_rounds([rnd], index, profile, MFScoreTable()).rounds()
            assert (alone.offer_ids, alone.categories, alone.sizes) == (raw.offer_ids, raw.categories, raw.sizes)
            assert alone.X.tobytes() == raw.X.tobytes()

    def test_empty_round(self):
        index, profile = MemberStatsIndex(transaction_log([])), SeasonalityProfile({})
        none = featurize_rounds([], index, profile, MFScoreTable())
        assert len(none) == 0 and list(none.rounds()) == []
        assert none.contexts.X.shape == (0, N_FEATURES)
        empty = featurize_rounds([("m1", DAY, []), ("m2", DAY, [])], index, profile, MFScoreTable())
        assert len(empty) == 2 and empty.contexts.X.shape == (0, N_FEATURES)
        for raw in empty.rounds():
            assert raw.X.shape == (0, N_FEATURES)
            assert raw.offer_ids == [] and raw.sizes == [] and len(raw.starts) == 0
        scaler = RunningScaler()
        scale_rounds(empty, scaler)
        assert empty.contexts.X.shape == (0, N_FEATURES) and scaler.count == 0

    @pytest.mark.parametrize("value, default", [(float("nan"), 0.0), (1.0, float("inf"))])
    def test_non_finite_row_raises(self, value, default):
        offers = [
            Offer("o1", frozenset({"c"}), frozenset(), 1.0, DAY, DAY, 1),
            Offer("o2", frozenset({"c", "d"}), frozenset(), value, DAY, DAY, 1),
        ]
        with pytest.raises(ValueError, match="context vector contains non-finite values"):
            featurize_rounds([("m1", DAY, offers)], MemberStatsIndex(transaction_log([])), SeasonalityProfile({}),
                             MFScoreTable({}, default))

    def test_scale_rounds_equals_scale_round_per_round(self, rng):
        rounds = []
        for n in (1, 0, 3, 2, 5):
            rows = rng.normal(size=(n, N_FEATURES)) * 10.0
            rows[:, 0] = 1.0
            rounds.append(RoundContexts([f"o{i}" for i in range(n)], ["c"] * n, [1] * n, rows))
        bounds = np.cumsum([0] + [len(r.X) for r in rounds])
        unused = np.zeros(bounds[-1])  # the share and mf columns, which scale_rounds does not read
        batch = RoundBatch(RoundContexts([], [], [], np.concatenate([r.X for r in rounds])), bounds, bounds, unused, unused)
        one, many = RunningScaler(), RunningScaler()
        scale_rounds(batch, many)
        for raw, got in zip(rounds, batch.rounds()):
            assert got.X.tobytes() == scale_round(raw, one).X.tobytes()
        assert one.count == many.count == 11
        assert one.mean().tobytes() == many.mean().tobytes() and one.std().tobytes() == many.std().tobytes()

    @pytest.mark.parametrize("sizes", [(1, 0, 3, 2, 5), (0, 2, 9, 0, 1, 17, 12, 9, 2, 0), (0, 0)])
    @pytest.mark.parametrize("warm", [0, 1, 6])
    def test_scale_rounds_sums_each_round_in_row_order(self, rng, sizes, warm):
        # Magnitudes 1e-8..1e8 make a sum's order show in its last bits, in
        # rounds of more than 8 rows too, where a pairwise sum would differ;
        # signed zeros, and a column of -0.0 only, show the sign a sum
        # starts from.
        rounds = []
        for n in sizes:
            rows = rng.normal(size=(n, N_FEATURES)) * 10.0 ** rng.integers(-8, 9, size=(n, N_FEATURES))
            rows[rng.random((n, N_FEATURES)) < 0.15] = 0.0
            rows[rng.random((n, N_FEATURES)) < 0.15] = -0.0
            rows[:, 0] = 1.0
            rows[:, 7] = -0.0
            rounds.append(RoundContexts([f"o{i}" for i in range(n)], ["c"] * n, [1] * n, rows))
        bounds = np.cumsum([0] + [len(r.X) for r in rounds])
        unused = np.zeros(bounds[-1])  # the share and mf columns, which scale_rounds does not read
        batch = RoundBatch(RoundContexts([], [], [], np.concatenate([r.X for r in rounds])), bounds, bounds, unused, unused)
        warmup = rng.normal(size=(warm, N_FEATURES))
        one, many = RunningScaler(), RunningScaler()
        one.update(warmup)
        many.update(warmup)
        scale_rounds(batch, many)
        for raw, got in zip(rounds, batch.rounds()):
            assert got.X.tobytes() == scale_round(raw, one).X.tobytes()
        assert one.count == many.count == warm + sum(sizes)
        assert one._mean.tobytes() == many._mean.tobytes() and one._m2.tobytes() == many._m2.tobytes()

    def test_scale_round_updates_once_then_transforms_the_batch(self, rng):
        offers = {f"o{i}": {c: rng.normal(size=N_FEATURES) for c in ("b", "a")} for i in range(3)}
        raw = RoundContexts.stack(offers)
        assert raw.categories == ["a", "b"] * 3
        np.testing.assert_array_equal(raw.X[1], offers["o0"]["b"])
        scaler = RunningScaler()
        scaled = scale_round(raw, scaler)
        assert scaler.count == 6
        np.testing.assert_array_equal(scaled.X, scaler.transform(raw.X))


class TestRunningScaler:
    def test_identity_before_two_samples(self):
        scaler = RunningScaler()
        x = np.arange(9, dtype=float)
        x[0] = 1.0
        stack = np.stack([x, 2 * x])
        np.testing.assert_array_equal(scaler.transform(x), x)
        np.testing.assert_array_equal(scaler.transform(stack), stack)
        scaler.update(x)
        np.testing.assert_array_equal(scaler.transform(x), x)
        np.testing.assert_array_equal(scaler.transform(stack), stack)

    @pytest.mark.parametrize("batch", [1, 2, 50])
    def test_stacked_updates_match_row_by_row(self, rng, batch):
        rows = rng.normal(0.0, 1.0, size=(300, 9)) * np.arange(1, 10) + np.linspace(-50.0, 400.0, 9)
        stacked, single = RunningScaler(), RunningScaler()
        for i in range(0, len(rows), batch):
            stacked.update(rows[i:i + batch])
            for row in rows[i:i + batch]:
                single.update(row)
            assert stacked.count == single.count
            np.testing.assert_allclose(stacked.mean(), single.mean(), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(stacked.std(), single.std(), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(stacked.transform(rows[i]), single.transform(rows[i]), rtol=1e-12, atol=1e-12)

    def test_empty_batch_is_a_no_op(self):
        scaler = RunningScaler()
        scaler.update(np.zeros((0, N_FEATURES)))
        assert scaler.count == 0
        np.testing.assert_array_equal(scaler.mean(), np.zeros(N_FEATURES))

    def test_matches_batch_mean_and_std(self, rng):
        scaler = RunningScaler()
        samples = rng.normal(3.0, 2.5, size=(5000, 9))
        samples[:, 0] = 1.0
        for row in samples:
            scaler.update(row)
        np.testing.assert_allclose(scaler.mean(), samples.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(
            scaler.std()[1:], samples.std(axis=0, ddof=1)[1:], rtol=1e-10
        )

    def test_transform_is_zscore_with_bias_passthrough(self, rng):
        scaler = RunningScaler()
        samples = rng.uniform(-4.0, 9.0, size=(400, 9))
        samples[:, 0] = 1.0
        for row in samples:
            scaler.update(row)
        x = samples[17]
        out = scaler.transform(x)
        expected = (x - samples.mean(axis=0)) / np.maximum(
            samples.std(axis=0, ddof=1), RunningScaler.STD_FLOOR
        )
        assert out[0] == 1.0
        np.testing.assert_allclose(out[1:], expected[1:], rtol=1e-9)

    def test_constant_feature_transforms_to_zero_not_inf(self):
        scaler = RunningScaler()
        x = np.ones(9) * 7.0
        x[0] = 1.0
        for _ in range(10):
            scaler.update(x)
        out = scaler.transform(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-9)

    def test_normalized_stream_has_unit_scale(self, rng):
        scaler = RunningScaler()
        samples = rng.normal(50.0, 12.0, size=(20000, 9))
        samples[:, 0] = 1.0
        transformed = []
        for row in samples:
            scaler.update(row)
        for row in samples[-5000:]:
            transformed.append(scaler.transform(row))
        transformed = np.array(transformed)
        assert abs(transformed[:, 3].mean()) < 0.05
        assert abs(transformed[:, 3].std() - 1.0) < 0.05


class TestMemberStatsIndex:
    def tx(self, member, category, brand, day):
        return member, category, brand, day

    def base_rows(self):
        d0 = date(2024, 1, 1)
        return [
            self.tx("m1", "catA", "bA", d0),
            self.tx("m1", "catA", "bA", d0 + timedelta(days=10)),
            self.tx("m1", "catA", "bB", d0 + timedelta(days=30)),
            self.tx("m2", "catA", "bA", d0 + timedelta(days=4)),
            self.tx("m3", "catB", "bC", d0),
        ]

    def test_pair_cycle_is_median_gap(self):
        index = MemberStatsIndex(transaction_log(self.base_rows()))
        # Gaps for (m1, catA) are 10 and 20 days.
        assert index.cycle_length("m1", "catA") == 15.0

    def test_falls_back_to_category_then_default(self):
        index = MemberStatsIndex(transaction_log(self.base_rows()), default_cycle_days=45.0)
        assert index.cycle_length("m2", "catA") == 15.0  # category median
        assert index.cycle_length("m3", "catB") == 45.0  # no gaps anywhere
        assert index.cycle_length("mX", "catZ") == 45.0

    def test_last_purchase_resolved_as_of_date(self):
        index = MemberStatsIndex(transaction_log(self.base_rows()))
        d0 = date(2024, 1, 1)
        assert index.stats("m1", "catA", d0 - timedelta(days=1)).last_purchase_date is None
        assert index.stats("m1", "catA", d0).last_purchase_date == d0
        assert index.stats("m1", "catA", d0 + timedelta(days=15)).last_purchase_date == d0 + timedelta(days=10)
        assert index.stats("m1", "catA", date(2025, 1, 1)).last_purchase_date == d0 + timedelta(days=30)

    def test_same_day_repeat_purchases_do_not_create_zero_gaps(self):
        d0 = date(2024, 1, 1)
        rows = [
            self.tx("m1", "catA", "bA", d0),
            self.tx("m1", "catA", "bA", d0),
            self.tx("m1", "catA", "bA", d0 + timedelta(days=8)),
        ]
        assert MemberStatsIndex(transaction_log(rows)).cycle_length("m1", "catA") == 8.0

    def test_brand_counts_feed_loyalty(self):
        index = MemberStatsIndex(transaction_log(self.base_rows()))
        s = index.stats("m1", "catA", date(2025, 1, 1))
        assert compute_brand_loyalty("bA", s) == pytest.approx(2 / 3)
        assert compute_brand_loyalty("bB", s) == pytest.approx(1 / 3)

    def test_empty_log(self):
        log = transaction_log([])
        assert len(log) == 0 and log.members == log.categories == log.brands == []
        index = MemberStatsIndex(log, default_cycle_days=12.0)
        assert index.cycle_length("m1", "catA") == 12.0
        s = index.stats("m1", "catA", date(2024, 1, 1))
        assert s.last_purchase_date is None and s.brand_counts == {} and s.cycle_length == 12.0
        assert build_seasonality_profile(log).score("catA", date(2024, 1, 1)) == 0.0

    def test_nonpositive_default_cycle_rejected(self):
        with pytest.raises(ConfigError):
            MemberStatsIndex(transaction_log([]), default_cycle_days=0.0)
