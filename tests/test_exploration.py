import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offerbandit.bandit import LearnerConfig, ModelStore
from offerbandit.baselines import CambPolicy
from offerbandit.errors import ConfigError
from offerbandit.features import N_FEATURES
from offerbandit.exploration import (
    ExplorationConfig,
    kappa_at,
    sample_beta,
    sample_score,
    sample_scores,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExplorationConfig(kappa_initial=0.0)
        with pytest.raises(ConfigError):
            ExplorationConfig(kappa_schedule="exponential")
        with pytest.raises(ConfigError):
            ExplorationConfig(kappa_growth_rate=-0.1)
        with pytest.raises(ConfigError):
            ExplorationConfig(probability_clamp=0.5)
        with pytest.raises(ConfigError):
            ExplorationConfig(probability_clamp=0.0)


class TestSchedule:
    def test_constant(self):
        cfg = ExplorationConfig(kappa_initial=7.0)
        assert kappa_at(0, cfg) == 7.0
        assert kappa_at(10_000, cfg) == 7.0

    def test_linear_growth(self):
        cfg = ExplorationConfig(
            kappa_initial=5.0, kappa_schedule="linear_growth", kappa_growth_rate=0.01
        )
        assert kappa_at(0, cfg) == 5.0
        assert kappa_at(100, cfg) == pytest.approx(10.0, rel=1e-12)
        assert kappa_at(300, cfg) == pytest.approx(20.0, rel=1e-12)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            kappa_at(-1, ExplorationConfig())

    @given(st.integers(0, 10**6))
    def test_growth_is_monotone(self, t):
        cfg = ExplorationConfig(
            kappa_initial=2.0, kappa_schedule="linear_growth", kappa_growth_rate=0.5
        )
        assert kappa_at(t + 1, cfg) > kappa_at(t, cfg)


class TestSampling:
    def test_mean_and_variance_match_beta_moments(self):
        rng = np.random.default_rng(42)
        p, kappa = 0.3, 10.0
        draws = np.array([sample_score(p, kappa, rng) for _ in range(20_000)])
        assert abs(draws.mean() - p) < 0.01
        theory = p * (1 - p) / (kappa + 1)
        assert abs(draws.var(ddof=1) - theory) < 0.15 * theory

    def test_doubling_kappa_plus_one_halves_variance(self):
        # Var = p(1-p)/(kappa+1), so kappa 10 -> 21 halves it exactly.
        rng = np.random.default_rng(1)
        a = np.array([sample_score(0.5, 10.0, rng) for _ in range(50_000)])
        b = np.array([sample_score(0.5, 21.0, rng) for _ in range(50_000)])
        assert b.var(ddof=1) / a.var(ddof=1) == pytest.approx(0.5, abs=0.05)

    def test_extreme_probabilities_clamped_before_draw(self, rng):
        # The clamp keeps both Beta parameters strictly positive, so the
        # draw never errors even for p outside [0, 1]. Tiny parameters can
        # still underflow to an exact 0.0 or 1.0 draw, which only ranks.
        for p in (0.0, 1.0, -0.5, 2.0):
            s = sample_score(p, 5.0, rng)
            assert 0.0 <= s <= 1.0

    def test_nonpositive_kappa_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_score(0.5, 0.0, rng)

    @given(st.floats(0.0, 1.0), st.floats(0.01, 1e6), st.integers(0, 2**32 - 1))
    def test_draws_stay_in_unit_interval(self, p, kappa, seed):
        rng = np.random.default_rng(seed)
        assert 0.0 <= sample_score(p, kappa, rng) <= 1.0

    def test_draw_order_fixed_by_offer_id(self):
        probs = {"oB": 0.5, "oA": 0.5, "oC": 0.5}
        a = sample_scores(probs, 5.0, np.random.default_rng(3))
        b = sample_scores(dict(reversed(list(probs.items()))), 5.0, np.random.default_rng(3))
        assert a == b


@pytest.fixture
def camb_ranker(as_round, candidate_factory):
    """rank(probs, kappa) returns a function of rng giving CambPolicy's
    order for one round of single-category offers whose clip
    probabilities are probs: with zero weights every category predicts
    1/2, so an mf score of logit(p) makes the offer's probability p."""

    def rank(probs, kappa):
        policy = CambPolicy(ModelStore(), LearnerConfig(), ExplorationConfig(kappa_initial=kappa))
        offers = as_round([candidate_factory(oid, np.zeros(N_FEATURES), mf_score=math.log(p / (1 - p)))
                           for oid, p in probs.items()])
        return lambda rng: policy.select(offers, rng, 1).order

    return rank


class TestRanking:
    def test_huge_kappa_recovers_greedy_order(self, camb_ranker):
        rank = camb_ranker({"o1": 0.15, "o2": 0.85, "o3": 0.45, "o4": 0.65}, 1e8)
        for seed in range(100):
            assert rank(np.random.default_rng(seed)) == ["o2", "o4", "o3", "o1"]

    def test_small_kappa_occasionally_reorders(self, camb_ranker):
        rank = camb_ranker({"o1": 0.3, "o2": 0.6}, 1.0)
        rng = np.random.default_rng(0)
        tops = {rank(rng)[0] for _ in range(200)}
        assert tops == {"o1", "o2"}

    def test_higher_probability_wins_more_often(self, camb_ranker):
        probs = {"lo": 0.2, "mid": 0.5, "hi": 0.8}
        rank = camb_ranker(probs, 5.0)
        rng = np.random.default_rng(7)
        wins = {oid: 0 for oid in probs}
        for _ in range(4000):
            wins[rank(rng)[0]] += 1
        assert wins["hi"] > wins["mid"] > wins["lo"]

    def test_same_seed_reproduces_rankings(self, camb_ranker):
        rank = camb_ranker({"o1": 0.4, "o2": 0.5, "o3": 0.6}, 3.0)
        assert rank(np.random.default_rng(11)) == rank(np.random.default_rng(11))
        assert len({tuple(rank(np.random.default_rng(seed))) for seed in range(20)}) > 1

    def test_sampled_scores_concentrate_at_huge_kappa(self, rng):
        probs = {"o1": 0.37}
        sampled = sample_scores(probs, 1e8, rng)
        assert sampled["o1"] == pytest.approx(0.37, abs=1e-3)


class TestSampleBeta:
    @pytest.mark.parametrize("n", [1, 5, 31, 150])
    def test_one_call_equals_sample_scores_bit_for_bit(self, n):
        probs = np.random.default_rng(n).uniform(0.0, 1.0, n)
        probs[::7] = 0.0  # clamped up
        probs[1::9] = 1.0  # clamped down
        ids = sorted(f"o{k}" for k in range(n))
        for kappa in (0.5, 10.0, 1e6):
            array_rng, scalar_rng = np.random.default_rng(42), np.random.default_rng(42)
            draws = sample_beta(probs.tolist(), kappa, array_rng, 1e-3)
            expected = sample_scores(dict(zip(ids, probs.tolist())), kappa, scalar_rng, 1e-3)
            assert draws == [expected[oid] for oid in ids]
            assert array_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_scalar_draws_equal_numpy_array_call(self, n):
        clamp = 1e-4
        rng = np.random.default_rng(n)
        for p in (
            rng.uniform(0.0, 1.0, n),
            np.full(n, clamp),  # at the lower clamp
            np.full(n, 1.0 - clamp),  # at the upper clamp
            np.resize([clamp, 1.0 - clamp, 0.5], n),
        ):
            for kappa in (0.5, 10.0, 1e6):
                ours, numpys = np.random.default_rng(7), np.random.default_rng(7)
                draws = sample_beta(p.tolist(), kappa, ours, clamp)
                assert draws == numpys.beta(kappa * p, kappa * (1.0 - p)).tolist()
                assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_entries_past_the_clamps_draw_as_the_clamps(self, n):
        clamp = 1e-3
        p = np.resize([0.0, 1.0, -0.5, 2.0, 0.3], n)
        ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
        clamped = np.clip(p, clamp, 1.0 - clamp)
        assert sample_beta(p.tolist(), 4.0, ours, clamp) == numpys.beta(4.0 * clamped, 4.0 * (1.0 - clamped)).tolist()
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_nonpositive_kappa_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_beta([0.5], 0.0, rng)
